"""Circuit file format, version 1.

Two dialects share a header::

    version 1
    mode net|seq

Net mode declares wires and binds gate legs to them directly::

    wire <name> [in[=0|1]] [out[=0|1]]
    gate <NAME> <wireref>...        # one wireref per leg; ~name reads complemented
    phase <theta> <wireref>...      # 0..4 symmetric legs; theta: 0.25, pi, pi/2, -pi ...
    norm <k>                        # extra normalization exponent (emitted by rewrites)

Seq mode declares qubit lines and applies gates in file order::

    qubit <name> [in=0|1] [out=0|1]
    apply <NAME> <qubitname>...     # one name per control plus one per target
    phase <theta> <qubitname>...    # taps the lines without cutting them

``apply`` cuts a line only at a gate that mixes basis states.  A diagonal
built-in (Z, S, T, CZ, CCZ) taps its lines like a ``phase`` line; X flips a
pending complement, which later reads of the segment carry as ``~name`` in
the lowered netlist; Y is that flip after two phase taps; I is nothing; and
SWAP trades two lines' segments.  None of them costs a wire (see
``circuit.lower_sequential``).

Both modes may define custom gates; entries are RE:IM, rows are output bits::

    matrix <NAME> <k>
    <2^k rows of 2^k entries>

``#`` starts a comment.  A bare ``in``/``out`` on a wire marks a boundary end
whose bit arrives with the query rather than being pinned in the file.

Numbers are ASCII: counts are digits only, and angles and entry parts are
decimals with an optional leading ``-`` (no ``+``, no ``_``).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .circuit import (Circuit, GateInstance, SeqDescription, SeqLine, SeqOp,
                      Wire, lower_sequential)
from .errors import ParseError
from .gates import BUILTIN, MAX_PHASE_LEGS, GateDef, Role, matrix_gate, phase_gate

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_DIGITS = re.compile(r"[0-9]+$")
_FLOAT = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|infinity|nan)$",
                    re.IGNORECASE)
_PI_FORM = re.compile(r"(-?)pi(?:/([0-9]+))?$")


def parse_theta(tok: str, lineno: int) -> float:
    m = _PI_FORM.match(tok)
    if m:
        try:
            v = math.pi / int(m.group(2) or 1)
        except (ValueError, OverflowError, ZeroDivisionError):  # 0, or too many digits
            raise ParseError(lineno, f"malformed angle {tok!r}") from None
        return -v if m.group(1) else v
    if not _FLOAT.match(tok):
        raise ParseError(lineno, f"malformed angle {tok!r}")
    theta = float(tok)
    if not math.isfinite(theta):
        raise ParseError(lineno, f"angle {tok!r} is not finite")
    return theta


def _parse_entry(tok: str, lineno: int) -> complex:
    parts = tok.split(":")
    if len(parts) != 2 or not all(_FLOAT.match(p) for p in parts):
        raise ParseError(lineno, f"matrix entry {tok!r} is not RE:IM")
    re_part, im_part = float(parts[0]), float(parts[1])
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ParseError(lineno, f"matrix entry {tok!r} is not finite")
    return complex(re_part, im_part)


def _wire_ref(tok: str, lineno: int) -> tuple[str, bool]:
    neg = tok.startswith("~")
    name = tok[1:] if neg else tok
    if not _NAME.match(name):
        raise ParseError(lineno, f"bad wire name {tok!r}")
    return name, neg


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit file; raises ParseError with a 1-based line number."""
    lines = text.splitlines()
    # (1-based line number, tokens) of each line that is not blank or a comment
    numbered = ((lineno, toks) for lineno, line in enumerate(lines, 1)
                if (toks := line.split("#", 1)[0].split()))

    def next_line() -> tuple[int, list[str]] | None:
        return next(numbered, None)

    got = next_line()
    if got is None or got[1] != ["version", "1"]:
        raise ParseError(got[0] if got else 1, "expected 'version 1' header")
    got = next_line()
    if got is None or got[1][0] != "mode" or len(got[1]) != 2 or got[1][1] not in ("net", "seq"):
        raise ParseError(got[0] if got else 2, "expected 'mode net' or 'mode seq'")
    mode = got[1][1]

    custom: dict[str, GateDef] = {}
    norm_shift = 0

    def lookup_gate(name: str, lineno: int) -> GateDef:
        if name in custom:
            return custom[name]
        if name == "PHASE":
            raise ParseError(lineno, "use the 'phase <theta> ...' directive for phase gates")
        if name in BUILTIN:
            return BUILTIN[name]
        raise ParseError(lineno, f"unknown gate {name}")

    def parse_matrix(toks: list[str], lineno: int):
        if len(toks) != 3:
            raise ParseError(lineno, "usage: matrix <NAME> <k>")
        name = toks[1]
        if not _NAME.match(name):
            raise ParseError(lineno, f"bad gate name {name!r}")
        if name in BUILTIN or name == "PHASE":
            raise ParseError(lineno, f"gate name {name} is reserved")
        if name in custom:
            raise ParseError(lineno, f"gate {name} defined twice")
        if not _DIGITS.match(toks[2]) or toks[2].lstrip("0") not in ("1", "2", "3", "4"):
            raise ParseError(lineno, f"matrix gates take 1..4 qubits, got {toks[2]!r}")
        k = int(toks[2])
        d = 2 ** k
        rows = []
        for _ in range(d):
            got = next_line()
            if got is None:
                raise ParseError(len(lines), f"matrix {name}: expected {d} rows")
            rl, rtoks = got
            if len(rtoks) != d:
                raise ParseError(rl, f"matrix {name}: expected {d} entries per row")
            rows.append([_parse_entry(t, rl) for t in rtoks])
        g = matrix_gate(name, np.array(rows), custom_leg_order=True)
        if g.fault:
            raise ParseError(lineno, f"matrix {name} is {g.fault}")
        custom[name] = g

    def parse_flags(toks: list[str], lineno: int):
        in_b = out_b = False
        in_v = out_v = None
        for t in toks:
            key, _, val = t.partition("=")
            if key == "in":
                in_b = True
                if val:
                    in_v = _bit(val, lineno)
            elif key == "out":
                out_b = True
                if val:
                    out_v = _bit(val, lineno)
            else:
                raise ParseError(lineno, f"unknown wire attribute {t!r}")
        return in_b, in_v, out_b, out_v

    def _bit(val: str, lineno: int) -> int:
        if val not in ("0", "1"):
            raise ParseError(lineno, f"boundary bit must be 0 or 1, got {val!r}")
        return int(val)

    wires: list[Wire] = []
    gates: list[GateInstance] = []
    seq_lines: list[SeqLine] = []
    seq_ops: list[SeqOp] = []
    declared: set[str] = set()

    for lineno, toks in numbered:
        head = toks[0]
        if head == "matrix":
            parse_matrix(toks, lineno)
        elif head == "norm":
            if len(toks) != 2 or not _DIGITS.match(toks[1]):
                raise ParseError(lineno, "usage: norm <k>")
            try:
                norm_shift += int(toks[1])
            except ValueError:  # more digits than int() converts
                raise ParseError(lineno, f"norm exponent has {len(toks[1])} digits") from None
        elif head == "wire":
            if mode != "net":
                raise ParseError(lineno, "'wire' is a net-mode directive")
            if len(toks) < 2 or not _NAME.match(toks[1]):
                raise ParseError(lineno, "usage: wire <name> [in[=b]] [out[=b]]")
            if toks[1] in declared:
                raise ParseError(lineno, f"wire {toks[1]} declared twice")
            declared.add(toks[1])
            in_b, in_v, out_b, out_v = parse_flags(toks[2:], lineno)
            wires.append(Wire(toks[1], in_b, in_v, out_b, out_v))
        elif head == "qubit":
            if mode != "seq":
                raise ParseError(lineno, "'qubit' is a seq-mode directive")
            if len(toks) < 2 or not _NAME.match(toks[1]):
                raise ParseError(lineno, "usage: qubit <name> [in=b] [out=b]")
            if toks[1] in declared:
                raise ParseError(lineno, f"qubit {toks[1]} declared twice")
            declared.add(toks[1])
            in_b, in_v, out_b, out_v = parse_flags(toks[2:], lineno)
            seq_lines.append(SeqLine(toks[1], in_v, out_v))
        elif head == "gate":
            if mode != "net":
                raise ParseError(lineno, "'gate' is a net-mode directive ('apply' in seq mode)")
            if len(toks) < 2:
                raise ParseError(lineno, "usage: gate <NAME> <wire>...")
            g = lookup_gate(toks[1], lineno)
            refs = [_wire_ref(t, lineno) for t in toks[2:]]
            if len(refs) != g.n_legs:
                raise ParseError(lineno, f"gate {g.name} has {g.n_legs} legs, got {len(refs)}")
            for name, _ in refs:
                if name not in declared:
                    raise ParseError(lineno, f"undeclared wire {name}")
            gates.append(GateInstance(g, tuple(n for n, _ in refs),
                                      tuple(neg for _, neg in refs)))
        elif head == "apply":
            if mode != "seq":
                raise ParseError(lineno, "'apply' is a seq-mode directive ('gate' in net mode)")
            if len(toks) < 2:
                raise ParseError(lineno, "usage: apply <NAME> <qubit>...")
            g = lookup_gate(toks[1], lineno)
            if not g.is_sequential:
                raise ParseError(lineno, f"gate {g.name} has no sequential form")
            qs = tuple(toks[2:])
            if len(qs) != len(g.qubit_slots()):
                raise ParseError(lineno, f"gate {g.name} takes {len(g.qubit_slots())} qubits, "
                                         f"got {len(qs)}")
            if not declared.issuperset(qs):
                for q in qs:
                    if q.startswith("~"):
                        raise ParseError(lineno, "complemented reads are a net-mode notation")
                    if q not in declared:
                        raise ParseError(lineno, f"undeclared qubit {q}")
            seq_ops.append(SeqOp(g, qs))
        elif head == "phase":
            if len(toks) < 2:
                raise ParseError(lineno, "usage: phase <theta> [<wire>...]")
            theta = parse_theta(toks[1], lineno)
            refs = [_wire_ref(t, lineno) for t in toks[2:]]
            if len(refs) > MAX_PHASE_LEGS:
                raise ParseError(lineno, f"phase gates take at most {MAX_PHASE_LEGS} legs")
            g = phase_gate(theta, len(refs))
            for name, neg in refs:
                if name not in declared:
                    raise ParseError(lineno, f"undeclared {'wire' if mode == 'net' else 'qubit'} {name}")
            if mode == "net":
                gates.append(GateInstance(g, tuple(n for n, _ in refs),
                                          tuple(neg for _, neg in refs)))
            else:
                if any(neg for _, neg in refs):
                    raise ParseError(lineno, "complemented reads are a net-mode notation")
                seq_ops.append(SeqOp(g, tuple(n for n, _ in refs)))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    if mode == "net":
        return Circuit(wires, gates, norm_shift=norm_shift)
    return lower_sequential(SeqDescription(tuple(seq_lines), tuple(seq_ops), norm_shift))


# ---------------------------------------------------------------------------
# emission

def format_complex(z: complex) -> str:
    z = complex(z)  # numpy scalars repr as np.float64(...) otherwise
    return f"{z.real!r}:{z.imag!r}"


def _format_theta(theta: float) -> str:
    for denom in (1, 2, 4, 8):
        if theta == math.pi / denom:
            return "pi" if denom == 1 else f"pi/{denom}"
        if theta == -math.pi / denom:
            return "-pi" if denom == 1 else f"-pi/{denom}"
    return repr(theta)


def _is_file_matrix(d: GateDef) -> bool:
    """Whether a ``matrix`` block writes ``d`` so that the parser reads it
    back: legs (outputs..., inputs...) on 1..4 qubits, a name free for a
    custom gate, and a unitary matrix."""
    k = d.n_legs // 2
    return (1 <= k <= 4 and d.legs == (Role.OUT,) * k + (Role.IN,) * k
            and bool(_NAME.fullmatch(d.name)) and d.name not in BUILTIN and d.name != "PHASE"
            and d.fault is None)


def emit_circuit(c: Circuit) -> str:
    """Write a circuit back out as a net-mode file.

    Gate-level normalization exponents that the directives cannot carry (a
    rewritten Hadamard keeps its 1/sqrt(2) as ``norm_exponent=1`` on a phase
    gate) are folded into one ``norm`` line; the total exponent, and with it
    every report, is unchanged.  A wire name the parser would refuse, a
    gate that no line writes so that ``parse_circuit`` reads it back
    exactly, or a negative folded ``norm``, raises ``ValueError``.
    """
    out = ["version 1", "mode net"]
    norm = c.norm_shift
    body: list[str] = []
    emitted_custom: dict[str, GateDef] = {}

    ins = {w.name for w in c.input_wires}
    outs = {w.name for w in c.output_wires}
    for w in c.wires:
        if not _NAME.fullmatch(w.name):
            raise ValueError(f"wire name {w.name!r} has no file representation")
        parts = [f"wire {w.name}"]
        if w.name in ins:
            parts.append("in" if w.in_value is None else f"in={w.in_value}")
        if w.name in outs:
            parts.append("out" if w.out_value is None else f"out={w.out_value}")
        body.append(" ".join(parts))

    def ref(name: str, neg: bool) -> str:
        return ("~" if neg else "") + name

    for g in c.gates:
        refs = " ".join(ref(n, neg) for n, neg in zip(g.wires, g.negs))
        d = g.gate
        if d.builtin_name:
            body.append(f"gate {d.name} {refs}".rstrip())
        elif d.is_phase and d.n_legs <= MAX_PHASE_LEGS:
            norm += d.norm_exponent
            body.append(f"phase {_format_theta(d.param)} {refs}".rstrip())
        elif _is_file_matrix(d):
            if d.name not in emitted_custom:
                emitted_custom[d.name] = d
                k = d.n_legs // 2
                out.append(f"matrix {d.name} {k}")
                for row in d.matrix():
                    out.append(" ".join(format_complex(z) for z in row))
            elif emitted_custom[d.name].structural_key() != d.structural_key():
                raise ValueError(f"two distinct gates both named {d.name}")
            norm += d.norm_exponent
            body.append(f"gate {d.name} {refs}")
        else:
            raise ValueError(f"gate {d.name} has no file representation")

    if norm < 0:
        raise ValueError(f"norm {norm} has no file representation")
    if norm:
        body.insert(0, f"norm {norm}")
    return "\n".join(out + body) + "\n"
