"""Circuit netlist: wires, gate instances, and wire classification.

A circuit is a set of named wires plus gates whose legs bind to wires.  Every
wire is a segment with two ends; each end is either attached to a gate leg or
open at the circuit boundary.  Directed legs claim ends (an output leg
produces, an input leg consumes), control legs tap a wire anywhere along it,
and symmetric legs fill whichever ends are still open — extra symmetric
legs act as taps.

A wire is *external* when at least one of its ends is at the boundary: either
declared (``in``/``out``, with or without a pinned bit) or left unfilled by
gate legs.  External wire values come from the boundary; internal wires take
both values, one assignment per history.

``_boundary`` is the one home of this rule: a count of each wire's legs by
role.  What the netlist alone fixes (those wires, ``Circuit.ends``, the
history-sum plans and the dense schedule) is derived once per circuit into
one table of ``Derived`` records, kept for the last ``RECORDS_KEPT``
circuits asked.  Pinned bits stay on the ``Wire``, and ``interface`` names
the unpinned boundary ends, the ones a query binds.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import UnboundWire, ValidationError
from .gates import BUILTIN, GateDef


# Wire and GateInstance write their __init__ by hand rather than through a
# generated one plus __post_init__: loading a file builds one of each per
# gate, and setting each field once is the larger share of that.  Each field
# is set through its slot's own setter, which skips the frozen __setattr__
# as object.__setattr__ does, without looking the field up by name per call.

def _setters(cls) -> tuple:
    return tuple(cls.__dict__[f].__set__ for f in cls.__slots__)


@dataclass(frozen=True, slots=True, init=False)
class Wire:
    name: str
    in_bound: bool          # begins at the circuit boundary
    in_value: int | None    # pinned input bit, if any
    out_bound: bool
    out_value: int | None

    def __init__(self, name: str, in_bound: bool = False, in_value: int | None = None,
                 out_bound: bool = False, out_value: int | None = None):
        if in_value is not None or out_value is not None:
            if in_value not in (None, 0, 1) or out_value not in (None, 0, 1):
                raise ValidationError(f"wire {name}: a pinned bit must be 0 or 1, "
                                      f"got in={in_value!r} out={out_value!r}")
            if in_value is not None and not in_bound:
                in_bound = True
            if out_value is not None and not out_bound:
                out_bound = True
        _set_name(self, name)
        _set_in_bound(self, in_bound)
        _set_in_value(self, in_value)
        _set_out_bound(self, out_bound)
        _set_out_value(self, out_value)


_set_name, _set_in_bound, _set_in_value, _set_out_bound, _set_out_value = _setters(Wire)


# One shared tuple per complement pattern: most gates read no wire
# complemented, and n legs allow at most 2^n patterns.  The default, no leg
# complemented, is looked up by leg count.
_NEGS: dict[tuple[bool, ...], tuple[bool, ...]] = {}
_PLAIN: dict[int, tuple[bool, ...]] = {}


@dataclass(frozen=True, slots=True, init=False)
class GateInstance:
    gate: GateDef
    wires: tuple[str, ...]
    negs: tuple[bool, ...]   # per-leg complemented reads (from NOT-merges)

    def __init__(self, gate: GateDef, wires: tuple[str, ...], negs: tuple[bool, ...] = ()):
        n = len(gate.legs)
        if len(wires) != n:
            raise ValidationError(f"gate {gate.name} has {n} legs, got {len(wires)} wires")
        if not negs:
            shared = _PLAIN.get(n)
            if shared is None:
                shared = _PLAIN[n] = _NEGS.setdefault((False,) * n, (False,) * n)
        elif len(negs) != n:
            raise ValidationError("negation flags must match leg count")
        else:
            shared = _NEGS.setdefault(negs, negs)
        _set_gate(self, gate)
        _set_wires(self, wires)
        _set_negs(self, shared)


_set_gate, _set_wires, _set_negs = _setters(GateInstance)


@dataclass(frozen=True)
class WireEnds:
    """Which ends of one wire are at the circuit boundary."""
    in_boundary: bool
    out_boundary: bool

    @property
    def internal(self) -> bool:
        return not (self.in_boundary or self.out_boundary)


_ENDS = {(i, o): WireEnds(i, o) for i in (False, True) for o in (False, True)}


@dataclass(slots=True, eq=False)
class Derived:
    """What one circuit's netlist fixes, each part made when first asked
    for.  It holds no reference to its circuit, so it dies with it."""
    ins: tuple[Wire, ...]
    outs: tuple[Wire, ...]
    ends: Mapping[str, WireEnds] | None = None
    plans: dict | None = None           # engine._plan, per set of open ends
    schedule: object = None             # statevector.sequential_order


_DERIVED = weakref.WeakKeyDictionary()   # Circuit -> Derived, least recently asked first
# A program may keep thousands of circuits alive (the rewrite benchmark keeps
# every answer); only the records of the circuits asked last stay.  The
# benchmark's working sets are 32 (wide-sum) and 28 (many-queries) circuits.
RECORDS_KEPT = 64


def derived(c: Circuit) -> Derived:
    """``c``'s record, made on its first call and kept while ``c`` lives
    and is among the last ``RECORDS_KEPT`` circuits asked; each call makes
    it the most recently asked."""
    rec = _DERIVED.pop(c, None)
    if rec is None:
        if len(_DERIVED) >= RECORDS_KEPT:
            del _DERIVED[next(iter(_DERIVED))]  # the least recently asked
        rec = Derived(*_boundary(c))
    _DERIVED[c] = rec
    return rec


class Circuit:
    """Immutable-by-convention netlist.  Wires keep declaration order, which
    fixes bit significance everywhere (first declared = most significant)."""

    def __init__(self, wires: Sequence[Wire], gates: Sequence[GateInstance],
                 norm_shift: int = 0):
        self.wires: tuple[Wire, ...] = tuple(wires)
        self.gates: tuple[GateInstance, ...] = tuple(gates)
        self.norm_shift = int(norm_shift)
        names = [w.name for w in self.wires]
        declared = set(names)
        if len(declared) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate wire declaration: {', '.join(dup)}")
        for g in self.gates:
            if not declared.issuperset(g.wires):
                wname = next(w for w in g.wires if w not in declared)
                raise ValidationError(f"gate {g.gate.name} bound to undeclared wire {wname}")

    def replace(self, wires=None, gates=None, norm_shift=None) -> "Circuit":
        return Circuit(self.wires if wires is None else wires,
                       self.gates if gates is None else gates,
                       self.norm_shift if norm_shift is None else norm_shift)

    @property
    def total_norm_exponent(self) -> int:
        return self.norm_shift + sum(g.gate.norm_exponent for g in self.gates)

    @property
    def input_wires(self) -> tuple[Wire, ...]:
        """Wires with a boundary begin end, declaration order."""
        return derived(self).ins

    @property
    def output_wires(self) -> tuple[Wire, ...]:
        return derived(self).outs

    @property
    def ends(self) -> Mapping[str, WireEnds]:
        """Boundary flags per wire name, read-only, built when first asked
        for and kept in the circuit's ``Derived`` record."""
        rec = derived(self)
        if rec.ends is None:
            begin = {w.name for w in rec.ins}
            end = {w.name for w in rec.outs}
            rec.ends = MappingProxyType({w.name: _ENDS[w.name in begin, w.name in end]
                                         for w in self.wires})
        return rec.ends

    def structural_key(self):
        return (tuple((w.name, w.in_bound, w.in_value, w.out_bound, w.out_value)
                      for w in self.wires),
                tuple((g.gate.structural_key(), g.wires, g.negs) for g in self.gates),
                self.norm_shift)


def _boundary(c: Circuit) -> tuple[tuple[Wire, ...], tuple[Wire, ...]]:
    """``c``'s input and output wires.  A wire's begin end is at the
    boundary when declared or when it has no output and no symmetric leg;
    without an output leg or a declared begin, one symmetric leg fills it.
    Its end end is at the boundary when declared or when it has no input
    leg and no symmetric leg remains."""
    legs = {w.name: [0, 0, 0, 0] for w in c.wires}   # IN, OUT, CTRL, SYM (GateDef.role_index)
    for g in c.gates:
        for wname, role in zip(g.wires, g.gate.role_index):
            legs[wname][role] += 1
    ins, outs = [], []
    for w in c.wires:
        n_in, n_out, _, n_sym = legs[w.name]
        if w.in_bound or not (n_out or n_sym):
            ins.append(w)
        elif not n_out:
            n_sym -= 1
        if w.out_bound or not (n_in or n_sym):
            outs.append(w)
    return tuple(ins), tuple(outs)


def classify_wires(c: Circuit) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition wire names into (internal, external), each in declaration
    order.  Internal wires have both ends on gate legs; external wires touch
    the circuit boundary somewhere."""
    ext = {w.name for w in c.input_wires}.union(w.name for w in c.output_wires)
    internal, external = [], []
    for w in c.wires:
        (external if w.name in ext else internal).append(w.name)
    return tuple(internal), tuple(external)


def interface(c: Circuit) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The free boundary ends, in declaration order: (inputs, outputs)."""
    ins = tuple(w.name for w in c.input_wires if w.in_value is None)
    outs = tuple(w.name for w in c.output_wires if w.out_value is None)
    return ins, outs


def end_claims(c: Circuit) -> tuple[dict[str, int], dict[str, int]]:
    """Per wire, its (producers, consumers): its declared begin and end ends
    plus the gate output and input legs on it.  A gate schedule needs at most
    one of each; ``validate``, ``statevector.sequential_order`` and short-xor
    merges read this one count, made on each call and never kept."""
    produced = {w.name: w.in_bound for w in c.wires}    # a bool counts as 0 or 1
    consumed = {w.name: w.out_bound for w in c.wires}
    for g in c.gates:
        ws = g.wires
        for li in g.gate.out_legs:
            produced[ws[li]] += 1
        for li in g.gate.in_legs:
            consumed[ws[li]] += 1
    return produced, consumed


def validate(c: Circuit) -> list[str]:
    """Structural diagnostics; an empty list means the circuit is well formed."""
    diags: list[str] = []
    produced, consumed = end_claims(c)
    for w in c.wires:
        if produced[w.name] > 1:
            diags.append(f"wire {w.name}: more than one producer"
                         + (" (boundary binding plus gate output)" if w.in_bound else ""))
        if consumed[w.name] > 1:
            diags.append(f"wire {w.name}: more than one consumer"
                         + (" (boundary binding plus gate input)" if w.out_bound else ""))
    for gi, g in enumerate(c.gates):
        if g.gate.fault:
            diags.append(f"gate {gi} ({g.gate.name}): {g.gate.fault}")
    return diags


def gate_factor(g: GateInstance, history: Mapping[str, int]) -> complex:
    """Listed tensor entry selected by the wire values this gate reads.

    The gate's normalization exponent is bookkept separately; structural zeros
    reject the history outright.
    """
    idx = tuple(int(history[w]) ^ int(n) for w, n in zip(g.wires, g.negs))
    return complex(g.gate.entries[idx])


@dataclass(frozen=True, slots=True)
class Amplitude:
    """Sum of listed history products plus the circuit's normalization
    exponent.  ``resolved()`` applies the single 2^(-K/2) scaling."""
    value: complex
    norm_exponent: int

    def resolved(self) -> complex:
        k = self.norm_exponent
        s = math.ldexp(1.0, -(k // 2))
        if k % 2:
            s *= math.sqrt(0.5)
        return self.value * s


@dataclass(frozen=True)
class BoundaryAssignment:
    """Bits supplied at boundary ends: wire name -> bit, per end."""
    in_bits: Mapping[str, int] = field(default_factory=dict)
    out_bits: Mapping[str, int] = field(default_factory=dict)


def resolve_boundary(c: Circuit, b: BoundaryAssignment) -> dict[str, int] | None:
    """Combine pinned and supplied bits into one value per external wire.

    Returns None when some wire receives two different values — every history
    is then rejected and the amplitude is exactly zero.  Raises UnboundWire if
    a boundary end has no value from either source, and ValidationError for a
    supplied bit other than 0 or 1.
    """
    return resolve_ends(c, b, ())


def resolve_ends(c: Circuit, b: BoundaryAssignment,
                 opened: tuple[tuple[str, str], ...]) -> dict[str, int] | None:
    """``resolve_boundary`` with the ``opened`` (side, wire) ends left open:
    not missing, and giving their wire no value."""
    ins = {w.name for w in c.input_wires}
    outs = {w.name for w in c.output_wires}
    for side, bits, ends in (("input", b.in_bits, ins), ("output", b.out_bits, outs)):
        for name, bit in bits.items():
            if name not in ends:
                if name not in ins and name not in outs and all(w.name != name for w in c.wires):
                    raise UnboundWire(f"no wire named {name}")
                raise ValidationError(f"wire {name} has no boundary {side} end")
            if bit not in (0, 1):
                raise ValidationError(f"{side} bit for wire {name} must be 0 or 1, got {bit!r}")
    values: dict[str, int] = {}
    conflict = False
    missing: list[str] = []
    for w in c.wires:
        got: list[int] = []
        for side, at_boundary, bits, pin in (("in", w.name in ins, b.in_bits, w.in_value),
                                             ("out", w.name in outs, b.out_bits, w.out_value)):
            if at_boundary and not (opened and (side, w.name) in opened):
                sources = [int(v) for v in (bits.get(w.name), pin) if v is not None]
                if not sources:
                    missing.append(f"{w.name}:{side}")
                got += sources
        if got:
            conflict |= any(v != got[0] for v in got)
            values[w.name] = got[0]
    if missing:
        raise UnboundWire("unbound external wire ends: " + ", ".join(missing))
    return None if conflict else values


# ---------------------------------------------------------------------------
# sequential descriptions

@dataclass(frozen=True, slots=True)
class SeqLine:
    name: str
    in_value: int | None = None
    out_value: int | None = None


@dataclass(frozen=True, slots=True)
class SeqOp:
    gate: GateDef
    qubits: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class SeqDescription:
    lines: tuple[SeqLine, ...]
    ops: tuple[SeqOp, ...]
    norm_shift: int = 0


# The built-ins that lowering relabels instead of cutting: the diagonal ones
# (``GateDef.tap``), X, Y and I (``GateDef.flip``) and SWAP.
_RELABELS = frozenset(n for n, d in BUILTIN.items() if d.tap or d.flip) | {"SWAP"}


def _clash_names(made: dict[str, int]) -> dict[tuple[str, int], str]:
    """The segment names that are not plain ``q<k>``, by (line, number),
    given ``made``, each line's count of numbers when lowering's walk ends.

    Line q uses one number for its input wire and one for each gate that
    maps it, a gate that cuts nothing included, so every segment keeps the
    name a cut there would have given it.  Two lines share a plain name
    only when one line's name is the other's plus digits (line ``q1`` cut
    ten times and line ``q11`` both give ``q110``); each then takes
    ``q_<k>`` instead, with as many underscores as it takes to be unique.
    Empty when no two lines can share a name."""
    if not any(q[:i] in made for q in made for i in range(len(q.rstrip("0123456789")), len(q))):
        return {}
    counts = Counter(f"{q}{k}" for q, n in made.items() for k in range(n))
    taken = set(counts)
    alt: dict[tuple[str, int], str] = {}
    for q, n in made.items():
        for k in range(n):
            if counts[f"{q}{k}"] > 1:
                sep = "_"
                while (name := f"{q}{sep}{k}") in taken:
                    sep += "_"
                taken.add(name)
                alt[q, k] = name
    return alt


def lower_sequential(desc: SeqDescription) -> Circuit:
    """Cut each qubit line into wire segments at the gates that map it.

    Control and symmetric legs read the current segment without cutting it.
    Only gates that mix basis states cut.  The others keep the line's
    segment and cost no wire:

    * a diagonal built-in (Z, S, T, CZ, CCZ) changes no bit, so it lowers to
      ``GateDef.tap``, one phase gate on the current segment of each line it
      names, exactly as a ``phase`` line would;
    * X flips a pending complement on its line: every later leg that reads
      the segment reads it complemented (``~b3`` in a net file), until a
      cut starts a fresh segment;
    * Y = i*X*Z lowers to PHASE(pi) on the segment, read through the
      pending complement, and a 0-leg PHASE(pi/2), then flips like X
      (``GateDef.flip``); I lowers to nothing;
    * SWAP trades the two lines' segments and pending complements.

    Each gate that maps a line uses up the line's next segment number, so a
    segment keeps the number a cut there would have given it.  At the end,
    a line with a pending complement gets one real X, and a line that holds
    another line's uncut input wire gets one real I: with no cut between
    them, no wire order keeps both the input ends and the output ends in
    line order.  An output end cut on another line and swapped over takes
    its own line's last number, so every end belongs to its line.

    The walk numbers segments; names are given once, after it: segment k of
    line q is ``q<k>`` (see ``_clash_names`` for the rare clash).  Wires are
    declared per line: the chain of segments that starts on it, then its
    output end.  A gate that maps a line names no line twice (read as a
    cut, its second read would see its own output); symmetric taps may
    repeat one.
    """
    made: dict[str, int] = {}           # line -> segment numbers used so far
    for ln in desc.lines:
        if ln.name in made:
            raise ValidationError("duplicate qubit line")
        made[ln.name] = 1
    segs: list[tuple[str, int]] = []    # segment id -> (line, number)
    chains: dict[str, list[int]] = {}   # line -> the segments that start on it
    held: dict[str, list[int]] = {}     # line -> the chain it carries now
    flipped: dict[str, bool] = {}       # line -> its segment reads complemented
    for q in made:
        chains[q] = held[q] = [len(segs)]
        segs.append((q, 0))
        flipped[q] = False
    recs: list[tuple[GateDef, Sequence[int], tuple[bool, ...]]] = []   # gate, ids, negs
    for op in desc.ops:
        g, qs = op.gate, op.qubits
        for q in qs:
            if q not in made:
                raise ValidationError(f"gate {g.name} names unknown line {q}")
        slots = g.qubit_slots
        if len(slots) != len(qs):
            raise ValidationError(f"gate {g.name} takes {len(slots)} qubits, got {len(qs)}")
        if g.cuts_line and len(qs) > 1 and len(set(qs)) < len(qs):
            raise ValidationError(f"gate {g.name} names one line twice")
        if g.builtin_name in _RELABELS:
            if g.tap is not None:
                made[qs[-1]] += 1           # a diagonal built-in's target is its last qubit
                negs = tuple(map(flipped.__getitem__, qs))
                recs.append((g.tap, [held[q][-1] for q in qs], negs if True in negs else ()))
            elif g.flip is not None:
                q = qs[0]
                made[q] += 1
                flips, phases = g.flip
                for p in phases:            # Y's: one on the line, one global
                    recs.append((p, (held[q][-1],) * p.n_legs,
                                 (flipped[q],) * p.n_legs if flipped[q] else ()))
                flipped[q] ^= flips
            else:                           # SWAP
                a, b = qs
                made[a] += 1
                made[b] += 1
                held[a], held[b] = held[b], held[a]
                flipped[a], flipped[b] = flipped[b], flipped[a]
            continue
        wires: list = [None] * len(g.legs)
        negs = None
        for slot, q in zip(slots, qs):
            line = held[q]
            wires[slot[1]] = line[-1]
            if flipped[q]:
                if negs is None:
                    negs = [False] * len(g.legs)
                negs[slot[1]] = True
            if slot[0] == "pair":
                k = made[q]
                made[q] = k + 1
                seg = len(segs)
                segs.append((q, k))
                line.append(seg)
                wires[slot[2]] = seg
                flipped[q] = False
        recs.append((g, wires, tuple(negs) if negs else ()))
    # the last gate on a line that needs a fix here cut nothing, so the
    # line's last number names no segment yet
    for q, line in held.items():
        end = (q, made[q] - 1)
        if flipped[q] or (len(line) == 1 and line is not chains[q]):
            recs.append((BUILTIN["X" if flipped[q] else "I"], (line[-1], len(segs)), ()))
            line.append(len(segs))
            segs.append(end)
        elif len(line) > 1 and segs[line[-1]][0] != q:
            segs[line[-1]] = end

    names = [f"{q}{k}" for q, k in segs]
    alt = _clash_names(made)
    if alt:
        names = [alt.get(s, name) for s, name in zip(segs, names)]
    name = names.__getitem__
    gates = [GateInstance(g, tuple(map(name, ids)), negs) for g, ids, negs in recs]
    out: list[Wire] = []
    # a line both starts and ends at the boundary even if gates cut it in
    # between; a chain never cut is one wire with both flags
    for ln in desc.lines:
        first, *mid = chains[ln.name]
        if not mid:
            out.append(Wire(name(first), True, ln.in_value, True, ln.out_value))
            continue
        out.append(Wire(name(first), True, ln.in_value))
        out.extend(map(Wire, map(name, mid[:-1])))
        out.append(Wire(name(held[ln.name][-1]), False, None, True, ln.out_value))
    return Circuit(out, gates, desc.norm_shift)
