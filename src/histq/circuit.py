"""Circuit netlist: wires, gate instances, and wire classification.

A circuit is a set of named wires plus gates whose legs bind to wires.  Every
wire is a segment with two ends; each end is either attached to a gate leg or
open at the circuit boundary.  Directed legs claim ends (an output leg
produces, an input leg consumes), control legs tap a wire anywhere along it,
and symmetric legs fill whichever ends are still open — extra symmetric
attachments act as taps.

A wire is *external* when at least one of its ends is at the boundary: either
declared (``in``/``out``, with or without a pinned bit) or left unfilled by
gate legs.  External wire values come from the boundary; internal wires take
both values, one assignment per history.

``attachments`` is the one home of this rule.  ``Circuit.ends`` keeps only
the boundary flags it implies; pinned bits stay on the ``Wire``, and
``interface`` names the unpinned boundary ends, the ones a query binds.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .errors import UnboundWire, ValidationError
from .gates import GateDef


_set = object.__setattr__   # what a frozen dataclass's own __init__ calls


# Wire and GateInstance write their __init__ by hand rather than through a
# generated one plus __post_init__: loading a file builds one of each per
# gate, and setting each field once is the larger share of that.

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
        _set(self, "name", name)
        _set(self, "in_bound", in_bound)
        _set(self, "in_value", in_value)
        _set(self, "out_bound", out_bound)
        _set(self, "out_value", out_value)


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
        _set(self, "gate", gate)
        _set(self, "wires", wires)
        _set(self, "negs", shared)


@dataclass(frozen=True)
class WireEnds:
    """Which ends of one wire are at the circuit boundary."""
    in_boundary: bool
    out_boundary: bool

    @property
    def internal(self) -> bool:
        return not (self.in_boundary or self.out_boundary)


_ENDS = {(i, o): WireEnds(i, o) for i in (False, True) for o in (False, True)}

Leg = tuple[int, int]   # (gate index, leg index)


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

    @cached_property
    def total_norm_exponent(self) -> int:
        return self.norm_shift + sum(g.gate.norm_exponent for g in self.gates)

    @cached_property
    def ends(self) -> dict[str, WireEnds]:
        """Boundary flags per wire: a declared end, or one no gate leg fills."""
        return {w.name: _ENDS[w.in_bound or producer is None, w.out_bound or consumer is None]
                for w, (producer, consumer, _) in zip(self.wires, attachments(self).values())}

    @cached_property
    def input_wires(self) -> tuple[Wire, ...]:
        """Wires with a boundary begin end, declaration order."""
        return tuple(w for w in self.wires if self.ends[w.name].in_boundary)

    @cached_property
    def output_wires(self) -> tuple[Wire, ...]:
        return tuple(w for w in self.wires if self.ends[w.name].out_boundary)

    def structural_key(self):
        return (tuple((w.name, w.in_bound, w.in_value, w.out_bound, w.out_value)
                      for w in self.wires),
                tuple((g.gate.structural_key(), g.wires, g.negs) for g in self.gates),
                self.norm_shift)


def attachments(c: Circuit) -> dict[str, tuple[Leg | None, Leg | None, tuple[Leg, ...]]]:
    """Each wire's (producer, consumer, taps) as (gate, leg)s: the first output
    leg fills the begin end, the first input leg the end end, symmetric legs
    fill undeclared open ends begin side first, and every other leg taps."""
    # per wire, its legs by role: IN, OUT, CTRL, SYM (GateDef.role_index)
    legs = {w.name: ([], [], [], []) for w in c.wires}
    for gi, g in enumerate(c.gates):
        for li, (wname, role) in enumerate(zip(g.wires, g.gate.role_index)):
            legs[wname][role].append((gi, li))
    out = {}
    for w in c.wires:
        consumers, producers, ctrls, syms = legs[w.name]
        producer = producers[0] if producers else None
        consumer = consumers[0] if consumers else None
        if producer is None and not w.in_bound and syms:
            producer = syms.pop(0)
        if consumer is None and not w.out_bound and syms:
            consumer = syms.pop(0)
        out[w.name] = (producer, consumer,
                       tuple(ctrls + producers[1:] + consumers[1:] + syms))
    return out


def classify_wires(c: Circuit) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition wire names into (internal, external), each in declaration
    order.  Internal wires have both ends on gate legs; external wires touch
    the circuit boundary somewhere."""
    internal, external = [], []
    for w in c.wires:
        (internal if c.ends[w.name].internal else external).append(w.name)
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
    for side, bits in (("input", b.in_bits), ("output", b.out_bits)):
        for name, bit in bits.items():
            e = c.ends.get(name)
            if e is None:
                raise UnboundWire(f"no wire named {name}")
            if not (e.in_boundary if side == "input" else e.out_boundary):
                raise ValidationError(f"wire {name} has no boundary {side} end")
            if bit not in (0, 1):
                raise ValidationError(f"{side} bit for wire {name} must be 0 or 1, got {bit!r}")
    values: dict[str, int] = {}
    conflict = False
    missing: list[str] = []
    for w in c.wires:
        e = c.ends[w.name]
        got: list[int] = []
        for side, at_boundary, bits, pin in (("in", e.in_boundary, b.in_bits, w.in_value),
                                             ("out", e.out_boundary, b.out_bits, w.out_value)):
            if at_boundary:
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


def _rename_clashes(desc: SeqDescription, segs: dict[str, list[str]],
                    made: Mapping[str, int],
                    gates: list[GateInstance]) -> list[GateInstance]:
    """Rename the segment names ``q<k>`` that two lines share (line ``q1``
    cut ten times and line ``q11`` both give ``q110``): each takes ``q_<k>``
    instead, with as many underscores as it takes to be unique, so every
    segment name is distinct.  Line q has used the names ``q0`` up to
    ``q<made[q] - 1>``; a name that a tap skipped counts as used, so the
    segments it left keep the names a cut there would have given them.

    Renames in ``segs`` in place and returns ``gates`` reading the new names.
    A leg's line is the qubit its slot of the lowered gate binds (a tap's
    phase gate has one slot per qubit), and that line's renames map it.
    """
    plain = Counter(f"{q}{k}" for q, n in made.items() for k in range(n))
    if len(plain) == sum(made.values()):
        return gates
    taken = set(plain)
    renames: dict[str, dict[str, str]] = {}
    for q, n in made.items():
        new = renames[q] = {}
        for k in range(n):
            if plain[name := f"{q}{k}"] > 1:
                sep = "_"
                while (alt := f"{q}{sep}{k}") in taken:
                    sep += "_"
                taken.add(alt)
                new[name] = alt
        segs[q] = [new.get(s, s) for s in segs[q]]
    renamed = []
    for op, g in zip(desc.ops, gates):
        wires = list(g.wires)
        for slot, q in zip(g.gate.qubit_slots(), op.qubits):
            for leg in slot[1:]:
                wires[leg] = renames[q].get(wires[leg], wires[leg])
        renamed.append(GateInstance(g.gate, tuple(wires)))
    return renamed


def lower_sequential(desc: SeqDescription) -> Circuit:
    """Cut each qubit line into wire segments at the gates that act on it.

    Segment k of line q is named ``q<k>`` (see ``_rename_clashes`` for the
    rare clash); control and symmetric legs attach to the current segment
    without cutting it.  A diagonal built-in changes no bit, so it does not
    cut its target either: it lowers to ``GateDef.tap``, one phase gate on
    the current segment of each line it names, exactly as a ``phase`` line
    would.  It still uses up its target's next segment number, so every
    segment keeps the name it had when such gates cut the line and
    ``canonicalize`` fused the two pieces.  A gate that cuts a line names no
    line twice (its second read would see its own output); symmetric taps
    may repeat one.
    """
    segs: dict[str, list[str]] = {}     # line -> its segment names so far
    made: dict[str, int] = {}           # line -> segment numbers used, taps included
    for ln in desc.lines:
        if ln.name in segs:
            raise ValidationError("duplicate qubit line")
        segs[ln.name] = [ln.name + "0"]
        made[ln.name] = 1
    gates: list[GateInstance] = []
    for op in desc.ops:
        g, qs = op.gate, op.qubits
        for q in qs:
            if q not in segs:
                raise ValidationError(f"gate {g.name} names unknown line {q}")
        slots = g.qubit_slots()
        if len(slots) != len(qs):
            raise ValidationError(f"gate {g.name} takes {len(slots)} qubits, got {len(qs)}")
        if g.cuts_line and len(qs) > 1 and len(set(qs)) < len(qs):
            raise ValidationError(f"gate {g.name} names one line twice")
        if g.tap is not None:
            made[qs[-1]] += 1               # a diagonal built-in's target is its last qubit
            gates.append(GateInstance(g.tap, tuple(segs[q][-1] for q in qs)))
            continue
        wires: list = [None] * len(g.legs)
        for slot, q in zip(slots, qs):
            line = segs[q]
            wires[slot[1]] = line[-1]
            if slot[0] == "pair":
                k = made[q]
                made[q] = k + 1
                line.append(f"{q}{k}")
                wires[slot[2]] = line[-1]
        gates.append(GateInstance(g, tuple(wires)))
    # two lines can share a segment name only when one line's name is the
    # other's plus digits (q1 and q11)
    if any(q[:i] in segs for q in segs for i in range(len(q.rstrip("0123456789")), len(q))):
        gates = _rename_clashes(desc, segs, made, gates)

    out: list[Wire] = []
    # a line both starts and ends at the boundary even if gates cut it in
    # between; single-segment lines carry both flags on one wire
    for ln in desc.lines:
        first, *mid = segs[ln.name]
        if not mid:
            out.append(Wire(first, True, ln.in_value, True, ln.out_value))
            continue
        out.append(Wire(first, True, ln.in_value))
        out.extend(map(Wire, mid[:-1]))
        out.append(Wire(mid[-1], False, None, True, ln.out_value))
    return Circuit(out, gates, desc.norm_shift)
