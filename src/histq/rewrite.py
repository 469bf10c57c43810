"""Netlist rewrites that preserve every boundary amplitude.

The passes work on the histories picture directly: a rewrite is sound when it
keeps the product-over-gates identical for every assignment of the free
boundary ends.  Three mechanisms cover everything here:

* relabeling a gate with an entry-for-entry identical tensor (canonicalize);
* dropping a phase-family gate whose factor is 1 in every surviving history
  (a leg reads a constant 0), moving its normalization exponent onto the
  circuit so the total is unchanged;
* replacing a parity gate that has a constant leg by a wire merge: every
  read of one wire of the pair becomes a read of the other, with a
  complement bit.

Constants are wire values that hold in every history with a nonzero product:
boundary pins, and values forced through gates whose compatible entries all
agree.  Free boundary ends are never constant — their bits belong to the
query.  Because a merge keeps the parity gate's constraint alive and a wire
is only judged constant for a gate drop without that gate's own help, the
constraint that justified a rewrite always survives it.  ``compute_constants``
finds them in one worklist pass over the gates that have a zero entry.

The constant-driven passes share one driver.  A step makes one change (a
"drop", "trim" or "merge") or returns None; the driver runs each step to
exhaustion, in order, and repeats the round until no step after the first
changes anything.  ``_rebuild`` refuses a step that would move a free end
or orphan an internal wire, whose two-bit sum was a factor of 2; a pinned
external wire that no gate touches any more is deleted.  A merge that would
leave the surviving wire two producers or two consumers, a declared
boundary end counting as one, is refused before that (``end_claims``), so
that every output of a circuit ``validate`` accepts passes ``validate`` too.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import count

from .circuit import (BoundaryAssignment, Circuit, GateInstance, Wire, classify_wires,
                      end_claims, interface)
from . import engine
from .errors import InterfaceMismatch
from .gates import BUILTIN, phase_gate

_XOR = BUILTIN["XOR3"]
_CANON_H = phase_gate(math.pi, 2, norm_exponent=1)


@dataclass(slots=True)
class PassReport:
    name: str
    changed: bool = False
    details: dict[str, object] = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"pass={self.name} changed={int(self.changed)}"]
        for k, v in self.details.items():
            out.append(f"{k}={v}")
        return out


# ---------------------------------------------------------------------------
# canonicalize

def canonicalize(c: Circuit) -> Circuit:
    """Rewrite gates into the three canonical families.

    CNOT becomes the symmetric parity gate over the same three wires (the
    tensors are identical entry for entry).  H becomes a two-leg PHASE(pi)
    carrying its normalization exponent.  The diagonal family (Z, S, T, CZ,
    CCZ) becomes its ``GateDef.tap``, PHASE(theta) with the target's in and
    out wires fused, the input-side name surviving.  Seq-mode lowering
    already writes those taps, so only net-mode files and circuits built in
    code still have such gates to fuse.  Anything else is left alone.

    Identical entries need not mean identical wire ends: a symmetric leg
    fills an open end that a control or input leg left open, and a fusion
    moves ends onto the surviving name.  Where the free ends, renamed
    through the fusions, would change, the input comes back unchanged.
    """
    alias: dict[str, str] = {}

    def find(n: str) -> str:
        while n in alias:
            n = alias[n]
        return n

    state = {w.name: w for w in c.wires}
    out_gates: list[GateInstance] = []
    changed = False
    for g in c.gates:
        d = g.gate
        if d.builtin_name == "CNOT":
            out_gates.append(GateInstance(_XOR, g.wires, g.negs))
            changed = True
        elif d.builtin_name == "H":
            out_gates.append(GateInstance(_CANON_H, g.wires, g.negs))
            changed = True
        elif d.tap is not None:
            nc = d.n_legs - 2
            ti, to = find(g.wires[nc]), find(g.wires[nc + 1])
            ni, no = g.negs[nc], g.negs[nc + 1]
            if ni != no:
                out_gates.append(g)          # complemented pair: no plain fusion
                continue
            if ti != to:
                wa, wb = state[ti], state[to]
                if wa.out_bound or wb.in_bound:
                    out_gates.append(g)      # a declared end would sit mid-wire
                    continue
                alias[to] = ti
                if (wb.out_bound, wb.out_value) != (wa.out_bound, wa.out_value):
                    state[ti] = Wire(ti, wa.in_bound, wa.in_value, wb.out_bound, wb.out_value)
                del state[to]
            out_gates.append(GateInstance(d.tap, g.wires[:nc] + (ti,), g.negs[:nc] + (ni,)))
            changed = True
        else:
            out_gates.append(g)
    if not changed:
        return c

    def renamed(g: GateInstance) -> GateInstance:
        wires = tuple(find(w) for w in g.wires)
        return g if wires == g.wires else GateInstance(g.gate, wires, g.negs)

    out = c.replace(wires=tuple(state[w.name] for w in c.wires if w.name in state),
                    gates=tuple(map(renamed, out_gates)))
    ins, outs = interface(c)
    if interface(out) != (tuple(map(find, ins)), tuple(map(find, outs))):
        return c
    return out


# ---------------------------------------------------------------------------
# constants and the constant-driven passes

def compute_constants(c: Circuit, skip: frozenset[int] = frozenset()) -> dict[str, int] | None:
    """Wire values that hold in every nonzero history; None if none survives.

    Starts from boundary pins and closes under gate forcing: when every
    nonzero entry of a gate compatible with the values known so far agrees on
    one leg's bit, that leg's wire is pinned down too.  Gates listed in
    ``skip`` contribute nothing — callers use that to prove a value does not
    depend on a gate they are about to remove.

    The closure is one worklist pass, an AC-3 style queue (Mackworth 1977):
    every gate that can force a value is examined once, and again whenever a
    wire it reads becomes known.  Gates with no zero entry (the phase family)
    never force a value or find a contradiction, so they are never examined.
    A gate's compatible entries are the ``GateDef.support`` indices that
    agree with its known legs.  The result is the least fixpoint, whatever
    order the gates are examined in.
    """
    known: dict[str, int] = {}
    for w in c.wires:
        if w.in_value is not None and w.out_value is not None and w.in_value != w.out_value:
            return None
        v = w.in_value if w.in_value is not None else w.out_value
        if v is not None:
            known[w.name] = v
    gates = c.gates
    readers: dict[str, list[int]] = {}
    todo: deque[int] = deque()
    for gi, g in enumerate(gates):
        if gi in skip or g.gate.nonzero_mask is None:
            continue
        todo.append(gi)
        for wire in g.wires:
            readers.setdefault(wire, []).append(gi)
    queued = set(todo)
    while todo:
        gi = todo.popleft()
        queued.discard(gi)
        g = gates[gi]
        care = val = 0                  # known legs and their bits, leg 0 most significant
        for wire, neg in zip(g.wires, g.negs):
            care <<= 1
            val <<= 1
            v = known.get(wire)
            if v is not None:
                care |= 1
                val |= v ^ neg
        all1, any1 = -1, 0
        for row in g.gate.support:
            if row & care == val:
                all1 &= row
                any1 |= row
        if all1 < 0:                    # no compatible entry
            return None
        forced = ~(care | any1 ^ all1)  # unknown legs every compatible entry agrees on
        place = len(g.wires)
        for wire, neg in zip(g.wires, g.negs):
            place -= 1
            if forced >> place & 1 and wire not in known:
                known[wire] = (all1 >> place & 1) ^ neg
                for gj in readers[wire]:
                    if gj not in queued:
                        queued.add(gj)
                        todo.append(gj)
    return known


def _reads(g: GateInstance, known: dict[str, int]) -> list[int | None]:
    """The constant bit each leg of ``g`` reads, None where it is not constant."""
    return [known[w] ^ int(n) if w in known else None for w, n in zip(g.wires, g.negs)]


Step = tuple[Circuit, str, str, list[str]]   # new circuit, kind, detail, wires removed


def _rebuild(c: Circuit, kind: str, detail: str, gates: tuple[GateInstance, ...],
             wires: tuple[Wire, ...] | None = None,
             norm_shift: int | None = None) -> Step | None:
    """The step that replaces ``c``'s wires and gates, or None if it would
    move a free boundary end (the removed gate was holding a wire end closed)
    or orphan an internal wire (see the module docstring).  The third
    refusal, a merge that would give one wire two producers or two
    consumers, is made by ``_short_xor_step`` from the pair's ``end_claims``.

    ``wires`` (default: all of ``c``'s) are wires of ``c``.  Those no gate
    leg touches any more and that hold nothing the query can bind are
    dropped.  A wire stays
    if any gate still touches it, if it is one of ``c``'s free ends
    (``interface``), or if contradictory pins make it the reason every
    amplitude is zero.
    """
    before = interface(c)
    held = {w for g in gates for w in g.wires}.union(*before)
    keep: list[Wire] = []
    orphans: list[str] = []
    for w in c.wires if wires is None else wires:
        contradictory = (w.in_value is not None and w.out_value is not None
                         and w.in_value != w.out_value)
        if w.name in held or contradictory:
            keep.append(w)
        elif w not in c.input_wires and w not in c.output_wires:
            return None         # an internal wire no gate reads any more
        else:
            orphans.append(w.name)
    nc = c.replace(wires=tuple(keep), gates=gates, norm_shift=norm_shift)
    if interface(nc) != before:
        return None
    return nc, kind, detail, orphans


def _drop_dead_step(c: Circuit) -> Step | None:
    """One interface-preserving drop or trim, or None when none applies."""
    known = compute_constants(c)
    if known is None:
        return None
    for gi, g in enumerate(c.gates):
        d = g.gate
        if not d.is_phase or d.n_legs == 0:
            continue
        reads = _reads(g, known)
        if 0 in reads:
            step = _rebuild(c, "drop", "", c.gates[:gi] + c.gates[gi + 1:],
                            norm_shift=c.norm_shift + d.norm_exponent)
        elif 1 in reads:
            keep = [li for li, r in enumerate(reads) if r is None]
            nd = phase_gate(d.param, len(keep), d.norm_exponent)
            trimmed_gate = GateInstance(nd, tuple(g.wires[li] for li in keep),
                                        tuple(g.negs[li] for li in keep))
            step = _rebuild(c, "trim", "", c.gates[:gi] + (trimmed_gate,) + c.gates[gi + 1:])
        else:
            continue
        if step is not None:
            return step
    return None


def _rename(g: GateInstance, loser: str | None, survivor: str, parity: int) -> GateInstance:
    """``g`` reading ``survivor`` (complemented when ``parity``) wherever it
    read ``loser``; ``g`` itself when it never read ``loser``."""
    if loser not in g.wires:
        return g
    return GateInstance(g.gate, tuple(survivor if w == loser else w for w in g.wires),
                        tuple(bool(n ^ (parity if w == loser else 0))
                              for w, n in zip(g.wires, g.negs)))


def _short_xor_step(c: Circuit) -> Step | None:
    """One interface-preserving parity-gate short, or None."""
    _, external = classify_wires(c)
    ext = set(external)
    order = {w.name: i for i, w in enumerate(c.wires)}
    produced, consumed = end_claims(c)
    for gi, g in enumerate(c.gates):
        if g.gate.builtin_name != "XOR3":
            continue
        known = compute_constants(c, skip=frozenset([gi]))
        if known is None:
            continue
        for li, v in enumerate(_reads(g, known)):
            if v is None:
                continue
            (u, nu), (t, nt) = [(g.wires[j], g.negs[j]) for j in range(3) if j != li]
            parity = int(nu) ^ int(nt) ^ v
            if u == t:
                if parity == 1:
                    continue    # forces w != w: nothing survives anyway
                loser, detail = None, f"{g.wires[li]}={v}"
            elif u in ext and t in ext:
                continue        # two distinct query ends cannot be one wire
            else:
                # the surviving name: an external wire always wins, then declaration order
                if (t in ext, -order[t]) > (u in ext, -order[u]):
                    u, t = t, u
                if produced[u] + produced[t] > 1 or consumed[u] + consumed[t] > 1:
                    continue    # validate would refuse the merged wire
                loser, detail = t, f"{t}->{u}~{parity}"
            gates = tuple(_rename(og, loser, u, parity)
                          for gj, og in enumerate(c.gates) if gj != gi)
            wires = tuple(w for w in c.wires if w.name != loser)
            if (step := _rebuild(c, "merge", detail, gates, wires)) is not None:
                return step
    return None


def _fixpoint(c: Circuit, steps) -> tuple[Circuit, int, list[tuple[str, str]], list[str]]:
    """Run ``steps`` to exhaustion, in order, until a round in which no step
    after the first changed anything: the first step is then still exhausted
    (one step: one round).  Returns the circuit, rounds, (kind, detail)s, wires
    removed."""
    changes: list[tuple[str, str]] = []
    orphans: list[str] = []
    for rounds in count(1):
        later = 0
        for i, step in enumerate(steps):
            while (r := step(c)) is not None:
                c, kind, detail, gone = r
                changes.append((kind, detail))
                orphans += gone
                later += i > 0
        if not later:
            return c, rounds, changes, orphans


def _report(name: str, changed: bool, orphans: list[str] | tuple = (), **details) -> PassReport:
    """The details go in only when the pass changed something."""
    report = PassReport(name, changed)
    if changed:
        report.details.update(details)
        if orphans:
            report.details["removed_wires"] = ",".join(orphans)
    return report


def drop_dead_controlled_gates(c: Circuit) -> tuple[Circuit, PassReport]:
    """Remove phase-family gates made inert by constants.

    A leg reading a constant 0 pins the factor at 1 for every surviving
    history: the whole gate goes, its normalization exponent moving onto the
    circuit.  A leg reading a constant 1 is simply not needed: the gate keeps
    firing on the remaining legs.  Phase tensors have no zero entries, so
    they never force a constant — removing one cannot invalidate another.
    Steps that would open a new boundary end are skipped.
    """
    c, _, changes, orphans = _fixpoint(c, [_drop_dead_step])
    kinds = Counter(kind for kind, _ in changes)
    return c, _report("drop-dead", bool(changes), orphans, dropped_gates=kinds["drop"],
                      trimmed_legs=kinds["trim"])


def short_xor_constant(c: Circuit) -> tuple[Circuit, PassReport]:
    """Replace parity gates that have a constant leg by wire merges.

    If a leg of the three-wire parity gate reads a constant v — provable
    without the gate's own help — the gate reduces to "the other two reads
    are equal" (v=0) or "complementary" (v=1).  That is a wire identification
    with a complement bit: every read of the losing wire becomes a read of
    the survivor, complemented where the two differ, so the gate can go.  Merging two
    free boundary wires would collapse distinct query ends, a short may
    not open a new boundary end, and the merged wire may not have two
    producers or two consumers; such candidates are skipped.  When one wire
    of the merged pair is external it keeps its name.
    """
    c, _, changes, orphans = _fixpoint(c, [_short_xor_step])
    return c, _report("short-xor", bool(changes), orphans,
                      merged=";".join(detail for _, detail in changes))


def propagate_constants(c: Circuit) -> tuple[Circuit, PassReport]:
    """Alternate the constant-driven passes until nothing changes."""
    c, rounds, changes, _ = _fixpoint(c, [_drop_dead_step, _short_xor_step])
    kinds = Counter(kind for kind, _ in changes)
    return c, PassReport("propagate", bool(changes), dict(
        iterations=rounds, dropped_gates=kinds["drop"], trimmed_legs=kinds["trim"],
        merged_wires=kinds["merge"]))


def _canonicalize_pass(c: Circuit) -> tuple[Circuit, PassReport]:
    out = canonicalize(c)
    return out, _report("canonicalize", out is not c, gates=len(out.gates),
                        wires=len(out.wires))


PASSES = {
    "canonicalize": _canonicalize_pass,
    "drop-dead": drop_dead_controlled_gates,
    "short-xor": short_xor_constant,
    "propagate": propagate_constants,
}

DEFAULT_PASSES = ("canonicalize", "propagate")


def apply_passes(c: Circuit, names: list[str]) -> tuple[Circuit, list[PassReport]]:
    reports = []
    for name in names:
        if name not in PASSES:
            raise ValueError(f"unknown pass {name!r} (have: {', '.join(sorted(PASSES))})")
        c, r = PASSES[name](c)
        reports.append(r)
    return c, reports


# ---------------------------------------------------------------------------
# equivalence

EQUIV_TOL = 1e-10      # largest amplitude deviation still counted as equal
EQUIV_SAMPLES = 64     # queries drawn when there are more than eight free bits


def equivalent(a: Circuit, b: Circuit, *,
               rng: random.Random | None = None) -> tuple[bool, float]:
    """Compare boundary amplitudes of two circuits end by end.

    Free ends correspond positionally, the way query bit strings bind them —
    a rewrite may rename a boundary wire but never move or drop an end, so
    position i of one circuit's free inputs is queried together with
    position i of the other's.  Exhaustive over all assignments when there
    are at most eight free bits, from one history sum per circuit
    (``engine.open_amplitudes``), otherwise ``EQUIV_SAMPLES`` queries drawn
    from ``rng`` (default: seeded with 0).  Returns (largest deviation seen
    at most ``EQUIV_TOL``, that deviation), or (False, inf) at the first
    non-finite deviation.  Raises InterfaceMismatch when the end counts
    differ — there is nothing meaningful to compare then.  The wire guard
    covers each circuit's w plus the pattern bits (at most eight) first.
    """
    ins_a, outs_a = interface(a)
    ins_b, outs_b = interface(b)
    if (len(ins_a), len(outs_a)) != (len(ins_b), len(outs_b)):
        raise InterfaceMismatch(
            f"free ends differ: {(ins_a, outs_a)} vs {(ins_b, outs_b)}")
    nbits = len(ins_a) + len(outs_a)
    bits = min(nbits, 8)
    for w in (len(classify_wires(c)[0]) for c in (a, b)):
        engine.wire_guard(w + bits, f"{w} internal wires and {bits} pattern bits", None)
    if nbits <= 8:
        # every boundary pattern of each circuit from one history sum
        devs = abs(engine.open_amplitudes(a, BoundaryAssignment(), ins_a, outs_a)
                   - engine.open_amplitudes(b, BoundaryAssignment(), ins_b, outs_b)).tolist()
    else:
        r = rng or random.Random(0)
        devs = []
        for bits in (f"{r.getrandbits(nbits):0{nbits}b}" for _ in range(EQUIV_SAMPLES)):
            def query(ins, outs):
                return BoundaryAssignment(dict(zip(ins, map(int, bits))),
                                          dict(zip(outs, map(int, bits[len(ins):]))))
            # through the module, so a wrapper installed on engine.evaluate sees it
            devs.append(abs(engine.evaluate(a, query(ins_a, outs_a)).value
                            - engine.evaluate(b, query(ins_b, outs_b)).value))
    if not all(map(math.isfinite, devs)):   # NaN would lose every comparison in max()
        return False, math.inf
    worst = max(devs)
    return worst <= EQUIV_TOL, worst
