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
constraint that justified a rewrite always survives it.

The constant-driven passes share one driver.  A step makes one change (a
"drop", "trim" or "merge") or returns None; the driver runs each step to
exhaustion, in order, and repeats the round until no step after the first
changes anything.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .circuit import Circuit, GateInstance, Wire, classify_wires
from .circuit import BoundaryAssignment
from . import engine
from .errors import InterfaceMismatch
from .gates import BUILTIN, GateDef, phase_gate, phase_value

_XOR = BUILTIN["XOR3"]
_CANON_H = phase_gate(math.pi, 2, norm_exponent=1)
_DIAG_THETA = {"Z": math.pi, "S": math.pi / 2, "T": math.pi / 4,
               "CZ": math.pi, "CCZ": math.pi}


@dataclass
class PassReport:
    name: str
    changed: bool = False
    details: dict[str, object] = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"pass={self.name} changed={int(self.changed)}"]
        for k, v in self.details.items():
            out.append(f"{k}={v}")
        return out


def _is_builtin(d: GateDef, name: str) -> bool:
    return d.name == name and d.structural_key() == BUILTIN[name].structural_key()


def interface(c: Circuit) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The free boundary ends, in declaration order: (inputs, outputs)."""
    ins = tuple(w.name for w in c.input_wires if w.in_value is None)
    outs = tuple(w.name for w in c.output_wires if w.out_value is None)
    return ins, outs


# ---------------------------------------------------------------------------
# canonicalize

def _canonicalize_core(c: Circuit, fuse: bool):
    alias: dict[str, str] = {}

    def find(n: str) -> str:
        while n in alias:
            n = alias[n]
        return n

    state = {w.name: w for w in c.wires}
    out_gates: list[GateInstance] = []
    changed = False
    fused = 0
    for g in c.gates:
        d = g.gate
        if _is_builtin(d, "CNOT"):
            out_gates.append(GateInstance(_XOR, g.wires, g.negs))
            changed = True
        elif _is_builtin(d, "H"):
            out_gates.append(GateInstance(_CANON_H, g.wires, g.negs))
            changed = True
        elif d.name in _DIAG_THETA and _is_builtin(d, d.name):
            nc = d.n_legs - 2
            ti, to = find(g.wires[nc]), find(g.wires[nc + 1])
            ni, no = g.negs[nc], g.negs[nc + 1]
            ph = phase_gate(_DIAG_THETA[d.name], nc + 1)
            if ni != no:
                out_gates.append(g)          # complemented pair: no plain fusion
                continue
            if ti == to:
                out_gates.append(GateInstance(ph, g.wires[:nc] + (ti,), g.negs[:nc] + (ni,)))
                changed = True
                continue
            wa, wb = state[ti], state[to]
            if not fuse or wa.out_bound or wb.in_bound:
                out_gates.append(g)          # keep the matrix form unfused
                continue
            alias[to] = ti
            state[ti] = Wire(ti, wa.in_bound, wa.in_value, wb.out_bound, wb.out_value)
            del state[to]
            out_gates.append(GateInstance(ph, g.wires[:nc] + (ti,), g.negs[:nc] + (ni,)))
            changed = True
            fused += 1
        else:
            out_gates.append(g)
    if not changed:
        return c, find, fused

    def renamed(g: GateInstance) -> GateInstance:
        wires = tuple(find(w) for w in g.wires)
        return g if wires == g.wires else GateInstance(g.gate, wires, g.negs)

    gates = tuple(map(renamed, out_gates))
    wires = tuple(state[w.name] for w in c.wires if w.name in state)
    return c.replace(wires=wires, gates=gates), find, fused


def canonicalize(c: Circuit) -> Circuit:
    """Rewrite gates into the three canonical families.

    CNOT becomes the symmetric parity gate over the same three wires (the
    tensors are identical entry for entry).  H becomes a two-leg PHASE(pi)
    carrying its normalization exponent.  The diagonal family (Z, S, T, CZ,
    CCZ) becomes PHASE(theta) with the target's in and out wires fused, the
    input-side name surviving.  Anything else is left alone.

    A fusion may relocate a boundary end onto the surviving name; that must
    keep every free end in its position.  When (only in hand-built netlists
    with interleaved declarations) it would not, the diagonal gates are left
    in matrix form instead.
    """
    out, find, fused = _canonicalize_core(c, fuse=True)
    if fused:
        ins0, outs0 = interface(c)
        expected = (tuple(find(n) for n in ins0), tuple(find(n) for n in outs0))
        if interface(out) != expected:
            out, _, _ = _canonicalize_core(c, fuse=False)
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
    """
    known: dict[str, int] = {}
    for w in c.wires:
        if w.in_value is not None and w.out_value is not None and w.in_value != w.out_value:
            return None
        v = w.in_value if w.in_value is not None else w.out_value
        if v is not None:
            known[w.name] = v
    changed = True
    while changed:
        changed = False
        for gi, g in enumerate(c.gates):
            if gi in skip or g.gate.n_legs == 0:
                continue
            rows = g.gate.support
            mask = np.ones(len(rows), dtype=bool)
            for li, (wire, neg) in enumerate(zip(g.wires, g.negs)):
                if wire in known:
                    mask &= rows[:, li] == (known[wire] ^ int(neg))
            sub = rows[mask]
            if len(sub) == 0:
                return None
            for li, (wire, neg) in enumerate(zip(g.wires, g.negs)):
                if wire in known:
                    continue
                col = sub[:, li]
                if np.all(col == col[0]):
                    known[wire] = int(col[0]) ^ int(neg)
                    changed = True
    return known


def _is_phase_family(d: GateDef) -> bool:
    """What ``phase_gate`` builds from ``d.param``, so a trim can rebuild it."""
    if not d.is_symmetric or d.param is None:
        return False
    flat = d.entries.reshape(-1)
    return bool(np.all(flat[:-1] == 1.0) and flat[-1] == phase_value(d.param))


def _reads(g: GateInstance, known: dict[str, int]) -> list[int | None]:
    """The constant bit each leg of ``g`` reads, None where it is not constant."""
    return [known[w] ^ int(n) if w in known else None for w, n in zip(g.wires, g.negs)]


Step = tuple[Circuit, str, str, list[str]]   # new circuit, kind, detail, wires removed


def _rebuild(c: Circuit, kind: str, detail: str, gates: tuple[GateInstance, ...],
             wires: tuple[Wire, ...] | None = None,
             norm_shift: int | None = None) -> Step | None:
    """The step that replaces ``c``'s wires and gates, or None if it would
    move a free boundary end (the removed gate was holding a wire end closed).

    ``wires`` (default: all of ``c``'s) are wires of ``c``.  Those left with
    no attachments and nothing the query can bind are dropped.  A wire stays
    if any gate still touches it, if it had a free boundary end going into
    the step (those are interface), or if contradictory pins make it the
    reason every amplitude is zero.
    """
    attached = {w for g in gates for w in g.wires}
    keep: list[Wire] = []
    orphans: list[str] = []
    for w in c.wires if wires is None else wires:
        e = c.ends[w.name]
        free_in = e.in_boundary and w.in_value is None
        free_out = e.out_boundary and w.out_value is None
        contradictory = (w.in_value is not None and w.out_value is not None
                         and w.in_value != w.out_value)
        if w.name in attached or free_in or free_out or contradictory:
            keep.append(w)
        else:
            orphans.append(w.name)
    nc = c.replace(wires=tuple(keep), gates=gates, norm_shift=norm_shift)
    if interface(nc) != interface(c):
        return None
    return nc, kind, detail, orphans


def _drop_dead_step(c: Circuit) -> Step | None:
    """One interface-preserving drop or trim, or None when none applies."""
    known = compute_constants(c)
    if known is None:
        return None
    for gi, g in enumerate(c.gates):
        d = g.gate
        if not _is_phase_family(d) or d.n_legs == 0:
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
    for gi, g in enumerate(c.gates):
        if g.gate.structural_key() != _XOR.structural_key():
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
    free boundary wires would collapse distinct query ends, and a short may
    not open a new boundary end; such candidates are skipped.  When one wire
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

def equivalent(a: Circuit, b: Circuit, *, tol: float = 1e-10,
               samples: int = 64, rng: random.Random | None = None) -> tuple[bool, float]:
    """Compare boundary amplitudes of two circuits end by end.

    Free ends correspond positionally, the way query bit strings bind them —
    a rewrite may rename a boundary wire but never move or drop an end, so
    position i of one circuit's free inputs is queried together with
    position i of the other's.  Exhaustive over all assignments when there
    are at most eight free bits, sampled otherwise.  Returns (within
    tolerance, largest deviation seen).  Raises InterfaceMismatch when the
    end counts differ — there is nothing meaningful to compare then.
    """
    ins_a, outs_a = interface(a)
    ins_b, outs_b = interface(b)
    if (len(ins_a), len(outs_a)) != (len(ins_b), len(outs_b)):
        raise InterfaceMismatch(
            f"free ends differ: {(ins_a, outs_a)} vs {(ins_b, outs_b)}")
    nbits = len(ins_a) + len(outs_a)
    if nbits <= 8:
        cases = range(1 << nbits)
    else:
        r = rng or random.Random(0)
        cases = [r.getrandbits(nbits) for _ in range(samples)]
    worst = 0.0
    for bits in cases:
        def query(ins, outs):
            return BoundaryAssignment(
                {w: (bits >> (nbits - 1 - i)) & 1 for i, w in enumerate(ins)},
                {w: (bits >> (nbits - 1 - len(ins) - j)) & 1
                 for j, w in enumerate(outs)})
        # through the module, so a wrapper installed on engine.evaluate sees it
        va = engine.evaluate(a, query(ins_a, outs_a)).value
        vb = engine.evaluate(b, query(ins_b, outs_b)).value
        worst = max(worst, abs(va - vb))
    return worst <= tol, worst
