"""Transition amplitudes by direct summation over wire assignments.

Every internal wire is given a classical bit; one joint assignment is a
history.  The amplitude is the sum over all 2^w histories of the product of
gate entries selected by each history, times 2^(-K/2) for the circuit's total
normalization exponent K.  Nothing here requires, or checks, that the circuit
has a gate schedule — feedback netlists evaluate the same way.

Histories are numbered by a w-bit counter, split into its low ``low`` bits
and a block number holding the high bits.  The plan picks ``low`` (at
most 16) once per circuit, as the split with the least estimated work:
lanes of gate work in each stage plus a fixed cost per numpy call.  A gate
that reads no internal wire is one factor for every history, multiplied in
once per query; if it is an exact zero no history survives.  Every other
gate reads only low bits, only high bits, or both ("mixed"), and the sum
runs in three stages:

* low stage: the low-only gates run once over the 2^low low patterns.  Of
  the low bits only the m that some mixed gate reads matter afterwards, so
  by the distributive law the surviving patterns are summed out onto those
  m bits, keeping per key a marginal product and a count of histories;
* high stage: the high-only gates run over a run of consecutive block
  numbers at once, leaving the surviving blocks and their scalar products;
* cross stage: each surviving block is crossed with each kept key, the lane
  starting at scalar times marginal, and the mixed gates run over these
  lanes.  The amplitude is the sum of the surviving lanes, and the accepted
  count the sum of their keys' counts, so histories whose marginal cancels
  to exactly zero are still counted.

A gate's entry index is a constant (external bits and complemented reads)
XORed with shifted lane bits; lanes whose factor is an exact zero are
dropped from later gates.  Within each stage the gates with a zero entry
run first, so the rest see only surviving lanes.  A run holds at most
2^low lanes and at least one block, so memory stays O(2^low).  Runs are
reduced in ascending order whether or not a thread pool is used, so threads
change no bit.

What the circuit alone fixes — the sorted internal wires, each gate's entry
table and leg reads, and the split with the gates grouped by stage — is one
plan, built on the circuit's first query and shared by every later
``evaluate``, so ``output_distribution`` and ``equivalent`` build it once.
It is kept in the circuit's ``circuit.derived`` record.  The wire guard runs
on every query; ``wire_guard`` is the one home of that check, for
``output_distribution``, ``equivalent`` and the dense engine too.
"""

from __future__ import annotations

import os
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product as _bitproduct

import numpy as np

from .circuit import (Amplitude, BoundaryAssignment, Circuit, classify_wires, derived,
                      interface, resolve_boundary)
from .errors import MaxWiresExceeded, ValidationError

DEFAULT_MAX_WIRES = 40
HARD_MAX_WIRES = 62    # 2^63 histories no longer fit a signed 64-bit count
MAX_LOW = 16           # the split holds at most 2^16 lanes


def resolve_max_wires(max_wires: int | None) -> int:
    if max_wires is not None:
        return max_wires
    env = os.environ.get("HISTQ_MAX_WIRES")
    if env is None:
        return DEFAULT_MAX_WIRES
    try:
        limit = int(env)
    except ValueError:
        raise ValidationError(f"HISTQ_MAX_WIRES={env!r} is not an integer") from None
    if limit < 1:
        raise ValidationError(f"HISTQ_MAX_WIRES={env!r} is not a positive integer")
    return limit


@dataclass(frozen=True, slots=True)
class _GateSpec:
    table: np.ndarray                    # GateDef.table, shared per definition
    nonzero: np.ndarray | None           # GateDef.nonzero_mask
    const_base: int                      # external + complement bits, pre-packed
    ext_legs: tuple[tuple[str, int], ...]  # (wire, place) still to fill per query
    var_legs: tuple[tuple[int, int], ...]  # (history shift, place)


@dataclass(frozen=True, slots=True)
class _Prepared:
    """The circuit's plan: its gates grouped for the split point ``low``.
    The low, high and cross groups hold ``(spec, legs)`` pairs whose legs
    read ``(bit, place)`` in that stage's lane numbering.  ``reads`` are the
    low bits mixed gates read."""
    internal: tuple[str, ...]
    norm_exponent: int
    histories: int                       # 2^w
    low: int
    scalar: tuple[_GateSpec, ...]        # read no internal wire
    low_only: tuple[tuple[_GateSpec, tuple], ...]
    high_only: tuple[tuple[_GateSpec, tuple], ...]
    cross: tuple[tuple[_GateSpec, tuple], ...]   # lanes (block << m) | key
    reads: tuple[int, ...]


@dataclass(slots=True)
class EvalResult:
    amplitude: Amplitude
    internal_wires: tuple[str, ...]
    histories: int
    accepted: int

    @property
    def value(self) -> complex:
        return self.amplitude.resolved()


# The fixed cost of one numpy call, in lanes of one gate's work.
_CALL_LANES = 600


def _groups(specs: list[_GateSpec], low: int) -> tuple[list, list, list, list]:
    """The gates by stage at split ``low``, each group in ``specs`` order:
    scalar specs, low-only and high-only ``(spec, legs)`` (high legs counted
    from bit ``low``), and mixed ``(spec, low legs, high legs)``."""
    scalar, low_only, high_only, mixed = [], [], [], []
    for spec in specs:
        legs = spec.var_legs
        low_legs = tuple(leg for leg in legs if leg[0] < low)
        if not legs:
            scalar.append(spec)
        elif len(low_legs) == len(legs):
            low_only.append((spec, legs))
        else:
            high_legs = tuple((s - low, p) for s, p in legs if s >= low)
            if low_legs:
                mixed.append((spec, low_legs, high_legs))
            else:
                high_only.append((spec, high_legs))
    return scalar, low_only, high_only, mixed


def _split_cost(groups: tuple[list, list, list, list], w: int, low: int) -> int:
    """Estimated lanes of gate work for one query split at ``low``, given the
    ``_groups`` at that split (scalar gates cost nothing per lane)."""
    _, low_only, high_only, mixed = groups
    n_high, n_mixed = len(high_only), len(mixed)
    m = len({s for _, low_legs, _ in mixed for s, _ in low_legs})
    blocks = 1 << (w - low)
    runs = -(-blocks // max(1, (1 << low) >> m))
    # the low stage adds an arange, the key packing and three bincounts
    return ((1 << low) * (len(low_only) + 4) + blocks * n_high + (blocks << m) * n_mixed
            + runs * (n_high + n_mixed + 8) * _CALL_LANES)


def _build_plan(c: Circuit) -> _Prepared:
    order = sorted(classify_wires(c)[0])
    w = len(order)
    pos = {name: i for i, name in enumerate(order)}  # position 0 is the high bit
    specs = []
    # gates that can zero a lane run first, each group in circuit order
    for g in sorted(c.gates, key=lambda g: g.gate.nonzero_mask is None):
        n = g.gate.n_legs
        const = 0
        ext = []
        var = []
        for li, (wire, neg) in enumerate(zip(g.wires, g.negs)):
            place = n - 1 - li
            if neg:
                const ^= 1 << place
            if wire in pos:
                var.append((w - 1 - pos[wire], place))
            else:
                ext.append((wire, place))
        specs.append(_GateSpec(g.gate.table, g.gate.nonzero_mask,
                               const, tuple(ext), tuple(var)))
    # the cheapest split; the first of equally cheap ones
    low, (scalar, low_only, high_only, mixed) = min(
        ((low, _groups(specs, low)) for low in range(min(w, MAX_LOW) + 1)),
        key=lambda split: _split_cost(split[1], w, split[0]))
    reads = sorted({s for _, low_legs, _ in mixed for s, _ in low_legs})
    slot = {s: r for r, s in enumerate(reads)}
    cross = [(spec, tuple((slot[s], p) for s, p in low_legs)
              + tuple((len(reads) + s, p) for s, p in high_legs))
             for spec, low_legs, high_legs in mixed]
    return _Prepared(tuple(order), c.total_norm_exponent, 1 << w, low, tuple(scalar),
                     tuple(low_only), tuple(high_only), tuple(cross), tuple(reads))


def wire_guard(n: int, what: str, max_wires: int | None, *,
               hard: int = HARD_MAX_WIRES, unit: str = "histories") -> None:
    """Raise MaxWiresExceeded when ``n`` (``what``, spanning 2^n ``unit``)
    passes ``hard`` or the limit ``max_wires`` sets (else
    ``HISTQ_MAX_WIRES``, else the default)."""
    if n > hard:
        raise MaxWiresExceeded(f"{what} exceed the hard limit of {hard} (2^{n} {unit}); "
                               "no setting raises it")
    limit = resolve_max_wires(max_wires)
    if n > limit:
        raise MaxWiresExceeded(f"{what} exceed the limit of {limit} (2^{n} {unit}); "
                               "raise --max-wires/HISTQ_MAX_WIRES to override")


def prepare(c: Circuit, max_wires: int | None = None) -> _Prepared:
    """The circuit's plan, built on its first call and kept in its
    ``derived`` record; the wire guard runs on every call."""
    rec = derived(c)
    prep = rec.plan = rec.plan or _build_plan(c)
    w = len(prep.internal)
    wire_guard(w, f"{w} internal wires", max_wires)
    return prep


def _const(spec: _GateSpec, assignment: dict[str, int]) -> int:
    const = spec.const_base
    for wire, place in spec.ext_legs:
        const ^= assignment[wire] << place
    return const


def _run_gates(gates, h: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiply each ``(spec, const, legs)`` factor into ``vals``, lane by lane.

    ``h`` holds each lane's bits, which ``legs`` (at least one) read by
    ``(shift, place)``; lanes whose factor is an exact zero are dropped.
    """
    for spec, const, legs in gates:
        (shift, place), *rest = legs
        idx = ((h >> shift) & 1) << place
        for shift, place in rest:
            idx ^= ((h >> shift) & 1) << place
        if const:
            idx ^= const
        vals = vals * spec.table[idx]
        if spec.nonzero is None:
            continue
        nz = np.flatnonzero(spec.nonzero[idx])
        if len(nz) < len(h):
            h = h[nz]
            vals = vals[nz]
            if len(h) == 0:
                break
    return h, vals


def evaluate(c: Circuit, boundary: BoundaryAssignment | None = None, *,
             max_wires: int | None = None, threads: int | None = None) -> EvalResult:
    """Sum all histories for one fully bound boundary query.

    ``threads`` sums runs of blocks in a pool; threads change no bit of the
    result.
    """
    prep = prepare(c, max_wires)
    assignment = resolve_boundary(c, boundary or BoundaryAssignment())
    if assignment is None:
        return _result(prep, 0j, 0)
    low = prep.low

    def bound(group):
        return [(spec, _const(spec, assignment), legs) for spec, legs in group]

    # gates that read no internal wire: one factor for every history
    scalar = 1 + 0j
    for spec in prep.scalar:
        const = _const(spec, assignment)
        if spec.nonzero is not None and not spec.nonzero[const]:
            return _result(prep, 0j, 0)
        scalar *= complex(spec.table[const])

    # low stage: sum the low patterns out onto the m low bits mixed gates read
    m = len(prep.reads)
    h, vals = _run_gates(bound(prep.low_only), np.arange(1 << low, dtype=np.int64),
                         np.ones(1 << low, dtype=np.complex128))
    key = np.zeros(len(h), dtype=np.int64)
    for r, s in enumerate(prep.reads):
        key |= ((h >> s) & 1) << r
    counts = np.bincount(key, minlength=1 << m)
    marg = np.empty(1 << m, dtype=np.complex128)
    marg.real = np.bincount(key, vals.real, 1 << m)
    marg.imag = np.bincount(key, vals.imag, 1 << m)
    del h, vals, key
    keys = np.flatnonzero(counts)
    if len(keys) == 0:
        return _result(prep, 0j, 0)
    marg = marg[keys]
    high_only, cross = bound(prep.high_only), bound(prep.cross)

    blocks = prep.histories >> low
    per_run = max(1, (1 << low) // len(keys))

    def run_sum(j0: int) -> tuple[complex, int]:
        # high stage, then the cross stage over lanes (block << m) | key
        j = np.arange(j0, min(j0 + per_run, blocks), dtype=np.int64)
        j, scalars = _run_gates(high_only, j, np.ones(len(j), dtype=np.complex128))
        lanes, vals = _run_gates(cross, ((j << m)[:, None] | keys).ravel(),
                                 (scalars[:, None] * marg).ravel())
        return complex(np.sum(vals)), int(counts[lanes & ((1 << m) - 1)].sum())

    runs = range(0, blocks, per_run)
    if threads and threads > 1 and len(runs) > 1:
        from concurrent.futures import ThreadPoolExecutor   # only a pool needs it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_sum, runs))
    else:
        parts = map(run_sum, runs)
    value = 0j
    accepted = 0
    for v, acc in parts:
        value += v
        accepted += acc
    return _result(prep, value * scalar, accepted)


def _result(prep: _Prepared, value: complex, accepted: int) -> EvalResult:
    return EvalResult(Amplitude(value, prep.norm_exponent), prep.internal,
                      prep.histories, accepted)


@dataclass
class Distribution:
    probs: dict[str, float]
    total: float = field(init=False)

    def __post_init__(self):
        self.total = float(sum(self.probs.values()))


def free_output_ends(c: Circuit, boundary: BoundaryAssignment | None = None) -> list[str]:
    """The free output ends (``interface``) that the query leaves unbound."""
    bound = boundary.out_bits if boundary else {}
    return [name for name in interface(c)[1] if name not in bound]


def output_distribution(c: Circuit, boundary: BoundaryAssignment | None = None, *,
                        amplitude=None, max_wires: int | None = None) -> Distribution:
    """Probability of each assignment of the free output ends.

    The inputs (and any pinned or queried outputs) come from ``boundary``;
    the remaining output ends are enumerated in declaration order, first
    end leftmost.  ``amplitude`` defaults to the history sum; pass a
    different callable to use another evaluation strategy.

    The wire guard, hard limit included, covers the 2^f patterns of the f
    free ends, and under the history sum the 2^(w+f) histories they take
    together; the guard trips before any pattern is evaluated.
    """
    free = free_output_ends(c, boundary)
    f = len(free)
    w = len(classify_wires(c)[0]) if amplitude is None else 0
    wire_guard(w + f, f"{f} free output ends" + (f" and {w} internal wires" if w else ""),
               max_wires)
    base_in = dict(boundary.in_bits) if boundary else {}
    base_out = dict(boundary.out_bits) if boundary else {}
    if amplitude is None:
        amp_fn = lambda b: evaluate(c, b, max_wires=max_wires).value
    else:
        amp_fn = lambda b: amplitude(c, b)
    probs: dict[str, float] = {}
    for bits in _bitproduct((0, 1), repeat=len(free)):
        out = dict(base_out)
        out.update(zip(free, bits))
        a = amp_fn(BoundaryAssignment(base_in, out))
        probs["".join(map(str, bits))] = abs(a) ** 2
    return Distribution(probs)


@contextmanager
def memory_probe():
    """Track peak allocation across the with-block: ``probe.peak`` in bytes."""

    class _Probe:
        peak = 0

    p = _Probe()
    tracemalloc.start()
    try:
        yield p
    finally:
        _, p.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
