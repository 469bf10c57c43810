"""Transition amplitudes by direct summation over wire assignments.

Every internal wire is given a classical bit; one joint assignment is a
history.  The amplitude is the sum over all 2^w histories of the product of
gate entries selected by each history, times 2^(-K/2) for the circuit's total
normalization exponent K.  Nothing here requires, or checks, that the circuit
has a gate schedule — feedback netlists evaluate the same way.

A query may leave boundary ends open (``open_amplitudes``): a wire whose
every end is open is then one more history bit, an open end whose wire is
bound elsewhere a constant bit, and the sum is kept per pattern of the
open ends, the first most significant and inputs before outputs.

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
* high stage: the high-only gates run once over each chunk of up to
  2^16 consecutive block numbers, leaving the chunk's surviving blocks and
  their scalar products;
* cross stage: the surviving blocks of a chunk are crossed with the kept
  keys in batches of at most 2^low lanes (and at least one block), each
  lane starting at scalar times marginal, and the mixed gates run over
  these lanes.  The amplitude is the sum of the surviving lanes (with open
  ends, one ``bincount`` keyed by their pattern), and the accepted count
  the sum of their keys' counts, so histories whose marginal cancels to
  exactly zero are still counted.

A gate's entry index is a constant (external bits and complemented reads)
XORed with lane bits, which one mask and one shift move into place for
each distinct offset between a lane bit and the leg place it fills.  A gate
with a zero entry first drops the lanes it zeroes, then multiplies the rest;
a gate whose entries are all 0 or 1 (CNOT, TOFFOLI, XOR3) only drops them.
Within each stage the gates with a zero entry run first, so the rest see
only surviving lanes.  Memory is bounded per stage: 2^low lanes in the low
stage and in a batch, 2^16 blocks in a chunk.  Batches are reduced in
ascending order whether or not a thread pool maps them, so threads change
no bit.

What the circuit and the set of open ends fix — the sorted lane wires,
each gate's entry table and leg reads, and the split with the gates grouped
by stage — is one plan, built on first use and kept in the circuit's
``circuit.derived`` record, so a fully bound ``evaluate``, a ``dist`` and an
``equivalent`` each build theirs once.  The wire guard runs on every query;
``wire_guard`` is the one home of that check, for ``output_distribution``,
``equivalent`` and the dense engine too.
"""

from __future__ import annotations

import os
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .circuit import (Amplitude, BoundaryAssignment, Circuit, classify_wires, derived,
                      interface, resolve_boundary, resolve_ends)
from .errors import MaxWiresExceeded, ValidationError

DEFAULT_MAX_WIRES = 40
HARD_MAX_WIRES = 62    # 2^63 histories no longer fit a signed 64-bit count
MAX_LOW = 16           # at most 2^16 lanes in the split, 2^16 blocks in a chunk


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
    table: np.ndarray | None             # GateDef.table; None for the open-end key
    nonzero: np.ndarray | None           # GateDef.nonzero_mask
    zero_one: bool                       # GateDef.zero_one: filter, never multiply
    const_base: int                      # external + complement bits, pre-packed
    ext_legs: tuple[tuple[str, int], ...]  # (wire, place) still to fill per query
    var_legs: tuple[tuple[int, int], ...]  # (history shift, place)


@dataclass(frozen=True, slots=True)
class _Prepared:
    """The circuit's plan: its gates grouped for the split point ``low``.
    The low, high and cross groups hold ``(spec, legs)`` pairs whose legs
    are ``_legs`` in that stage's lane numbering.  ``key`` packs the m low
    bits mixed gates read into a key, also as ``_legs``, and ``ends`` the
    ``opened`` ends into the pattern index, as a cross ``(spec, legs)``."""
    internal: tuple[str, ...]            # lane wires, the open ones included
    norm_exponent: int
    histories: int                       # 2^w
    low: int
    scalar: tuple[_GateSpec, ...]        # read no internal wire
    low_only: tuple[tuple[_GateSpec, tuple], ...]
    high_only: tuple[tuple[_GateSpec, tuple], ...]
    cross: tuple[tuple[_GateSpec, tuple], ...]   # lanes (block << m) | key
    m: int
    key: tuple[tuple[int, int], ...]
    opened: tuple[tuple[str, str], ...]  # ("in" or "out", wire), inputs first
    ends: tuple[_GateSpec, tuple] | None  # None when no end is open


@dataclass(slots=True, init=False)
class EvalResult:
    """One query's answer.  It keeps the amplitude's listed sum and
    normalization exponent as two fields, not as an ``Amplitude`` object,
    so a kept answer is one object; ``amplitude`` builds it on request."""
    _listed: complex
    _norm_exponent: int
    internal_wires: tuple[str, ...]
    histories: int
    accepted: int

    def __init__(self, amplitude: Amplitude, internal_wires: tuple[str, ...],
                 histories: int, accepted: int):
        self._listed, self._norm_exponent = amplitude.value, amplitude.norm_exponent
        self.internal_wires = internal_wires
        self.histories = histories
        self.accepted = accepted

    @property
    def amplitude(self) -> Amplitude:
        return Amplitude(self._listed, self._norm_exponent)

    @property
    def value(self) -> complex:
        return self.amplitude.resolved()


# The fixed cost of one numpy call, in lanes of one gate's work.
_CALL_LANES = 600


def _groups(specs: list[_GateSpec], low: int) -> tuple[list, list, list, list]:
    """The gates by stage at split ``low``, each group in ``specs`` order:
    scalar specs, low-only and high-only ``(spec, legs)`` (high legs counted
    from bit ``low``), and mixed ``(spec, low legs, high legs)``, where the
    open-end key goes whatever it reads."""
    scalar, low_only, high_only, mixed = [], [], [], []
    for spec in specs:
        legs = spec.var_legs
        low_legs = tuple(leg for leg in legs if leg[0] < low)
        high_legs = tuple((s - low, p) for s, p in legs if s >= low)
        if spec.table is None or low_legs and high_legs:
            mixed.append((spec, low_legs, high_legs))
        elif high_legs:
            high_only.append((spec, high_legs))
        elif low_legs:
            low_only.append((spec, legs))
        else:
            scalar.append(spec)
    return scalar, low_only, high_only, mixed


def _split_cost(groups: tuple[list, list, list, list], w: int, low: int) -> int:
    """Estimated lanes of gate work for one query split at ``low``, given the
    ``_groups`` at that split (scalar gates cost nothing per lane), plus
    ``_CALL_LANES`` per numpy call.  The low stage runs once, the high stage
    once per chunk of up to 2^MAX_LOW blocks, and the mixed gates once per
    batch of at most 2^low lanes, taking every block as surviving."""
    _, low_only, high_only, mixed = groups
    n_high, n_mixed = len(high_only), len(mixed)
    m = len({s for _, low_legs, _ in mixed for s, _ in low_legs})
    blocks = 1 << (w - low)
    chunks = -(-blocks >> MAX_LOW)
    batches = -(-blocks // max(1, (1 << low) >> m))
    # the low stage adds an arange, the key packing and three bincounts; a
    # chunk an arange and its ones, a batch the crossing and the reduction
    return ((1 << low) * (len(low_only) + 4) + blocks * n_high + (blocks << m) * n_mixed
            + (len(low_only) + 8 + chunks * (n_high + 2) + batches * (n_mixed + 8))
            * _CALL_LANES)


def _legs(reads) -> tuple[tuple[int, int], ...]:
    """``(bit, place)`` reads as ``(offset, select)`` pairs, one per offset
    ``bit - place``: the index is the OR over pairs of the lane bits in
    ``select``, shifted right by ``offset`` (left when negative)."""
    select: dict[int, int] = {}
    for bit, place in reads:
        select[bit - place] = select.get(bit - place, 0) | 1 << bit
    return tuple(select.items())


def _build_plan(c: Circuit, opened: tuple[tuple[str, str], ...] = ()) -> _Prepared:
    # a boundary wire whose every end is open is one more lane bit
    n_open, wire_ends = Counter(wire for _, wire in opened), c.ends
    order = sorted([*classify_wires(c)[0], *(wire for wire, k in n_open.items()
                    if k == wire_ends[wire].in_boundary + wire_ends[wire].out_boundary)])
    w = len(order)
    pos = {name: i for i, name in enumerate(order)}  # position 0 is the high bit
    # gates that can zero a lane run first, each group in circuit order; the
    # open-end key, last, reads each open end as a leg, first end leftmost
    gates = [(g.gate.table, g.gate.nonzero_mask, g.gate.zero_one, g.wires, g.negs)
             for g in sorted(c.gates, key=lambda g: g.gate.nonzero_mask is None)]
    if opened:
        gates.append((None, None, True, [wire for _, wire in opened], [False] * len(opened)))
    specs = []
    for table, nonzero, zero_one, wires, negs in gates:
        n = len(wires)
        const = 0
        ext = []
        var = []
        for li, (wire, neg) in enumerate(zip(wires, negs)):
            place = n - 1 - li
            if neg:
                const ^= 1 << place
            if wire in pos:
                var.append((w - 1 - pos[wire], place))
            else:
                ext.append((wire, place))
        specs.append(_GateSpec(table, nonzero, zero_one, const, tuple(ext), tuple(var)))
    # the cheapest split; the first of equally cheap ones
    low, (scalar, low_only, high_only, mixed) = min(
        ((low, _groups(specs, low)) for low in range(min(w, MAX_LOW) + 1)),
        key=lambda split: _split_cost(split[1], w, split[0]))
    reads = sorted({s for _, low_legs, _ in mixed for s, _ in low_legs})
    slot = {s: r for r, s in enumerate(reads)}
    m = len(reads)
    cross = [(spec, _legs([(slot[s], p) for s, p in low_legs]
                          + [(m + s, p) for s, p in high_legs]))
             for spec, low_legs, high_legs in mixed]
    ends = cross.pop() if opened else None
    return _Prepared(tuple(order), c.total_norm_exponent, 1 << w, low, tuple(scalar),
                     tuple((spec, _legs(legs)) for spec, legs in low_only),
                     tuple((spec, _legs(legs)) for spec, legs in high_only),
                     tuple(cross), m, _legs([(s, r) for r, s in enumerate(reads)]),
                     opened, ends)


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


def _plan(c: Circuit, opened: tuple[tuple[str, str], ...]) -> _Prepared:
    """The plan for the ``opened`` ends, kept in the circuit's ``derived`` record."""
    rec = derived(c)
    plans = rec.plans = rec.plans or {}
    return plans.get(opened) or plans.setdefault(opened, _build_plan(c, opened))


def prepare(c: Circuit, max_wires: int | None = None) -> _Prepared:
    """The circuit's plan for fully bound queries (``_plan``); the wire
    guard runs on every call."""
    prep = _plan(c, ())
    w = len(prep.internal)
    wire_guard(w, f"{w} internal wires", max_wires)
    return prep


def _const(spec: _GateSpec, assignment: dict[str, int]) -> int:
    const = spec.const_base
    for wire, place in spec.ext_legs:
        const ^= assignment[wire] << place
    return const


def _index(h: np.ndarray, legs) -> np.ndarray:
    """The OR over ``_legs`` pairs of the bits of ``h`` each selects, moved
    into place: one mask and one shift per pair, zeros for no pair."""
    idx = None
    for offset, select in legs:
        bits = h & select
        if offset > 0:
            bits >>= offset
        elif offset < 0:
            bits <<= -offset
        if idx is None:
            idx = bits
        else:
            idx |= bits
    return np.zeros(len(h), dtype=np.int64) if idx is None else idx


def _run_gates(gates, h: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiply each ``(spec, const, legs)`` factor into ``vals``, lane by
    lane and in place, so ``vals`` must be the caller's own array.

    ``h`` holds each lane's bits, which ``legs`` (at least one pair) read;
    a gate with a zero entry first drops the lanes it zeroes, and a 0/1
    gate only drops them.
    """
    for spec, const, legs in gates:
        idx = _index(h, legs)
        if const:
            idx ^= const
        if spec.nonzero is not None:
            nz = np.flatnonzero(spec.nonzero[idx])
            if len(nz) < len(h):
                h = h[nz]
                vals = vals[nz]
                if len(h) == 0:
                    break
                idx = idx[nz]
        if not spec.zero_one:
            vals *= spec.table[idx]
    return h, vals


def evaluate(c: Circuit, boundary: BoundaryAssignment | None = None, *,
             max_wires: int | None = None, threads: int | None = None) -> EvalResult:
    """Sum all histories for one fully bound boundary query.

    ``threads`` sums the cross batches in a pool; threads change no bit of
    the result.
    """
    prep = prepare(c, max_wires)
    return _sum(prep, resolve_boundary(c, boundary or BoundaryAssignment()), threads)


def _sum(prep: _Prepared, assignment: dict[str, int] | None,
         threads: int | None = None) -> EvalResult:
    """The sum over ``prep``'s histories under ``assignment`` (None: a
    contradiction); with open ends, an array of one sum per pattern."""
    value = np.zeros(1 << len(prep.opened), dtype=np.complex128) if prep.ends else 0j
    if assignment is None:
        return _result(prep, value, 0)
    low = prep.low

    def bound(group):
        return [(spec, _const(spec, assignment), legs) for spec, legs in group]

    # gates that read no internal wire: one factor for every history
    scalar = 1 + 0j
    for spec in prep.scalar:
        const = _const(spec, assignment)
        if spec.nonzero is not None and not spec.nonzero[const]:
            return _result(prep, value, 0)
        scalar *= complex(spec.table[const])

    # low stage: sum the low patterns out onto the m low bits mixed gates read
    m = prep.m
    h, vals = _run_gates(bound(prep.low_only), np.arange(1 << low, dtype=np.int64),
                         np.ones(1 << low, dtype=np.complex128))
    key = _index(h, prep.key) if m else np.zeros(len(h), dtype=np.int64)
    counts = np.bincount(key, minlength=1 << m)
    marg = np.empty(1 << m, dtype=np.complex128)
    marg.real = np.bincount(key, vals.real, 1 << m)
    marg.imag = np.bincount(key, vals.imag, 1 << m)
    del h, vals, key
    keys = np.flatnonzero(counts)
    if len(keys) == 0:
        return _result(prep, value, 0)
    marg = marg[keys]
    high_only, cross = bound(prep.high_only), bound(prep.cross)
    ends = bound([prep.ends])[0] if prep.ends else None

    blocks = prep.histories >> low
    per_batch = max(1, (1 << low) // len(keys))

    def cross_sum(span: tuple[np.ndarray, np.ndarray]) -> tuple[complex | np.ndarray, int]:
        # the cross stage over lanes (block << m) | key
        j, scalars = span
        lanes, vals = _run_gates(cross, ((j << m)[:, None] | keys).ravel(),
                                 (scalars[:, None] * marg).ravel())
        accepted = int(counts[lanes & ((1 << m) - 1)].sum())
        if ends is None:
            return complex(np.sum(vals)), accepted
        # one bincount by open-end pattern, real and imaginary parts side by side
        pattern = _index(lanes, ends[2]) ^ ends[1]
        return (np.bincount((2 * pattern[:, None] + (0, 1)).ravel(), vals.view(np.float64),
                            2 * len(value)).view(np.complex128), accepted)

    def chunk_batches(j0: int):
        # the high stage over one chunk of blocks, its survivors cut in batches
        j = np.arange(j0, min(j0 + (1 << MAX_LOW), blocks), dtype=np.int64)
        j, scalars = _run_gates(high_only, j, np.ones(len(j), dtype=np.complex128))
        for b in range(0, len(j), per_batch):
            yield j[b:b + per_batch], scalars[b:b + per_batch]

    accepted = 0
    pool = None
    if threads and threads > 1 and blocks > per_batch:
        from concurrent.futures import ThreadPoolExecutor   # only a pool needs it
        pool = ThreadPoolExecutor(max_workers=threads)
    with pool or nullcontext():
        for j0 in range(0, blocks, 1 << MAX_LOW):
            for v, acc in (pool.map if pool else map)(cross_sum, chunk_batches(j0)):
                value += v
                accepted += acc
    return _result(prep, value * scalar, accepted)


def _result(prep: _Prepared, value: complex | np.ndarray, accepted: int) -> EvalResult:
    return EvalResult(Amplitude(value, prep.norm_exponent), prep.internal,
                      prep.histories, accepted)


def open_amplitudes(c: Circuit, boundary: BoundaryAssignment, ins=(), outs=()) -> np.ndarray:
    """The amplitude of every pattern of the open ends ``ins`` and ``outs``,
    inputs first, the first end most significant, from one history sum;
    ``boundary`` binds the rest.  The caller guards w plus the open ends."""
    opened = (*(("in", w) for w in ins), *(("out", w) for w in outs))
    return np.ravel(_sum(_plan(c, opened), resolve_ends(c, boundary, opened)).value)


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
                        engine: str = "soh", max_wires: int | None = None) -> Distribution:
    """Probability of each assignment of the free output ends.

    The inputs (and any pinned or queried outputs) come from ``boundary``;
    the remaining output ends are enumerated in declaration order, first
    end leftmost.  ``engine="soh"`` takes every pattern from one history
    sum (``open_amplitudes``); ``"canonical"`` reads every free output
    component from one dense simulation.

    The wire guard, hard limit included, covers the 2^f patterns of the f
    free ends, and under the history sum the 2^(w+f) histories they take
    together; the guard trips before the sum or the simulation runs.
    """
    if engine not in ("soh", "canonical"):
        raise ValidationError(f"unknown engine {engine!r} (have: canonical, soh)")
    boundary = boundary or BoundaryAssignment()
    free = free_output_ends(c, boundary)
    f = len(free)
    w = len(classify_wires(c)[0]) if engine == "soh" else 0
    wire_guard(w + f, f"{f} free output ends" + (f" and {w} internal wires" if w else ""),
               max_wires)
    if engine == "soh":
        amps = open_amplitudes(c, boundary, outs=free)
    else:
        from .statevector import output_components   # statevector imports this module
        amps = Amplitude(output_components(c, boundary, free, max_wires=max_wires).ravel(),
                         c.total_norm_exponent).resolved()
    return Distribution(dict(zip(map("".join, product("01", repeat=f)),
                                 (abs(amps) ** 2).tolist())))


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
