"""Transition amplitudes by direct summation over wire assignments.

Every internal wire is given a classical bit; one joint assignment is a
history.  The amplitude is the sum over all 2^w histories of the product of
gate entries selected by each history, times 2^(-K/2) for the circuit's total
normalization exponent K.  Nothing here requires, or checks, that the circuit
has a gate schedule — feedback netlists evaluate the same way.

Histories are numbered by a w-bit counter.  The chunk size, rounded down to
a power of two 2^low (at most 2^w), splits it into low ``low`` bits and a
block number holding the high bits.  Each gate reads only low bits, only
high bits, or both ("mixed"), and the sum runs in three stages:

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
2^low lanes and at least one block, so memory stays O(chunk).  Runs are
reduced in ascending order whether or not a thread pool is used: threads
change no bit, while the chunk size may move the last bits of an inexact
sum.

What the circuit alone fixes — the sorted internal wires, the gate order and
each gate's entry table and leg reads — is one plan, built on the circuit's
first query and shared by every later ``evaluate``, so ``output_distribution``
and ``equivalent`` build it once.  The wire guards run on every query.
"""

from __future__ import annotations

import os
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product as _bitproduct

import numpy as np

from .circuit import (Amplitude, BoundaryAssignment, Circuit, classify_wires,
                      resolve_boundary)
from .errors import MaxWiresExceeded, ValidationError

DEFAULT_MAX_WIRES = 40
HARD_MAX_WIRES = 62    # 2^63 histories no longer fit a signed 64-bit count
DEFAULT_CHUNK = 1 << 16


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
    table: np.ndarray                    # flat entry table, complex128
    nonzero: np.ndarray | None           # GateDef.nonzero_mask
    const_base: int                      # external + complement bits, pre-packed
    ext_legs: tuple[tuple[str, int], ...]  # (wire, place) still to fill per query
    var_legs: tuple[tuple[int, int], ...]  # (history shift, place)


@dataclass(frozen=True, slots=True)
class _Prepared:
    internal: tuple[str, ...]
    specs: tuple[_GateSpec, ...]
    norm_exponent: int


@dataclass
class EvalResult:
    amplitude: Amplitude
    internal_wires: tuple[str, ...]
    histories: int
    accepted: int

    @property
    def value(self) -> complex:
        return self.amplitude.resolved()


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
        specs.append(_GateSpec(g.gate.entries.reshape(-1), g.gate.nonzero_mask,
                               const, tuple(ext), tuple(var)))
    return _Prepared(tuple(order), tuple(specs), c.total_norm_exponent)


_PLANS = weakref.WeakKeyDictionary()   # Circuit -> _Prepared


def prepare(c: Circuit, max_wires: int | None = None) -> _Prepared:
    """The circuit's plan, built on its first call; the wire guards run on every call."""
    prep = _PLANS.get(c)
    if prep is None:
        prep = _PLANS[c] = _build_plan(c)
    w = len(prep.internal)
    if w > HARD_MAX_WIRES:
        raise MaxWiresExceeded(
            f"{w} internal wires exceed the hard limit of {HARD_MAX_WIRES} "
            f"(2^{w} histories overflow a 64-bit count); no setting raises it")
    limit = resolve_max_wires(max_wires)
    if w > limit:
        raise MaxWiresExceeded(
            f"{w} internal wires exceed the limit of {limit} "
            f"(2^{w} histories); raise --max-wires/HISTQ_MAX_WIRES to override")
    return prep


def _run_gates(gates, h: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiply each ``(spec, const, legs)`` factor into ``vals``, lane by lane.

    ``h`` holds each lane's bits, which ``legs`` read by ``(shift, place)``;
    lanes whose factor is an exact zero are dropped.
    """
    for spec, const, legs in gates:
        idx = np.full(len(h), const, dtype=np.int64)
        for shift, place in legs:
            idx ^= ((h >> shift) & 1) << place
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
             max_wires: int | None = None, chunk_size: int | None = None,
             threads: int | None = None) -> EvalResult:
    """Sum all histories for one fully bound boundary query.

    ``chunk_size`` bounds the lanes held at once, rounded down to a power of
    two; ``threads`` sums runs of blocks in a pool.  Threads change no bit of
    the result; the chunk size may change the last bits of an inexact sum.
    """
    prep = prepare(c, max_wires)
    assignment = resolve_boundary(c, boundary or BoundaryAssignment())
    w = len(prep.internal)
    total = 1 << w
    if assignment is None:
        return EvalResult(Amplitude(0j, prep.norm_exponent), prep.internal, total, 0)
    chunk = DEFAULT_CHUNK if chunk_size is None else chunk_size
    if chunk < 1:
        raise ValueError("chunk size must be positive")
    low = min(w, chunk.bit_length() - 1)
    low_only, high_only, mixed = [], [], []
    for spec in prep.specs:
        const = spec.const_base
        for wire, place in spec.ext_legs:
            const ^= assignment[wire] << place
        low_legs = tuple((s, p) for s, p in spec.var_legs if s < low)
        high_legs = tuple((s - low, p) for s, p in spec.var_legs if s >= low)
        if not high_legs:
            low_only.append((spec, const, low_legs))
        elif not low_legs:
            high_only.append((spec, const, high_legs))
        else:
            mixed.append((spec, const, low_legs, high_legs))

    # low stage: sum the low patterns out onto the m low bits mixed gates read
    reads = sorted({s for _, _, low_legs, _ in mixed for s, _ in low_legs})
    m = len(reads)
    h, vals = _run_gates(low_only, np.arange(1 << low, dtype=np.int64),
                         np.ones(1 << low, dtype=np.complex128))
    key = np.zeros(len(h), dtype=np.int64)
    for r, s in enumerate(reads):
        key |= ((h >> s) & 1) << r
    counts = np.bincount(key, minlength=1 << m)
    marg = np.empty(1 << m, dtype=np.complex128)
    marg.real = np.bincount(key, vals.real, 1 << m)
    marg.imag = np.bincount(key, vals.imag, 1 << m)
    del h, vals, key
    keys = np.flatnonzero(counts)
    if len(keys) == 0:
        return EvalResult(Amplitude(0j, prep.norm_exponent), prep.internal, total, 0)
    marg = marg[keys]
    slot = {s: r for r, s in enumerate(reads)}
    cross = [(spec, const, tuple((slot[s], p) for s, p in low_legs)
              + tuple((m + s, p) for s, p in high_legs))
             for spec, const, low_legs, high_legs in mixed]

    blocks = total >> low
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
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_sum, runs))
    else:
        parts = map(run_sum, runs)
    value = 0j
    accepted = 0
    for v, acc in parts:
        value += v
        accepted += acc
    return EvalResult(Amplitude(value, prep.norm_exponent), prep.internal, total, accepted)


@dataclass
class Distribution:
    probs: dict[str, float]
    total: float = field(init=False)

    def __post_init__(self):
        self.total = float(sum(self.probs.values()))


def free_output_ends(c: Circuit, boundary: BoundaryAssignment | None = None) -> list[str]:
    """Boundary-out ends not pinned in the file or bound by the query."""
    bound = boundary.out_bits if boundary else {}
    return [w.name for w in c.output_wires
            if w.out_value is None and w.name not in bound]


def output_distribution(c: Circuit, boundary: BoundaryAssignment | None = None, *,
                        amplitude=None, **opts) -> Distribution:
    """Probability of each assignment of the free output ends.

    The inputs (and any pinned or queried outputs) come from ``boundary``;
    the remaining output ends are enumerated in declaration order, first
    end leftmost.  ``amplitude`` defaults to the history sum; pass a
    different callable to use another evaluation strategy.

    The wire guard covers the 2^f patterns of the f free ends, and under the
    history sum the 2^(w+f) histories they take together; the guard trips
    before any pattern is evaluated.
    """
    free = free_output_ends(c, boundary)
    f = len(free)
    if f > HARD_MAX_WIRES:
        raise MaxWiresExceeded(
            f"{f} free output ends exceed the hard limit of {HARD_MAX_WIRES} "
            f"(2^{f} output patterns); no setting raises it")
    limit = resolve_max_wires(opts.get("max_wires"))
    w = len(classify_wires(c)[0]) if amplitude is None else 0
    if w + f > limit:
        raise MaxWiresExceeded(
            f"{f} free output ends" + (f" and {w} internal wires" if w else "")
            + f" exceed the limit of {limit} (2^{w + f} histories); "
            "raise --max-wires/HISTQ_MAX_WIRES to override")
    base_in = dict(boundary.in_bits) if boundary else {}
    base_out = dict(boundary.out_bits) if boundary else {}
    if amplitude is None:
        amp_fn = lambda b: evaluate(c, b, **opts).value
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
