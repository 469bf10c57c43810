"""Transition amplitudes by direct summation over wire assignments.

Every internal wire is given a classical bit; one joint assignment is a
history.  The amplitude is the sum over all 2^w histories of the product of
gate entries selected by each history, times 2^(-K/2) for the circuit's total
normalization exponent K.  Nothing here requires, or checks, that the circuit
has a gate schedule — feedback netlists evaluate the same way.

Histories are numbered by a w-bit counter and summed in aligned blocks of
2^low histories: the chunk size rounded down to a power of two, at most 2^w.
Within a block only the low ``low`` counter bits change; the block number
supplies the high bits.  So the sum is split once per query:

* gates that read only low-bit wires give the same factors in every block;
  their products over the 2^low low patterns are computed once and shared;
* per block, each gate that reads a high-bit wire has those legs folded into
  its constant entry index.  A gate with no low leg becomes a scalar; if the
  scalars multiply to an exact zero the block is skipped untouched.
  Otherwise the shared products are scaled and only the gates with low legs
  run over them.

A gate's entry index is a constant (external bits and complemented reads)
XORed with shifted counter bits.  Lanes whose running product hits an exact
zero are dropped from later gates and scattered back before the block is
reduced, so pruning never changes the result, only the work.  Blocks are
reduced in ascending order whether or not a thread pool is used; repeated
runs with the same options are reproducible, and threads change no bit.
"""

from __future__ import annotations

import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product as _bitproduct

import numpy as np

from .circuit import (Amplitude, BoundaryAssignment, Circuit, classify_wires,
                      resolve_boundary)
from .errors import MaxWiresExceeded
from .gates import GateClass, classify_gate

DEFAULT_MAX_WIRES = 40
HARD_MAX_WIRES = 62    # 2^63 histories no longer fit a signed 64-bit count
DEFAULT_CHUNK = 1 << 16
_CLASS_RANK = {GateClass.CLASSICAL: 0, GateClass.PHASE: 1, GateClass.GENERAL: 2}


def resolve_max_wires(max_wires: int | None) -> int:
    if max_wires is not None:
        return max_wires
    env = os.environ.get("HISTQ_MAX_WIRES")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"HISTQ_MAX_WIRES={env!r} is not an integer") from None
    return DEFAULT_MAX_WIRES


@dataclass
class _GateSpec:
    table: np.ndarray                    # flat entry table, complex128
    nonzero: np.ndarray | None           # GateDef.nonzero_mask
    const_base: int                      # external + complement bits, pre-packed
    ext_legs: tuple[tuple[str, int], ...]  # (wire, place) still to fill per query
    var_legs: tuple[tuple[int, int], ...]  # (history shift, place)


@dataclass
class _Prepared:
    circuit: Circuit
    internal: tuple[str, ...]
    specs: list[_GateSpec]
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


def prepare(c: Circuit, max_wires: int | None = None) -> _Prepared:
    internal, _ = classify_wires(c)
    if len(internal) > HARD_MAX_WIRES:
        raise MaxWiresExceeded(
            f"{len(internal)} internal wires exceed the hard limit of {HARD_MAX_WIRES} "
            f"(2^{len(internal)} histories overflow a 64-bit count); no setting raises it")
    limit = resolve_max_wires(max_wires)
    if len(internal) > limit:
        raise MaxWiresExceeded(
            f"{len(internal)} internal wires exceed the limit of {limit} "
            f"(2^{len(internal)} histories); raise --max-wires/HISTQ_MAX_WIRES to override")
    order = sorted(internal)
    w = len(order)
    pos = {name: i for i, name in enumerate(order)}  # position 0 is the high bit
    specs = []
    ranked = sorted(enumerate(c.gates),
                    key=lambda t: (_CLASS_RANK[classify_gate(t[1].gate)], t[0]))
    for _, g in ranked:
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
    return _Prepared(c, tuple(order), specs, c.total_norm_exponent)


def _run_gates(gates, h: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiply each ``(spec, const, legs)`` factor into ``vals``, lane by lane.

    ``h`` holds each lane's low counter bits, which double as its slot in the
    block; lanes whose factor is an exact zero are dropped.
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


def _fold(const: int, legs, j: int) -> int:
    """Entry index ``const`` with the high-bit legs read from block number ``j``."""
    for shift, place in legs:
        const ^= ((j >> shift) & 1) << place
    return const


def _block_sum(j: int, low: int, base: tuple[np.ndarray, np.ndarray],
               high_only, mixed) -> tuple[complex, int]:
    """Sum block ``j``: the 2^low histories whose high counter bits are ``j``."""
    h, vals = base
    if len(h) == 0:
        return 0j, 0
    scalar = 1
    for spec, const, high_legs in high_only:
        scalar *= spec.table[_fold(const, high_legs, j)]
        if scalar == 0:
            return 0j, 0
    h, vals = _run_gates([(spec, _fold(const, high_legs, j), low_legs)
                          for spec, const, low_legs, high_legs in mixed], h, vals * scalar)
    products = vals
    if len(h) < 1 << low:
        products = np.zeros(1 << low, dtype=np.complex128)
        products[h] = vals
    return complex(np.sum(products)), int(np.count_nonzero(vals))


def evaluate(c: Circuit, boundary: BoundaryAssignment | None = None, *,
             max_wires: int | None = None, chunk_size: int | None = None,
             threads: int | None = None) -> EvalResult:
    """Sum all histories for one fully bound boundary query.

    ``chunk_size`` is the number of histories per block, rounded down to a
    power of two; ``threads`` sums blocks in a pool.  Neither changes the
    result.
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
    fixed, high_only, mixed = [], [], []
    for spec in prep.specs:
        const = spec.const_base
        for wire, place in spec.ext_legs:
            const ^= assignment[wire] << place
        low_legs = tuple((s, p) for s, p in spec.var_legs if s < low)
        high_legs = tuple((s - low, p) for s, p in spec.var_legs if s >= low)
        if not high_legs:
            fixed.append((spec, const, low_legs))
        elif not low_legs:
            high_only.append((spec, const, high_legs))
        else:
            mixed.append((spec, const, low_legs, high_legs))
    base = _run_gates(fixed, np.arange(1 << low, dtype=np.int64),
                      np.ones(1 << low, dtype=np.complex128))
    blocks = range(total >> low)
    block = lambda j: _block_sum(j, low, base, high_only, mixed)
    if threads and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(block, blocks))
    else:
        parts = map(block, blocks)
    value = 0j
    accepted = 0
    for v, acc in parts:
        value += v
        accepted += acc
    return EvalResult(Amplitude(value, prep.norm_exponent), prep.internal, total, accepted)


def transition_amplitude(c: Circuit, boundary: BoundaryAssignment | None = None,
                         **opts) -> complex:
    return evaluate(c, boundary, **opts).value


def transition_probability(c: Circuit, boundary: BoundaryAssignment | None = None,
                           **opts) -> float:
    return abs(evaluate(c, boundary, **opts).value) ** 2


def accepted_history_count(c: Circuit, boundary: BoundaryAssignment | None = None,
                           **opts) -> int:
    return evaluate(c, boundary, **opts).accepted


@dataclass
class Distribution:
    probs: dict[str, float]
    total: float = field(init=False)

    def __post_init__(self):
        self.total = float(sum(self.probs.values()))

    def unit_total(self, tol: float = 1e-9) -> bool:
        return abs(self.total - 1.0) <= tol


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
    """
    free = free_output_ends(c, boundary)
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
