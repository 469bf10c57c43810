"""Dense state-vector evaluation for circuits that admit a gate schedule.

A circuit is *sequential* when no wire has two producers or two consumers
(``circuit.end_claims``), every gate either moves qubits forward
(matrix-style legs; controls tap live wires) or is a pure diagonal factor (a
symmetric gate all of whose legs are taps, with unit-modulus entries), and the
producer/consumer graph is acyclic.  By the free-end rule of ``circuit``, a
symmetric leg taps its wire only when a directed leg or a declaration claims
each of its ends.  Everything else — feedback loops, shared reads, symmetric
gates that claim wire ends — raises NonSequential.  ``graphlib`` orders the
gates: each wire's producer before the gates that read it, its taps before
its consumer.

Evaluation holds a (2,)*n amplitude tensor, one axis per qubit, and
contracts it with each scheduled gate's entry tensor in one ``np.einsum``.
The state's axes carry the labels 0..n-1.  A control, input or tap leg takes
the label of its wire's axis; an output leg takes the fresh label n + leg,
which replaces its paired input's label in the output, so the qubit keeps its
axis.  A tap gate that reads one wire twice repeats the label, and einsum
takes the diagonal.  A complemented read is the entry tensor flipped along
that leg's axis.  Listed entries are used throughout; the accumulated
normalization exponent is applied once, after the requested output component
is read.

The schedule depends on the circuit alone, so it is kept in the circuit's
``circuit.derived`` record; a circuit with none raises on every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .circuit import (Amplitude, BoundaryAssignment, Circuit, derived, end_claims,
                      resolve_boundary)
from .engine import HARD_MAX_WIRES, wire_guard
from .errors import NonSequential
from .gates import Role

HARD_MAX_QUBITS = HARD_MAX_WIRES - 4  # 2^n amplitudes of 16 bytes fit a signed 64-bit byte count


@dataclass(frozen=True)
class SeqPlan:
    steps: tuple[tuple[np.ndarray, list[int], list[int]], ...]  # (tensor, leg labels, output labels)
    out_axes: dict[str, int]         # boundary-out wire -> tensor axis


def sequential_order(c: Circuit) -> SeqPlan:
    """Schedule the circuit's gates, or raise NonSequential."""
    produced, consumed = end_claims(c)
    for counts in (produced, consumed):
        for name, n in counts.items():
            if n > 1:
                raise NonSequential(f"wire {name} has two producers or two consumers, a "
                                    "declared end counting as one; no gate schedule exists")
    for gi, g in enumerate(c.gates):
        d = g.gate
        if d.is_symmetric:
            # a symmetric leg fills an end of its wire that nothing else claims
            if not all(produced[w] and consumed[w] for w in g.wires):
                raise NonSequential(
                    f"gate {gi} ({d.name}) binds symmetric legs to wire ends; "
                    "no schedule treats it as an operator")
            if not np.all(np.isclose(np.abs(d.entries), 1.0)):
                raise NonSequential(f"gate {gi} ({d.name}) taps wires but is not a pure phase")
        elif not d.is_matrix_style:
            raise NonSequential(f"gate {gi} ({d.name}) mixes symmetric and directed legs")

    # each wire's producer runs before the gates that read it, and the gates
    # that tap it before its consumer; a gate that reads its own output is a
    # loop of one, and a control on its own input fails below
    producer: dict[str, int] = {}
    consumer: dict[str, int] = {}
    readers: dict[str, list[int]] = {w.name: [] for w in c.wires}
    for gi, g in enumerate(c.gates):
        for w, role in zip(g.wires, g.gate.role_index):   # IN 0, OUT 1, CTRL 2, SYM 3
            if role == 1:
                producer[w] = gi
            else:
                readers[w].append(gi)
                if role == 0:
                    consumer[w] = gi
    graph = TopologicalSorter({gi: () for gi in range(len(c.gates))})
    for w, gis in readers.items():
        p, s = producer.get(w), consumer.get(w)
        for t in gis:
            if p is not None:
                graph.add(t, p)
            if s is not None and s != t:
                graph.add(s, t)
    try:
        order = list(graph.static_order())
    except CycleError:
        raise NonSequential("feedback loop: the gates cannot be ordered") from None

    live = {w.name: i for i, w in enumerate(c.input_wires)}
    n = len(live)
    steps = []
    for gi in order:
        g = c.gates[gi]
        d = g.gate
        ten = np.flip(d.entries, [li for li, neg in enumerate(g.negs) if neg])
        out = list(range(n))
        if d.is_matrix_style:
            labels = [live[w] if role is Role.CTRL else -1 for w, role in zip(g.wires, d.legs)]
            for kind, *legs in d.qubit_slots:
                if kind == "pair":
                    in_leg, out_leg = legs
                    p = live.pop(g.wires[in_leg])
                    live[g.wires[out_leg]] = p
                    labels[in_leg] = p
                    labels[out_leg] = out[p] = n + out_leg
            read = [x for x in labels if x < n]
            if len(set(read)) != len(read):
                raise NonSequential(f"gate {gi} ({d.name}) binds one qubit to two roles")
        else:
            labels = [live[w] for w in g.wires]
        steps.append((ten, labels, out))

    out_axes = {w.name: live[w.name] for w in c.output_wires}
    return SeqPlan(tuple(steps), out_axes)


def amplitude_canonical(c: Circuit, boundary: BoundaryAssignment, *,
                        max_wires: int | None = None) -> complex:
    """<out|circuit|in> by dense simulation, normalization applied at the end.

    The state holds 2^n amplitudes, so its n qubits count against the wire
    guard (``max_wires``, else ``HISTQ_MAX_WIRES``, else the default)."""
    n = len(c.input_wires)
    wire_guard(n, f"{n} qubits", max_wires, hard=HARD_MAX_QUBITS, unit="amplitudes")
    assignment = resolve_boundary(c, boundary)
    if assignment is None:
        return 0j
    rec = derived(c)
    plan = rec.schedule = rec.schedule or sequential_order(c)
    axes = list(range(n))
    psi = np.zeros((2,) * n, dtype=np.complex128)
    psi[tuple(assignment[w.name] for w in c.input_wires)] = 1.0
    for ten, labels, out in plan.steps:
        psi = np.einsum(ten, labels, psi, axes, out)
    idx = [0] * n
    for name, axis in plan.out_axes.items():
        idx[axis] = assignment[name]
    return Amplitude(complex(psi[tuple(idx)]), c.total_norm_exponent).resolved()
