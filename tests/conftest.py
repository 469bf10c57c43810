"""Shared generators: random sequential circuits, random netlists and
boundary queries; and ``evaluate_at``, the history sum at a forced split."""

import math

from histq import (BUILTIN, BoundaryAssignment, Circuit, GateInstance,
                   SeqDescription, SeqLine, SeqOp, Wire, evaluate,
                   lower_sequential, phase_gate)
from histq import engine

POOL1 = ["H", "X", "Y", "Z", "S", "T"]
POOL2 = ["CNOT", "CZ", "SWAP"]
POOL3 = ["TOFFOLI", "CCZ"]
THETAS = [3.14159 / 3, 0.7, -1.2]


def random_ops(rng, names, g_max=8, phase_taps=True):
    n = len(names)
    ops = []
    for _ in range(rng.randint(1, g_max)):
        r = rng.random()
        if r < 0.45 or n == 1:
            ops.append(SeqOp(BUILTIN[rng.choice(POOL1)], (rng.choice(names),)))
        elif r < 0.8 or n == 2:
            ops.append(SeqOp(BUILTIN[rng.choice(POOL2)],
                             tuple(rng.sample(names, 2))))
        elif r < 0.9 or not phase_taps:
            ops.append(SeqOp(BUILTIN[rng.choice(POOL3)],
                             tuple(rng.sample(names, 3))))
        else:
            k = rng.randint(1, min(3, n))
            ops.append(SeqOp(phase_gate(rng.choice(THETAS), k),
                             tuple(rng.sample(names, k))))
    return tuple(ops)


def random_circuit(rng, n_max=4, g_max=8, pinned=True):
    """A lowered sequential circuit on up to n_max lines.

    With ``pinned`` some line ends carry fixed bits, the rest stay free —
    the mix a boundary query has to cope with.
    """
    n = rng.randint(1, n_max)
    names = [f"q{i}" for i in range(n)]
    ops = random_ops(rng, names, g_max)
    if pinned:
        lines = tuple(SeqLine(nm,
                              rng.choice([None, 0, 1]),
                              rng.choice([None, None, None, 0, 1]))
                      for nm in names)
    else:
        lines = tuple(SeqLine(nm) for nm in names)
    return lower_sequential(SeqDescription(lines, ops))


def random_query(rng, c):
    """Random bits for every boundary end the circuit leaves free."""
    ins = {w.name: rng.getrandbits(1)
           for w in c.input_wires if w.in_value is None}
    outs = {w.name: rng.getrandbits(1)
            for w in c.output_wires if w.out_value is None}
    return BoundaryAssignment(ins, outs)


NETLIST_GATES = [BUILTIN[n] for n in ("X", "Y", "H", "S", "CNOT", "SWAP", "TOFFOLI", "CCZ",
                                      "XOR3", "XOR3")] + [phase_gate(math.pi, 2),
                                                          phase_gate(0.7, 1), phase_gate(0.0, 0)]


def random_netlist(rng):
    """Any gate on any wires: repeated wires, complemented reads, and pins
    that contradict each other or the gates."""
    wires = [Wire(f"w{i}", in_value=rng.choice([None, None, None, 0, 1]),
                  out_value=rng.choice([None] * 8 + [0, 1]))
             for i in range(rng.randint(1, 10))]
    gates = []
    for _ in range(rng.randint(0, 10)):
        d = rng.choice(NETLIST_GATES)
        gates.append(GateInstance(d, tuple(rng.choice(wires).name for _ in d.legs),
                                  tuple(rng.random() < 0.3 for _ in d.legs)))
    return Circuit(wires, gates)


def evaluate_at(low, c, q=None, **opts):
    """``evaluate`` with the history counter split at ``low`` (at most w):
    the circuit's plan is rebuilt with a cost model that prefers ``low``,
    and dropped again afterwards so later queries get the cost-chosen one."""
    cost = engine._split_cost
    engine._split_cost = lambda shifts, w, at: abs(at - low)
    engine._PLANS.pop(c, None)
    try:
        return evaluate(c, q, **opts)
    finally:
        engine._split_cost = cost
        engine._PLANS.pop(c, None)
