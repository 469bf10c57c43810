"""Shared generators: random sequential circuits, random netlists and
boundary queries; ``evaluate_at``, the history sum at a forced split;
``seq_oracle``, a seq program's amplitude computed without lowering it; and
``leg_attachments``, the free-end rule placed leg by leg."""

import itertools
import math

import numpy as np

from histq import (BUILTIN, BoundaryAssignment, Circuit, GateInstance,
                   SeqDescription, SeqLine, SeqOp, Wire, evaluate, interface,
                   lower_sequential, phase_gate)
from histq import circuit, engine

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


def leg_attachments(c):
    """Each wire's (producer, consumer, taps) as (gate, leg)s: the first output
    leg fills the begin end, the first input leg the end end, symmetric legs
    fill undeclared open ends begin side first, and every other leg taps.
    An end that no leg fills is at the boundary.  The reference the
    library's leg count is checked against."""
    legs = {w.name: ([], [], [], []) for w in c.wires}   # IN, OUT, CTRL, SYM
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


def evaluate_at(low, c, q=None, **opts):
    """``evaluate`` with the history counter split at ``low`` (at most w):
    the circuit's plan is rebuilt with a cost model that prefers ``low``,
    and dropped again afterwards so later queries get the cost-chosen one."""
    cost = engine._split_cost
    engine._split_cost = lambda shifts, w, at: abs(at - low)
    circuit.derived(c).plan = None
    try:
        return evaluate(c, q, **opts)
    finally:
        engine._split_cost = cost
        circuit.derived(c).plan = None


def seq_oracle(desc, in_bits, out_bits):
    """<out_bits| U |in_bits> of a seq program, one bit per line in line
    order, from a dense state it applies each op to by its matrix: no
    netlist, no lowering and no engine is involved.  Controls select the
    op's block for their setting (``GateDef.blocks``); a ``phase`` op
    multiplies the states where every line it names reads 1."""
    axis = {ln.name: i for i, ln in enumerate(desc.lines)}
    n = len(axis)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[tuple(in_bits)] = 1
    k = desc.norm_shift
    for op in desc.ops:
        g, axes = op.gate, [axis[q] for q in op.qubits]
        k += g.norm_exponent
        if g.is_symmetric:
            where = [slice(None)] * n
            for a in axes:
                where[a] = 1
            psi[tuple(where)] *= g.entries[(1,) * g.n_legs]
            continue
        blocks = g.blocks()          # (controls, targets out, targets in)
        front = np.moveaxis(psi, axes, range(len(axes)))
        flat = front.reshape(blocks.shape[0], blocks.shape[2], -1)
        front = np.einsum("cij,cjr->cir", blocks, flat).reshape(front.shape)
        psi = np.moveaxis(front, range(len(axes)), axes)
    return complex(psi[tuple(out_bits)]) * 2.0 ** (-k / 2)


def line_queries(desc, c):
    """Every boundary pattern of ``c``, the lowering of ``desc``: yields the
    query that binds its free ends by position, as the CLI binds bit
    strings, with the in and out bit of every line that query means."""
    ins, outs = interface(c)
    free_in = [i for i, ln in enumerate(desc.lines) if ln.in_value is None]
    free_out = [i for i, ln in enumerate(desc.lines) if ln.out_value is None]
    assert (len(ins), len(outs)) == (len(free_in), len(free_out))
    for bits in itertools.product((0, 1), repeat=len(ins) + len(outs)):
        line_in = [ln.in_value for ln in desc.lines]
        line_out = [ln.out_value for ln in desc.lines]
        for i, b in zip(free_in, bits):
            line_in[i] = b
        for i, b in zip(free_out, bits[len(ins):]):
            line_out[i] = b
        yield (BoundaryAssignment(dict(zip(ins, bits)), dict(zip(outs, bits[len(ins):]))),
               line_in, line_out)
