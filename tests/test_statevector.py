"""Dense-simulator checks against literal matrices applied by brute force."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import histq.statevector
from histq import (BoundaryAssignment, Circuit, GateDef, GateInstance, NonSequential,
                   Role, SeqDescription, SeqLine, Wire, amplitude_canonical, evaluate,
                   lower_sequential, parse_circuit, phase_gate)
from histq.examples import BENT_WIRE_TEXT, TELEPORTATION_TEXT, THREE_STAGE_TEXT

from conftest import THETAS, random_circuit, random_ops, random_query

S2 = 1.0 / math.sqrt(2.0)

LITERAL = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]),
    "H": S2 * np.array([[1, 1], [1, -1]]),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": np.diag([1, 1, 1, -1]),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    "TOFFOLI": np.diag([1.0] * 8),
    "CCZ": np.diag([1.0] * 7 + [-1.0]),
}
LITERAL["TOFFOLI"][6:, 6:] = [[0, 1], [1, 0]]


def brute_amplitude(names, ops, in_bits, out_bits):
    """<out|U_m ... U_1|in> by explicit index arithmetic, no shared code."""
    n = len(names)
    pos = {nm: i for i, nm in enumerate(names)}
    idx = 0
    for nm in names:
        idx = idx * 2 + in_bits[nm]
    psi = np.zeros(2 ** n, dtype=complex)
    psi[idx] = 1.0
    for op in ops:
        qs = [pos[q] for q in op.qubits]
        if op.gate.is_symmetric:  # phase tap
            corner = complex(op.gate.entries.reshape(-1)[-1])
            for i in range(2 ** n):
                if all((i >> (n - 1 - q)) & 1 for q in qs):
                    psi[i] *= corner
            continue
        u = np.asarray(LITERAL[op.gate.name], dtype=complex)
        k = len(qs)
        out = np.zeros_like(psi)
        for i in range(2 ** n):
            col = 0
            for q in qs:
                col = col * 2 + ((i >> (n - 1 - q)) & 1)
            for row in range(2 ** k):
                j = i
                for t, q in enumerate(qs):
                    bit = (row >> (k - 1 - t)) & 1
                    j = (j & ~(1 << (n - 1 - q))) | (bit << (n - 1 - q))
                out[j] += u[row, col] * psi[i]
        psi = out
    jdx = 0
    for nm in names:
        jdx = jdx * 2 + out_bits[nm]
    return psi[jdx]


def seq_text(n, body):
    lines = "".join(f"qubit q{i}\n" for i in range(n))
    return f"version 1\nmode seq\n{lines}{body}"


def test_hadamard_amplitudes():
    c = parse_circuit(seq_text(1, "apply H q0\n"))
    for i in (0, 1):
        for o in (0, 1):
            a = amplitude_canonical(c, BoundaryAssignment({"q00": i}, {"q01": o}))
            want = -S2 if i == o == 1 else S2
            assert abs(a - want) < 1e-12


def test_cnot_truth_table():
    c = parse_circuit(seq_text(2, "apply CNOT q0 q1\n"))
    for a in (0, 1):
        for b in (0, 1):
            probs = {}
            for oa in (0, 1):
                for ob in (0, 1):
                    amp = amplitude_canonical(
                        c, BoundaryAssignment({"q00": a, "q10": b},
                                              {"q00": oa, "q11": ob}))
                    probs[(oa, ob)] = abs(amp)
            want = (a, b ^ a)
            for key, mag in probs.items():
                assert mag == (1.0 if key == want else 0.0)


def test_s_gate_phase():
    # S taps its line: one wire, q00, carries both ends
    c = parse_circuit(seq_text(1, "apply S q0\n"))
    a = amplitude_canonical(c, BoundaryAssignment({"q00": 1}, {"q00": 1}))
    assert a == 1j


def test_wire_only_circuit():
    c = parse_circuit("version 1\nmode net\nwire a in out\n")
    assert amplitude_canonical(c, BoundaryAssignment({"a": 0}, {"a": 0})) == 1
    assert amplitude_canonical(c, BoundaryAssignment({"a": 0}, {"a": 1})) == 0


def test_conflicting_query_gives_zero():
    c = parse_circuit("version 1\nmode net\nwire a in=0\nwire b out\n"
                      "gate X a b\n")
    assert amplitude_canonical(c, BoundaryAssignment({"a": 1}, {"b": 1})) == 0


def test_negated_control():
    # CNOT firing on control = 0
    c = parse_circuit("version 1\nmode net\nwire a in out\nwire b in\nwire c out\n"
                      "gate CNOT ~a b c\n")
    amp = amplitude_canonical(
        c, BoundaryAssignment({"a": 0, "b": 0}, {"a": 0, "c": 1}))
    assert amp == 1
    amp = amplitude_canonical(
        c, BoundaryAssignment({"a": 1, "b": 0}, {"a": 1, "c": 0}))
    assert amp == 1


def test_three_stage_increments():
    # the permutation block adds three over the three applications
    c = parse_circuit(THREE_STAGE_TEXT)
    amp = amplitude_canonical(
        c, BoundaryAssignment({"a0": 0, "b0": 0, "c0": 0},
                              {"a3": 0, "b3": 1, "c3": 1}))
    assert abs(amp - 1) < 1e-12


def test_bent_wire_has_no_schedule():
    c = parse_circuit(BENT_WIRE_TEXT)
    for _ in range(2):   # a failed schedule is not remembered as a success
        with pytest.raises(NonSequential):
            amplitude_canonical(c, BoundaryAssignment())


def test_schedule_is_derived_once_per_circuit(monkeypatch):
    scheduled = []
    real = histq.statevector.sequential_order
    monkeypatch.setattr(histq.statevector, "sequential_order",
                        lambda c: scheduled.append(c) or real(c))
    c = parse_circuit(TELEPORTATION_TEXT)
    amps = [amplitude_canonical(c, BoundaryAssignment({"x0": 1}, {"x1": 0, "b2": 0, "c3": c3}))
            for c3 in (0, 1)]
    assert scheduled == [c]
    assert amps == [0.0, 0.5]


def test_xor_netlist_has_no_schedule():
    c = parse_circuit("version 1\nmode net\nwire a in out\nwire b in out\n"
                      "wire c in out\ngate XOR3 a b c\n")
    with pytest.raises(NonSequential):
        amplitude_canonical(c, BoundaryAssignment(
            {"a": 0, "b": 0, "c": 0}, {"a": 0, "b": 0, "c": 0}))


@pytest.mark.parametrize("body", [
    "wire a in\nwire b out\ngate CNOT b a b\n",   # control reads the gate's own output
    "wire a\ngate X a a\n",                        # the gate consumes its own output
])
def test_gate_reading_its_own_output_has_no_schedule(body):
    c = parse_circuit("version 1\nmode net\n" + body)
    with pytest.raises(NonSequential, match="feedback loop"):
        amplitude_canonical(c, BoundaryAssignment(
            {w.name: 0 for w in c.input_wires}, {w.name: 0 for w in c.output_wires}))


MIXED = GateDef("MIX", (Role.IN, Role.OUT, Role.SYM), np.ones((2, 2, 2)))


@pytest.mark.parametrize("make, match", [
    (lambda: parse_circuit("version 1\nmode net\nwire a in\nwire b in\nwire c out\n"
                           "gate X a c\ngate X b c\n"),
     "wire c has two producers or two consumers"),
    (lambda: parse_circuit("version 1\nmode net\nwire a out\nphase pi a\n"),
     r"gate 0 \(PHASE\) binds symmetric legs to wire ends"),
    (lambda: parse_circuit("version 1\nmode net\nwire a in\nwire b in out\n"
                           "phase pi b\nphase pi b a\n"),
     r"gate 1 \(PHASE\) binds symmetric legs to wire ends"),
    (lambda: parse_circuit("version 1\nmode net\nwire a in out\nwire b in out\n"
                           "wire c in out\ngate XOR3 a b c\n"),
     r"gate 0 \(XOR3\) taps wires but is not a pure phase"),
    (lambda: Circuit((Wire("a", in_bound=True), Wire("b", out_bound=True),
                      Wire("t", in_bound=True, out_bound=True)),
                     (GateInstance(MIXED, ("a", "b", "t")),)),
     r"gate 0 \(MIX\) mixes symmetric and directed legs"),
    (lambda: parse_circuit("version 1\nmode net\nwire a in\nwire b out\ngate CNOT a a b\n"),
     r"gate 0 \(CNOT\) binds one qubit to two roles"),
    (lambda: parse_circuit("version 1\nmode net\nwire a\nwire b\ngate X a b\ngate X b a\n"),
     "feedback loop"),
    (lambda: parse_circuit("version 1\nmode net\nwire a\ngate X a a\n"),
     "feedback loop"),
], ids=["two producers", "symmetric leg fills a begin end",
        "symmetric leg fills an end end", "not a pure phase", "mixed legs",
        "one qubit in two roles", "feedback loop", "self-loop"])
def test_dense_refusals(make, match):
    c = make()
    with pytest.raises(NonSequential, match=match):
        amplitude_canonical(c, BoundaryAssignment(
            {w.name: 0 for w in c.input_wires if w.in_value is None},
            {w.name: 0 for w in c.output_wires if w.out_value is None}))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_complemented_legs_and_repeated_taps_match_history_sum(seed):
    """Net netlists whose gates read about 30% of their legs complemented
    (controls, inputs and outputs alike), plus phase taps that read one wire
    twice: the dense engine agrees with the history sum."""
    rng = random.Random(seed)
    c = random_circuit(rng, g_max=10)
    gates = [GateInstance(g.gate, g.wires, tuple(rng.random() < 0.3 for _ in g.wires))
             for g in c.gates]
    for _ in range(rng.randint(1, 2)):
        # the boundary ends on one side are live together, so any two may be tapped at once
        names = [w.name for w in rng.choice([c.input_wires, c.output_wires])]
        w = rng.choice(names)
        wires = rng.choice([(w, w), (w, w, rng.choice(names))])
        gates.append(GateInstance(phase_gate(rng.choice(THETAS), len(wires)), wires,
                                  tuple(rng.random() < 0.3 for _ in wires)))
    c = Circuit(c.wires, gates)
    q = random_query(rng, c)
    assert abs(amplitude_canonical(c, q) - evaluate(c, q).value) < 1e-10


def test_random_circuits_match_brute_force():
    rng = random.Random(20240811)
    for trial in range(60):
        n = rng.randint(1, 3)
        names = [f"q{i}" for i in range(n)]
        ops = random_ops(rng, names, g_max=6)
        desc = SeqDescription(tuple(SeqLine(nm) for nm in names), ops)
        c = lower_sequential(desc)
        in_bits = {nm: rng.getrandbits(1) for nm in names}
        out_bits = {nm: rng.getrandbits(1) for nm in names}
        want = brute_amplitude(names, ops, in_bits, out_bits)
        q = BoundaryAssignment(
            {w.name: in_bits[nm] for w, nm in zip(c.input_wires, names)},
            {w.name: out_bits[nm] for w, nm in zip(c.output_wires, names)})
        got = amplitude_canonical(c, q)
        assert abs(got - want) < 1e-10, (trial, got, want)


def test_phase_may_tap_one_line_twice():
    # both legs read one segment: the factor is (-1)^a, a Z, and H Z H is X
    c = parse_circuit("version 1\nmode seq\nqubit a\napply H a\nphase pi a a\napply H a\n")
    for i in (0, 1):
        for o in (0, 1):
            q = BoundaryAssignment({"a0": i}, {"a2": o})
            dense = amplitude_canonical(c, q)
            assert abs(evaluate(c, q).value - dense) <= 1e-12
            assert abs(dense - (i != o)) <= 1e-12
