import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from histq import (BUILTIN, Amplitude, BoundaryAssignment, MaxWiresExceeded,
                   Circuit, GateInstance, SeqDescription, SeqLine, SeqOp, Wire,
                   amplitude_canonical, classify_wires, equivalent, evaluate,
                   free_output_ends, gate_factor, lower_sequential,
                   memory_probe, output_distribution, parse_circuit,
                   phase_gate, resolve_boundary)
from histq import engine
from histq.engine import resolve_max_wires
from histq.examples import TELEPORTATION_TEXT

from conftest import POOL1, POOL2, POOL3, THETAS, random_circuit, random_query


def chain(n_gates, name="a", gate="X"):
    ops = tuple(SeqOp(BUILTIN[gate], (name,)) for _ in range(n_gates))
    return lower_sequential(SeqDescription((SeqLine(name),), ops))


def test_engines_agree_on_random_circuits():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(120):
        c = random_circuit(rng)
        q = random_query(rng, c)
        soh = evaluate(c, q).value
        dense = amplitude_canonical(c, q)
        worst = max(worst, abs(soh - dense))
    assert worst <= 1e-10, worst


def test_teleportation_amplitude():
    c = parse_circuit(TELEPORTATION_TEXT)
    for x in (0, 1):
        for p in (0, 1):
            for q in (0, 1):
                r = evaluate(c, BoundaryAssignment(
                    {"x0": x}, {"x1": p, "b2": q, "c3": x}))
                assert abs(abs(r.value) - 0.5) < 1e-12
                bad = evaluate(c, BoundaryAssignment(
                    {"x0": x}, {"x1": p, "b2": q, "c3": 1 - x}))
                assert abs(bad.value) < 1e-12


def test_hadamard_pair_cancels_exactly():
    c = parse_circuit("version 1\nmode seq\nqubit a in=0 out=1\n"
                      "apply H a\napply H a\n")
    r = evaluate(c, BoundaryAssignment())
    # two histories contribute +1 and -1 before normalization: exact zero
    assert r.amplitude.value == 0
    assert r.amplitude.norm_exponent == 2
    assert r.histories == 2 and r.accepted == 2


def test_identity_from_two_hadamards():
    c = parse_circuit("version 1\nmode seq\nqubit a in=0 out=0\n"
                      "apply H a\napply H a\n")
    r = evaluate(c, BoundaryAssignment())
    assert r.value == 1.0


def test_eval_result_counts():
    c = parse_circuit(TELEPORTATION_TEXT)
    r = evaluate(c, BoundaryAssignment({"x0": 0}, {"x1": 0, "b2": 0, "c3": 0}))
    # pinned line ends stay external; only the middle segments are summed over
    assert r.internal_wires == ("b1", "c1", "c2")
    assert r.histories == 8
    assert 0 < r.accepted <= r.histories


def test_classical_chain_accepts_one_history():
    c = chain(9)
    # 9 X gates: in=0 forces every segment, out bit must be 1
    r = evaluate(c, BoundaryAssignment({"a0": 0}, {"a9": 1}))
    assert r.value == 1 and r.accepted == 1
    assert evaluate(c, BoundaryAssignment({"a0": 0}, {"a9": 0})).accepted == 0
    assert evaluate(c, BoundaryAssignment({"a0": 1}, {"a9": 0})).accepted == 1


def test_conflicting_query_short_circuits():
    c = parse_circuit("version 1\nmode seq\nqubit a in=0\napply X a\n")
    r = evaluate(c, BoundaryAssignment({"a0": 1}, {"a1": 1}))
    assert r.value == 0 and r.accepted == 0


def test_chunking_and_threads_change_nothing():
    c = parse_circuit(TELEPORTATION_TEXT)
    q = BoundaryAssignment({"x0": 1}, {"x1": 0, "b2": 1, "c3": 1})
    base = evaluate(c, q).value
    # integer-entry factors: the sum is exact under any chunking
    assert evaluate(c, q, chunk_size=3).value == base
    assert evaluate(c, q, chunk_size=1).value == base
    assert evaluate(c, q, threads=3).value == base
    assert evaluate(c, q, chunk_size=2, threads=4).value == base


def test_chunking_on_phase_circuit():
    rng = random.Random(99)
    for _ in range(20):
        c = random_circuit(rng)
        q = random_query(rng, c)
        a = evaluate(c, q).value
        b = evaluate(c, q, chunk_size=5, threads=2).value
        assert abs(a - b) < 1e-12


@st.composite
def split_cases(draw, max_lines=5, max_ops=10):
    """A random circuit on 2 to ``max_lines`` lines, a full query and a
    power-of-two chunk."""
    n = draw(st.integers(2, max_lines))
    names = [f"q{i}" for i in range(n)]
    pools = [POOL1, POOL2] + ([POOL3] if n >= 3 else [])
    ops = []
    for _ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(pools + ["phase"]))
        if kind == "phase":
            k = draw(st.integers(1, min(3, n)))
            gate = phase_gate(draw(st.sampled_from(THETAS)), k)
        else:
            gate = BUILTIN[draw(st.sampled_from(kind))]
            k = len(gate.qubit_slots())
        qubits = draw(st.permutations(names))[:k]
        ops.append(SeqOp(gate, tuple(qubits)))
    lines = tuple(SeqLine(nm, draw(st.sampled_from([None, 0, 1])),
                          draw(st.sampled_from([None, 0, 1]))) for nm in names)
    c = lower_sequential(SeqDescription(lines, tuple(ops)))
    bits = st.integers(0, 1)
    q = BoundaryAssignment(
        {w.name: draw(bits) for w in c.input_wires if w.in_value is None},
        {w.name: draw(bits) for w in c.output_wires if w.out_value is None})
    return c, q, 1 << draw(st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_split_sum_matches_dense_under_any_chunking(case):
    c, q, pow2 = case
    dense = amplitude_canonical(c, q)
    accepted = set()
    for chunk in (1, 2, 3, 5, pow2):
        single = evaluate(c, q, chunk_size=chunk)
        threaded = evaluate(c, q, chunk_size=chunk, threads=2)
        assert abs(single.value - dense) <= 1e-10
        # blocks are reduced in ascending order either way
        assert threaded.value == single.value
        accepted |= {single.accepted, threaded.accepted}
    assert len(accepted) == 1


def brute_force(c, q):
    """Amplitude and accepted count from every history, one gate at a time."""
    internal, _ = classify_wires(c)
    fixed = resolve_boundary(c, q)
    if fixed is None:
        return 0j, 0
    total, accepted = 0j, 0
    for bits in itertools.product((0, 1), repeat=len(internal)):
        history = dict(fixed, **dict(zip(internal, bits)))
        prod = 1 + 0j
        for g in c.gates:
            prod *= gate_factor(g, history)
            if prod == 0:
                break
        else:
            accepted += 1
        total += prod
    return Amplitude(total, c.total_norm_exponent).resolved(), accepted


@settings(max_examples=100, deadline=None)
@given(split_cases(max_lines=4, max_ops=12))
def test_three_stage_sum_matches_brute_force(case):
    c, q, pow2 = case
    assume(len(classify_wires(c)[0]) <= 10)
    want, accepted = brute_force(c, q)
    for chunk in (1, 2, 4, pow2):
        for threads in (None, 2):
            r = evaluate(c, q, chunk_size=chunk, threads=threads)
            assert abs(r.value - want) <= 1e-12
            assert r.accepted == accepted


def test_cancelled_marginal_still_accepted():
    # internal wires sort a1, a2, a3, z1.  At chunk 4 the low bits are a3 and
    # z1; the H between a2 and a3 reads both halves, so a3 is kept and z1 is
    # summed out, where H;H on line z cancels: every kept marginal is an
    # exact 0, yet all 16 histories are accepted
    c = parse_circuit("version 1\nmode seq\nqubit a in=0 out=0\nqubit z in=0 out=1\n"
                      "apply H a\napply H a\napply H a\napply H a\n"
                      "apply H z\napply H z\n")
    for chunk in (2, 4, None):
        r = evaluate(c, BoundaryAssignment(), chunk_size=chunk)
        assert r.amplitude.value == 0
        assert r.histories == r.accepted == 16


def test_block_skip_keeps_accepted_exact(monkeypatch):
    # internal wires sort a1, a2, b1; a chunk of 2 leaves only b1 in the low
    # bits, so the X between a1 and a2 reads high bits only and zeroes the
    # two blocks where a1 == a2 before any lane is touched
    c = parse_circuit("version 1\nmode seq\nqubit a in=0 out=0\nqubit b in=0 out=0\n"
                      "apply H a\napply X a\napply H a\napply H b\napply H b\n")
    whole = evaluate(c, BoundaryAssignment())
    assert whole.value == 1 and whole.accepted == 4   # HXH = Z, HH = I
    calls = []
    run_gates = engine._run_gates
    monkeypatch.setattr(engine, "_run_gates", lambda gates, h, vals:
                        calls.append((len(gates), h.tolist())) or run_gates(gates, h, vals))
    for threads in (None, 2):
        calls.clear()
        r = evaluate(c, BoundaryAssignment(), chunk_size=2, threads=threads)
        assert r.value == whole.value and r.accepted == whole.accepted
        # 2 gates read only b1 (low stage), 3 only a1/a2 (high stage) and
        # none both (cross stage), whose lanes are block << 0 | key
        lanes = {}
        for n_gates, h in calls:
            lanes.setdefault(n_gates, []).extend(h)
        assert sorted(lanes[2]) == [0, 1]             # the low patterns, once
        assert sorted(lanes[3]) == [0, 1, 2, 3]       # every block
        assert sorted(lanes[0]) == [1, 2]             # only where a1 != a2


def test_hard_wire_cap(monkeypatch):
    c = chain(64)  # 63 internal wires: 2^63 histories
    # prepare is the guard evaluate runs first; calling it alone cannot
    # start the enumeration even if the cap were missing
    with pytest.raises(MaxWiresExceeded) as ei:
        engine.prepare(c, max_wires=1000)
    assert "63 internal wires" in str(ei.value) and "hard limit of 62" in str(ei.value)
    monkeypatch.setenv("HISTQ_MAX_WIRES", "1000")
    with pytest.raises(MaxWiresExceeded):
        engine.prepare(c)
    assert len(engine.prepare(chain(63), max_wires=1000).internal) == 62


def test_wire_guard(monkeypatch):
    c = chain(13)  # 12 internal wires
    with pytest.raises(MaxWiresExceeded) as ei:
        evaluate(c, BoundaryAssignment({"a0": 0}, {"a13": 1}), max_wires=10)
    assert "12 internal wires" in str(ei.value)
    monkeypatch.setenv("HISTQ_MAX_WIRES", "5")
    assert resolve_max_wires(None) == 5
    with pytest.raises(MaxWiresExceeded):
        evaluate(c, BoundaryAssignment({"a0": 0}, {"a13": 1}))
    # an explicit argument beats the environment
    r = evaluate(c, BoundaryAssignment({"a0": 0}, {"a13": 1}), max_wires=20)
    assert r.value == 1
    monkeypatch.delenv("HISTQ_MAX_WIRES")
    assert resolve_max_wires(None) == 40


def test_plan_is_built_once_per_circuit(monkeypatch):
    built = []
    real = engine._build_plan
    monkeypatch.setattr(engine, "_build_plan", lambda c: built.append(c) or real(c))
    c = parse_circuit(TELEPORTATION_TEXT)
    q = BoundaryAssignment({"x0": 1}, {"x1": 0, "b2": 0, "c3": 1})
    first, second = evaluate(c, q), evaluate(c, q)
    assert output_distribution(c, BoundaryAssignment({"x0": 1})).total == 1.0
    assert equivalent(c, c) == (True, 0.0)
    assert built == [c]
    assert first.internal_wires is second.internal_wires
    with pytest.raises(MaxWiresExceeded):
        evaluate(c, q, max_wires=len(first.internal_wires) - 1)


def test_transition_probability():
    c = parse_circuit("version 1\nmode seq\nqubit a in=0\napply H a\n")
    p = abs(evaluate(c, BoundaryAssignment({}, {"a1": 0})).value) ** 2
    assert abs(p - 0.5) < 1e-12


def test_prepare_runs_zero_capable_gates_first():
    tap, h, y, cnot, s = (phase_gate(0.3, 2), BUILTIN["H"], BUILTIN["Y"],
                          BUILTIN["CNOT"], BUILTIN["S"])
    gates = [GateInstance(tap, ("a0", "b0")), GateInstance(h, ("a0", "a1")),
             GateInstance(y, ("b0", "b1")), GateInstance(tap, ("a1", "b1")),
             GateInstance(cnot, ("a1", "b1", "b2")), GateInstance(h, ("a1", "a2")),
             GateInstance(s, ("b2", "b3"))]
    c = Circuit([Wire("a0", in_bound=True), Wire("a1"), Wire("a2", out_bound=True),
                 Wire("b0", in_bound=True), Wire("b1"), Wire("b2"),
                 Wire("b3", out_bound=True)], gates)
    prep = engine.prepare(c)

    def wires_read(spec):
        n = len(spec.ext_legs) + len(spec.var_legs)
        wires = [None] * n
        for wire, place in spec.ext_legs:
            wires[n - 1 - place] = wire
        for shift, place in spec.var_legs:
            wires[n - 1 - place] = prep.internal[len(prep.internal) - 1 - shift]
        return tuple(wires)

    # Y, CNOT and S have zero entries; the phase tap and H have none
    want = [gates[i] for i in (2, 4, 6, 0, 1, 3, 5)]
    assert [wires_read(spec) for spec in prep.specs] == [g.wires for g in want]


def test_free_output_ends():
    c = parse_circuit(TELEPORTATION_TEXT)
    assert free_output_ends(c, BoundaryAssignment({"x0": 0}, {})) == \
        ["x1", "b2", "c3"]
    assert free_output_ends(c, BoundaryAssignment({"x0": 0}, {"b2": 1})) == \
        ["x1", "c3"]


def test_output_distribution_sums_to_one():
    c = parse_circuit(TELEPORTATION_TEXT)
    d = output_distribution(c, BoundaryAssignment({"x0": 1}, {}))
    assert set(d.probs) == {f"{a}{b}{c}" for a in "01" for b in "01" for c in "01"}
    assert abs(d.total - 1.0) < 1e-12
    # only branches delivering the data bit carry weight
    for bits, p in d.probs.items():
        want = 0.25 if bits[2] == "1" else 0.0
        assert abs(p - want) < 1e-12


def test_output_distribution_dense_engine():
    c = parse_circuit(TELEPORTATION_TEXT)
    d = output_distribution(c, BoundaryAssignment({"x0": 0}, {}),
                            amplitude=amplitude_canonical)
    assert abs(d.total - 1.0) < 1e-12


def wide_outputs(n):
    """n wires pinned 0 at the input and free at the output, no gates."""
    return parse_circuit("version 1\nmode net\n"
                         + "".join(f"wire q{i} in=0 out\n" for i in range(n)))


def test_dist_wire_guard(monkeypatch):
    c = parse_circuit(TELEPORTATION_TEXT)
    q = BoundaryAssignment({"x0": 0}, {})
    w, f = len(classify_wires(c)[0]), len(free_output_ends(c, q))
    assert (w, f) == (3, 3)
    # one query fits the guard, but all 2^f of them together do not
    assert evaluate(c, BoundaryAssignment({"x0": 0}, {"x1": 0, "b2": 0, "c3": 0}),
                    max_wires=w).histories == 2 ** w
    with pytest.raises(MaxWiresExceeded) as ei:
        output_distribution(c, q, max_wires=w + f - 1)
    assert "3 free output ends and 3 internal wires" in str(ei.value)
    assert len(output_distribution(c, q, max_wires=w + f).probs) == 2 ** f
    # another amplitude callable pays only for the patterns
    monkeypatch.setenv("HISTQ_MAX_WIRES", str(f))
    assert abs(output_distribution(c, q, amplitude=amplitude_canonical).total - 1.0) <= 1e-9
    monkeypatch.setenv("HISTQ_MAX_WIRES", str(f - 1))
    with pytest.raises(MaxWiresExceeded):
        output_distribution(c, q, amplitude=amplitude_canonical)


def test_dist_hard_cap_trips_before_any_pattern():
    def never(c, b):
        raise AssertionError("a pattern was evaluated")

    assert len(output_distribution(wide_outputs(12), max_wires=12).probs) == 2 ** 12
    with pytest.raises(MaxWiresExceeded):
        output_distribution(wide_outputs(13), max_wires=12, amplitude=never)
    with pytest.raises(MaxWiresExceeded) as ei:
        output_distribution(wide_outputs(64), max_wires=1000, amplitude=never)
    assert "64 free output ends" in str(ei.value) and "hard limit of 62" in str(ei.value)


def test_memory_probe_reports_peak():
    with memory_probe() as probe:
        junk = np.ones(1 << 16)
        del junk
    assert probe.peak > (1 << 16) * 8
