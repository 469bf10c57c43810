import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from histq import (BUILTIN, BoundaryAssignment, MaxWiresExceeded,
                   SeqDescription, SeqLine, SeqOp, accepted_history_count,
                   amplitude_canonical, evaluate, free_output_ends,
                   lower_sequential, memory_probe, output_distribution,
                   parse_circuit, phase_gate, transition_probability)
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
    assert accepted_history_count(c, BoundaryAssignment({"a0": 1}, {"a9": 0})) == 1


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
def split_cases(draw):
    """A random 2-5 line circuit, a full query and a power-of-two chunk."""
    n = draw(st.integers(2, 5))
    names = [f"q{i}" for i in range(n)]
    pools = [POOL1, POOL2] + ([POOL3] if n >= 3 else [])
    ops = []
    for _ in range(draw(st.integers(1, 10))):
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
    monkeypatch.setattr(engine, "_run_gates",
                        lambda *a: calls.append(1) or run_gates(*a))
    for threads in (None, 2):
        calls.clear()
        r = evaluate(c, BoundaryAssignment(), chunk_size=2, threads=threads)
        assert r.value == whole.value and r.accepted == whole.accepted
        assert len(calls) == 1 + 2   # the shared low products, then 2 of 4 blocks


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


def test_transition_probability():
    c = parse_circuit("version 1\nmode seq\nqubit a in=0\napply H a\n")
    p = transition_probability(c, BoundaryAssignment({}, {"a1": 0}))
    assert abs(p - 0.5) < 1e-12


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
    assert d.unit_total()
    # only branches delivering the data bit carry weight
    for bits, p in d.probs.items():
        want = 0.25 if bits[2] == "1" else 0.0
        assert abs(p - want) < 1e-12


def test_output_distribution_dense_engine():
    c = parse_circuit(TELEPORTATION_TEXT)
    d = output_distribution(c, BoundaryAssignment({"x0": 0}, {}),
                            amplitude=amplitude_canonical)
    assert abs(d.total - 1.0) < 1e-12


def test_memory_probe_reports_peak():
    with memory_probe() as probe:
        junk = np.ones(1 << 16)
        del junk
    assert probe.peak > (1 << 16) * 8
