import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from histq import (BUILTIN, Amplitude, BoundaryAssignment, MaxWiresExceeded,
                   Circuit, CircuitError, GateInstance, SeqDescription, SeqLine, SeqOp,
                   ValidationError, Wire,
                   amplitude_canonical, classify_wires, equivalent, evaluate,
                   free_output_ends, gate_factor, lower_sequential,
                   matrix_gate, memory_probe, output_distribution, parse_circuit,
                   phase_gate, resolve_boundary)
from histq import circuit, engine, statevector
from histq.engine import resolve_max_wires
from histq.examples import TELEPORTATION_TEXT

from conftest import (POOL1, POOL2, POOL3, THETAS, evaluate_at, random_circuit,
                      random_netlist, random_query)


# X's matrix under a name seq lowering does not know: it cuts its line at
# every gate, where the built-in X only flips a complement and costs no wire
NOT = matrix_gate("NOT", [[0, 1], [1, 0]])
NOT_TEXT = "matrix NOT 1\n0:0 1:0\n1:0 0:0\n"


def chain(n_gates, name="a"):
    ops = tuple(SeqOp(NOT, (name,)) for _ in range(n_gates))
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
    # pinned line ends stay external; only the middle segments are summed
    # over, and the CZ taps c1 instead of cutting it
    assert r.internal_wires == ("b1", "c1")
    assert r.histories == 4
    assert 0 < r.accepted <= r.histories


def test_classical_chain_accepts_one_history():
    c = chain(9)
    # 9 NOT gates: in=0 forces every segment, out bit must be 1
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
    # integer-entry factors: the sum is exact under any split
    assert evaluate_at(1, c, q).value == base
    assert evaluate_at(0, c, q).value == base
    assert evaluate(c, q, threads=3).value == base
    assert evaluate_at(1, c, q, threads=4).value == base


def test_chunking_on_phase_circuit():
    rng = random.Random(99)
    for _ in range(20):
        c = random_circuit(rng)
        q = random_query(rng, c)
        a = evaluate(c, q).value
        b = evaluate_at(2, c, q, threads=2).value
        assert abs(a - b) < 1e-12


@st.composite
def split_cases(draw, max_lines=5, max_ops=10, lone_lines=0):
    """A random circuit on 2 to ``max_lines`` lines, a full query and a
    split point up to 12.  With ``lone_lines``, 1 to that many more lines
    each carry a single gate, which reads only boundary ends."""
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
            k = len(gate.qubit_slots)
        qubits = draw(st.permutations(names))[:k]
        ops.append(SeqOp(gate, tuple(qubits)))
    lone = [f"e{i}" for i in range(draw(st.integers(min(1, lone_lines), lone_lines)))]
    names += lone
    while lone:
        if len(lone) >= 2 and draw(st.booleans()):
            op = SeqOp(BUILTIN[draw(st.sampled_from(POOL2))], (lone.pop(), lone.pop()))
        else:
            op = SeqOp(BUILTIN[draw(st.sampled_from(POOL1))], (lone.pop(),))
        ops.insert(draw(st.integers(0, len(ops))), op)
    lines = tuple(SeqLine(nm, draw(st.sampled_from([None, 0, 1])),
                          draw(st.sampled_from([None, 0, 1]))) for nm in names)
    c = lower_sequential(SeqDescription(lines, tuple(ops)))
    bits = st.integers(0, 1)
    q = BoundaryAssignment(
        {w.name: draw(bits) for w in c.input_wires if w.in_value is None},
        {w.name: draw(bits) for w in c.output_wires if w.out_value is None})
    return c, q, draw(st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_split_sum_matches_dense_under_any_chunking(case):
    c, q, drawn = case
    dense = amplitude_canonical(c, q)
    accepted = set()
    for low in (0, 1, 2, drawn):
        single = evaluate_at(low, c, q)
        threaded = evaluate_at(low, c, q, threads=2)
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
    c, q, drawn = case
    assume(len(classify_wires(c)[0]) <= 10)
    want, accepted = brute_force(c, q)
    for low in (0, 1, 2, drawn, None):
        for threads in (None, 2):
            if low is None:
                r = evaluate(c, q, threads=threads)
            else:
                r = evaluate_at(low, c, q, threads=threads)
            assert abs(r.value - want) <= 1e-12
            assert r.accepted == accepted


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
# a wire with a declared end and a gate leg on the same side: the dense
# engine raised a KeyError (1268) or answered 0 (2256, 2799)
@example(1268)
@example(2256)
@example(2799)
def test_netlists_match_brute_force_at_every_split(seed):
    # feedback, repeated wires, complemented reads and contradictory pins
    rng = random.Random(seed)
    c = random_netlist(rng)
    q = random_query(rng, c)
    want, accepted = brute_force(c, q)
    w = len(classify_wires(c)[0])
    for r in (evaluate(c, q), evaluate_at(0, c, q), evaluate_at(1, c, q),
              evaluate_at(w, c, q)):
        assert abs(r.value - want) <= 1e-12
        assert r.accepted == accepted
    # the dense engine answers the same or refuses the netlist
    try:
        dense = amplitude_canonical(c, q)
    except CircuitError:
        return
    assert abs(dense - want) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(split_cases(max_lines=4, max_ops=12, lone_lines=3))
def test_default_split_folds_boundary_only_gates(case):
    c, q, _ = case
    w = len(classify_wires(c)[0])
    assume(w <= 10)
    prep = engine.prepare(c)
    assert 0 <= prep.low <= min(w, 16)
    # each lone line's gate reads no internal wire: one factor per query
    assert prep.scalar
    want, accepted = brute_force(c, q)
    r = evaluate(c, q)
    assert abs(r.value - want) <= 1e-12
    assert r.accepted == accepted


def test_default_split_below_w_matches_fixed_split():
    # 40 gates on 6 lines give w = 13 (T and CZ tap their lines without
    # cutting them, and NOT stands in for X, which would not cut either),
    # where the cost model splits below w
    # (a split at 16, capped at w, holds every history in one block)
    rng = random.Random(3)
    names = [f"q{i}" for i in range(6)]
    ops = []
    for _ in range(40):
        r = rng.random()
        if r < 0.5:
            d = rng.choice(["H", "H", "X", "T"])
            ops.append(SeqOp(NOT if d == "X" else BUILTIN[d], (rng.choice(names),)))
        elif r < 0.8:
            ops.append(SeqOp(BUILTIN[rng.choice(["CNOT", "CZ"])], tuple(rng.sample(names, 2))))
        else:
            ops.append(SeqOp(phase_gate(0.7, 2), tuple(rng.sample(names, 2))))
    c = lower_sequential(SeqDescription(tuple(SeqLine(nm, 0) for nm in names), tuple(ops)))
    w = len(classify_wires(c)[0])
    assert w == 13 and engine.prepare(c).low < w
    hits = 0
    for bits in range(1 << len(names)):
        q = BoundaryAssignment({}, {e.name: (bits >> i) & 1
                                    for i, e in enumerate(c.output_wires)})
        chosen, fixed = evaluate(c, q), evaluate_at(16, c, q)
        assert chosen.accepted == fixed.accepted
        assert abs(chosen.value - fixed.value) <= 1e-12
        assert abs(chosen.value - amplitude_canonical(c, q)) <= 1e-12
        hits += chosen.accepted > 0
    assert hits > 1


def test_cancelled_marginal_still_accepted():
    # internal wires sort a1, a2, a3, z1.  At low 2 the low bits are a3 and
    # z1; the H between a2 and a3 reads both halves, so a3 is kept and z1 is
    # summed out, where H;H on line z cancels: every kept marginal is an
    # exact 0, yet all 16 histories are accepted
    c = parse_circuit("version 1\nmode seq\nqubit a in=0 out=0\nqubit z in=0 out=1\n"
                      "apply H a\napply H a\napply H a\napply H a\n"
                      "apply H z\napply H z\n")
    for r in (evaluate_at(1, c), evaluate_at(2, c), evaluate(c)):
        assert r.amplitude.value == 0
        assert r.histories == r.accepted == 16


def test_block_skip_keeps_accepted_exact(monkeypatch):
    # internal wires sort a1, a2, b1; a split at low 1 leaves only b1 in the low
    # bits, so the NOT between a1 and a2 reads high bits only and zeroes the
    # two blocks where a1 == a2 before any lane is touched
    c = parse_circuit("version 1\nmode seq\n" + NOT_TEXT + "qubit a in=0 out=0\n"
                      "qubit b in=0 out=0\n"
                      "apply H a\napply NOT a\napply H a\napply H b\napply H b\n")
    whole = evaluate(c, BoundaryAssignment())
    assert whole.value == 1 and whole.accepted == 4   # H NOT H = Z, HH = I
    calls = []
    run_gates = engine._run_gates
    monkeypatch.setattr(engine, "_run_gates", lambda gates, h, vals:
                        calls.append((len(gates), h.tolist())) or run_gates(gates, h, vals))
    for threads in (None, 2):
        calls.clear()
        r = evaluate_at(1, c, threads=threads)
        assert r.value == whole.value and r.accepted == whole.accepted
        # 2 gates read only b1 (low stage), 3 only a1/a2 (high stage) and
        # none both (cross stage), whose lanes are block << 0 | key
        lanes = {}
        for n_gates, h in calls:
            lanes.setdefault(n_gates, []).extend(h)
        assert sorted(lanes[2]) == [0, 1]             # the low patterns, once
        assert sorted(lanes[3]) == [0, 1, 2, 3]       # every block
        assert sorted(lanes[0]) == [1, 2]             # only where a1 != a2


@pytest.mark.parametrize("bit", [2, -1])
def test_boundary_bits_must_be_0_or_1(bit):
    c = parse_circuit(TELEPORTATION_TEXT)
    q = BoundaryAssignment({"x0": bit}, {"x1": 0, "b2": 0, "c3": 0})
    for amplitude in (evaluate, amplitude_canonical):
        with pytest.raises(ValidationError, match="x0 must be 0 or 1"):
            amplitude(c, q)
    with pytest.raises(ValidationError, match="pinned bit must be 0 or 1"):
        Wire("a", in_value=bit, out_bound=True)
    with pytest.raises(ValidationError, match="pinned bit must be 0 or 1"):
        Wire("a", in_bound=True, out_value=bit)
    # bools are bits
    assert evaluate(c, BoundaryAssignment({"x0": True}, {"x1": 0, "b2": 0, "c3": 1})).accepted


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


def test_plans_are_kept_for_the_last_circuits_queried(monkeypatch):
    # one record per circuit holds its boundary, its plan and its schedule;
    # a program that keeps many circuits alive keeps only the RECORDS_KEPT
    # records asked last, an older circuit's next query derives all of it
    # again, and a working set within the bound is never planned twice
    monkeypatch.setattr(circuit, "RECORDS_KEPT", 3)
    monkeypatch.setattr(circuit, "_DERIVED", weakref.WeakKeyDictionary())
    built, counted, ordered = [], [], []
    for module, name, log in ((engine, "_build_plan", built), (circuit, "_boundary", counted),
                              (statevector, "sequential_order", ordered)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda c, real=real, log=log: log.append(c) or real(c))
    cs = [parse_circuit(TELEPORTATION_TEXT) for _ in range(4)]
    q = BoundaryAssignment({"x0": 1}, {"x1": 0, "b2": 0, "c3": 1})
    values = [(evaluate(c, q).value, amplitude_canonical(c, q)) for c in cs[:3]]
    rec = circuit.derived(cs[0])
    assert (rec.ins, rec.outs) == (cs[0].input_wires, cs[0].output_wires)
    ends = cs[0].ends                   # built when first asked for
    assert rec.ends is ends and rec.plan is engine.prepare(cs[0])
    assert rec.schedule is not None and not hasattr(rec, "__dict__")
    for _ in range(3):                  # cycling through three circuits
        for c, v in zip(cs[:3], values):
            assert (evaluate(c, q).value, amplitude_canonical(c, q)) == v
    assert built == counted == ordered == cs[:3]
    cs[1].input_wires                   # a hit makes cs[1] the most recent
    values.append((evaluate(cs[3], q).value, amplitude_canonical(cs[3], q)))
    assert list(circuit._DERIVED) == [cs[2], cs[1], cs[3]]
    assert (evaluate(cs[0], q).value, amplitude_canonical(cs[0], q)) == values[0]
    assert built == counted == ordered == cs + [cs[0]]
    assert cs[2] not in circuit._DERIVED


def test_a_record_dies_with_its_circuit(monkeypatch):
    monkeypatch.setattr(circuit, "_DERIVED", weakref.WeakKeyDictionary())
    c = parse_circuit(TELEPORTATION_TEXT)
    q = BoundaryAssignment({"x0": 1}, {"x1": 0, "b2": 0, "c3": 1})
    evaluate(c, q), amplitude_canonical(c, q), c.ends
    assert len(circuit._DERIVED) == 1
    del c
    gc.collect()
    assert len(circuit._DERIVED) == 0


def test_cycling_queries_count_each_boundary_once(monkeypatch):
    # the boundary of a circuit queried in turn with others is counted once,
    # not again on every query that follows a query on another circuit
    counted = []
    real = circuit._boundary
    monkeypatch.setattr(circuit, "_boundary", lambda c: counted.append(c) or real(c))
    cs = [parse_circuit(TELEPORTATION_TEXT) for _ in range(3)]
    q = BoundaryAssignment({"x0": 1}, {"x1": 0, "b2": 0, "c3": 1})
    for _ in range(4):
        for c in cs:
            evaluate(c, q)
    assert counted == cs


def test_transition_probability():
    c = parse_circuit("version 1\nmode seq\nqubit a in=0\napply H a\n")
    p = abs(evaluate(c, BoundaryAssignment({}, {"a1": 0})).value) ** 2
    assert abs(p - 0.5) < 1e-12


def test_prepare_runs_zero_capable_gates_first(monkeypatch):
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
    rank = {gates[i].wires: r for r, i in enumerate((2, 4, 6, 0, 1, 3, 5))}
    for low in range(len(prep.internal) + 1):
        monkeypatch.setattr(engine, "_split_cost", lambda shifts, w, at: abs(at - low))
        plan = engine._build_plan(c)
        assert plan.low == low
        groups = (plan.scalar, [spec for spec, _ in plan.low_only],
                  [spec for spec, _ in plan.high_only], [spec for spec, _ in plan.cross])
        ranks = [[rank[wires_read(spec)] for spec in group] for group in groups]
        # every gate lands in one stage group, in the group in that order
        assert sorted(sum(ranks, [])) == list(range(len(gates)))
        assert all(r == sorted(r) for r in ranks)


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
    assert (w, f) == (2, 3)
    # one query fits the guard, but all 2^f of them together do not
    assert evaluate(c, BoundaryAssignment({"x0": 0}, {"x1": 0, "b2": 0, "c3": 0}),
                    max_wires=w).histories == 2 ** w
    with pytest.raises(MaxWiresExceeded) as ei:
        output_distribution(c, q, max_wires=w + f - 1)
    assert "3 free output ends and 2 internal wires" in str(ei.value)
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
