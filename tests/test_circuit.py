import gc
import hashlib
import math
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from histq import (BUILTIN, Amplitude, BoundaryAssignment, Circuit,
                   GateInstance, SeqDescription, SeqLine, SeqOp,
                   UnboundWire, ValidationError, Wire, amplitude_canonical,
                   classify_wires, equivalent, evaluate, gate_factor, interface,
                   lower_sequential, parse_circuit, phase_gate, resolve_boundary,
                   validate)
from histq.circuit import WireEnds, end_claims

from conftest import (leg_attachments, line_queries, random_circuit, random_netlist,
                      seq_oracle)


def w(name, **kw):
    return Wire(name, **kw)


def test_pinned_value_implies_boundary_flag():
    a = Wire("a", in_value=0)
    assert a.in_bound and not a.out_bound
    b = Wire("b", out_value=1)
    assert b.out_bound and not b.in_bound


def test_matrix_gate_ends():
    # a --H--> b : a's out end is consumed, b's in end is produced
    c = Circuit((w("a", in_bound=True), w("b", out_bound=True)),
                (GateInstance(BUILTIN["H"], ("a", "b")),))
    assert end_claims(c) == ({"a": 1, "b": 1}, {"a": 1, "b": 1})
    assert c.ends == {"a": WireEnds(True, False), "b": WireEnds(False, True)}
    ea, eb = c.ends["a"], c.ends["b"]
    assert ea.in_boundary and not ea.internal
    assert eb.out_boundary


def test_control_leg_taps():
    c = Circuit((w("c", in_value=1), w("a", in_bound=True), w("b", out_bound=True)),
                (GateInstance(BUILTIN["CNOT"], ("c", "a", "b")),))
    # the control claims neither end of c, so its end end stays open
    assert [claims["c"] for claims in end_claims(c)] == [1, 0]
    assert c.ends["c"] == WireEnds(True, True)


def test_symmetric_legs_fill_open_ends():
    # H produces m, H consumes n; XOR3 then absorbs m's open out end and
    # n's open in end, and its third leg taps the boundary wire t.
    c = Circuit((w("a", in_bound=True), w("m"), w("n"),
                 w("z", out_bound=True), w("t", in_value=1, out_bound=True)),
                (GateInstance(BUILTIN["H"], ("a", "m")),
                 GateInstance(BUILTIN["H"], ("n", "z")),
                 GateInstance(BUILTIN["XOR3"], ("m", "n", "t"))))
    produced, consumed = end_claims(c)
    assert (produced["m"], consumed["m"], produced["n"], consumed["n"]) == (1, 0, 0, 1)
    assert c.ends["m"].internal and c.ends["n"].internal
    assert c.ends["t"] == WireEnds(True, True)
    assert classify_wires(c) == (("m", "n"), ("a", "z", "t"))


def test_unfilled_end_is_boundary():
    # nothing produces a and nothing consumes it: both ends are external
    # even without declared flags
    c = Circuit((w("a"), w("b")), (GateInstance(BUILTIN["CNOT"], ("a", "a", "b")),))
    assert c.ends["a"].in_boundary
    assert c.ends["b"].out_boundary


def test_validate_clean_and_double_producer():
    good = Circuit((w("a", in_bound=True), w("b", out_bound=True)),
                   (GateInstance(BUILTIN["X"], ("a", "b")),))
    assert validate(good) == []
    bad = Circuit((w("a", in_bound=True), w("x"), w("b", out_bound=True),
                   w("c", out_bound=True)),
                  (GateInstance(BUILTIN["H"], ("a", "x")),
                   GateInstance(BUILTIN["H"], ("b", "x")),
                   GateInstance(BUILTIN["X"], ("x", "c"))))
    diags = validate(bad)
    assert any("more than one producer" in d for d in diags)


def test_validate_flags_non_unitary_matrix():
    from histq import matrix_gate
    import numpy as np
    g = matrix_gate("NU", np.array([[1, 1], [0, 1]]))
    c = Circuit((w("a", in_bound=True), w("b", out_bound=True)),
                (GateInstance(g, ("a", "b")),))
    assert any("not unitary" in d for d in validate(c))


def test_gate_instance_leg_count_checked():
    with pytest.raises(ValidationError):
        GateInstance(BUILTIN["CNOT"], ("a", "b"))
    with pytest.raises(ValidationError):
        GateInstance(BUILTIN["X"], ("a", "b"), negs=(True,))
    with pytest.raises(ValidationError, match="duplicate wire declaration: a"):
        Circuit((w("a"), w("b"), w("a")), ())
    with pytest.raises(ValidationError, match="undeclared wire c"):
        Circuit((w("a"),), (GateInstance(BUILTIN["X"], ("a", "c")),))


def test_wires_and_gate_instances_hold_no_dict():
    # slots keep every retained rewrite answer small
    assert not hasattr(Wire("a"), "__dict__")
    assert not hasattr(GateInstance(BUILTIN["X"], ("a", "b")), "__dict__")


def test_circuits_keep_no_table_per_wire():
    # a circuit holds no dict over every wire, so every kept rewrite answer
    # stays small: ends is built when asked for, once for repeated lookups,
    # and kept in the bounded table of circuit.derived, not on the circuit
    c = parse_circuit("version 1\nmode seq\nqubit a in=0\nqubit b\n"
                      "apply H a\napply CNOT a b\napply H a\n")
    d = parse_circuit("version 1\nmode seq\nqubit a\napply H a\n")
    assert interface(c) == (("b0",), ("a2", "b1"))
    assert classify_wires(c) == (("a1",), ("a0", "a2", "b0", "b1"))
    assert c.ends["a1"].internal and c.ends["a0"].in_boundary and c.ends["b1"].out_boundary
    assert c.ends is c.ends and d.ends is not c.ends and c.ends is not d.ends
    assert [n for n, e in c.ends.items() if e.internal] == ["a1"]
    assert not any(isinstance(v, Mapping) for v in vars(c).values())
    with pytest.raises(TypeError):
        c.ends["a1"] = c.ends["a0"]


def test_boundary_answers_belong_to_the_circuit_asked():
    # one table holds the last circuit's boundary: answers asked of two
    # circuits in turn, one of them dropped and collected in between, must
    # each be the answer for the circuit asked
    def answers(c):
        return c.input_wires, c.output_wires, dict(c.ends), interface(c)

    texts = ["version 1\nmode seq\nqubit a in=0\nqubit b\napply H a\napply CNOT a b\n",
             "version 1\nmode net\nwire x in\nwire y out\nwire z\ngate H x y\n",
             "version 1\nmode seq\nqubit p\napply H p\napply H p\n"]
    want = [answers(parse_circuit(t)) for t in texts]
    c, d = parse_circuit(texts[0]), parse_circuit(texts[1])
    for ask in (lambda x: x.input_wires, lambda x: x.ends, interface):
        for x, i in ((c, 0), (d, 1), (c, 0)):
            ask(x)
            assert answers(x) == want[i]
            ask(d)
            assert answers(x) == want[i]
    d.ends  # the table now holds d
    del d
    gc.collect()
    e = parse_circuit(texts[2])
    assert e.output_wires == want[2][1] and interface(e) == want[2][3]
    assert answers(c) == want[0] and dict(e.ends) == want[2][2] and answers(e) == want[2]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_boundary_matches_the_leg_by_leg_rule(seed, netlist):
    """On any netlist, and on lowered circuits with complemented reads, the
    boundary is the one the free-end rule gives leg by leg: an end no leg
    fills, or a declared one."""
    rng = random.Random(seed)
    if netlist:
        c = random_netlist(rng)
    else:
        c = random_circuit(rng, g_max=10)
        c = c.replace(gates=[GateInstance(g.gate, g.wires,
                                          tuple(rng.random() < 0.3 for _ in g.wires))
                             for g in c.gates])
    att = leg_attachments(c)
    ins = [x for x in c.wires if x.in_bound or att[x.name][0] is None]
    outs = [x for x in c.wires if x.out_bound or att[x.name][1] is None]
    assert c.input_wires == tuple(ins) and c.output_wires == tuple(outs)
    begin, end = {x.name for x in ins}, {x.name for x in outs}
    assert dict(c.ends) == {x.name: WireEnds(x.name in begin, x.name in end) for x in c.wires}
    assert classify_wires(c) == (
        tuple(x.name for x in c.wires if x.name not in begin | end),
        tuple(x.name for x in c.wires if x.name in begin | end))
    assert interface(c) == (tuple(x.name for x in ins if x.in_value is None),
                            tuple(x.name for x in outs if x.out_value is None))


def test_complement_patterns_are_shared():
    x = GateInstance(BUILTIN["X"], ("a", "b"))
    h = GateInstance(BUILTIN["H"], ("c", "d"), negs=(False, False))
    assert x.negs == (False, False) and x.negs is h.negs
    built = tuple(bool(i) for i in (1, 0))   # a fresh tuple, equal to an earlier pattern
    assert GateInstance(BUILTIN["X"], ("a", "b"), negs=(True, False)).negs is \
        GateInstance(BUILTIN["H"], ("a", "b"), negs=built).negs


def test_wire_lookup_by_name():
    c = Circuit((w("a", in_bound=True), w("b", out_bound=True)),
                (GateInstance(BUILTIN["H"], ("a", "b")),))
    with pytest.raises(KeyError):
        c.ends["nope"]


def test_gate_factor_reads_negations():
    g = GateInstance(BUILTIN["X"], ("a", "b"), negs=(True, False))
    # X accepts in != out; with the input read complemented it accepts equality
    assert gate_factor(g, {"a": 0, "b": 0}) == 1
    assert gate_factor(g, {"a": 1, "b": 1}) == 1
    assert gate_factor(g, {"a": 0, "b": 1}) == 0


def test_amplitude_resolved():
    assert Amplitude(1 + 0j, 0).resolved() == 1
    assert Amplitude(1 + 0j, 2).resolved() == 0.5
    assert abs(Amplitude(1 + 0j, 1).resolved() - 1 / math.sqrt(2)) < 1e-15
    assert Amplitude(4 + 0j, 4).resolved() == 1.0


def test_resolve_boundary_merges_pins_and_query():
    c = Circuit((w("a", in_value=0), w("b", out_bound=True)),
                (GateInstance(BUILTIN["X"], ("a", "b")),))
    got = resolve_boundary(c, BoundaryAssignment({}, {"b": 1}))
    assert got == {"a": 0, "b": 1}


def test_resolve_boundary_conflict_is_none():
    c = Circuit((w("a", in_value=0), w("b", out_bound=True)),
                (GateInstance(BUILTIN["X"], ("a", "b")),))
    assert resolve_boundary(c, BoundaryAssignment({"a": 1}, {"b": 1})) is None


def test_resolve_boundary_missing_raises():
    c = Circuit((w("a", in_bound=True), w("b", out_bound=True)),
                (GateInstance(BUILTIN["X"], ("a", "b")),))
    with pytest.raises(UnboundWire) as ei:
        resolve_boundary(c, BoundaryAssignment({}, {"b": 0}))
    assert "a:in" in str(ei.value)


def test_resolve_boundary_unknown_name_raises():
    c = Circuit((w("a", in_value=0), w("b", out_value=0)),
                (GateInstance(BUILTIN["X"], ("a", "b")),))
    with pytest.raises(UnboundWire):
        resolve_boundary(c, BoundaryAssignment({"zz": 0}, {}))
    with pytest.raises(ValidationError):
        # b exists but has no input-side boundary end
        resolve_boundary(c, BoundaryAssignment({"b": 0}, {}))


def test_lower_sequential_segment_names():
    desc = SeqDescription(
        (SeqLine("a", in_value=0), SeqLine("b")),
        (SeqOp(BUILTIN["H"], ("a",)),
         SeqOp(BUILTIN["CNOT"], ("a", "b")),
         SeqOp(BUILTIN["H"], ("a",))))
    c = lower_sequential(desc)
    assert tuple(x.name for x in c.wires) == ("a0", "a1", "a2", "b0", "b1")
    assert c.wires[0].in_value == 0
    # CNOT's control taps a1 without cutting it; b0 and b1 are line ends
    assert [claims["a1"] for claims in end_claims(c)] == [1, 1]
    assert classify_wires(c) == (("a1",), ("a0", "a2", "b0", "b1"))


def test_lower_sequential_segment_name_clash():
    # line q1 cut ten times would name its last segment q110, which is also
    # segment 0 of line q11
    ops = tuple(SeqOp(BUILTIN["H"], ("q1",)) for _ in range(10))
    c = lower_sequential(SeqDescription((SeqLine("q1"), SeqLine("q11")), ops))
    names = [x.name for x in c.wires]
    assert len(set(names)) == len(names) == 12
    assert names[:10] == [f"q1{k}" for k in range(10)]
    assert names[10:] == ["q1_10", "q11_0"]
    assert validate(c) == []
    # a separator that would clash in turn grows until it is unique
    ops += tuple(SeqOp(BUILTIN["H"], ("q1_",)) for _ in range(10))
    c = lower_sequential(SeqDescription(
        (SeqLine("q1"), SeqLine("q11"), SeqLine("q1_")), ops))
    names = [x.name for x in c.wires]
    assert len(set(names)) == len(names) == 23
    assert "q1__10" in names and "q1_10" in names


def test_lower_sequential_taps_diagonal_gates():
    # Z and CZ change no bit: each becomes one phase gate on the current
    # segments, and its target's segment number is used up all the same
    desc = SeqDescription(
        (SeqLine("a"), SeqLine("b", out_value=1)),
        (SeqOp(BUILTIN["H"], ("a",)), SeqOp(BUILTIN["Z"], ("a",)),
         SeqOp(BUILTIN["H"], ("a",)), SeqOp(BUILTIN["CZ"], ("a", "b")),
         SeqOp(BUILTIN["S"], ("b",))))
    c = lower_sequential(desc)
    assert [(x.name, x.in_bound, x.out_bound, x.out_value) for x in c.wires] == [
        ("a0", True, False, None), ("a1", False, False, None), ("a3", False, True, None),
        ("b0", True, True, 1)]
    assert [(g.gate, g.wires) for g in c.gates] == [
        (BUILTIN["H"], ("a0", "a1")), (phase_gate(math.pi, 1), ("a1",)),
        (BUILTIN["H"], ("a1", "a3")), (phase_gate(math.pi, 2), ("a3", "b0")),
        (phase_gate(math.pi / 2, 1), ("b0",))]
    assert validate(c) == []
    # the built-ins hold their taps, so every lowering shares one definition
    assert BUILTIN["CCZ"].tap is phase_gate(math.pi, 3)
    assert BUILTIN["T"].tap is phase_gate(math.pi / 4, 1)
    assert BUILTIN["CNOT"].tap is None and BUILTIN["H"].tap is None
    with pytest.raises(ValidationError, match="names one line twice"):
        lower_sequential(SeqDescription((SeqLine("a"),), (SeqOp(BUILTIN["CZ"], ("a", "a")),)))


def test_lower_sequential_relabels_permutations():
    # X, Y, I and SWAP cut nothing.  X flips a complement that later reads of
    # the segment carry; Y adds its two phases first; SWAP trades the lines'
    # segments and complements.  Each uses up a segment number, and a line
    # still flipped at the end gets one real X
    a, b = SeqLine("a", in_value=0), SeqLine("b")
    desc = SeqDescription((a, b), tuple(SeqOp(BUILTIN[name], qs) for name, qs in (
        ("H", ("a",)), ("X", ("a",)), ("CNOT", ("a", "b")), ("Y", ("b",)),
        ("I", ("a",)), ("SWAP", ("a", "b")))))
    c = lower_sequential(desc)
    assert [(x.name, x.in_bound, x.in_value, x.out_bound) for x in c.wires] == [
        ("a0", True, 0, False), ("a1", False, None, False), ("a4", False, None, True),
        ("b0", True, None, False), ("b1", False, None, False), ("b3", False, None, True)]
    assert [(g.gate, g.wires, g.negs) for g in c.gates] == [
        (BUILTIN["H"], ("a0", "a1"), (False, False)),
        (BUILTIN["CNOT"], ("a1", "b0", "b1"), (True, False, False)),
        (phase_gate(math.pi, 1), ("b1",), (False,)), (phase_gate(math.pi / 2, 0), (), ()),
        (BUILTIN["X"], ("b1", "a4"), (False, False)), (BUILTIN["X"], ("a1", "b3"), (False, False))]
    assert validate(c) == []
    # Y's phases live on the built-in, so every lowering shares them
    assert BUILTIN["Y"].flip == (True, (phase_gate(math.pi, 1), phase_gate(math.pi / 2, 0)))
    assert BUILTIN["X"].flip == (True, ()) and BUILTIN["I"].flip == (False, ())
    assert BUILTIN["SWAP"].flip is None and BUILTIN["H"].flip is None

    def lowered(*ops):
        c = lower_sequential(SeqDescription((SeqLine("a"), SeqLine("b")),
                                            tuple(SeqOp(BUILTIN[n], qs) for n, qs in ops)))
        return [x.name for x in c.wires], [(g.gate.name, g.wires) for g in c.gates]

    # an output end cut on the other line takes its own line's name
    assert lowered(("H", ("a",)), ("H", ("b",)), ("SWAP", ("a", "b"))) == (
        ["a0", "a2", "b0", "b2"], [("H", ("a0", "b2")), ("H", ("b0", "a2"))])
    # a line holding the other's uncut input wire gets one real cut, so that
    # input ends and output ends both keep line order
    assert lowered(("SWAP", ("a", "b")),) == (
        ["a0", "a1", "b0", "b1"], [("I", ("b0", "a1")), ("I", ("a0", "b1"))])
    assert lowered(("SWAP", ("a", "b")), ("SWAP", ("b", "a"))) == (["a0", "b0"], [])
    # a segment keeps its name when its own line holds it at the end, even
    # after a round trip, and a later number on that line does not rename it
    assert lowered(("H", ("a",)), ("SWAP", ("a", "b")), ("H", ("a",)),
                   ("SWAP", ("a", "b")), ("T", ("a",))) == (
        ["a0", "a1", "b0", "b2"], [("H", ("a0", "a1")), ("H", ("b0", "b2")), ("PHASE", ("a1",))])


def test_lower_sequential_clash_counts_the_names_taps_skip():
    # q1's tenth gate is a tap, so no segment is named q110, but q11's first
    # segment is renamed as it was when that gate cut q1; q111 clashes with
    # nothing and keeps its plain name
    ops = tuple(SeqOp(BUILTIN["H"], ("q1",)) for _ in range(9)) + (SeqOp(BUILTIN["Z"], ("q1",)),
                                                                  SeqOp(BUILTIN["H"], ("q1",)))
    c = lower_sequential(SeqDescription((SeqLine("q1"), SeqLine("q11")), ops))
    names = [x.name for x in c.wires]
    assert names == [f"q1{k}" for k in range(10)] + ["q111", "q11_0"]
    assert c.gates[9].wires == ("q19",) and c.gates[10].wires == ("q19", "q111")


_DIAGONAL = {"Z", "S", "T", "CZ", "CCZ"}


def cut_netlist(lines, ops, angle):
    """The net-mode file that cuts every line at every gate, diagonal ones
    and X included (``gate Z a b``), with segment k of line q named
    ``q_s<k>``: the lowering before diagonal gates tapped and X flipped a
    complement, written out by hand."""
    segs = {q: 0 for q, _, _ in lines}
    body = []
    for name, qs in ops:
        if name == "phase":
            body.append(" ".join(["phase", angle, *(f"{q}_s{segs[q]}" for q in qs)]))
            continue
        *ctrls, t = qs
        segs[t] += 1
        body.append(" ".join(["gate", name, *(f"{q}_s{segs[q]}" for q in ctrls),
                              f"{t}_s{segs[t] - 1}", f"{t}_s{segs[t]}"]))
    wires = []
    for q, pin_in, pin_out in lines:
        for k in range(segs[q] + 1):
            flags = [f for f, on in ((f"in{pin_in}", k == 0), (f"out{pin_out}", k == segs[q])) if on]
            wires.append(" ".join([f"wire {q}_s{k}", *flags]))
    return "version 1\nmode net\n" + "\n".join(wires + body) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_taps_and_cuts_give_the_same_amplitudes(seed, eighth_turns):
    # without T and pi/4 every listed entry is a Gaussian integer, so both
    # sums are exact whatever order they run in; with them, only rounding
    # may differ
    rng = random.Random(seed)
    one_line, angle = (["H", "X", "Z", "S", "T"], "pi/4") if eighth_turns else \
        (["H", "X", "Z", "S"], "pi/2")
    lines = [(q, rng.choice(["", "", "=0", "=1"]), rng.choice(["", "", "", "=1"]))
             for q in ["q1", "q11", "a"]]
    names = [q for q, _, _ in lines]
    # every line gets an H, so each diagonal gate cut a line that has an
    # internal wire to lose; q1 gets ten or more one-line gates
    ops = [("H", (q,)) for q in names]
    ops += [(rng.choice(one_line), ("q1",)) for _ in range(rng.randint(10, 14))]
    for _ in range(rng.randint(0, 8)):
        name = rng.choice(["CZ", "CCZ", "CNOT", "TOFFOLI", "phase", *one_line[2:]])
        n = {"CZ": 2, "CNOT": 2, "CCZ": 3, "TOFFOLI": 3}.get(name, 1)
        ops.append((name, tuple(rng.sample(names, n))))
    rng.shuffle(ops)
    seq_lines = [f"qubit {q}" + (f" in{i}" if i else "") + (f" out{o}" if o else "")
                 for q, i, o in lines]
    seq_ops = [" ".join([f"phase {angle}" if name == "phase" else f"apply {name}", *qs])
               for name, qs in ops]
    tapped = parse_circuit("version 1\nmode seq\n" + "\n".join(seq_lines + seq_ops) + "\n")
    cut = parse_circuit(cut_netlist(lines, ops, angle))
    assert validate(tapped) == [] and validate(cut) == []
    ok, dev = equivalent(tapped, cut)
    assert ok and dev <= (1e-15 if eighth_turns else 0.0)

    # each diagonal gate and each X saves the cut's wire, but a line still
    # flipped at its end (an odd number of X since its last cut) gets one
    # real X there
    flipped = {q: False for q in names}
    for name, qs in ops:
        if name == "X":
            flipped[qs[0]] ^= True
        elif name in ("H", "CNOT", "TOFFOLI"):
            flipped[qs[-1]] = False
    k = sum(name in _DIAGONAL or name == "X" for name, _ in ops) - sum(flipped.values())
    (ins_t, outs_t), (ins_c, outs_c) = interface(tapped), interface(cut)
    bits = [rng.getrandbits(1) for _ in ins_t + outs_t]
    q_t = BoundaryAssignment(dict(zip(ins_t, bits)), dict(zip(outs_t, bits[len(ins_t):])))
    q_c = BoundaryAssignment(dict(zip(ins_c, bits)), dict(zip(outs_c, bits[len(ins_c):])))
    rt, rc = evaluate(tapped, q_t), evaluate(cut, q_c)
    assert (abs(rt.value - rc.value) <= (1e-15 if eighth_turns else 0.0)
            and rt.accepted == rc.accepted)
    assert rc.histories == rt.histories * 2 ** k
    dense = amplitude_canonical(tapped, q_t)
    assert abs(dense - rt.value) <= 1e-12
    assert abs(amplitude_canonical(cut, q_c) - dense) <= 1e-12


_SEQ_BUILTINS = sorted(name for name, d in BUILTIN.items() if d.is_sequential)
# the gates that relabel a line's wire (X, Y, SWAP) and those that read a
# relabelled wire (controls) come up twice as often
_DRAWN = _SEQ_BUILTINS + ["X", "Y", "SWAP", "CNOT", "TOFFOLI"]
_ONE_LINE = [name for name in _SEQ_BUILTINS if len(BUILTIN[name].qubit_slots) == 1]


def oracle_program(rng, clash):
    """A seq program over every built-in that ``apply`` takes, and ``phase``
    (which may name a line twice): pinned and free ends, runs of one gate on
    the same lines, and a chain of SWAPs.  With ``clash``, lines q1 and q11
    are both there and q1 gets ten more one-line gates, so its segment
    numbers reach 10 and ``q1`` + ``10`` meets ``q11`` + ``0``."""
    names = rng.sample(["q1", "q11", "a", "b"], rng.randint(1, 4))
    if clash:
        names = ["q1", "q11"] + [q for q in names if q not in ("q1", "q11")][:1]
        rng.shuffle(names)
    lines = tuple(SeqLine(q, rng.choice([None, None, 0, 1]), rng.choice([None, None, 0, 1]))
                  for q in names)
    ops = []
    for _ in range(rng.randint(0, 5 if clash else 12)):
        if rng.random() < 0.15:
            k = rng.randint(0, 3)
            ops.append(SeqOp(phase_gate(rng.choice([math.pi, math.pi / 2, 0.7]), k),
                             tuple(rng.choices(names, k=k))))
            continue
        d = BUILTIN[rng.choice(_DRAWN)]
        if len(d.qubit_slots) <= len(names):
            ops += [SeqOp(d, tuple(rng.sample(names, len(d.qubit_slots))))] * rng.choice([1, 1, 1, 2, 3])
    if len(names) > 1 and rng.random() < 0.3:
        at = rng.randint(0, len(ops))
        ops[at:at] = [SeqOp(BUILTIN["SWAP"], tuple(rng.sample(names, 2)))
                      for _ in range(rng.randint(2, 4))]
    if clash:
        for _ in range(10):
            ops.insert(rng.randint(0, len(ops)), SeqOp(BUILTIN[rng.choice(_ONE_LINE)], ("q1",)))
    return SeqDescription(lines, tuple(ops))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_lowering_matches_the_dense_oracle(seed, clash):
    # the oracle never reads the lowered netlist, so a lowering fault that
    # both engines would read alike (out ends in the wrong order, a lost
    # complement) shows here; query bits bind positionally, as the CLI binds them
    desc = oracle_program(random.Random(seed), clash)
    c = lower_sequential(desc)
    assert validate(c) == []
    for q, line_in, line_out in line_queries(desc, c):
        want = seq_oracle(desc, line_in, line_out)
        assert abs(evaluate(c, q).value - want) <= 1e-12
        assert abs(amplitude_canonical(c, q) - want) <= 1e-12


# sha256 over the structural keys below, recorded from the lowering whose
# names and wire order every later one must reproduce exactly: SWAP chains,
# pending complements and clash names together, which the dense oracle,
# reading amplitudes only, does not pin
PINNED_LOWERING_DIGEST = "5d1a2d905f7b3b204ff20561fdb214b7b162a077a64a70ffa53426a65cdf9edf"


def test_lowering_output_is_pinned():
    digest = hashlib.sha256()
    clashes = 0
    for seed in range(300):
        for clash in (False, True):
            c = lower_sequential(oracle_program(random.Random(seed), clash))
            clashes += any("_" in x.name for x in c.wires)
            digest.update(repr(c.structural_key()).encode() + b"\0")
    assert clashes
    assert digest.hexdigest() == PINNED_LOWERING_DIGEST


@pytest.mark.parametrize("gate, qubits", [("CNOT", ("a", "a")), ("SWAP", ("a", "a")),
                                          ("TOFFOLI", ("a", "b", "a")),
                                          ("CNOT", ("a", "c")), ("CNOT", ("a",))])
def test_lower_sequential_rejects_a_line_named_twice(gate, qubits):
    # SWAP a a would read, as its second input, the segment its first output makes.
    # The parser refuses the last two inputs first; lowering checks them again.
    msg = {("a", "c"): "CNOT names unknown line c",
           ("a",): "CNOT takes 2 qubits, got 1"}.get(qubits, "names one line twice")
    desc = SeqDescription((SeqLine("a", in_value=1), SeqLine("b")),
                          (SeqOp(BUILTIN[gate], qubits),))
    with pytest.raises(ValidationError, match=msg):
        lower_sequential(desc)


def test_lower_sequential_duplicate_line_rejected():
    desc = SeqDescription((SeqLine("a"), SeqLine("a")), ())
    with pytest.raises(ValidationError):
        lower_sequential(desc)


def test_input_output_wire_views():
    desc = SeqDescription(
        (SeqLine("a", in_value=1), SeqLine("b")),
        (SeqOp(BUILTIN["CNOT"], ("a", "b")),))
    c = lower_sequential(desc)
    assert [x.name for x in c.input_wires] == ["a0", "b0"]
    assert [x.name for x in c.output_wires] == ["a0", "b1"]
    assert c.input_wires[0].in_value == 1


def test_total_norm_exponent_counts_gates_and_shift():
    desc = SeqDescription((SeqLine("a"),),
                          (SeqOp(BUILTIN["H"], ("a",)),
                           SeqOp(BUILTIN["H"], ("a",))))
    c = lower_sequential(desc)
    assert c.total_norm_exponent == 2
    shifted = Circuit(c.wires, c.gates, norm_shift=3)
    assert shifted.total_norm_exponent == 5
