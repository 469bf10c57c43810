import math

import pytest

from histq import (BUILTIN, Amplitude, BoundaryAssignment, Circuit,
                   GateInstance, SeqDescription, SeqLine, SeqOp,
                   UnboundWire, ValidationError, Wire, classify_wires,
                   gate_factor, lower_sequential, resolve_boundary, validate)
from histq.circuit import attachments


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
    att = attachments(c)
    assert att["a"][:2] == (None, (0, 0))
    assert att["b"][:2] == ((0, 1), None)
    ea, eb = c.ends["a"], c.ends["b"]
    assert ea.in_boundary and not ea.internal
    assert eb.out_boundary


def test_control_leg_taps():
    c = Circuit((w("c", in_value=1), w("a", in_bound=True), w("b", out_bound=True)),
                (GateInstance(BUILTIN["CNOT"], ("c", "a", "b")),))
    assert attachments(c)["c"] == (None, None, ((0, 0),))


def test_symmetric_legs_fill_open_ends():
    # H produces m, H consumes n; XOR3 then absorbs m's open out end and
    # n's open in end, and its third leg taps the boundary wire t.
    c = Circuit((w("a", in_bound=True), w("m"), w("n"),
                 w("z", out_bound=True), w("t", in_value=1, out_bound=True)),
                (GateInstance(BUILTIN["H"], ("a", "m")),
                 GateInstance(BUILTIN["H"], ("n", "z")),
                 GateInstance(BUILTIN["XOR3"], ("m", "n", "t"))))
    att = attachments(c)
    assert att["m"][:2] == ((0, 1), (2, 0))
    assert att["n"][:2] == ((2, 1), (1, 0))
    assert c.ends["m"].internal and c.ends["n"].internal
    assert att["t"][2] == ((2, 2),)
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
    assert attachments(c)["a1"][2] == ((1, 0),)
    assert classify_wires(c) == (("a1",), ("a0", "a2", "b0", "b1"))


def test_lower_sequential_segment_name_clash():
    # line q1 cut ten times would name its last segment q110, which is also
    # segment 0 of line q11
    ops = tuple(SeqOp(BUILTIN["X"], ("q1",)) for _ in range(10))
    c = lower_sequential(SeqDescription((SeqLine("q1"), SeqLine("q11")), ops))
    names = [x.name for x in c.wires]
    assert len(set(names)) == len(names) == 12
    assert names[:10] == [f"q1{k}" for k in range(10)]
    assert names[10:] == ["q1_10", "q11_0"]
    assert validate(c) == []
    # a separator that would clash in turn grows until it is unique
    ops += tuple(SeqOp(BUILTIN["X"], ("q1_",)) for _ in range(10))
    c = lower_sequential(SeqDescription(
        (SeqLine("q1"), SeqLine("q11"), SeqLine("q1_")), ops))
    names = [x.name for x in c.wires]
    assert len(set(names)) == len(names) == 23
    assert "q1__10" in names and "q1_10" in names


@pytest.mark.parametrize("gate, qubits", [("CNOT", ("a", "a")), ("SWAP", ("a", "a")),
                                          ("TOFFOLI", ("a", "b", "a"))])
def test_lower_sequential_rejects_a_line_named_twice(gate, qubits):
    # SWAP a a would read, as its second input, the segment its first output makes
    desc = SeqDescription((SeqLine("a", in_value=1), SeqLine("b")),
                          (SeqOp(BUILTIN[gate], qubits),))
    with pytest.raises(ValidationError, match="names one line twice"):
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
