import gc
import hashlib
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from histq import (BUILTIN, BoundaryAssignment, Circuit, CircuitError, GateDef,
                   GateInstance, ParseError, Role, SeqDescription, SeqLine, SeqOp, Wire,
                   amplitude_canonical, canonicalize, emit_circuit, equivalent, evaluate,
                   interface, lower_sequential, matrix_gate, parse_circuit, phase_gate,
                   validate)
from histq.examples import EXAMPLES, TELEPORTATION_TEXT
from histq.circuit import WireEnds, end_claims
from histq.parser import parse_theta

from conftest import line_queries, random_circuit, random_ops, seq_oracle


def perr(text):
    with pytest.raises(ParseError) as ei:
        parse_circuit(text)
    return ei.value


def test_teleportation_structure():
    c = parse_circuit(TELEPORTATION_TEXT)
    assert [g.gate.name for g in c.gates] == ["H", "CNOT", "CNOT", "H", "PHASE", "CNOT"]
    # CZ taps b2 and c1 as PHASE(pi) and cuts nothing; line c skips c2
    cz = c.gates[4]
    assert cz.gate is phase_gate(math.pi, 2) and cz.wires == ("b2", "c1")
    assert c.gates[5].wires == ("x1", "c1", "c3")
    names = [w.name for w in c.wires]
    assert names == ["x0", "x1", "b0", "b1", "b2", "c0", "c1", "c3"]
    pins = {w.name: w.in_value for w in c.wires}
    assert pins["b0"] == 0 and pins["c0"] == 0 and pins["x0"] is None
    assert validate(c) == []


def test_header_enforced():
    e = perr("mode net\nwire a\n")
    assert e.line == 1 and "version 1" in str(e)
    e = perr("version 1\nwire a\n")
    assert "mode" in str(e)
    e = perr("version 2\nmode net\n")
    assert "version 1" in str(e)


def test_line_numbers_are_one_based():
    e = perr("version 1\nmode net\nwire a\ngate NOPE a\n")
    assert e.line == 4 and "unknown gate" in str(e)


def test_wire_and_gate_diagnostics():
    assert "declared twice" in str(perr("version 1\nmode net\nwire a\nwire a\n"))
    assert "undeclared wire" in str(
        perr("version 1\nmode net\nwire a\nwire b\ngate H a c\n"))
    assert "has 2 legs" in str(
        perr("version 1\nmode net\nwire a\ngate H a\n"))
    assert "net-mode directive" in str(
        perr("version 1\nmode seq\nqubit a\nwire b\n"))
    assert "seq-mode directive" in str(
        perr("version 1\nmode net\nqubit a\n"))


def test_phase_name_gets_a_hint():
    e = perr("version 1\nmode net\nwire a\ngate PHASE a\n")
    assert "phase" in str(e) and "directive" in str(e)


def test_theta_forms():
    assert parse_theta("pi", 1) == math.pi
    assert parse_theta("-pi", 1) == -math.pi
    assert parse_theta("pi/2", 1) == math.pi / 2
    assert parse_theta("-pi/4", 1) == -math.pi / 4
    assert parse_theta("0.7", 1) == 0.7
    with pytest.raises(ParseError):
        parse_theta("pie", 1)
    with pytest.raises(ParseError):
        parse_theta("pi/0", 1)


def test_non_finite_numbers_rejected():
    for tok in ("inf", "-inf", "nan", "infinity"):
        e = perr(f"version 1\nmode seq\nqubit a\nphase {tok} a\n")
        assert e.line == 4 and "not finite" in str(e)
    # nan passes the unitarity check (nan > tol is False), so it must stop here
    for tok in ("nan:0", "0:inf"):
        e = perr(f"version 1\nmode net\nmatrix R 1\n{tok} 1:0\n1:0 0:0\nwire a in\n")
        assert e.line == 4 and "not finite" in str(e)


def test_phase_directive():
    c = parse_circuit("version 1\nmode net\nwire a in out\nwire b in out\n"
                      "phase pi/2 a b\n")
    g = c.gates[0].gate
    assert g.param == math.pi / 2 and g.n_legs == 2
    assert g.entries[1, 1] == 1j


def test_complemented_reads_net_only():
    c = parse_circuit("version 1\nmode net\nwire a in out\nwire b in\nwire c out\n"
                      "gate CNOT ~a b c\n")
    assert c.gates[0].negs == (True, False, False)
    e = perr("version 1\nmode seq\nqubit a\nqubit b\napply CNOT ~a b\n")
    assert "net-mode notation" in str(e)


def test_norm_directive():
    c = parse_circuit("version 1\nmode net\nnorm 3\nwire a in out\n")
    assert c.norm_shift == 3 and c.total_norm_exponent == 3


@pytest.mark.parametrize("k", ["\u00b2", "\u0663", "-1", "1.5", "9" * 5000],
                         ids=["superscript-2", "arabic-indic-3", "negative", "fraction",
                              "5000-digits"])
def test_norm_takes_ascii_digits_only(k):
    assert perr(f"version 1\nmode net\nnorm {k}\nwire a in out\n").line == 3


@pytest.mark.parametrize("body, bad_line", [
    ("matrix M \u0663", 4),            # arabic-indic 3 as the leg count
    ("matrix M +1", 4),
    ("matrix M " + "9" * 5000, 4),
    ("phase \u0661 a", 4),             # arabic-indic 1 as the angle
    ("phase 1_0 a", 4),
    ("phase +1 a", 4),
    ("phase pi/" + "9" * 400, 4),       # a denominator no float holds
    ("phase pi/" + "9" * 5000, 4),
    ("matrix M 1\n\u0661:0 0:0\n0:0 1:0", 5),
    ("matrix M 1\n1:0 0:0\n0:0 1:0_0", 6),
], ids=["legs-arabic-indic", "legs-plus", "legs-5000-digits", "angle-arabic-indic",
        "angle-underscore", "angle-plus", "angle-400-digit-denominator",
        "angle-5000-digit-denominator", "entry-arabic-indic", "entry-underscore"])
def test_numbers_take_ascii_forms_only(body, bad_line):
    assert perr(f"version 1\nmode net\nwire a in out\n{body}\nwire z in\n").line == bad_line


def test_phase_definitions_are_shared_per_angle():
    text = "version 1\nmode net\nwire a in\nwire b out\nphase {} a b\n"
    first, second = (parse_circuit(text.format("pi/4")) for _ in range(2))
    assert first.gates[0].gate is second.gates[0].gate
    pos, neg = (parse_circuit(text.format(t)) for t in ("0.0", "-0.0"))
    assert pos.gates[0].gate is not neg.gates[0].gate
    assert emit_circuit(pos) == text.format("0.0")
    assert emit_circuit(neg) == text.format("-0.0")
    # the table holds definitions weakly: one no circuit uses goes away
    gone = weakref.ref(phase_gate(0.123, 1))
    gc.collect()
    assert gone() is None


def test_custom_matrix_block():
    # custom gates bind their output legs first: a is produced, b consumed
    text = ("version 1\nmode net\n"
            "matrix R 1\n0:0 1:0\n1:0 0:0\n"
            "wire a out\nwire b in\ngate R a b\n")
    c = parse_circuit(text)
    assert c.gates[0].gate.entries[0, 1] == 1  # row 0 = output bit 0
    assert end_claims(c) == ({"a": 1, "b": 1}, {"a": 1, "b": 1})
    assert c.ends == {"a": WireEnds(False, True), "b": WireEnds(True, False)}
    assert validate(c) == []


def test_custom_matrix_must_be_unitary():
    e = perr("version 1\nmode net\nmatrix B 1\n1:0 1:0\n0:0 1:0\nwire a in\n")
    assert e.line == 3 and str(e).endswith("matrix B is not unitary (deviation 1.00e+00)")


def test_matrix_row_shape_checked():
    e = perr("version 1\nmode net\nmatrix R 1\n0:0 1:0\n1:0\nwire a in\n")
    assert "entries per row" in str(e) and e.line == 5
    e = perr("version 1\nmode net\nmatrix R 1\n0:0 1:0\n")
    assert "expected 2 rows" in str(e)
    e = perr("version 1\nmode net\nmatrix R 1\nx 1:0\n1:0 0:0\nwire a in\n")
    assert "RE:IM" in str(e)


def test_boundary_bits_checked():
    e = perr("version 1\nmode net\nwire a in=2\n")
    assert "0 or 1" in str(e)
    c = parse_circuit("version 1\nmode net\nwire a in=1 out=0\n")
    assert (c.wires[0].in_value, c.wires[0].out_value) == (1, 0)


def test_emit_parse_round_trip_teleportation():
    c = parse_circuit(TELEPORTATION_TEXT)
    text = emit_circuit(c)
    c2 = parse_circuit(text)
    assert validate(c2) == []
    ok, dev = equivalent(c, c2)
    assert ok, dev
    # emission is a fixed point
    assert emit_circuit(c2) == text


def test_emit_round_trip_all_examples():
    for name, text in EXAMPLES.items():
        c = parse_circuit(text)
        text2 = emit_circuit(c)
        c2 = parse_circuit(text2)
        assert validate(c2) == [], name
        assert emit_circuit(c2) == text2, name


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_parse_of_emit_is_the_identity(seed, complemented):
    rng = random.Random(seed)
    c = random_circuit(rng, n_max=5, g_max=12)
    if complemented:
        c = c.replace(gates=[GateInstance(g.gate, g.wires, tuple(rng.random() < 0.3 for _ in g.wires))
                             for g in c.gates])
    assert parse_circuit(emit_circuit(c)).structural_key() == c.structural_key()
    # canonical gates carry norm exponents (H becomes a phase with one), which
    # emit folds into the norm line: the structure changes, the amplitudes not
    canon = canonicalize(c)
    back = parse_circuit(emit_circuit(canon))
    assert back.total_norm_exponent == canon.total_norm_exponent
    assert equivalent(canon, back)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_parse_of_emit_keeps_the_complements_of_seq_lowering(seed):
    # X, Y and SWAP lower to complemented reads and traded segments: emit
    # writes each complement as ~name, and parse reads back the same
    # netlist with the same amplitudes, which the dense oracle confirms
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    lines = tuple(SeqLine(q, rng.choice([None, 0]), rng.choice([None, None, 1])) for q in names)
    ops = (SeqOp(BUILTIN["X"], ("a",)), SeqOp(BUILTIN["CNOT"], ("a", "b"))) + \
        random_ops(rng, names, g_max=10)
    desc = SeqDescription(lines, ops)
    c = lower_sequential(desc)
    text = emit_circuit(c)
    assert "gate CNOT ~a0 b0 " in text
    back = parse_circuit(text)
    assert back.structural_key() == c.structural_key()
    for q, line_in, line_out in line_queries(desc, c):
        value = evaluate(c, q).value
        assert evaluate(back, q).value == value
        assert abs(value - seq_oracle(desc, line_in, line_out)) <= 1e-12


def test_emit_folds_phase_norms():
    # a lone H becomes one phase line with its normalization on the norm line
    text = ("version 1\nmode net\nnorm 1\n"
            "wire a in\nwire b out\nphase pi a b\n")
    c = parse_circuit(text)
    assert emit_circuit(c) == ("version 1\nmode net\nnorm 1\n"
                               "wire a in\nwire b out\nphase pi a b\n")


def test_emit_refuses_a_gate_it_cannot_write_exactly():
    # named PHASE, but its last entry is not e^{0.5i}: a phase line would change it
    fake = GateDef("PHASE", (Role.SYM, Role.SYM), [[1, 1], [1, 1j]], param=0.5)
    wires = (Wire("a", in_bound=True), Wire("b", out_bound=True))
    with pytest.raises(ValueError, match="no file representation"):
        emit_circuit(Circuit(wires, (GateInstance(fake, ("a", "b")),)))
    # lines the parser would refuse: a reserved matrix name, a 0-qubit
    # matrix, a phase line past MAX_PHASE_LEGS, a matrix that is not unitary
    x = [[0, 1], [1, 0]]
    for d, legs in [(matrix_gate("H", x, custom_leg_order=True), ("a", "b")),
                    (GateDef("Z0", (), 1), ()),
                    (phase_gate(0.5, 5), ("a", "a", "b", "b", "b")),
                    (matrix_gate("B", [[1, 1], [0, 1]], custom_leg_order=True), ("b", "a"))]:
        with pytest.raises(ValueError, match="no file representation"):
            emit_circuit(Circuit(wires, (GateInstance(d, legs),)))
    # wire names the parser would refuse
    for name in ("1a", "a-b"):
        with pytest.raises(ValueError, match="no file representation"):
            emit_circuit(Circuit((Wire(name, in_bound=True, out_bound=True),), ()))
    # a negative norm line, which the parser refuses ("usage: norm <k>")
    with pytest.raises(ValueError, match="no file representation"):
        emit_circuit(Circuit((Wire("a", True, None, True, None),), (), norm_shift=-1))
    # what phase_gate builds is written exactly, canonical H's exponent on the norm line
    for d in (phase_gate(0.5, 2), phase_gate(math.pi, 2, norm_exponent=1)):
        c = Circuit(wires, (GateInstance(d, ("a", "b")),))
        back = parse_circuit(emit_circuit(c))
        assert emit_circuit(back) == emit_circuit(c)
        assert back.total_norm_exponent == c.total_norm_exponent
        assert equivalent(c, back) == (True, 0.0)


def test_comments_and_blank_lines_ignored():
    c = parse_circuit("version 1\n# a comment\nmode net\n\nwire a in out\n")
    assert len(c.wires) == 1


_DIRECTIVES = ["wire", "qubit", "gate", "apply", "matrix", "phase", "norm", "mode"]
_TOKENS = ["1e308", "-1e308", "1e308:0", "0:1e308", "1e309", "pi/0", "pi/-0",
           "~a", "~", "nan", "inf", "-inf", "nan:0", "in=1", "in=2", "out=0",
           "out=", "in", "out", "a", "b", "x", "H", "CNOT", "XOR3", "PHASE",
           "0", "1", "4", "5", "-1", "1:0", "0:0", "pi/2", "-pi", "#"]


@st.composite
def mutated_examples(draw):
    """A bundled example whose lines after the header get lines inserted,
    deleted or replaced, or one token replaced."""
    lines = draw(st.sampled_from(sorted(EXAMPLES.values()))).splitlines()
    tokens = st.sampled_from(_TOKENS + _DIRECTIVES)
    new_line = st.builds(lambda d, rest: " ".join([d, *rest]), st.sampled_from(_DIRECTIVES),
                         st.lists(tokens, max_size=4)) | st.sampled_from(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(2, len(lines) - 1)) if len(lines) > 2 else len(lines)
        op = draw(st.sampled_from(("splice", "insert", "delete", "replace")))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(new_line))
        elif op == "delete":
            del lines[i]
        elif op == "replace":
            lines[i] = draw(new_line)
        else:
            toks = lines[i].split()
            toks[draw(st.integers(0, len(toks) - 1))] = draw(tokens)
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_examples() | st.text())
def test_bad_text_raises_only_circuit_errors(text):
    # warnings are errors under the test settings, so an overflow leaking
    # out of parse, validate or the dense engine fails here too
    try:
        c = parse_circuit(text)
        if not validate(c):
            ins, outs = interface(c)
            amplitude_canonical(c, BoundaryAssignment(dict.fromkeys(ins, 0),
                                                      dict.fromkeys(outs, 0)))
    except CircuitError:
        pass


_SEQ_LINES = ["q", "q1", "q11", "a", "a1", "b"]
_SEQ_GATES = ["H", "X", "Z", "T", "CNOT", "CZ", "SWAP", "TOFFOLI", "R", "V"]


def seq_text(rng):
    """A ``mode seq`` file: lines whose segment names can clash (``q`` cut ten
    times and ``q1``), pinned and free ends, phase taps that may name a line
    twice, two custom matrix gates and sometimes a norm line."""
    names = rng.sample(_SEQ_LINES, rng.randint(2, 5))
    body = ["version 1", "mode seq",
            "matrix R 1", "0:0 1:0", "1:0 0:0",
            "matrix V 2", "1:0 0:0 0:0 0:0", "0:0 0:0 0:1 0:0",
            "0:0 1:0 0:0 0:0", "0:0 0:0 0:0 -1:0"]
    for nm in names:
        flags = [f"{end}={v}" for end in ("in", "out")
                 if (v := rng.choice([None, None, 0, 1])) is not None]
        body.append(" ".join(["qubit", nm, *flags]))
    if rng.random() < 0.3:
        body.append(f"norm {rng.randint(0, 3)}")
    hot = names[0]
    for _ in range(rng.randint(1, 30)):
        r = rng.random()
        if r < 0.25:
            body.append(f"apply {rng.choice(['H', 'X', 'R'])} {hot}")
        elif r < 0.4:
            k = rng.randint(0, min(4, len(names)))
            taps = [rng.choice(names) for _ in range(k)]
            body.append(" ".join(["phase", rng.choice(["pi", "pi/2", "-pi/4", "0.7"]), *taps]))
        else:
            name = rng.choice(_SEQ_GATES)
            n = 3 if name == "TOFFOLI" else 2 if name in ("CNOT", "CZ", "SWAP", "V") else 1
            if n > len(names):
                continue
            body.append(" ".join(["apply", name, *rng.sample(names, n)]))
    return "\n".join(body) + "\n"


# sha256 over the structural keys below, recorded from the implementation
# whose parse every later one must reproduce exactly (re-recorded when the
# diagonal built-ins began to tap their lines instead of cutting them, and
# again when X, Y, I and SWAP stopped cutting, once the dense oracle of
# test_circuit agreed with that lowering)
PINNED_SEQ_PARSE_DIGEST = "125a8ba94ea0ce1df9193c933c513667f5c2f43dcf446c661e3da512fef82579"


def test_seq_parse_output_is_pinned():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    clashes = 0
    for _ in range(50):
        c = parse_circuit(seq_text(rng))
        assert validate(c) == []
        clashes += any("_" in w.name for w in c.wires)
        digest.update(repr(c.structural_key()).encode() + b"\0")
    assert clashes
    assert digest.hexdigest() == PINNED_SEQ_PARSE_DIGEST
