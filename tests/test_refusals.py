"""Each refusal that no other test reaches, pinned by its exact message:
the parser's (with the 1-based line number), the gate constructors', the
emitter's and the command line's."""

import math

import numpy as np
import pytest

import itertools

from histq import (BoundaryAssignment, Circuit, GateDef, GateInstance, ParseError, Role, Wire,
                   canonicalize, check_unitary, emit_circuit, evaluate, interface, matrix_gate,
                   parse_circuit, phase_gate, validate)
from histq.cli import main
from histq.examples import TELEPORTATION_TEXT

NET = "version 1\nmode net\nwire a in\nwire b out\n"
SEQ = "version 1\nmode seq\nqubit a\nqubit b\nqubit c\n"
AB = (Wire("a", in_bound=True), Wire("b", out_bound=True))
UNBALANCED = GateDef("U", (Role.IN, Role.OUT, Role.OUT), np.zeros((2, 2, 2)))


def parse_refusal(text):
    with pytest.raises(ParseError) as ei:
        parse_circuit(text)
    return str(ei.value)


def value_error(fn, *args, **kwargs):
    with pytest.raises(ValueError) as ei:
        fn(*args, **kwargs)
    return str(ei.value)


def two_gates_named_r():
    r1 = matrix_gate("R", [[0, 1], [1, 0]], custom_leg_order=True)
    r2 = matrix_gate("R", [[1, 0], [0, -1]], custom_leg_order=True)
    wires = (Wire("a", in_bound=True), Wire("m"), Wire("b", out_bound=True))
    return emit_circuit(Circuit(wires, (GateInstance(r1, ("m", "a")),
                                        GateInstance(r2, ("b", "m")))))


def emit_gate_named(name):
    r = matrix_gate(name, [[0, 1], [1, 0]], custom_leg_order=True)
    return emit_circuit(Circuit(AB, (GateInstance(r, ("b", "a")),)))


def exit_and_stderr(capsys, *argv):
    code = main(list(argv))
    return f"exit {code}: {capsys.readouterr().err}"


def rewrite_into_missing_dir(tmp_path, capsys):
    src = tmp_path / "teleport.circuit"
    src.write_text(TELEPORTATION_TEXT)
    return exit_and_stderr(capsys, "rewrite", str(src), "--emit", str(tmp_path / "missing" / "y"))


MISSING = "exit 2: error: [Errno 2] No such file or directory: '{tmp}/missing/{name}'\n"

REFUSALS = [
    # parser
    pytest.param(lambda tmp, cap: parse_refusal("version 1\nmode net\n"
                                                "matrix H 1\n1:0 0:0\n0:0 1:0\n"),
                 "line 3: gate name H is reserved", id="matrix-reserved-name"),
    pytest.param(lambda tmp, cap: parse_refusal("version 1\nmode net\n"
                                                "matrix M 1\n1:0 0:0\n0:0 1:0\n"
                                                "matrix M 1\n1:0 0:0\n0:0 1:0\n"),
                 "line 6: gate M defined twice", id="matrix-defined-twice"),
    *(pytest.param(lambda tmp, cap, f=f: parse_refusal(f"version 1\nmode seq\nqubit a {f}\n"),
                   "line 3: usage: qubit <name> [in=b] [out=b]", id=f"seq-bare-{f}")
      for f in ("in", "out", "in out")),
    pytest.param(lambda tmp, cap: parse_refusal(NET + "gate\n"),
                 "line 5: usage: gate <NAME> <wire>...", id="bare-gate"),
    pytest.param(lambda tmp, cap: parse_refusal(NET + "apply X a\n"),
                 "line 5: 'apply' is a seq-mode directive ('gate' in net mode)",
                 id="apply-in-net-mode"),
    pytest.param(lambda tmp, cap: parse_refusal(SEQ + "apply XOR3 a b c\n"),
                 "line 6: gate XOR3 has no sequential form", id="apply-xor3"),
    pytest.param(lambda tmp, cap: parse_refusal(SEQ + "apply CNOT a\n"),
                 "line 6: gate CNOT takes 2 qubits, got 1", id="apply-short"),
    pytest.param(lambda tmp, cap: parse_refusal(NET + "phase 0.5 a a a a a\n"),
                 "line 5: phase gates take at most 4 legs", id="phase-five-legs"),
    pytest.param(lambda tmp, cap: parse_refusal(SEQ + "phase pi z\n"),
                 "line 6: undeclared qubit z", id="seq-phase-undeclared"),
    pytest.param(lambda tmp, cap: parse_refusal(SEQ + "phase pi ~a\n"),
                 "line 6: complemented reads are a net-mode notation",
                 id="seq-phase-complemented"),
    # gates
    pytest.param(lambda tmp, cap: "; ".join(validate(Circuit(
                     (Wire("a", in_bound=True), Wire("b", out_bound=True),
                      Wire("c", out_bound=True)),
                     (GateInstance(UNBALANCED, ("a", "b", "c")),)))),
                 "gate 0 (U): 1 inputs vs 2 outputs", id="validate-unbalanced"),
    pytest.param(lambda tmp, cap: value_error(phase_gate(0.5, 2).matrix),
                 "gate PHASE has symmetric legs, so no rows or columns", id="matrix-symmetric"),
    pytest.param(lambda tmp, cap: value_error(UNBALANCED.matrix),
                 "gate U has 1 inputs but 2 outputs", id="matrix-unbalanced"),
    pytest.param(lambda tmp, cap: value_error(check_unitary, UNBALANCED),
                 "gate U: unbalanced input/output legs", id="check-unitary-unbalanced"),
    pytest.param(lambda tmp, cap: value_error(matrix_gate, "R", np.eye(3)),
                 "matrix must be square with power-of-two dimension", id="matrix-gate-shape"),
    pytest.param(lambda tmp, cap: value_error(matrix_gate, "R", np.eye(2), n_ctrl=1,
                                              custom_leg_order=True),
                 "custom leg order does not take controls", id="matrix-gate-controls"),
    # emitter
    pytest.param(lambda tmp, cap: value_error(two_gates_named_r),
                 "two distinct gates both named R", id="emit-two-gates-named-r"),
    *(pytest.param(lambda tmp, cap, n=n: value_error(emit_gate_named, n),
                   f"the parser does not read gate {n!r} back: no file representation",
                   id=f"emit-gate-name-{i}")
      for i, n in enumerate(("R\xa0", "R ", "R\u2003"))),
    # command line: a path in a missing directory
    pytest.param(lambda tmp, cap: exit_and_stderr(cap, "examples", "teleport", "--out",
                                                  str(tmp / "missing" / "x")),
                 MISSING.replace("{name}", "x"), id="examples-out-missing-dir"),
    pytest.param(rewrite_into_missing_dir, MISSING.replace("{name}", "y"),
                 id="rewrite-emit-missing-dir"),
]


@pytest.mark.parametrize("refuse, message", REFUSALS)
def test_refusal_message_is_pinned(refuse, message, tmp_path, capsys):
    assert refuse(tmp_path, capsys) == message.replace("{tmp}", str(tmp_path))


def test_negative_quarter_turn_emits_and_parses_back():
    c = Circuit(AB, (GateInstance(phase_gate(-math.pi / 4, 2), ("a", "b")),))
    text = emit_circuit(c)
    assert text.splitlines()[-1] == "phase -pi/4 a b"
    assert parse_circuit(text).gates[0].gate.param == -math.pi / 4


def test_canonicalize_keeps_a_complemented_target_pair():
    # CZ's target legs read a plain and b complemented, so fusing them into
    # one wire, as canonicalize does a plain pair, would drop the complement
    c = parse_circuit(NET + "wire c in out\ngate CZ c a ~b\n")
    assert validate(c) == []
    out = canonicalize(c)
    assert out.structural_key() == c.structural_key()
    ins, outs = interface(c)
    for bits in itertools.product((0, 1), repeat=len(ins) + len(outs)):
        q = BoundaryAssignment(dict(zip(ins, bits)), dict(zip(outs, bits[len(ins):])))
        assert evaluate(out, q).value == evaluate(c, q).value
