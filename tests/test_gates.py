import math

import numpy as np
import pytest

from histq import (BUILTIN, GateDef, Role, SeqDescription, SeqLine, SeqOp,
                   check_unitary, lower_sequential, matrix_gate, phase_gate,
                   phase_value, validate, xor_gate)


def test_hadamard_listed_entries():
    h = BUILTIN["H"]
    assert h.norm_exponent == 1
    np.testing.assert_array_equal(h.matrix(), np.array([[1, 1], [1, -1]]))


def test_pauli_entries_exact():
    np.testing.assert_array_equal(BUILTIN["X"].matrix(),
                                  np.array([[0, 1], [1, 0]]))
    np.testing.assert_array_equal(BUILTIN["Z"].matrix(),
                                  np.array([[1, 0], [0, -1]]))
    np.testing.assert_array_equal(BUILTIN["Y"].matrix(),
                                  np.array([[0, -1j], [1j, 0]]))


def test_builtin_leg_layout():
    assert BUILTIN["H"].legs == (Role.IN, Role.OUT)
    assert BUILTIN["CNOT"].legs == (Role.CTRL, Role.IN, Role.OUT)
    assert BUILTIN["CCZ"].legs == (Role.CTRL, Role.CTRL, Role.IN, Role.OUT)
    assert BUILTIN["SWAP"].legs == (Role.IN, Role.IN, Role.OUT, Role.OUT)
    assert BUILTIN["XOR3"].legs == (Role.SYM, Role.SYM, Role.SYM)


def test_controlled_gate_embeds_identity():
    # control axis 0 = pass-through, control axis 1 = the listed block
    cnot = BUILTIN["CNOT"]
    np.testing.assert_array_equal(np.take(cnot.entries, 0, axis=0), np.eye(2))
    np.testing.assert_array_equal(cnot.matrix(), np.array([[0, 1], [1, 0]]))


def test_support_lists_nonzero_entries_once():
    cnot = BUILTIN["CNOT"]
    # flat indices, leg 0 most significant: (ctrl, in, out) = 000, 011, 101, 110
    assert cnot.support == (0b000, 0b011, 0b101, 0b110)
    assert cnot.support == tuple(np.flatnonzero(cnot.entries))
    assert cnot.support is cnot.support
    assert len(phase_gate(0.7, 2).support) == 4


def test_xor_gate_accepts_even_parity():
    x = xor_gate()
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                want = 1.0 if (a ^ b ^ c) == 0 else 0.0
                assert x.entries[a, b, c] == want


def test_phase_corner_values_exact():
    # the exact table keeps Z/S cancellations bit-precise
    assert phase_value(math.pi) == -1
    assert phase_value(math.pi / 2) == 1j
    assert phase_value(-math.pi / 2) == -1j
    assert phase_value(0.0) == 1
    z = phase_value(0.7)
    assert abs(z - complex(math.cos(0.7), math.sin(0.7))) < 1e-15


def test_phase_gate_tensor():
    g = phase_gate(math.pi / 4, 3)
    assert g.is_symmetric and g.param == math.pi / 4
    flat = g.entries.reshape(-1)
    np.testing.assert_array_equal(flat[:-1], np.ones(7))
    assert flat[-1] == phase_value(math.pi / 4)


def test_entries_are_write_protected():
    g = BUILTIN["X"]
    with pytest.raises(ValueError):
        g.entries[0, 0] = 5.0


def test_structural_key_distinguishes():
    assert BUILTIN["H"].structural_key() == BUILTIN["H"].structural_key()
    assert BUILTIN["H"].structural_key() != BUILTIN["X"].structural_key()
    a = phase_gate(math.pi, 2, norm_exponent=1)
    b = phase_gate(math.pi, 2, norm_exponent=1)
    assert a.structural_key() == b.structural_key()
    assert a.structural_key() != phase_gate(math.pi, 2).structural_key()


def test_qubit_slots_pairing():
    slots = BUILTIN["CNOT"].qubit_slots()
    assert slots == (("ctrl", 0), ("pair", 1, 2))
    assert BUILTIN["CNOT"].qubit_slots() is slots    # derived once per definition
    slots = BUILTIN["SWAP"].qubit_slots()
    assert slots == (("pair", 0, 2), ("pair", 1, 3))
    assert BUILTIN["XOR3"].qubit_slots() == (("sym", 0), ("sym", 1), ("sym", 2))


def test_check_unitary():
    assert check_unitary(BUILTIN["H"]) < 1e-12
    assert check_unitary(BUILTIN["TOFFOLI"]) < 1e-12
    bad = matrix_gate("BAD", np.array([[1, 1], [0, 1]]))
    assert check_unitary(bad) > 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, -math.inf)])
def test_gate_entries_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        matrix_gate("M", [[bad, 0], [0, 1]])


def test_overflowing_deviation_is_inf():
    # (1e308+1e308j) times its conjugate has an inf - inf, so a NaN, imaginary part
    g = matrix_gate("M", [[1e308 + 1e308j, 0], [0, 1]])
    assert check_unitary(g) == math.inf
    c = lower_sequential(SeqDescription((SeqLine("a"),), (SeqOp(g, ("a",)),)))
    assert validate(c) == ["gate 0 (M): not unitary (deviation inf)"]


def test_custom_leg_order():
    g = matrix_gate("P", np.eye(4), custom_leg_order=True)
    assert g.legs == (Role.OUT, Role.OUT, Role.IN, Role.IN)


def test_negative_norm_exponent_rejected():
    with pytest.raises(ValueError):
        GateDef("N", (Role.SYM,), np.ones(2), norm_exponent=-1)
