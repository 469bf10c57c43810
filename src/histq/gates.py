"""Gate definitions: leg roles, entry tensors, and the normalization convention.

A gate is a tensor with one {0,1} index per leg.  Listed entries are kept
exact (0, +-1, +-i, e^{i*theta}); the gate's true entries are the listed ones
times 2^(-norm_exponent/2).  Keeping the 1/sqrt(2) of a Hadamard out of the
tensor means products of listed entries stay exact integers (or exact unit
phases), and all scaling happens once at the end of an evaluation.

Leg order conventions:
  * built-in controlled/matrix gates: (controls..., target-ins..., target-outs...)
  * custom ``matrix`` gates from circuit files: (outputs..., inputs...)
  * PHASE gates: all legs symmetric, order irrelevant.
The tensor index for legs (l0, l1, ..) uses l0 as the most significant bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

import numpy as np


class Role(Enum):
    IN = "in"
    OUT = "out"
    CTRL = "ctrl"
    SYM = "sym"


class GateClass(Enum):
    CLASSICAL = "classical"
    PHASE = "phase"
    GENERAL = "general"


@dataclass(frozen=True, eq=False)
class GateDef:
    name: str
    legs: tuple[Role, ...]
    entries: np.ndarray  # complex128, shape (2,)*len(legs), write-protected
    norm_exponent: int = 0
    param: float | None = None  # theta for the PHASE family

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex).reshape((2,) * len(self.legs))
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)
        if self.norm_exponent < 0:
            raise ValueError("norm_exponent must be nonnegative")

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @cached_property
    def nonzero_mask(self) -> np.ndarray | None:
        """Flat ``entries != 0`` for pruning, or None when no entry is zero."""
        mask = self.entries.reshape(-1) != 0
        return None if mask.all() else mask

    @property
    def is_symmetric(self) -> bool:
        return all(r is Role.SYM for r in self.legs)

    @property
    def is_matrix_style(self) -> bool:
        """Directed gate: input/output legs plus optional controls, no symmetric legs."""
        return Role.SYM not in self.legs and Role.IN in self.legs

    def leg_indices(self, role: Role) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.legs) if r is role)

    def qubit_slots(self):
        """How ``apply`` binds qubit lines to legs, one slot per qubit argument.

        Returns a list of ("ctrl", leg) / ("pair", in_leg, out_leg) / ("sym", leg),
        in argument order.  The n-th input leg pairs with the n-th output leg.
        """
        outs = self.leg_indices(Role.OUT)
        slots = []
        n_in = 0
        for i, r in enumerate(self.legs):
            if r is Role.CTRL:
                slots.append(("ctrl", i))
            elif r is Role.IN:
                slots.append(("pair", i, outs[n_in]))
                n_in += 1
            elif r is Role.SYM:
                slots.append(("sym", i))
        return slots

    def matrix(self) -> np.ndarray:
        """Listed entries as a matrix, rows = output-leg bits, columns = input-leg
        bits (controls fixed to 1 on both sides)."""
        ctrls = self.leg_indices(Role.CTRL)
        ins = self.leg_indices(Role.IN)
        outs = self.leg_indices(Role.OUT)
        if len(ins) != len(outs):
            raise ValueError(f"gate {self.name} has {len(ins)} inputs but {len(outs)} outputs")
        t = self.entries
        for c in ctrls:
            t = np.take(t, 1, axis=c - sum(1 for x in ctrls if x < c))
        # after dropping control axes, remaining axes follow the original leg
        # order with controls removed; move outputs in front of inputs
        remaining = [i for i in range(self.n_legs) if i not in ctrls]
        order = [remaining.index(i) for i in outs] + [remaining.index(i) for i in ins]
        t = np.transpose(t, order)
        d = 2 ** len(outs)
        return t.reshape(d, d)

    def resolved_matrix(self) -> np.ndarray:
        """True unitary acting on the target legs (controls all 1)."""
        return self.matrix() * 2.0 ** (-self.norm_exponent / 2.0)

    def transposed(self) -> "GateDef":
        """Swap input and output roles; entries and leg positions are untouched.

        Reversing a directed gate against the flow of its wires is a pure
        relabeling of leg roles.
        """
        swap = {Role.IN: Role.OUT, Role.OUT: Role.IN}
        legs = tuple(swap.get(r, r) for r in self.legs)
        return GateDef(self.name + "^t" if not self.name.endswith("^t") else self.name[:-2],
                       legs, self.entries, self.norm_exponent, self.param)

    def structural_key(self):
        return (self.name, self.legs, self.norm_exponent, self.param, self.entries.tobytes())


def classify_gate(g: GateDef) -> GateClass:
    """classical: only 0/1 entries and no normalization; phase: entries all zero
    or unit-modulus and diagonal across the row/column split (vacuous for
    all-symmetric gates); everything else: general."""
    e = g.entries
    if g.norm_exponent == 0 and np.all((e == 0) | (e == 1)):
        return GateClass.CLASSICAL
    mods = np.abs(e)
    if np.all((e == 0) | (np.abs(mods - 1.0) < 1e-15)):
        if g.is_symmetric or not g.leg_indices(Role.IN):
            return GateClass.PHASE
        # diagonal across the row/column split, controls held equal on both sides
        if _diagonal_all_blocks(g):
            return GateClass.PHASE
    return GateClass.GENERAL


def _diagonal_all_blocks(g: GateDef) -> bool:
    ins = g.leg_indices(Role.IN)
    outs = g.leg_indices(Role.OUT)
    for idx in np.ndindex(g.entries.shape):
        row = tuple(idx[i] for i in outs)
        col = tuple(idx[i] for i in ins)
        if row != col and g.entries[idx] != 0:
            return False
    return True


def check_unitary(g: GateDef, tol: float = 1e-10) -> float:
    """Max deviation of U U^dagger from I over all control settings, for the
    resolved matrix.  Symmetric gates are skipped (no row/column split)."""
    if not g.is_matrix_style:
        return 0.0
    ctrls = g.leg_indices(Role.CTRL)
    ins = g.leg_indices(Role.IN)
    outs = g.leg_indices(Role.OUT)
    if len(ins) != len(outs):
        raise ValueError(f"gate {g.name}: unbalanced input/output legs")
    d = 2 ** len(ins)
    scale = 2.0 ** (-g.norm_exponent / 2.0)
    worst = 0.0
    for cbits in np.ndindex((2,) * len(ctrls)):
        m = np.zeros((d, d), dtype=complex)
        for idx in np.ndindex(g.entries.shape):
            if tuple(idx[c] for c in ctrls) != cbits:
                continue
            row = _pack(tuple(idx[i] for i in outs))
            col = _pack(tuple(idx[i] for i in ins))
            m[row, col] = g.entries[idx] * scale
        worst = max(worst, float(np.max(np.abs(m @ m.conj().T - np.eye(d)))))
    return worst


def _pack(bits) -> int:
    v = 0
    for b in bits:
        v = (v << 1) | int(b)
    return v


# ---------------------------------------------------------------------------
# constructors

def matrix_gate(name: str, listed: np.ndarray, n_ctrl: int = 0,
                norm_exponent: int = 0, custom_leg_order: bool = False) -> GateDef:
    """Build a directed gate from its listed matrix (rows = outputs).

    With controls, the gate acts as the identity unless every control is 1.
    ``custom_leg_order`` selects the circuit-file convention for user matrix
    gates: legs are (outputs..., inputs...) instead of (controls, ins, outs).
    """
    listed = np.asarray(listed, dtype=complex)
    d = listed.shape[0]
    t = int(math.log2(d))
    if listed.shape != (d, d) or 2 ** t != d:
        raise ValueError("matrix must be square with power-of-two dimension")
    if custom_leg_order:
        if n_ctrl:
            raise ValueError("custom leg order does not take controls")
        legs = (Role.OUT,) * t + (Role.IN,) * t
    else:
        legs = (Role.CTRL,) * n_ctrl + (Role.IN,) * t + (Role.OUT,) * t
    shape = (2,) * len(legs)
    ent = np.zeros(shape, dtype=complex)
    for idx in np.ndindex(shape):
        if custom_leg_order:
            row = _pack(idx[:t])
            col = _pack(idx[t:])
            active = True
        else:
            cbits = idx[:n_ctrl]
            col = _pack(idx[n_ctrl:n_ctrl + t])
            row = _pack(idx[n_ctrl + t:])
            active = all(b == 1 for b in cbits)
        ent[idx] = listed[row, col] if active else (1.0 if row == col else 0.0)
    return GateDef(name, legs, ent, norm_exponent)


def phase_gate(theta: float, n_legs: int, norm_exponent: int = 0,
               value: complex | None = None) -> GateDef:
    """PHASE(theta) with ``n_legs`` symmetric legs: factor e^{i*theta} when every
    leg reads 1, factor 1 otherwise.  Zero legs gives a global e^{i*theta} gate.

    ``value`` overrides the computed e^{i*theta} so rewrites can reuse a source
    gate's exact entry.
    """
    if value is None:
        value = phase_value(theta)
    shape = (2,) * n_legs
    ent = np.ones(shape, dtype=complex)
    ent[(1,) * n_legs] = value
    return GateDef("PHASE", (Role.SYM,) * n_legs, ent, norm_exponent, param=theta)


def phase_value(theta: float) -> complex:
    """e^{i*theta}, exact for the quarter-turn angles the parser produces."""
    for exact, v in ((0.0, 1.0), (math.pi, -1.0), (-math.pi, -1.0),
                     (math.pi / 2, 1j), (-math.pi / 2, -1j)):
        if theta == exact:
            return complex(v)
    return cmath.exp(1j * theta)


def xor_gate() -> GateDef:
    """Symmetric 3-leg parity check: factor 1 when the legs sum to an even
    number, 0 otherwise."""
    ent = np.zeros((2, 2, 2), dtype=complex)
    for idx in np.ndindex((2, 2, 2)):
        ent[idx] = 1.0 if sum(idx) % 2 == 0 else 0.0
    return GateDef("XOR3", (Role.SYM,) * 3, ent)


def unitary_from_hermitian(h: np.ndarray, theta: float) -> np.ndarray:
    """U = exp(-i*theta*H) for a Hermitian H on up to 4 qubits.

    theta = 0 returns the identity exactly.  This is the continuous-evolution
    step from which discrete gates arise; it is exposed so custom gates can be
    generated from generators instead of hand-typed matrices.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    if h.ndim != 2 or h.shape != (d, d) or d & (d - 1) or not 1 <= d <= 16:
        raise ValueError("H must be a 2^k x 2^k matrix with k <= 4")
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("H is not Hermitian within 1e-12")
    if theta == 0.0:
        return np.eye(d, dtype=complex)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * theta * w)) @ v.conj().T
    if np.max(np.abs(u @ u.conj().T - np.eye(d))) > 1e-10:
        raise ValueError("result failed the unitarity check")
    return u


# ---------------------------------------------------------------------------
# built-in gate table

_SQ = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
    "S": np.diag([1, 1j]),
    "T": np.diag([1, cmath.exp(1j * math.pi / 4)]),
}

BUILTIN: dict[str, GateDef] = {name: matrix_gate(name, m) for name, m in _SQ.items()}
BUILTIN["H"] = matrix_gate("H", np.array([[1, 1], [1, -1]]), norm_exponent=1)
BUILTIN["CNOT"] = matrix_gate("CNOT", _SQ["X"], n_ctrl=1)
BUILTIN["CZ"] = matrix_gate("CZ", _SQ["Z"], n_ctrl=1)
BUILTIN["CCZ"] = matrix_gate("CCZ", _SQ["Z"], n_ctrl=2)
BUILTIN["TOFFOLI"] = matrix_gate("TOFFOLI", _SQ["X"], n_ctrl=2)
BUILTIN["SWAP"] = matrix_gate(
    "SWAP", np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
BUILTIN["XOR3"] = xor_gate()

MAX_PHASE_LEGS = 4  # PHASE is offered with 0..4 legs
