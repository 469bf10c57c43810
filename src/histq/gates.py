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

``GateDef.blocks()`` is the one row/column view of a directed gate: the
entries transposed to (controls..., outputs..., inputs...) and reshaped to
one matrix per control setting, rows = output bits, columns = input bits.
``matrix()`` is its last block (every control 1), ``check_unitary`` loops
over it, and ``matrix_gate`` builds the entries by the inverse transpose.

A ``GateDef`` is immutable, so what the hot paths read of it is derived once
per definition and cached: the flat entry ``table`` and ``nonzero_mask`` for
pruning, ``support`` for constant propagation, and for the passes,
``validate`` and the emitter what the gate is (``builtin_name``,
``is_phase``, ``tap``: the phase gate a diagonal built-in equals once its
target's two legs are one, which lowering and ``canonicalize`` both write,
and ``flip``: what X, Y and I lower to) and what is wrong with it
(``fault``).  Loading a file reads the leg facts: ``in_legs`` and
``out_legs`` (the input and output leg indices, which
``validate`` counts as consumers and producers), ``qubit_slots`` and
``cuts_line`` for lowering, and ``is_sequential`` for the parser's
``apply``; ``role_index`` gives each leg's role as a position, so the
boundary count in ``circuit`` and the dense schedule in ``statevector``
sort legs without hashing a ``Role``.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np


class Role(Enum):
    IN = "in"
    OUT = "out"
    CTRL = "ctrl"
    SYM = "sym"


_ROLE_INDEX = {r: i for i, r in enumerate(Role)}   # IN 0, OUT 1, CTRL 2, SYM 3

# The diagonal built-ins: each multiplies by e^{i*theta} when every qubit it
# names reads 1, and never changes a bit.
_DIAGONAL_THETA = {"Z": math.pi, "S": math.pi / 2, "T": math.pi / 4,
                   "CZ": math.pi, "CCZ": math.pi}


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
        if not np.isfinite(a).all():
            raise ValueError(f"gate {self.name}: entries must be finite")
        if self.norm_exponent < 0:
            raise ValueError("norm_exponent must be nonnegative")

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @cached_property
    def table(self) -> np.ndarray:
        """The entries as one flat, write-protected table, leg 0 most significant."""
        return self.entries.reshape(-1)

    @cached_property
    def nonzero_mask(self) -> np.ndarray | None:
        """Flat ``entries != 0`` for pruning, or None when no entry is zero."""
        mask = self.table != 0
        return None if mask.all() else mask

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Every nonzero entry as its flat index, ascending: the leg bits of
        that entry packed with leg 0 most significant."""
        return tuple(np.flatnonzero(self.table).tolist())

    @cached_property
    def builtin_name(self) -> str | None:
        """The built-in this gate equals by name and ``structural_key``, or None."""
        b = BUILTIN.get(self.name)
        return self.name if b is not None and b.structural_key() == self.structural_key() else None

    @cached_property
    def is_phase(self) -> bool:
        """Exactly what ``phase_gate(param, n_legs, norm_exponent)`` builds."""
        return (self.name == "PHASE" and self.param is not None
                and phase_gate(self.param, self.n_legs, self.norm_exponent).structural_key()
                == self.structural_key())

    @cached_property
    def tap(self) -> GateDef | None:
        """For a diagonal built-in (Z, S, T, CZ, CCZ), the ``phase_gate`` it
        equals when its target's input and output read one wire: one
        symmetric leg per qubit, in argument order.  None for any other gate.
        Caching it on the built-in keeps that phase definition alive."""
        theta = _DIAGONAL_THETA.get(self.builtin_name)
        return None if theta is None else phase_gate(theta, len(self._qubit_slots))

    @cached_property
    def flip(self) -> tuple[bool, tuple[GateDef, ...]] | None:
        """For X, Y and I, which map each basis state of one line to one
        basis state times a phase: whether the gate flips the bit, and the
        phase gates it equals ahead of that flip (Y = i*X*Z: PHASE(pi) on
        the line, then the 0-leg PHASE(pi/2)).  Lowering turns the flip into
        complemented reads.  None for any other gate.  Caching it on the
        built-in keeps Y's phase definitions alive."""
        name = self.builtin_name
        if name == "Y":
            return True, (phase_gate(math.pi, 1), phase_gate(math.pi / 2, 0))
        return {"X": (True, ()), "I": (False, ())}.get(name)

    @cached_property
    def fault(self) -> str | None:
        """Unbalanced input and output legs, or not unitary; None if neither."""
        ins, outs = len(self.in_legs), len(self.out_legs)
        if ins != outs:
            return f"{ins} inputs vs {outs} outputs"
        dev = check_unitary(self)
        return f"not unitary (deviation {dev:.2e})" if dev > 1e-10 else None

    @property
    def is_symmetric(self) -> bool:
        return all(r is Role.SYM for r in self.legs)

    @property
    def is_matrix_style(self) -> bool:
        """Directed gate: input/output legs plus optional controls, no symmetric legs."""
        return Role.SYM not in self.legs and Role.IN in self.legs

    @cached_property
    def in_legs(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.legs) if r is Role.IN)

    @cached_property
    def out_legs(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.legs) if r is Role.OUT)

    @cached_property
    def role_index(self) -> tuple[int, ...]:
        """Each leg's role as its position in ``Role``: IN 0, OUT 1, CTRL 2, SYM 3."""
        return tuple(_ROLE_INDEX[r] for r in self.legs)

    def qubit_slots(self) -> tuple[tuple, ...]:
        """How ``apply`` binds qubit lines to legs, one slot per qubit argument.

        Returns ("ctrl", leg) / ("pair", in_leg, out_leg) / ("sym", leg) slots,
        in argument order.  The n-th input leg pairs with the n-th output leg.
        """
        return self._qubit_slots

    @cached_property
    def _qubit_slots(self) -> tuple[tuple, ...]:
        outs = self.out_legs
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
        return tuple(slots)

    @cached_property
    def cuts_line(self) -> bool:
        """Some qubit argument pairs an input leg with an output leg, so the
        gate maps that line: lowering ends the line's segment here unless
        the gate only relabels basis states (``tap``, ``flip``, SWAP)."""
        return any(s[0] == "pair" for s in self._qubit_slots)

    @cached_property
    def is_sequential(self) -> bool:
        """``apply`` can bind it: one slot per qubit, none of them symmetric."""
        return bool(self._qubit_slots) and all(s[0] != "sym" for s in self._qubit_slots)

    def blocks(self) -> np.ndarray:
        """The entries as one matrix per setting of the other legs, shape
        (2^others, 2^outputs, 2^inputs): rows = output-leg bits, columns =
        input-leg bits.  The other legs (controls, and symmetric legs of a
        mixed gate) index the blocks in leg order, so the last block has
        them all at 1."""
        outs, ins = self.out_legs, self.in_legs
        rest = tuple(i for i, r in enumerate(self.legs) if r not in (Role.IN, Role.OUT))
        return np.transpose(self.entries, rest + outs + ins).reshape(
            -1, 2 ** len(outs), 2 ** len(ins))

    def matrix(self) -> np.ndarray:
        """Listed entries as a matrix, rows = output-leg bits, columns = input-leg
        bits (controls fixed to 1 on both sides)."""
        if Role.SYM in self.legs:
            raise ValueError(f"gate {self.name} has symmetric legs, so no rows or columns")
        n_in, n_out = len(self.in_legs), len(self.out_legs)
        if n_in != n_out:
            raise ValueError(f"gate {self.name} has {n_in} inputs but {n_out} outputs")
        return self.blocks()[-1]

    def structural_key(self):
        return (self.name, self.legs, self.norm_exponent, self.param, self.entries.tobytes())


def check_unitary(g: GateDef) -> float:
    """Max deviation of U U^dagger from I over all control settings, for the
    resolved matrix; ``inf`` when a product overflows.  Symmetric gates are
    skipped (no row/column split)."""
    if not g.is_matrix_style:
        return 0.0
    if len(g.in_legs) != len(g.out_legs):
        raise ValueError(f"gate {g.name}: unbalanced input/output legs")
    m = g.blocks() * 2.0 ** (-g.norm_exponent / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        worst = float(np.max(np.abs(m @ m.conj().transpose(0, 2, 1) - np.eye(m.shape[1]))))
    return worst if math.isfinite(worst) else math.inf


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
    blocks = np.zeros((2 ** n_ctrl, d, d), dtype=complex)
    blocks[:] = np.eye(d)
    blocks[-1] = listed
    # inverse of GateDef.blocks(): write the blocks through the transposed view
    ent = np.empty((2,) * len(legs), dtype=complex)
    order = [i for r in (Role.CTRL, Role.OUT, Role.IN) for i, l in enumerate(legs) if l is r]
    ent.transpose(order)[...] = blocks.reshape(ent.shape)
    return GateDef(name, legs, ent, norm_exponent)


_PHASES = weakref.WeakValueDictionary()   # (theta, sign of theta, legs, exponent) -> GateDef


def phase_gate(theta: float, n_legs: int, norm_exponent: int = 0) -> GateDef:
    """PHASE(theta) with ``n_legs`` symmetric legs: factor e^{i*theta} when every
    leg reads 1, factor 1 otherwise.  Zero legs gives a global e^{i*theta} gate.

    Callers share one definition per (theta, legs, exponent) while any holds it;
    ``-0.0`` and ``0.0`` stay apart because they emit differently.
    """
    theta = float(theta)
    key = (theta, math.copysign(1.0, theta), n_legs, norm_exponent)
    d = _PHASES.get(key)
    if d is None:
        ent = np.ones((2,) * n_legs, dtype=complex)
        ent[(1,) * n_legs] = phase_value(theta)
        d = _PHASES[key] = GateDef("PHASE", (Role.SYM,) * n_legs, ent, norm_exponent,
                                   param=theta)
    return d


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
