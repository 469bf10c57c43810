"""histq: circuit amplitudes as sums over classical wire assignments."""

from .circuit import (Amplitude, BoundaryAssignment, Circuit, GateInstance,
                      SeqDescription, SeqLine, SeqOp, Wire, classify_wires,
                      gate_factor, lower_sequential, resolve_boundary,
                      validate)
from .engine import (DEFAULT_MAX_WIRES, Distribution, EvalResult, evaluate,
                     free_output_ends, memory_probe, output_distribution)
from .errors import (CircuitError, InterfaceMismatch, MaxWiresExceeded,
                     NonSequential, ParseError, UnboundWire, ValidationError)
from .gates import (BUILTIN, GateDef, Role, check_unitary, matrix_gate,
                    phase_gate, phase_value, xor_gate)
from .parser import emit_circuit, parse_circuit
from .rewrite import (DEFAULT_PASSES, PASSES, PassReport, apply_passes,
                      canonicalize, compute_constants,
                      drop_dead_controlled_gates, equivalent, interface,
                      propagate_constants, short_xor_constant)
from .statevector import amplitude_canonical, sequential_order

__version__ = "0.1.0"

__all__ = [
    "Amplitude", "BoundaryAssignment", "Circuit", "GateInstance",
    "SeqDescription", "SeqLine", "SeqOp", "Wire", "classify_wires",
    "gate_factor", "lower_sequential", "resolve_boundary", "validate",
    "DEFAULT_MAX_WIRES", "Distribution", "EvalResult", "evaluate",
    "free_output_ends", "memory_probe", "output_distribution",
    "CircuitError", "InterfaceMismatch", "MaxWiresExceeded", "NonSequential",
    "ParseError", "UnboundWire", "ValidationError",
    "BUILTIN", "GateDef", "Role", "check_unitary", "matrix_gate",
    "phase_gate", "phase_value", "xor_gate",
    "emit_circuit", "parse_circuit",
    "DEFAULT_PASSES", "PASSES", "PassReport", "apply_passes", "canonicalize",
    "compute_constants", "drop_dead_controlled_gates", "equivalent",
    "interface", "propagate_constants", "short_xor_constant",
    "amplitude_canonical", "sequential_order",
    "__version__",
]
