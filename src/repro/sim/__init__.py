"""Dense state-vector simulation substrate (NumPy backend)."""

from .apply import (
    apply_diagonal,
    apply_gate_buffered,
    apply_matrix,
    apply_matrix_reference,
    expand_matrix,
)
from .fusion import apply_gate_sequence, fused_unitary, kernel_qubits
from .program import (
    CompiledOp,
    CompiledProgram,
    Workspace,
    compile_unitary_op,
    release_thread_workspace,
)
from .reference import simulate_reference
from .statevector import StateVector

__all__ = [
    "StateVector",
    "CompiledOp",
    "CompiledProgram",
    "Workspace",
    "compile_unitary_op",
    "release_thread_workspace",
    "apply_matrix",
    "apply_matrix_reference",
    "apply_diagonal",
    "apply_gate_buffered",
    "expand_matrix",
    "fused_unitary",
    "kernel_qubits",
    "apply_gate_sequence",
    "simulate_reference",
]
