"""Compiled op streams: pre-resolved gate application, flat or stacked.

:mod:`repro.sim.apply` holds the engine — the kernels, the
:class:`OpTemplate` builders that turn a matrix and a position into a
``run`` closure, and the :class:`Workspace` it borrows buffers from.  Its
entry points bind a template on first sight of a payload; this module binds
them *ahead of time*: :func:`compile_unitary_op` classifies a matrix once
and returns a :class:`CompiledOp` whose closure carries the fully-resolved
payload — the broadcast diagonal vector, the permutation move table, the
reduced controlled block, or the dense gemm plan with its prepared small
matrices — so executing the op is a tight sequence of NumPy/BLAS calls with
zero analysis, zero hashing and zero dict lookups.

Ops follow the ping-pong buffer contract of
:func:`repro.sim.apply.apply_gate_buffered`, which runs the very same
closures.  An op has **one body**, written against ``(..., 2^n)`` buffers:
a flat state is a stack of one, and a ``(B, 2^n)`` stack runs the same
payload with one NumPy call per op instead of ``B`` passes.  In the gemm
forms the stack is a looped leading matmul axis, never a gemm dimension, so
BLAS sees per state exactly the operands of a flat run: row ``b`` of
``run_batched(states)`` equals ``run(states[b])`` **bit for bit**.  The one
exception is ``big`` (the tensordot fallback contracts the whole stack at
once), which agrees within ``2^k`` ulp of the state's largest amplitude per
op of width ``k`` (:meth:`CompiledProgram.stack_ulps`; 0 ulp measured on the
build host).

:class:`CompiledProgram` strings ops into an executable program.  Its
:class:`Workspace` preallocates and owns every buffer the program needs —
the state/scratch ping-pong pair (per batch width) and the per-op
temporaries — so steady-state re-execution performs **zero** engine
allocations (see the allocation-log regression tests).  Plan-level
compilation lives in :mod:`repro.runtime.compile`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import StateValidationError
from .apply import (
    INPLACE_KINDS,
    STREAM_KINDS,
    CompiledOp,
    OpTemplate,
    Workspace,
    monomial_template,
    release_thread_workspace,
    thread_workspace,
    tracked_empty,
    unitary_template,
)
from .statevector import StateVector

__all__ = [
    "CompiledOp",
    "CompiledProgram",
    "INPLACE_KINDS",
    "STREAM_KINDS",
    "Workspace",
    "OpTemplate",
    "unitary_template",
    "monomial_template",
    "compile_unitary_op",
    "compile_layout_op",
    "release_thread_workspace",
    "thread_workspace",
]


def compile_unitary_op(
    matrix: np.ndarray,
    qubits: Sequence[int],
    n: int,
    source: tuple | None = None,
    gates: "tuple | None" = None,
) -> CompiledOp:
    """Lower one unitary application to a :class:`CompiledOp`:
    :func:`unitary_template` bound to *matrix*."""
    return unitary_template(matrix, qubits, n).op(matrix, source, gates)


def compile_layout_op(
    axes: Sequence[int], n: int, source: tuple | None = None
) -> CompiledOp:
    """A stage-boundary layout permutation as a precomputed axis transpose.

    *axes* is the tensor-axis permutation produced by
    :func:`repro.runtime.sharding.permutation_axes`; identity permutations
    must be elided by the caller (the compiler never emits them).
    """
    shape = (-1,) + (2,) * n
    axes = [0] + [a + 1 for a in axes]

    def run(states, scratch, ws):
        permuted = np.transpose(states.reshape(shape), axes=axes)
        np.copyto(scratch.reshape(permuted.shape), permuted)
        return scratch, states

    return CompiledOp("layout", run, source, None, qubits=None)


# ---------------------------------------------------------------------------
# The program container
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A plan lowered to a flat, re-executable op stream.

    Built by :func:`repro.runtime.compile.compile_plan`.  The program owns
    (lazily, through its :class:`Workspace`) every buffer execution needs;
    repeated :meth:`run_view` / :meth:`run_batched_view` calls perform zero
    engine allocations once warm.  Programs are cheap to rebind: a
    structurally identical plan reuses every op whose source gates are
    unchanged (see ``compile_plan(reuse=...)``), so only angle-dependent
    payloads are recomputed.

    The op stream is immutable and may be executed from several threads
    concurrently, but **each concurrent caller must pass its own
    workspace** (``run(..., workspace=thread_workspace())``) — the default
    program-owned workspace belongs to one executing thread at a time.
    `execute_plan` does exactly this, so its compiled path stays as
    thread-safe as the interpreter.
    """

    def __init__(
        self,
        num_qubits: int,
        ops: list[CompiledOp],
        workspace: Workspace | None = None,
        num_stages: int = 0,
        num_gates: int = 0,
        num_kernels: int = 0,
        num_permutations: int = 0,
        kernels_per_stage: list[int] | None = None,
        locality_checked: bool = True,
        ops_reused: int = 0,
        provenance: dict | None = None,
        ops_rebound: int = 0,
        ops_recompiled: int = 0,
        structure: object | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.ops = ops
        self.workspace = workspace if workspace is not None else Workspace()
        self.num_stages = num_stages
        #: Gates of the source plan; ``num_gates / len(ops)`` is how many
        #: gates an op absorbed on average (fusion kernels and folded
        #: shared-memory runs absorb many, layout ops none).
        self.num_gates = num_gates
        self.num_kernels = num_kernels
        self.num_permutations = num_permutations
        self.kernels_per_stage = kernels_per_stage or []
        self.locality_checked = locality_checked
        #: Which path each gate-binding op took when this program was compiled
        #: with ``reuse=``: taken verbatim from the reuse program (equal
        #: gates), payload refilled through the shared structure (new
        #: angles), or built by a structural compile because the plan failed
        #: the structure guard (all of them, then).  All zero for a cold
        #: compile; layout transposes are never counted.
        self.ops_reused = ops_reused
        self.ops_rebound = ops_rebound
        self.ops_recompiled = ops_recompiled
        #: The angle-independent half of the compilation
        #: (:class:`repro.runtime.compile.ProgramStructure`), shared by the
        #: whole family of programs rebound from this one.
        self.structure = structure
        #: Planning provenance of the source plan (preset, pipeline, skips)
        #: — carried through compilation and rebinds so runtime consumers
        #: can attribute an executing program to the pipeline that planned it.
        self.provenance = dict(provenance) if provenance else {}

    def __len__(self) -> int:
        return len(self.ops)

    def op_counts(self) -> dict[str, int]:
        """Ops per kind — what the plan lowered to (tests/diagnostics)."""
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def stack_ulps(self) -> int:
        """The documented bound on how far row ``b`` of a stacked run may
        sit from the flat run of state ``b``, in ulp of that state's largest
        amplitude: 0 — bit for bit — unless the program holds ``big`` ops,
        each adding the length ``2^k`` of its contraction's sums."""
        return sum(1 << len(op.qubits) for op in self.ops if op.kind == "big")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _load(
        self, buf: np.ndarray, initial_state: "StateVector | np.ndarray | None"
    ) -> None:
        if initial_state is None:
            buf[:] = 0.0
            buf.reshape(-1)[0] = 1.0
            return
        if isinstance(initial_state, StateVector):
            if initial_state.num_qubits != self.num_qubits:
                raise StateValidationError(
                    "initial state size does not match program"
                )
            initial_state.copy_into(buf)
            return
        data = np.asarray(initial_state)
        if data.size != buf.size:
            raise StateValidationError("initial state size does not match program")
        np.copyto(buf, data.reshape(buf.shape))

    def _run_ops(self, pair: list[np.ndarray], ws: Workspace) -> np.ndarray:
        """The one op loop: run the stream over the loaded ping-pong *pair*
        — flat ``(2^n,)`` buffers or a ``(B, 2^n)`` stack — and persist the
        final roles."""
        state, scratch = pair
        for op in self.ops:
            state, scratch = op.run(state, scratch, ws)
        pair[0], pair[1] = state, scratch
        return state

    def _owned(self, final: np.ndarray) -> StateVector:
        """A caller-owned copy of one final state (a workspace view)."""
        out = tracked_empty(final.size)
        np.copyto(out, final)
        return StateVector(self.num_qubits, out)

    def run_view(
        self,
        initial_state: StateVector | np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        """Execute and return the final state as a **view** into the
        workspace buffer (invalidated by the next run on that workspace).
        Steady-state calls allocate nothing.

        ``workspace`` overrides the program-owned default; concurrent
        callers sharing one program must each pass their own (e.g.
        :func:`thread_workspace`) — the op stream itself is immutable and
        thread-safe, the buffers are not.
        """
        ws = workspace if workspace is not None else self.workspace
        pair = ws.pair(1 << self.num_qubits)
        self._load(pair[0], initial_state)
        return self._run_ops(pair, ws)

    def run(
        self,
        initial_state: StateVector | np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> StateVector:
        """Execute and return a fresh :class:`StateVector` (one tracked
        state-sized allocation for the caller-owned copy)."""
        return self._owned(self.run_view(initial_state, workspace=workspace))

    def run_batched_view(
        self, initial_states: Sequence, workspace: Workspace | None = None
    ) -> np.ndarray:
        """Execute the program once against a ``(B, 2^n)`` stack of initial
        states; returns the stacked final states as a view into the
        workspace batch buffer (invalidated by the next run).  The same op
        loop as :meth:`run_view`: row ``b`` equals ``run_view`` of state
        ``b`` bit for bit (module docstring; ``big`` ops within their
        bound)."""
        batch = len(initial_states)
        if batch == 0:
            raise ValueError("empty batch")  # lint: config-error
        ws = workspace if workspace is not None else self.workspace
        pair = ws.pair2d(batch, 1 << self.num_qubits)
        for row, initial in zip(pair[0], initial_states):
            self._load(row, initial)
        return self._run_ops(pair, ws)

    def run_batched(
        self, initial_states: Sequence, workspace: Workspace | None = None
    ) -> list[StateVector]:
        """Batched execution returning caller-owned :class:`StateVector`
        copies, one per initial state, in order."""
        finals = self.run_batched_view(initial_states, workspace=workspace)
        return [self._owned(row) for row in finals]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompiledProgram {self.num_qubits}q {len(self.ops)} ops "
            f"{self.num_stages} stages>"
        )
