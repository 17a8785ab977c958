"""EXECUTE — functional staged execution of a partitioned circuit.

This is Algorithm 1's ``EXECUTE`` realised on the NumPy substrate: the
state is permuted into each stage's physical layout, then every kernel of
the stage is applied as the op the plan compiler's slot builds for it
(:func:`repro.runtime.compile.kernel_op`): its lowered items in one pass —
a phased permutation per run of diagonal/permutation gates, the 1q dense
gates on neighbouring positions together — or, for a fusion kernel where
that pass has no native body, its fused matrix, always on the *physical*
qubit indices given by the stage's logical→physical mapping, which is
exactly what the GPU implementation does on each shard.

The executor validates the staging invariant as it goes: every non-insular
qubit of every gate must be mapped to a local physical position
(``< L``).  Violations raise immediately instead of silently producing a
plan the real machine could not run without extra communication.

By default the plan is first lowered to a
:class:`~repro.sim.program.CompiledProgram` (memoized per plan object, see
:mod:`repro.runtime.compile`) and the hot loop is a tight dispatch over
pre-resolved ops; ``compiled=False`` keeps the interpreter, which walks
plan → stage → kernel itself and takes each kernel's op as it meets it —
the same op, so the two are bit-exact by construction.

This single-stream executor is the correctness reference for the
shard-level runtimes: :mod:`repro.runtime.offload` replays the same plan
shard by shard, and :mod:`repro.runtime.parallel` schedules those shards
across a worker pool; both must agree with it bit for bit on staged plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.machine import MachineConfig
from ..core.kernel import KernelType
from ..core.plan import ExecutionPlan
from ..errors import KernelError, PlanValidationError, TransientError
from ..sim.apply import tracked_empty
from ..sim.program import CompiledProgram, thread_workspace
from ..sim.statevector import StateVector
from .compile import check_gate_locality, compiled_program_for, kernel_op
from .sharding import QubitLayout, permute_state

__all__ = ["ExecutionTrace", "execute_plan", "trace_for_program"]


@dataclass
class ExecutionTrace:
    """What happened during one plan execution (used by tests and reports)."""

    num_stages: int = 0
    num_kernels: int = 0
    num_permutations: int = 0
    kernels_per_stage: list[int] = field(default_factory=list)
    locality_checked: bool = True
    #: Gates executed and the ops they were applied as — kernels (fused
    #: or shared-memory), lone gates, layout transposes — i.e. how many
    #: gates an op absorbed.
    num_gates: int = 0
    num_ops: int = 0
    #: Ops per kind (``CompiledProgram.op_counts()``); empty on the
    #: interpreter path, which classifies nothing ahead of time.
    op_counts: dict[str, int] = field(default_factory=dict)
    #: Which compile path produced the program that ran
    #: (:class:`~repro.sim.program.CompiledProgram` counters): ops taken
    #: verbatim from the cached program, ops refilled through its
    #: structure, ops built by a structure-fallback compile.  All zero for
    #: a cold compile and on the interpreter path.
    ops_reused: int = 0
    ops_rebound: int = 0
    ops_recompiled: int = 0


def trace_for_program(program: CompiledProgram) -> ExecutionTrace:
    """An :class:`ExecutionTrace` from a compiled program's metadata (the
    counts are recorded at compile time; execution itself traces nothing)."""
    return ExecutionTrace(
        num_stages=program.num_stages,
        num_kernels=program.num_kernels,
        num_permutations=program.num_permutations,
        kernels_per_stage=list(program.kernels_per_stage),
        locality_checked=program.locality_checked,
        num_gates=program.num_gates,
        num_ops=len(program.ops),
        op_counts=program.op_counts(),
        ops_reused=program.ops_reused,
        ops_rebound=program.ops_rebound,
        ops_recompiled=program.ops_recompiled,
    )


def execute_plan(
    plan: ExecutionPlan,
    initial_state: StateVector | None = None,
    machine: MachineConfig | None = None,
    check_locality: bool = True,
    compiled: bool = True,
) -> tuple[StateVector, ExecutionTrace]:
    """Execute *plan* and return the final state plus an execution trace.

    Parameters
    ----------
    plan:
        A kernelized execution plan from :func:`repro.core.partition`.
    initial_state:
        Starting state (default |0...0>).  Not modified.
    machine:
        Optional machine config; when given, its ``local_qubits`` value is
        used for the locality check, otherwise the per-stage partition's
        local-set size is used.
    check_locality:
        Verify the staging invariant while executing (at compile time on
        the compiled path).
    compiled:
        Lower the plan to a :class:`~repro.sim.program.CompiledProgram`
        (memoized per plan object) and execute the op stream — the default
        and fast path.  ``False`` runs the interpreter;
        both produce bit-identical states.
    """
    if compiled:
        # A failed lowering (KernelError, or a transient injected at the
        # "compile" site) degrades to the bit-exact interpreter below; plan
        # validation failures are the plan's fault and propagate.
        try:
            program = compiled_program_for(plan, machine, check_locality)
        except (KernelError, TransientError):
            pass
        else:
            # Per-thread workspace: concurrent execute_plan calls on one plan
            # share the memoized op stream but never a buffer, keeping this
            # entry point as thread-safe as the interpreter below.
            state = program.run(initial_state, workspace=thread_workspace())
            return state, trace_for_program(program)

    n = plan.num_qubits
    state = tracked_empty(1 << n)
    if initial_state is None:
        state[:] = 0.0
        state[0] = 1.0
    else:
        if initial_state.num_qubits != n:
            raise PlanValidationError("initial state size does not match plan")
        initial_state.copy_into(state)
    # The whole execution ping-pongs between these two buffers: every kernel
    # op and layout permutation writes into one of them.  A kernel op
    # allocates nothing per application but a `big` op's tensordot result
    # (a scattered fused gemm, bound only where the native body does not
    # take the kernel), so allocations never scale with the gate count.
    scratch = tracked_empty(1 << n)
    ws = thread_workspace().for_caller_buffers()

    layout = QubitLayout(n)
    trace = ExecutionTrace(locality_checked=check_locality)

    for stage in plan.stages:
        target = stage.partition.logical_to_physical()
        if target != layout.logical_to_physical():
            permuted = permute_state(state, layout, target, out=scratch)
            if permuted is not state:
                state, scratch = permuted, state
                trace.num_ops += 1
            layout.update(target)
            trace.num_permutations += 1

        local_count = (
            machine.local_qubits if machine is not None else stage.partition.num_local
        )
        logical_to_physical = layout.logical_to_physical()
        if check_locality:
            for gate in stage.gates:
                check_gate_locality(gate, logical_to_physical, local_count)

        if stage.kernels is None:
            # Un-kernelized stage: a kernel of one gate each.
            kernels = [((gate,), False) for gate in stage.gates]
            trace.kernels_per_stage.append(0)
        else:
            kernels = [
                (tuple(kernel.gates), kernel.kernel_type is KernelType.FUSION)
                for kernel in stage.kernels
            ]
            trace.kernels_per_stage.append(len(kernels))
            trace.num_kernels += len(kernels)
        for gates, fused in kernels:
            op = kernel_op(gates, logical_to_physical, n, fused)
            state, scratch = op.run(state, scratch, ws)
        trace.num_ops += len(kernels)
        trace.num_gates += len(stage.gates)
        trace.num_stages += 1

    # Permute back to the identity layout so callers see logical ordering.
    identity = {q: q for q in range(n)}
    if layout.logical_to_physical() != identity:
        permuted = permute_state(state, layout, identity, out=scratch)
        if permuted is not state:
            state, scratch = permuted, state
            trace.num_ops += 1
        trace.num_permutations += 1

    return StateVector(n, state), trace
