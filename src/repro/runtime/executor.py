"""EXECUTE — functional staged execution of a partitioned circuit.

This is Algorithm 1's ``EXECUTE`` realised on the NumPy substrate: the
plan is lowered once to a :class:`~repro.sim.program.CompiledProgram`
(memoized per plan object, see :mod:`repro.runtime.compile`) and the hot
loop is a tight dispatch over pre-resolved ops — a precomputed transpose
into each stage's physical layout, then one op per kernel of the stage:
its lowered items in one pass (a phased permutation per run of
diagonal/permutation gates, the 1q dense gates on neighbouring positions
together) or, for a fusion kernel where that pass has no native body, its
fused matrix, always on the *physical* qubit indices given by the stage's
logical→physical mapping, which is exactly what the GPU implementation
does on each shard.

The compiler validates the staging invariant: every non-insular qubit of
every gate must be mapped to a local physical position (``< L``).
Violations raise :class:`~repro.errors.PlanValidationError` instead of
silently producing a plan the real machine could not run without extra
communication.  A lowering that fails raises its typed error; nothing
runs a plan another way.

This single-stream executor is the correctness reference for the
shard-level runtimes: :mod:`repro.runtime.offload` replays the same plan
shard by shard, and :mod:`repro.runtime.parallel` schedules those shards
across a worker pool.  The tested contract: all three agree bit for bit,
at every worker count — a shards-segment runs each kernel as this
executor lowers it, restricted per shard variant, so the arithmetic is the
same (``tests/test_native_kernel.py`` pins the final states' digests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.machine import MachineConfig
from ..core.plan import ExecutionPlan
from ..sim.program import CompiledProgram, thread_workspace
from ..sim.statevector import StateVector
from .compile import compiled_program_for

__all__ = ["ExecutionTrace", "execute_plan", "trace_for_program"]


@dataclass
class ExecutionTrace:
    """What happened during one plan execution (used by tests and reports)."""

    num_stages: int = 0
    num_kernels: int = 0
    num_permutations: int = 0
    kernels_per_stage: list[int] = field(default_factory=list)
    #: Gates executed and the ops they were applied as — kernels (fused
    #: or shared-memory), lone gates, layout transposes — i.e. how many
    #: gates an op absorbed.
    num_gates: int = 0
    num_ops: int = 0
    #: Ops per kind (``CompiledProgram.op_counts()``).
    op_counts: dict[str, int] = field(default_factory=dict)
    #: Which compile path produced the program that ran
    #: (:class:`~repro.sim.program.CompiledProgram` counters): ops taken
    #: verbatim from the cached program, ops refilled through its
    #: structure, ops built by a structure-fallback compile.  All zero for
    #: a cold compile.
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
        Verify the staging invariant (at compile time).
    """
    program = compiled_program_for(plan, machine, check_locality)
    # Per-thread workspace: concurrent execute_plan calls on one plan share
    # the memoized op stream but never a buffer.
    state = program.run(initial_state, workspace=thread_workspace())
    return state, trace_for_program(program)
