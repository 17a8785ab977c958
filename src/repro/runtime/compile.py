"""Plan compiler: lower :class:`ExecutionPlan` to a :class:`CompiledProgram`.

:func:`compile_plan` performs, **once**, everything the staged interpreter
(:func:`repro.runtime.execute_plan`) re-derives on every execution:

* the stage-by-stage layout walk — each boundary permutation becomes a
  precomputed axis-transpose op (and no-op permutations are elided);
* the staging-invariant locality check;
* kernel fusion (through the bounded fused-unitary cache), the folding of
  each shared-memory kernel's monomial runs into single ops
  (:func:`repro.sim.fusion.lower_kernel_gates`) and the logical→physical
  index translation;
* matrix structure analysis, dense gemm planning, diagonal broadcast
  vectors, permutation cycle tables, controlled-block reduction.

The result is a flat stream of :class:`repro.sim.program.CompiledOp` whose
execution is a tight loop with zero per-gate analysis, hashing or dict
lookups — and which also executes **batched** against a ``(B, 2^n)`` state
stack (see :meth:`CompiledProgram.run_batched`).

Rebinds: ``compile_plan(new_plan, reuse=program)`` compiles a structurally
identical plan (a parameter-sweep rebind from the Session plan cache) while
reusing every op whose source gates compare equal — constant-structure
gates and blocks (H, all-CX runs, …) keep their compiled payload verbatim;
only ops that absorbed a changed angle are recomputed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..circuits.gates import Gate
from ..cluster.machine import MachineConfig
from ..core.kernel import KernelType
from ..core.plan import ExecutionPlan
from ..errors import PlanValidationError
from ..sim.fusion import LoweredItem, fused_unitary_cached, lower_kernel_gates
from ..sim.program import (
    CompiledOp,
    CompiledProgram,
    Workspace,
    compile_layout_op,
    compile_lowered_op,
    compile_unitary_op,
)
from . import faults
from .sharding import QubitLayout, permutation_axes

__all__ = [
    "check_gate_locality",
    "clear_program_cache",
    "compile_plan",
    "compiled_program_for",
]


def check_gate_locality(
    gate: Gate, logical_to_physical: dict[int, int], local_qubits: int
) -> None:
    """Raise when a non-insular qubit of *gate* is mapped non-locally."""
    for q in gate.non_insular_qubits():
        if logical_to_physical[q] >= local_qubits:
            raise PlanValidationError(
                f"staging invariant violated: non-insular qubit {q} of gate "
                f"{gate} is mapped to non-local physical position "
                f"{logical_to_physical[q]} (L={local_qubits})"
            )


def compile_plan(
    plan: ExecutionPlan,
    machine: MachineConfig | None = None,
    check_locality: bool = True,
    reuse: CompiledProgram | None = None,
    workspace: Workspace | None = None,
) -> CompiledProgram:
    """Lower *plan* into a :class:`CompiledProgram`.

    Parameters
    ----------
    plan:
        A kernelized execution plan (or a rebound copy of one).
    machine:
        Optional machine config; its ``local_qubits`` drives the locality
        check, otherwise each stage's partition local-set size is used.
    check_locality:
        Verify the staging invariant (at compile time — executions pay
        nothing).
    reuse:
        A program compiled from a *structurally identical* plan (same
        :meth:`~repro.circuits.circuit.Circuit.structural_key`, e.g. the
        cached base of a parameter sweep).  Ops whose source gates compare
        equal are taken verbatim; only changed payloads recompile.
    workspace:
        Buffer set for the program; defaults to the reuse program's (so a
        rebound family shares one ping-pong pair) or a fresh one.
    """
    faults.check("compile")
    n = plan.num_qubits
    if workspace is None:
        workspace = reuse.workspace if reuse is not None else Workspace()
    reuse_map: dict[object, CompiledOp] = {}
    if reuse is not None:
        if reuse.num_qubits != n:
            raise PlanValidationError("reuse program spans a different qubit count")
        for op in reuse.ops:
            if op.source is not None:
                reuse_map[op.source] = op

    ops: list[CompiledOp] = []
    ops_reused = 0
    num_kernels = 0
    num_permutations = 0
    kernels_per_stage: list[int] = []

    def emit(source, gates: tuple[Gate, ...], build) -> None:
        """Append the op for *source*: the reuse program's verbatim when its
        gates compare equal (angles included — Gate equality covers params),
        else ``build()``.  *build* is a thunk so reused fused kernels never
        re-fuse."""
        nonlocal ops_reused
        old = reuse_map.get(source)
        if old is not None and old.gates == gates:
            ops.append(old)
            ops_reused += 1
            return
        ops.append(build())

    def emit_lowered(item: LoweredItem, l2p: dict[int, int], source) -> None:
        emit(source, item.gates, lambda: compile_lowered_op(item, l2p, n, source))

    layout = QubitLayout(n)
    for stage_idx, stage in enumerate(plan.stages):
        target = stage.partition.logical_to_physical()
        if target != layout.logical_to_physical():
            axes = permutation_axes(layout.logical_to_physical(), target, n)
            if axes != list(range(n)):
                ops.append(compile_layout_op(axes, n, ("layout", stage_idx)))
            layout.update(target)
            num_permutations += 1
        logical_to_physical = layout.logical_to_physical()

        local_count = (
            machine.local_qubits if machine is not None else stage.partition.num_local
        )
        if check_locality:
            for gate in stage.gates:
                check_gate_locality(gate, logical_to_physical, local_count)

        def fused_op(gates: tuple[Gate, ...], l2p: dict[int, int], source):
            matrix, logical_qubits = fused_unitary_cached(gates)
            physical = tuple(l2p[q] for q in logical_qubits)
            return compile_unitary_op(matrix, physical, n, source, gates)

        if stage.kernels is None:
            # Un-kernelized stage: one op per gate.
            for offset, gate in enumerate(stage.gates):
                (item,) = lower_kernel_gates((gate,))
                emit_lowered(item, logical_to_physical, ("gate", stage_idx, offset))
            kernels_per_stage.append(0)
            continue

        for group_idx, kernel in enumerate(stage.kernels):
            gates = tuple(kernel.gates)
            if kernel.kernel_type is KernelType.FUSION:
                source = ("kernel", stage_idx, group_idx)
                emit(
                    source, gates,
                    lambda g=gates, l2p=logical_to_physical, s=source: fused_op(g, l2p, s),
                )
            else:
                # Shared-memory kernels: one op per monomial run or dense gate.
                for item_idx, item in enumerate(lower_kernel_gates(gates)):
                    emit_lowered(
                        item, logical_to_physical,
                        ("sm", stage_idx, group_idx, item_idx),
                    )
        kernels_per_stage.append(len(stage.kernels))
        num_kernels += len(stage.kernels)

    # Permute back to the identity layout so callers see logical ordering.
    identity = {q: q for q in range(n)}
    if layout.logical_to_physical() != identity:
        axes = permutation_axes(layout.logical_to_physical(), identity, n)
        if axes != list(range(n)):
            ops.append(compile_layout_op(axes, n, ("layout", "final")))
        num_permutations += 1

    return CompiledProgram(
        num_qubits=n,
        ops=ops,
        workspace=workspace,
        num_stages=len(plan.stages),
        num_gates=plan.gate_count(),
        num_kernels=num_kernels,
        num_permutations=num_permutations,
        kernels_per_stage=kernels_per_stage,
        locality_checked=check_locality,
        ops_reused=ops_reused,
        provenance=plan.provenance,
    )


# ---------------------------------------------------------------------------
# Per-plan program memo (for the execute_plan fast path)
# ---------------------------------------------------------------------------

#: Bounded: each cached program's workspace lazily holds up to one
#: state-sized buffer pair, so the memo is kept small.
_PROGRAM_CACHE_MAX = 4
_PROGRAM_CACHE: "OrderedDict[tuple, tuple[ExecutionPlan, CompiledProgram]]" = (
    OrderedDict()
)
_PROGRAM_CACHE_LOCK = threading.Lock()


def compiled_program_for(
    plan: ExecutionPlan,
    machine: MachineConfig | None = None,
    check_locality: bool = True,
) -> CompiledProgram:
    """The memoized compiled program of *plan* (keyed by plan identity).

    Repeated ``execute_plan(plan)`` calls — a benchmark loop, a shots
    fan-out over one plan — compile once.  The memo validates object
    identity (ids can be recycled) and holds only a handful of entries;
    cross-circuit amortisation belongs to the Session plan cache, which
    stores programs alongside plans and rebinds them explicitly.  A lock
    guards the memo (concurrent ``execute_plan`` callers share it);
    compilation itself runs outside the lock — racing threads at worst
    both compile and the later store wins.
    """
    key = (
        id(plan),
        machine.local_qubits if machine is not None else None,
        check_locality,
    )
    with _PROGRAM_CACHE_LOCK:
        hit = _PROGRAM_CACHE.get(key)
        if hit is not None and hit[0] is plan:
            _PROGRAM_CACHE.move_to_end(key)
            return hit[1]
    program = compile_plan(plan, machine=machine, check_locality=check_locality)
    with _PROGRAM_CACHE_LOCK:
        if key not in _PROGRAM_CACHE and len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.popitem(last=False)
        _PROGRAM_CACHE[key] = (plan, program)
    return program


def clear_program_cache() -> None:
    """Drop the ``execute_plan`` program memo (each entry retains a plan,
    its compiled op stream, and the program's lazily-built workspace
    buffers).  Pair with
    :func:`repro.sim.program.release_thread_workspace` to fully release
    the compiled path's memory in a long-lived process that occasionally
    simulates very large states."""
    with _PROGRAM_CACHE_LOCK:
        _PROGRAM_CACHE.clear()
