"""Plan compiler: lower :class:`ExecutionPlan` to a :class:`CompiledProgram`.

:func:`compile_plan` performs, **once**, everything the staged interpreter
(:func:`repro.runtime.execute_plan`) re-derives on every execution:

* the stage-by-stage layout walk — each boundary permutation becomes a
  precomputed axis-transpose op (and no-op permutations are elided);
* the staging-invariant locality check;
* kernel fusion, the folding of each shared-memory kernel's monomial runs
  and neighbouring 1q dense gates into single ops
  (:func:`repro.sim.fusion.kernel_lowering`) and the logical→physical
  index translation;
* matrix structure analysis, dense gemm planning, diagonal broadcast
  vectors, permutation cycle tables, controlled-block reduction.

The result is a flat stream of :class:`repro.sim.program.CompiledOp` whose
execution is a tight loop with zero per-gate analysis, hashing or dict
lookups.  Every op has one closure written against ``(..., 2^n)`` buffers,
so the same stream runs a ``(B, 2^n)`` state stack
(:meth:`CompiledProgram.run_batched`) with every row bit-identical to the
flat run of that state.

Compilation has two halves.  The **structure** (:class:`ProgramStructure`)
is everything that follows from the plan's skeleton and each gate's name,
qubits and exact zero/one pattern: the layout walk, which gates can break
locality, every kernel's lowering, every op's template.  It is built once
per plan structure and carried by the program.  The **bind** fills the
templates with one job's gate matrices — block phases, fused matrices,
dense payloads.  A cold compile is "build the structure, then bind";
``compile_plan(new_plan, reuse=program)`` (a parameter-sweep rebind from
the Session plan cache) is the same bind over the reuse program's
structure, so warm and cold programs are bit-identical by construction.
A rebind

* first checks that the plan really has the structure (stage layouts,
  kernel shapes, and per gate its name, qubits and
  :func:`~repro.circuits.gates.matrix_signature`); a plan that does not —
  ``rx(0)`` bound onto a generic ``rx`` — is compiled structurally from
  scratch, counted in ``ops_recompiled`` and never adopts the base's
  structure;
* proves locality for exactly the gates with a qubit at a non-local
  position (the only ones for which the check is not vacuous);
* takes verbatim every op whose gates compare equal to the reuse
  program's (``ops_reused``) and refills the rest (``ops_rebound``),
  returning new ops — programs and their arrays are never written to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..circuits.gates import Gate, matrix_signature
from ..cluster.machine import MachineConfig
from ..core.kernel import KernelType
from ..core.plan import ExecutionPlan
from ..errors import PlanValidationError
from ..sim.fusion import (
    ItemLowering,
    KernelFusion,
    fill_fused_unitary,
    fill_lowered_item,
    fill_fused_unitary_cached,
    gate_step,
    kernel_fusion,
    kernel_lowering,
)
from ..sim.program import (
    CompiledOp,
    CompiledProgram,
    OpTemplate,
    Workspace,
    compile_layout_op,
    monomial_template,
    unitary_template,
)
from . import faults
from .sharding import QubitLayout, permutation_axes

__all__ = [
    "ProgramStructure",
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


class _StructureChanged(Exception):
    """A fused kernel's matrix left the class its op template was built
    for — a product can gain exact zeros or ones that none of its factors'
    signatures show: the plan needs a structural compile of its own."""


def _product_template(slot, matrix) -> OpTemplate:
    """The op template of a slot whose matrix is a product of its gates'
    (a fused kernel, a dense fold): built from the first *matrix* bound —
    the structure's own plan's, inside :func:`compile_plan`, before the
    program exists — and good for every later one with that exact
    signature; another raises :class:`_StructureChanged`."""
    signature = matrix_signature(matrix)
    if slot.template is None:
        slot.template = unitary_template(matrix, slot.physical, slot.n)
        slot.signature = signature
    elif signature != slot.signature:
        raise _StructureChanged
    return slot.template


class _FusedSlot:
    """One fusion kernel: its gates fuse into one matrix, applied as one op.

    The first matrix bound (:func:`_product_template`) goes through the
    fused-unitary memo, which the other consumers of the job's kernels
    share; a later one is never memoized (a sweep's angles do not recur).
    A signature change here: rz(0) ahead of a crx turns a dense product
    into a controlled one.
    """

    __slots__ = ("source", "pool", "members", "parameterized",
                 "fusion", "physical", "n", "template", "signature")

    def __init__(self, source, pool: int, gates, l2p, n: int) -> None:
        self.source = source
        self.pool = pool
        self.members = None  # the whole kernel
        self.parameterized = any(g.params for g in gates)
        self.fusion: KernelFusion = kernel_fusion(gates)
        self.physical = tuple(l2p[q] for q in self.fusion.qubits)
        self.n = n
        self.template: OpTemplate | None = None
        self.signature = b""

    def fill(self, pool, gates) -> CompiledOp:
        if self.template is None:
            matrix = fill_fused_unitary_cached(self.fusion, gates)
        else:
            matrix = fill_fused_unitary(self.fusion, gates)
            matrix.setflags(write=False)
        return _product_template(self, matrix).op(matrix, self.source, gates)


class _ItemSlot:
    """One item of a shared-memory kernel's lowering (or the lone gate of
    an un-kernelized stage): a monomial block, a dense gate, or a fold of
    1q dense gates.

    A monomial block's and a lone dense gate's op template follow from the
    structure; a fold's is chosen like a fused kernel's
    (:func:`_product_template`).  A signature change here: ``rx(a)`` then
    ``rx(-a)`` on one qubit multiply to an exact diagonal.
    """

    __slots__ = ("source", "pool", "members", "parameterized", "lowering",
                 "physical", "n", "template", "signature")

    def __init__(self, source, pool: int, lowering: ItemLowering, gates, l2p, n: int) -> None:
        self.source = source
        self.pool = pool
        self.members = lowering.members
        self.parameterized = lowering.parameterized
        self.lowering = lowering
        self.physical = tuple(l2p[q] for q in lowering.qubits)
        self.n = n
        self.template: OpTemplate | None = None
        self.signature = b""
        if not lowering.dense:
            self.template = monomial_template(lowering.perm, self.physical, n)
        elif len(lowering.members) == 1:
            self.template = gate_step(gates[lowering.members[0]], self.physical, n)[0]

    def fill(self, pool, gates) -> CompiledOp:
        item = fill_lowered_item(self.lowering, pool, gates)
        if not self.lowering.dense:
            return self.template.op(item.phases, self.source, gates)
        template = (
            self.template if len(gates) == 1 else _product_template(self, item.matrix)
        )
        return template.op(item.matrix, self.source, gates)


class ProgramStructure:
    """Everything about a compiled plan that does not depend on angles.

    ``slots`` has one entry per op of the stream, in order: a finished
    layout :class:`CompiledOp`, or a slot that fills an op from the gates
    of its *pool* — the gate tuple of one kernel, or the lone gate of an
    un-kernelized stage.  ``keys`` records, per pool, each gate's name,
    qubits and exact signature, and ``stages`` each stage's layout, local
    qubit count and kernel types: what :meth:`admit` compares.
    ``nonlocal_gates`` lists the ``(pool, position)`` of every gate with a
    qubit at a non-local physical position, with that stage's layout and
    local count: the gates :meth:`bind` proves locality for.
    """

    def __init__(self, plan: ExecutionPlan, machine: MachineConfig | None) -> None:
        n = self.num_qubits = plan.num_qubits
        self.slots: list = []
        self.keys: list[tuple] = []
        self.stages: list[tuple] = []
        self.nonlocal_gates: list[tuple[int, int, dict[int, int], int]] = []
        self.num_kernels = 0
        self.num_permutations = 0
        self.kernels_per_stage: list[int] = []

        def open_pool(gates: tuple[Gate, ...], l2p: dict[int, int], local: int) -> int:
            pool = len(self.keys)
            self.keys.append(tuple([
                (g.name, g.qubits, g.pattern()[1] if g.params else b"") for g in gates
            ]))
            far = {q for q, position in l2p.items() if position >= local}
            for position, gate in enumerate(gates):
                if not far.isdisjoint(gate.qubits):
                    self.nonlocal_gates.append((pool, position, l2p, local))
            return pool

        layout = QubitLayout(n)
        for stage_idx, stage in enumerate(plan.stages):
            target = stage.partition.logical_to_physical()
            if target != layout.logical_to_physical():
                axes = permutation_axes(layout.logical_to_physical(), target, n)
                if axes != list(range(n)):
                    self.slots.append(compile_layout_op(axes, n, ("layout", stage_idx)))
                layout.update(target)
                self.num_permutations += 1
            l2p = layout.logical_to_physical()
            local = _local_count(stage, machine)

            if stage.kernels is None:
                # Un-kernelized stage: one op per gate.
                self.stages.append((l2p, local, None))
                for offset, gate in enumerate(stage.gates):
                    pool = open_pool((gate,), l2p, local)
                    (lowering,) = kernel_lowering((gate,), l2p)
                    self.slots.append(_ItemSlot(
                        ("gate", stage_idx, offset), pool, lowering, (gate,), l2p, n
                    ))
                self.kernels_per_stage.append(0)
                continue

            self.stages.append(
                (l2p, local, tuple(kernel.kernel_type for kernel in stage.kernels))
            )
            for group_idx, kernel in enumerate(stage.kernels):
                gates = tuple(kernel.gates)
                pool = open_pool(gates, l2p, local)
                if kernel.kernel_type is KernelType.FUSION:
                    self.slots.append(_FusedSlot(
                        ("kernel", stage_idx, group_idx), pool, gates, l2p, n
                    ))
                    continue
                # Shared-memory kernels: one op per monomial run or dense group.
                for item_idx, lowering in enumerate(kernel_lowering(gates, l2p)):
                    self.slots.append(_ItemSlot(
                        ("sm", stage_idx, group_idx, item_idx), pool, lowering,
                        gates, l2p, n,
                    ))
            self.kernels_per_stage.append(len(stage.kernels))
            self.num_kernels += len(stage.kernels)

        # Permute back to the identity layout so callers see logical ordering.
        identity = {q: q for q in range(n)}
        if layout.logical_to_physical() != identity:
            axes = permutation_axes(layout.logical_to_physical(), identity, n)
            if axes != list(range(n)):
                self.slots.append(compile_layout_op(axes, n, ("layout", "final")))
            self.num_permutations += 1
        #: Ops that bind gates (every slot but the layout transposes).
        self.num_gate_ops = sum(
            not isinstance(slot, CompiledOp) for slot in self.slots
        )

    def admit(
        self, plan: ExecutionPlan, machine: MachineConfig | None
    ) -> list[tuple[Gate, ...]] | None:
        """*plan*'s gate pools when it has this structure, else ``None``.

        Compared: the qubit count; per stage the layout, the local qubit
        count and the kernel types; per gate the name, the qubits and —
        for parameterized gates — the exact matrix signature (stricter
        than :meth:`Circuit.structural_key`'s ``> 1e-12`` pattern, so
        ``rx(1e-13)`` is not taken for ``rx(0)``).
        """
        if plan.num_qubits != self.num_qubits or len(plan.stages) != len(self.stages):
            return None
        pools: list[tuple[Gate, ...]] = []
        for stage, (l2p, local, kernel_types) in zip(plan.stages, self.stages):
            if (
                stage.partition.logical_to_physical() != l2p
                or _local_count(stage, machine) != local
            ):
                return None
            if stage.kernels is None:
                if kernel_types is not None:
                    return None
                pools.extend((gate,) for gate in stage.gates)
                continue
            if kernel_types is None or len(stage.kernels) != len(kernel_types):
                return None
            for kernel, kernel_type in zip(stage.kernels, kernel_types):
                if kernel.kernel_type is not kernel_type:
                    return None
                pools.append(tuple(kernel.gates))
        if len(pools) != len(self.keys):
            return None
        for pool, key in zip(pools, self.keys):
            if len(pool) != len(key):
                return None
            for gate, (name, qubits, signature) in zip(pool, key):
                if (
                    gate.name != name
                    or gate.qubits != qubits
                    or (signature and gate.pattern()[1] != signature)
                ):
                    return None
        return pools

    def bind(
        self,
        pools: list[tuple[Gate, ...]],
        reuse_ops: list[CompiledOp] | None,
        check_locality: bool,
    ) -> tuple[list[CompiledOp], int]:
        """The op stream for admitted *pools*: ``(ops, ops taken verbatim
        from reuse_ops)``.  An op of *reuse_ops* (aligned slot by slot — it
        was bound from this structure) is kept when its gates compare equal
        (angles included — Gate equality covers params), which a slot
        without parameterized gates needs no comparison for."""
        if check_locality:
            for pool, position, l2p, local in self.nonlocal_gates:
                check_gate_locality(pools[pool][position], l2p, local)
        ops: list[CompiledOp] = []
        reused = 0
        for index, slot in enumerate(self.slots):
            if isinstance(slot, CompiledOp):
                ops.append(slot)
                continue
            pool = pools[slot.pool]
            gates = pool if slot.members is None else tuple([pool[i] for i in slot.members])
            if reuse_ops is not None:
                old = reuse_ops[index]
                if not slot.parameterized or old.gates == gates:
                    ops.append(old)
                    reused += 1
                    continue
            ops.append(slot.fill(pool, gates))
        return ops, reused


def _local_count(stage, machine: MachineConfig | None) -> int:
    return machine.local_qubits if machine is not None else stage.partition.num_local


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
        cached base of a parameter sweep, or an earlier rebind of it).
        When *plan* passes the structure guard, ops whose source gates
        compare equal are taken verbatim and the rest are refilled through
        the structure; when it does not, the plan is compiled from scratch
        (``ops_recompiled``) — still correct, just not a rebind.
    workspace:
        Buffer set for the program; defaults to the reuse program's (so a
        rebound family shares one ping-pong pair) or a fresh one.
    """
    faults.check("compile")
    if workspace is None:
        workspace = reuse.workspace if reuse is not None else Workspace()
    if reuse is not None and reuse.num_qubits != plan.num_qubits:
        raise PlanValidationError("reuse program spans a different qubit count")

    structure = reuse.structure if reuse is not None else None
    ops: list[CompiledOp] | None = None
    reused = 0
    if isinstance(structure, ProgramStructure):
        pools = structure.admit(plan, machine)
        if pools is not None:
            try:
                ops, reused = structure.bind(pools, reuse.ops, check_locality)
            except _StructureChanged:
                pass
    rebound = ops is not None
    if ops is None:
        structure = ProgramStructure(plan, machine)
        ops, reused = structure.bind(structure.admit(plan, machine), None, check_locality)

    return CompiledProgram(
        num_qubits=plan.num_qubits,
        ops=ops,
        workspace=workspace,
        num_stages=len(plan.stages),
        num_gates=plan.gate_count(),
        num_kernels=structure.num_kernels,
        num_permutations=structure.num_permutations,
        kernels_per_stage=list(structure.kernels_per_stage),
        locality_checked=check_locality,
        ops_reused=reused,
        ops_rebound=structure.num_gate_ops - reused if rebound else 0,
        ops_recompiled=structure.num_gate_ops if reuse is not None and not rebound else 0,
        provenance=plan.provenance,
        structure=structure,
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
