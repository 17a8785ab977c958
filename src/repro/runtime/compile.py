"""Plan compiler: lower :class:`ExecutionPlan` to a :class:`CompiledProgram`.

:func:`compile_plan` performs, **once**, everything a walk of the plan
would re-derive on every execution:

* the stage-by-stage layout walk — each boundary permutation becomes a
  precomputed axis-transpose op (and no-op permutations are elided);
* the staging-invariant locality check;
* the lowering of each kernel — its monomial runs folded into blocks,
  neighbouring 1q dense gates into folds
  (:func:`repro.sim.fusion.kernel_lowering`) — into **one** op
  (:func:`repro.sim.apply.kernel_template`), a fusion kernel's fused
  matrix where that op has no native body, and the logical→physical
  index translation;
* matrix structure analysis, dense gemm planning, diagonal broadcast
  vectors, permutation cycle tables, controlled-block reduction, the
  kernel ops' tile bits and index maps.

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
  An op is a kernel (or a lone gate), so the counts are in kernels.

A shards-segment of the sharded executors' schedule is the same thing over
``2^L`` shard buffers: :class:`SegmentStructure` holds the slots of the
segment's local work, built by the per-kernel builder the plan walk uses
(:meth:`_Structure.add_kernel`), and one slot per gate on a non-local
qubit, which binds that gate's op for every assignment of the shard's
fixed bits; :func:`repro.runtime.offload.compile_segment_ops` admits,
binds or builds it through the same :func:`bind_structure` and records
each shard's op stream and output index.  A full-state segment is one over
all ``n`` positions.  There is one way to build an op a schedule runs, and
a lowering that fails raises its typed error.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..circuits.gates import Gate, matrix_signature
from ..cluster.machine import MachineConfig
from ..core.kernel import KernelType
from ..core.plan import ExecutionPlan
from ..errors import PlanValidationError
from ..sim.apply import kernel_template
from ..sim.fusion import (
    ItemLowering,
    fill_fused_unitary,
    fill_lowered_item,
    kernel_fusion,
    kernel_items,
    kernel_lowering,
)
from ..sim.program import (
    CompiledOp,
    CompiledProgram,
    OpTemplate,
    Workspace,
    compile_layout_op,
    compile_phase_op,
    unitary_template,
)
from . import faults
from .sharding import QubitLayout, nonlocal_axes, permutation_axes, shard_out_index

__all__ = [
    "ProgramStructure",
    "SegmentStructure",
    "bind_structure",
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
    """A product's matrix — a fused kernel's, a dense fold's — left the
    class its op template was built for (a product can gain exact zeros or
    ones that none of its factors' signatures show): the plan needs a
    structural compile of its own."""


def _guard_signature(signatures: list, index: int, matrix) -> None:
    """Hold product *index* of a slot to the exact signature of the first
    *matrix* bound there — the structure's own plan's, inside
    :func:`compile_plan`, before the program exists; an op template holds
    for one signature, so another raises :class:`_StructureChanged`."""
    signature = matrix_signature(matrix)
    if signatures[index] is None:
        signatures[index] = signature
    elif signature != signatures[index]:
        raise _StructureChanged


class _KernelSlot:
    """One op of a stream, minus the angles: a shared-memory kernel (or a
    run of its gates on local positions, or the lone gate of an
    un-kernelized stage) — its gates are the slot's *pool* — lowered to
    items — the monomial blocks, dense gates and folds of 1q dense gates —
    and applied as one op (:func:`repro.sim.apply.kernel_template`).

    A fold's product is guarded — the item loop's template for it holds for
    one signature: ``rx(a)`` then ``rx(-a)`` on one qubit multiply to an
    exact diagonal.
    """

    __slots__ = ("source", "pool", "parameterized", "signatures", "lowering", "template")

    def __init__(self, pool: int, gates, l2p, n: int) -> None:
        self.source = None
        self.pool = pool
        self.parameterized = any(g.params for g in gates)
        self.lowering: tuple[ItemLowering, ...] = kernel_lowering(gates, l2p)
        self.template = kernel_template(kernel_items(self.lowering, l2p), n)
        self.signatures: list[bytes | None] = [None] * len(self.lowering)

    def bind(self, gates, old):
        """The op for the pool's *gates*.  *old* — the op an earlier bind of
        this slot produced, if any — is kept when its gates compare equal
        (angles included — Gate equality covers params), which a slot
        without parameterized gates needs no comparison for."""
        if old is not None and (not self.parameterized or old.gates == gates):
            return old
        return self.fill(gates)

    def fill(self, gates) -> CompiledOp:
        items = [fill_lowered_item(lowering, gates) for lowering in self.lowering]
        for index, item in enumerate(items):
            if item.factors is not None:
                _guard_signature(self.signatures, index, item.matrix)
        return self.template.op(items, self.source, gates)


class _FusedSlot(_KernelSlot):
    """One fusion kernel: the kernel slot — its lowered items in one pass
    over the state, no fused matrix built — wherever the kernel template
    takes the native body (:func:`repro.sim.apply.takes_native`; a buffer
    the C body cannot walk, which no executor hands over, runs that body's
    oracle, the item loop).

    Its fallback bind, where the template does not (no library, a kernel
    that does not fit a tile), is the fused gemm: the gates multiplied into
    one matrix through the kernel's fusion structure, resolved with the
    slot, and applied as one op — what every fusion kernel ran before it
    was a tile pass, bit for bit.  The first matrix filled chooses the op
    template.  A signature change here: rz(0) ahead of a crx turns a dense
    product into a controlled one.
    """

    __slots__ = ("physical", "n", "fusion", "gemm")

    def __init__(self, pool: int, gates, l2p, n: int) -> None:
        super().__init__(pool, gates, l2p, n)
        if not self.template.native:
            self.fusion = kernel_fusion(gates)
            self.physical = tuple(l2p[q] for q in self.fusion.qubits)
            self.n = n
            self.gemm: OpTemplate | None = None
            self.signatures = [None]

    def fill(self, gates) -> CompiledOp:
        if self.template.native:
            return super().fill(gates)
        matrix = fill_fused_unitary(self.fusion, gates)
        matrix.setflags(write=False)
        _guard_signature(self.signatures, 0, matrix)
        if self.gemm is None:
            self.gemm = unitary_template(matrix, self.physical, self.n)
        return self.gemm.op(matrix, self.source, gates)


def _transitions(gate: Gate, axes, variant: int) -> tuple | None:
    """``(qubit, bit_in, bit_out)`` per non-local axis of *gate* on a shard
    whose bit on ``axes[j]`` is bit ``j`` of *variant*: a control is kept
    at 1 (``None`` when it is 0: no op), a diagonal qubit keeps its bit and
    an anti-diagonal one flips it."""
    fixed = []
    for j, (q, _shift, kind) in enumerate(axes):
        bit = (variant >> j) & 1
        if kind == "control":
            if not bit:
                return None
            fixed.append((q, 1, 1))
        elif kind == "diagonal":
            fixed.append((q, bit, bit))
        elif kind == "antidiagonal":
            fixed.append((q, bit, 1 - bit))
        else:
            raise PlanValidationError(
                f"gate {gate} mixes amplitudes along non-local qubit {q}; "
                f"it must be executed on the full state"
            )
    return tuple(fixed)


def _reduce(matrix: np.ndarray, qubits, fixed) -> np.ndarray:
    """*matrix* over *qubits* with each ``(qubit, bit_in, bit_out)`` of
    *fixed* resolved: the block taking that qubit's *bit_in* to its
    *bit_out*, over the remaining qubits in order.  Amplitude the block
    drops would leak between shards; the axis kinds say there is none
    above ``1e-12``."""
    qubits = list(qubits)
    for q, bit_in, bit_out in fixed:
        pos = qubits.index(q)
        del qubits[pos]
        index = np.arange(len(matrix))
        bits = (index >> pos) & 1
        matrix = matrix[np.ix_(index[bits == bit_out], index[bits == bit_in])]
    matrix = np.ascontiguousarray(matrix)
    matrix.setflags(write=False)
    return matrix


class _DynamicSlot:
    """A gate of a shards-segment with a qubit at a non-local position.

    A shard's index fixes the bits of those qubits — the gate's non-local
    *axes* (:func:`~repro.runtime.sharding.nonlocal_axes`) — so the gate is
    one op per assignment of them, a *variant* (bit ``j`` of variant ``v``
    on ``axes[j]``): the gate's matrix with its non-local qubits resolved
    (:func:`_transitions`, :func:`_reduce`) on its local positions, through
    :func:`unitary_template` — or times the scalar left when no qubit is
    local; a non-local control at 0 is no op (``None``).  The templates
    are built here, once; a bind fills them.  The axis table is part of
    the structure (:meth:`SegmentStructure.admit`): ``rx(pi)`` and
    ``rx(1e-13)`` share an exact signature, but the first relabels shards
    and the second does not.
    """

    __slots__ = ("pool", "parameterized", "axes", "variants", "templates")

    def __init__(self, pool: int, gate: Gate, l2p: dict[int, int], local: int) -> None:
        self.pool = pool
        self.parameterized = bool(gate.params)
        self.axes = nonlocal_axes(gate, l2p, local)
        self.variants = tuple(
            _transitions(gate, self.axes, v) for v in range(1 << len(self.axes))
        )
        physical = tuple(l2p[q] for q in gate.qubits if l2p[q] < local)
        matrix = gate.matrix()
        self.templates = tuple(
            None if fixed is None or not physical
            else unitary_template(_reduce(matrix, gate.qubits, fixed), physical, local)
            for fixed in self.variants
        )

    def variant(self, shard_index: int) -> int:
        """The variant a shard at *shard_index* runs."""
        return sum(
            ((shard_index >> shift) & 1) << j for j, (_q, shift, _kind) in enumerate(self.axes)
        )

    def bind(self, pool, old) -> tuple[CompiledOp | None, ...]:
        """The variant ops for the pool's one gate.  *old* is kept when its
        gate compares equal — read off its last variant, every bit 1, which
        always has an op."""
        if old is not None and (not self.parameterized or old[-1].gates == pool):
            return old
        (gate,) = pool
        matrix = gate.matrix()
        ops: list[CompiledOp | None] = []
        for fixed, template in zip(self.variants, self.templates):
            if fixed is None:
                ops.append(None)
                continue
            reduced = _reduce(matrix, gate.qubits, fixed)
            ops.append(
                compile_phase_op(reduced[0, 0], pool) if template is None
                else template.op(reduced, None, pool)
            )
        return tuple(ops)


class _Structure:
    """The angle-independent half of an op stream over ``2^n`` buffers.

    ``slots`` has one entry per op of the stream, in order: a finished
    :class:`CompiledOp`, or a slot that binds an op (a dynamic slot: one
    per variant) from the gates of its *pool* — the gate tuple of one
    kernel (or of one run of its gates), or a lone gate.  ``keys`` records,
    per pool, each gate's name, qubits and exact signature: what
    :meth:`matches` compares.
    """

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self.slots: list = []
        self.keys: list[tuple] = []

    def open_pool(self, gates: tuple[Gate, ...]) -> int:
        self.keys.append(tuple([
            (g.name, g.qubits, g.pattern()[1] if g.params else b"") for g in gates
        ]))
        return len(self.keys) - 1

    def add_kernel(self, gates: tuple[Gate, ...], fused: bool, l2p: dict[int, int]) -> _KernelSlot:
        """Open a pool for *gates* — on local positions of the layout
        *l2p* — and append its slot, which is returned: one op, all the
        items of its lowering — or, for a *fused* kernel the native body
        does not take, its fused matrix."""
        pool, n = self.open_pool(gates), self.num_qubits
        slot = (_FusedSlot if fused else _KernelSlot)(pool, gates, l2p, n)
        self.slots.append(slot)
        return slot

    def matches(self, pools: list[tuple[Gate, ...]]) -> bool:
        """Whether *pools* are this structure's, gate for gate: the name,
        the qubits and — for parameterized gates — the exact matrix
        signature (stricter than :meth:`Circuit.structural_key`'s
        ``> 1e-12`` pattern, so ``rx(1e-13)`` is not taken for ``rx(0)``)."""
        if len(pools) != len(self.keys):
            return False
        for pool, key in zip(pools, self.keys):
            if len(pool) != len(key):
                return False
            for gate, (name, qubits, signature) in zip(pool, key):
                if (
                    gate.name != name
                    or gate.qubits != qubits
                    or (signature and gate.pattern()[1] != signature)
                ):
                    return False
        return True

    def bind(self, pools: list[tuple[Gate, ...]], reuse_ops: list | None) -> tuple[list, int]:
        """The op stream for matching *pools*: ``(ops, ops taken verbatim
        from reuse_ops)`` — *reuse_ops* aligned slot by slot, it was bound
        from this structure (:meth:`_KernelSlot.bind`)."""
        ops: list = []
        reused = 0
        for index, slot in enumerate(self.slots):
            if isinstance(slot, CompiledOp):
                ops.append(slot)
                continue
            old = reuse_ops[index] if reuse_ops is not None else None
            op = slot.bind(pools[slot.pool], old)
            reused += op is old
            ops.append(op)
        return ops, reused


class ProgramStructure(_Structure):
    """Everything about a compiled plan that does not depend on angles.

    On top of the slots (layout transposes are finished ops) and pool
    keys, ``stages`` records each stage's layout, local qubit count and
    kernel types for :meth:`admit`, and ``nonlocal_gates`` lists the
    ``(pool, position)`` of every gate with a qubit at a non-local
    physical position, with that stage's layout and local count: the gates
    :meth:`prove_locality` checks.
    """

    def __init__(self, plan: ExecutionPlan, machine: MachineConfig | None) -> None:
        n = plan.num_qubits
        super().__init__(n)
        self.stages: list[tuple] = []
        self.nonlocal_gates: list[tuple[int, int, dict[int, int], int]] = []
        self.num_kernels = 0
        self.num_permutations = 0
        self.kernels_per_stage: list[int] = []

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
                # Un-kernelized stage: a kernel of one gate each.
                self.stages.append((l2p, local, None))
                for offset, gate in enumerate(stage.gates):
                    self._add((gate,), False, l2p, local).source = ("gate", stage_idx, offset)
                self.kernels_per_stage.append(0)
                continue

            self.stages.append(
                (l2p, local, tuple(kernel.kernel_type for kernel in stage.kernels))
            )
            for group_idx, kernel in enumerate(stage.kernels):
                fused = kernel.kernel_type is KernelType.FUSION
                self._add(tuple(kernel.gates), fused, l2p, local).source = (
                    "kernel" if fused else "sm", stage_idx, group_idx
                )
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

    def _add(self, gates: tuple[Gate, ...], fused: bool, l2p: dict[int, int], local: int) -> _KernelSlot:
        """:meth:`add_kernel`, noting the gates :meth:`prove_locality` checks."""
        pool = len(self.keys)
        far = {q for q, position in l2p.items() if position >= local}
        for position, gate in enumerate(gates):
            if not far.isdisjoint(gate.qubits):
                self.nonlocal_gates.append((pool, position, l2p, local))
        return self.add_kernel(gates, fused, l2p)

    def admit(
        self, plan: ExecutionPlan, machine: MachineConfig | None
    ) -> list[tuple[Gate, ...]] | None:
        """*plan*'s gate pools when it has this structure, else ``None``.

        Compared: the qubit count; per stage the layout, the local qubit
        count and the kernel types; per gate what :meth:`matches` does.
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
        return pools if self.matches(pools) else None

    def prove_locality(self, pools: list[tuple[Gate, ...]]) -> None:
        """The staging invariant, for exactly the gates it is not vacuous
        for."""
        for pool, position, l2p, local in self.nonlocal_gates:
            check_gate_locality(pools[pool][position], l2p, local)


class SegmentStructure(_Structure):
    """A shards-segment's per-shard work over ``2^L`` shard buffers: the
    same slots a plan's kernels get, built by the same builder.

    *pieces* is the segment cut at the shard boundary
    (:func:`repro.runtime.offload.compile_segment_ops` does the cutting):
    ``("fused", gates)`` — a fusion kernel wholly on local positions —,
    ``("local", gates)`` — a run of local gates of any other kernel — and
    ``("dynamic", (gate,))`` for a gate touching a non-local qubit (a
    :class:`_DynamicSlot`).
    """

    def __init__(self, pieces: list[tuple[str, tuple[Gate, ...]]], l2p: dict[int, int], local: int) -> None:
        super().__init__(local)
        self.layout = l2p
        self.kinds = [kind for kind, _gates in pieces]
        self.num_shards = 1 << (len(l2p) - local)
        for kind, gates in pieces:
            if kind == "dynamic":
                self.slots.append(_DynamicSlot(self.open_pool(gates), gates[0], l2p, local))
            else:
                self.add_kernel(gates, kind == "fused", l2p)
        self.dynamic = [slot for slot in self.slots if isinstance(slot, _DynamicSlot)]

    def admit(
        self, pieces: list[tuple[str, tuple[Gate, ...]]], l2p: dict[int, int], local: int
    ) -> list[tuple[Gate, ...]] | None:
        """*pieces*' gate pools when the segment has this structure (shard
        size, layout, the cut, gate for gate :meth:`matches`, and each
        dynamic gate's axis table)."""
        if (
            local != self.num_qubits
            or l2p != self.layout
            or [kind for kind, _gates in pieces] != self.kinds
        ):
            return None
        pools = [gates for _kind, gates in pieces]
        if not self.matches(pools) or any(
            nonlocal_axes(pools[slot.pool][0], l2p, local) != slot.axes for slot in self.dynamic
        ):
            return None
        return pools

    def shard_streams(self, ops: list) -> tuple[tuple[tuple[CompiledOp, ...], int], ...]:
        """Per shard index, ``(the ops of *ops* — bound from this structure,
        slot by slot — that run on the shard, the index it is stored at)``:
        a dynamic slot runs the variant its gate reads off the index as it
        stands, and the index threads on through
        :func:`~repro.runtime.sharding.shard_out_index`."""
        table = []
        for shard_index in range(self.num_shards):
            index, stream = shard_index, []
            for slot, op in zip(self.slots, ops):
                if isinstance(slot, _DynamicSlot):
                    op = op[slot.variant(index)]
                    index = shard_out_index(slot.axes, index)
                if op is not None:
                    stream.append(op)
            table.append((tuple(stream), index))
        return tuple(table)


def bind_structure(reuse, admit, build) -> tuple[_Structure, list, int, bool]:
    """The one admit → bind → else-cold sequence of every compile.

    *reuse* is ``(structure, ops bound from it)`` of an earlier compile, or
    ``None``; ``admit(structure)`` returns the new job's pools when it has
    that structure; ``build()`` returns ``(fresh structure, its pools)``.
    A job that is not admitted — or whose products leave their templates'
    class half way through the bind (:class:`_StructureChanged`) — is built
    cold and never adopts the reuse structure.  Returns ``(structure, ops,
    ops taken verbatim, whether the reuse structure was bound)``.
    """
    if reuse is not None:
        structure, reuse_ops = reuse
        pools = admit(structure)
        if pools is not None:
            try:
                return (structure, *structure.bind(pools, reuse_ops), True)
            except _StructureChanged:
                pass
    structure, pools = build()
    return (structure, *structure.bind(pools, None), False)


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

    def admit(structure: ProgramStructure):
        pools = structure.admit(plan, machine)
        if check_locality and pools is not None:
            structure.prove_locality(pools)
        return pools

    def build():
        structure = ProgramStructure(plan, machine)
        return structure, admit(structure)

    held = reuse.structure if reuse is not None else None
    structure, ops, reused, rebound = bind_structure(
        (held, reuse.ops) if isinstance(held, ProgramStructure) else None, admit, build
    )

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
# Per-plan program memo (for execute_plan)
# ---------------------------------------------------------------------------

#: ``(plan, program)`` by plan identity, least recently used first.
#: Bounded: each cached program's workspace lazily holds up to one
#: state-sized buffer pair, so the memo is kept small.
_PROGRAMS: OrderedDict[tuple, tuple[ExecutionPlan, CompiledProgram]] = OrderedDict()
_PROGRAMS_MAX = 4
_PROGRAMS_LOCK = threading.Lock()


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
    stores programs alongside plans and rebinds them explicitly.
    Concurrent ``execute_plan`` callers share the memo; racing threads at
    worst both compile and the later store wins.
    """
    key = (id(plan), machine.local_qubits if machine is not None else None, check_locality)
    with _PROGRAMS_LOCK:
        entry = _PROGRAMS.get(key)
        if entry is not None:
            _PROGRAMS.move_to_end(key)
    if entry is None or entry[0] is not plan:
        entry = (plan, compile_plan(plan, machine=machine, check_locality=check_locality))
        with _PROGRAMS_LOCK:
            _PROGRAMS[key] = entry
            _PROGRAMS.move_to_end(key)
            while len(_PROGRAMS) > _PROGRAMS_MAX:
                _PROGRAMS.popitem(last=False)
    return entry[1]


def clear_program_cache() -> None:
    """Drop the ``execute_plan`` program memo (each entry retains a plan,
    its compiled op stream — bound under the body the host had then — and
    the program's lazily-built workspace buffers).  Pair with
    :func:`repro.sim.program.release_thread_workspace` to fully release
    the compiled path's memory in a long-lived process that occasionally
    simulates very large states."""
    with _PROGRAMS_LOCK:
        _PROGRAMS.clear()
