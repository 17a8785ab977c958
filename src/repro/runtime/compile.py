"""Plan compiler: lower :class:`ExecutionPlan` to a :class:`CompiledProgram`.

:func:`compile_plan` performs, **once**, everything a walk of the plan
would re-derive on every execution:

* the stage-by-stage layout walk — each boundary permutation becomes a
  precomputed axis-transpose op (and no-op permutations are elided);
* the staging-invariant locality check;
* the lowering of each kernel — shared-memory and fusion kernels alike —
  its monomial runs folded into blocks, neighbouring 1q dense gates into
  folds (:func:`repro.sim.fusion.kernel_lowering`) — into **one** op
  (:func:`repro.sim.apply.kernel_template`), and the logical→physical
  index translation;
* each kernel gate's lowering shape, read off the job's gate table
  (every gate's exact signature, :meth:`~repro.circuits.gates.GateTable.patterns`)
  rather than analysed from its matrix; the kernel ops' tile bits and
  index maps.

The result is a flat stream of :class:`repro.sim.program.CompiledOp` whose
execution is a tight loop with zero per-gate analysis, hashing or dict
lookups.  Every op has one closure written against ``(..., 2^n)`` buffers,
so the same stream runs a ``(B, 2^n)`` state stack
(:meth:`CompiledProgram.run_batched`) with every row bit-identical to the
flat run of that state.

Compilation has two halves.  The **structure** (:class:`ProgramStructure`)
is everything that follows from the plan's skeleton and each gate's name,
qubits and exact zero/one pattern: the layout walk, which gates can break
locality, every kernel's lowering, every op's template, and one gather
program over the job's gate table for all its kernels
(:class:`~repro.circuits.gates.GateTable`,
:class:`~repro.sim.fusion.GatherProgram`).  It is built once per plan
structure and carried by the program.  The **bind** fills the templates
with one job's numbers — every pool gate's matrix in one gather out of the
table, then every kernel's block phases, fold factors and dense payloads
as array work, no gate object touched.  A cold compile is "build the
structure, then bind";
``compile_plan(new_plan, reuse=program)`` (a parameter-sweep rebind from
the Session plan cache) is the same bind over the reuse program's
structure, so warm and cold programs are bit-identical by construction.
A rebind

* first admits the plan as a whole against what its structure recorded
  when it was built (:class:`PlanRecord`, the one admit both lowerings
  share): the plan's structure digest
  (:meth:`~repro.core.plan.ExecutionPlan.digest` — stage layouts, stage
  and kernel gate indices), its kernel types, its local qubit count,
  whether its gates are its table's at those indices, and per gate its
  name, qubits and :func:`~repro.circuits.gates.matrix_signature` — one
  bytes compare of the table's records at the structure's positions.  No
  stage, kernel or gate list of a warm row is walked: a row of the
  Session's plan cache carries its entry's digest and kernel types and
  builds its stages only when read (:class:`repro.session.cache.BoundPlan`).
  A plan that does not have the
  structure — ``rx(0)`` bound onto a generic ``rx`` — is compiled
  structurally from scratch, counted in ``ops_recompiled`` and never
  adopts the base's structure;
* proves locality for exactly the gates with a qubit at a non-local
  position (the only ones for which the check is not vacuous);
* takes verbatim every op whose gates compare equal to the reuse
  program's (``ops_reused``) and refills the rest (``ops_rebound``),
  returning new ops — programs and their arrays are never written to.
  An op is a kernel (or a lone gate), so the counts are in kernels.

A bind takes a **stack** of jobs: ``compile_plan([plan_1, ..., plan_B],
reuse=)`` admits each plan on its own, runs the gather program once over
the ``(entries, B)`` stack of their tables and gives every kernel op one
payload row per admitted plan, so the program runs the ``(B, 2^n)`` stack
of their states in one pass (:meth:`CompiledProgram.run_batched`), row
``b`` bit for bit plan ``b``'s solo program.  A plan the structure
declines is listed in ``declined`` and compiles alone.  A solo job is a
stack of one: there is no other bind.

A stage of the sharded executors' schedule is the same thing over ``2^L``
shard buffers: :class:`SegmentStructure` holds one slot per kernel of the
stage, built by the per-kernel builder the plan walk uses
(:meth:`_Structure.add_kernel`) from the kernel's in-core lowering — a
kernel with gates on non-local qubits binds its op once per assignment of
the shard's fixed bits there, its items restricted to the local positions
and its numbers taken from the in-core ones (:func:`_restrict`) — and each
shard's op stream and output index.  A schedule's structure
(:class:`repro.runtime.offload.ScheduleStructure`) is built from the same
:class:`PlanRecord`, admitted by it and bound through the same
:func:`bind_structure`, stage by stage, with every pool's numbers read
out of the plan's one gate table.  There is one way to build an op a
schedule runs, and a lowering that fails raises its typed error.  Every
executor refuses a plan that breaks the staging invariant: here
:func:`compile_plan`'s locality check, on a shard the slot of a kernel
with a gate that mixes amplitudes along a non-local qubit.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from ..circuits.gates import Gate, GateTable, stray_qubits
from ..cluster.machine import MachineConfig
from ..core.kernel import KernelType
from ..core.plan import ExecutionPlan
from ..errors import PlanValidationError
from ..sim.apply import KernelItem, KernelTemplate, _bits_to, kernel_template
from ..sim.fusion import (
    GatherProgram,
    GatherRun,
    KernelGather,
    kernel_items,
    kernel_lowering,
)
from ..sim.program import (
    CompiledOp,
    CompiledProgram,
    Workspace,
    compile_layout_op,
)
from . import faults
from .sharding import QubitLayout, nonlocal_axes, permutation_axes, shard_out_index

__all__ = [
    "PlanRecord",
    "ProgramStructure",
    "Row",
    "SegmentStructure",
    "bind_structure",
    "clear_program_cache",
    "compile_plan",
    "compiled_program_for",
    "program_row",
    "row_of",
]


def _check_locality(
    gate: Gate, non_insular, logical_to_physical: dict[int, int], local_qubits: int
) -> None:
    """Raise when a qubit of *non_insular* — *gate*'s non-insular qubits —
    is mapped non-locally (:func:`~repro.circuits.gates.stray_qubits`): how
    every executor, in core or on a shard, refuses a plan that breaks the
    staging invariant."""
    bad = stray_qubits(non_insular, logical_to_physical, local_qubits)
    if bad:
        raise PlanValidationError(
            f"staging invariant violated: non-insular qubit {bad[0]} of gate "
            f"{gate} is mapped to non-local physical position "
            f"{logical_to_physical[bad[0]]} (L={local_qubits})"
        )


def _picker(members: tuple[int, ...]):
    """``pool -> the gates at members``, as a tuple."""
    if len(members) == 1:
        (member,) = members
        return lambda pool: (pool[member],)
    return itemgetter(*members)


def _restrict(lowering, axes, l2p: dict[int, int], local: int, index: int):
    """The kernel of *lowering* — over its stage's ``n``-qubit layout
    *l2p* — on the shard at *index*: its items restricted to the ``local``
    positions, with the shard's fixed bits resolved.

    The shard's index threads through the items in order, each gate's
    :func:`~repro.runtime.sharding.shard_out_index` read off its non-local
    *axes*; an item sees the bits its gates find.  A monomial block's
    phases and permutation are taken at those bits (a block over non-local
    qubits only is its one phase, a ``()`` block — or nothing when it only
    permutes); a dense gate keeps the block from its input bits to its
    output bits (a scalar when no qubit is local) and is dropped when a
    control is 0; a fold keeps its local 2x2s and leaves a non-local
    qubit's entry as a scalar.  Returns ``(items, numbers, members, index
    after the kernel)``: the :class:`~repro.sim.apply.KernelItem` s, per
    item ``(kernel item, which of its numbers, their shape)`` for
    :class:`~repro.sim.fusion.KernelGather`, and per item the pool
    positions of the gates it absorbed."""
    items, numbers, members = [], [], []

    def scalar(at: int, entry, absorbed) -> None:
        items.append(KernelItem((), "block"))
        numbers.append((at, np.asarray([entry], dtype=np.intp), (1,)))
        members.append(absorbed)

    for at, item in enumerate(lowering):
        after = index
        for m in item.members:
            after = shard_out_index(axes[m], after)
        physical = [l2p[q] for q in item.qubits]
        near = [j for j, p in enumerate(physical) if p < local]
        far = [j for j, p in enumerate(physical) if p >= local]
        fixed_in = sum(((index >> (physical[j] - local)) & 1) << j for j in far)
        fixed_out = sum(((after >> (physical[j] - local)) & 1) << j for j in far)
        here = tuple([physical[j] for j in near])
        inside = _bits_to(len(near), enumerate(near))
        before, index = index, after
        if item.dense and len(item.members) > 1:  # a fold: a 2x2 per qubit
            if near:
                items.append(KernelItem(here, "fold"))
                numbers.append((at, (4 * np.asarray(near)[:, None] + np.arange(4)).reshape(-1),
                                (len(near), 2, 2)))
                members.append(item.members)
            for j in far:
                scalar(at, 4 * j + 2 * ((fixed_out >> j) & 1) + ((fixed_in >> j) & 1), item.members)
            continue
        if item.dense:
            (member,) = item.members
            if any(kind == "control" and not (before >> shift) & 1 for _q, shift, kind in axes[member]):
                continue  # a control at 0 on this shard: the gate is the identity
            d = 1 << len(physical)
            block = ((inside | fixed_out)[:, None] * d + (inside | fixed_in)[None, :]).reshape(-1)
            if not near:
                scalar(at, block[0], item.members)
                continue
            items.append(KernelItem(here, "gate"))
            numbers.append((at, block, (len(inside), len(inside))))
            members.append(item.members)
            continue
        source = inside | fixed_in
        target = source if item.perm is None else item.perm.take(source)
        perm = _bits_to(len(physical), [(bit, j) for j, bit in enumerate(near)]).take(target)
        perm = None if np.array_equal(perm, np.arange(len(perm))) else perm
        phased = bool(item.factors)
        if not phased and perm is None:
            continue  # it only relabels the shard
        if not near:
            scalar(at, source[0], item.members)
            continue
        items.append(KernelItem(here, "block", perm, phased))
        numbers.append((at, source, (len(source),)))
        members.append(item.members)
    return items, numbers, members, index


class _Variant(NamedTuple):
    """What one op of a :class:`_KernelSlot` runs: its template and, per
    item, a picker of the pool gates it absorbed."""

    template: KernelTemplate
    pickers: tuple


class _KernelSlot:
    """One kernel of a stream, minus the angles: a shared-memory kernel
    (or the lone gate of an un-kernelized stage) — its gates are the
    slot's *pool* — lowered to
    items in the stage's ``n``-qubit layout — the monomial blocks, dense
    gates and folds of 1q dense gates — and applied as one op
    (:func:`repro.sim.apply.kernel_template`) over ``2^local`` buffers.

    In core (``local == n``), and on a shard whose kernel has every qubit
    local, the op is the kernel's (``far`` is empty).  A kernel with
    qubits at positions ``>= local`` is one op per assignment of a shard's
    bits there — a *variant*, bit ``j`` of variant ``v`` on index bit
    ``far[j]`` — its items restricted to the local positions
    (:func:`_restrict`); ``None`` where no item is left.  ``flips[v]`` is
    what the kernel XORs into the index of a shard it runs on (an
    anti-diagonal axis relabels the shard).  A gate that mixes amplitudes
    along a non-local qubit cannot run on a shard, and no executor runs it
    elsewhere: the slot raises :class:`PlanValidationError`, through the
    check the in-core program's :meth:`ProgramStructure.prove_locality`
    makes (:func:`_check_locality`).

    Every variant's numbers are described by ``gather``
    (:class:`~repro.sim.fusion.KernelGather`) and computed with every other
    kernel's by the structure's :class:`~repro.sim.fusion.GatherProgram`
    (``kernel`` is the slot's index there): the kernel's block phases,
    dense matrices and fold factors, computed as in core, then taken at the
    variant's bits — the native body's packed payload, or the item loop's
    per-item arrays, the same bits.  So a shard multiplies the numbers the
    in-core pass does, in its order.  A fusion kernel is this slot too.
    """

    __slots__ = ("source", "pool", "parameterized", "variants", "far", "flips", "gather", "kernel")

    def __init__(self, pool: int, gates, l2p, local: int) -> None:
        self.source = None
        self.pool = pool
        self.parameterized = any(g.params for g in gates)
        lowering = kernel_lowering(gates, l2p)
        widths = [len(g.qubits) for g in gates]
        self.far = tuple(sorted({
            l2p[q] - local for g in gates for q in g.qubits if l2p[q] >= local
        }))
        self.kernel = -1
        if not self.far:
            template = kernel_template(kernel_items(lowering, l2p), local)
            self.variants = (_Variant(template, tuple([_picker(i.members) for i in lowering])),)
            self.flips = (0,)
            self.gather = KernelGather(lowering, widths, [(template.fills, None)])
            return
        for gate in gates:
            _check_locality(gate, gate.non_insular_qubits(), l2p, local)
        axes = [nonlocal_axes(gate, l2p, local) for gate in gates]
        templates: dict[tuple, KernelTemplate] = {}
        variants: list[_Variant | None] = []
        restrictions: list[tuple | None] = []
        flips = []
        for variant in range(1 << len(self.far)):
            index = sum(((variant >> j) & 1) << shift for j, shift in enumerate(self.far))
            items, numbers, members, out = _restrict(lowering, axes, l2p, local, index)
            flips.append(index ^ out)
            if not items:
                variants.append(None)
                restrictions.append(None)
                continue
            key = tuple([
                (i.qubits, i.kind, None if i.perm is None else i.perm.tobytes(), i.phased)
                for i in items
            ])
            template = templates.get(key)
            if template is None:
                template = templates[key] = kernel_template(items, local)
            variants.append(_Variant(template, tuple([_picker(m) for m in members])))
            restrictions.append((template.fills, numbers))
        self.variants, self.flips = tuple(variants), tuple(flips)
        self.gather = KernelGather(lowering, widths, restrictions)

    @property
    def template(self) -> KernelTemplate:
        """The kernel's template (its first variant's)."""
        return self.variants[0].template

    @property
    def pickers(self) -> tuple:
        return self.variants[0].pickers

    def variant(self, shard_index: int) -> int:
        """The variant a shard at *shard_index* runs."""
        return sum(((shard_index >> shift) & 1) << j for j, shift in enumerate(self.far))

    def bind(self, rows, old, run: GatherRun | None):
        """The op for the pool's gates in each of *rows* (one gate tuple per
        job of the stack), whose numbers *run* holds row by row — a tuple
        of variant ops when ``far`` is set.  *old* — what an earlier
        one-row bind of this slot produced, if any — is kept when every
        row's gates compare equal to its gates (angles included — Gate
        equality covers params), which a slot without parameterized gates
        needs no comparison for: its one payload serves every row."""
        if old is not None:
            held = old.gates if isinstance(old, CompiledOp) else next(
                (op.gates for op in old if op is not None), None
            )
            if not self.parameterized or all(gates == held for gates in rows):
                return old
        return self.fill(rows[0], run)

    def fill(self, gates, run: GatherRun | None):
        """The stacked fill: one payload row per row of *run*, bound into
        one op per variant (its metadata names *gates*, the first row's)."""
        ops: list[CompiledOp | None] = []
        for at, variant in enumerate(self.variants):
            if variant is None:
                ops.append(None)
                continue
            template = variant.template

            def item_loop(template=template, at=at):
                return template.loop(run.arrays_of(self.kernel, at))

            bound = (
                template.bind_numbers(run.numbers_of(self.kernel, at), item_loop)
                if template.native else item_loop()
            )
            ops.append(template.compiled(
                bound, self.source, gates, [pick(gates) for pick in variant.pickers]
            ))
        return tuple(ops) if self.far else ops[0]


class _Structure:
    """The angle-independent half of an op stream over ``2^n`` buffers.

    ``slots`` has one entry per op of the stream, in order: a finished
    :class:`CompiledOp`, or a slot that binds an op (on a shard, one per
    variant) from the gates of its *pool* — the gate tuple of one
    kernel (or of one run of its gates), or a lone gate.  ``positions``
    are the pools' gates' positions in the job's gate table, pool after
    pool (``starts[p]`` is pool ``p``'s first).  A bind reads every pool
    gate's matrix out of the table in
    one gather (:meth:`entries`; pool ``p``'s from ``entry_starts[p]``),
    runs the kernels' :class:`~repro.sim.fusion.GatherProgram` over them
    (``program``).
    """

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self.slots: list = []
        self.starts: list[int] = [0]
        self.positions = np.zeros(0, dtype=np.intp)
        self.entry_positions = self.entry_offsets = self.positions
        self.entry_starts: list[int] = [0]
        self.program: GatherProgram | None = None

    def open_pool(self, gates: tuple[Gate, ...]) -> int:
        self.starts.append(self.starts[-1] + len(gates))
        return len(self.starts) - 2

    def add_kernel(self, gates: tuple[Gate, ...], l2p: dict[int, int]) -> _KernelSlot:
        """Open a pool for *gates* — on local positions of the layout
        *l2p* — and append its slot, which is returned: one op, all the
        items of its lowering."""
        slot = _KernelSlot(self.open_pool(gates), gates, l2p, self.num_qubits)
        self.slots.append(slot)
        return slot

    def seal(self, positions, table: GateTable) -> None:
        """Record the pools' *positions* in *table* and where each pool
        gate's entries sit in :meth:`entries`."""
        self.positions = np.asarray(positions, dtype=np.intp)
        sizes = [4 ** len(table.gates[p].qubits) for p in self.positions.tolist()]
        self.entry_positions = np.repeat(self.positions, sizes)
        self.entry_offsets = np.concatenate(
            [np.arange(size, dtype=np.intp) for size in sizes] or [self.positions]
        )
        at = np.concatenate(([0], np.cumsum(sizes))).astype(int).tolist()
        self.entry_starts = [at[start] for start in self.starts]
        kernels = [slot for slot in self.slots if isinstance(slot, _KernelSlot)]
        for index, slot in enumerate(kernels):
            slot.kernel = index
        if kernels:
            self.program = GatherProgram(
                [(slot.gather, self.entry_starts[slot.pool]) for slot in kernels], at[-1]
            )

    def entries(self, tables: list[GateTable]) -> np.ndarray:
        """Every pool gate's matrix, row-major, pool after pool, one column
        per table of *tables* — one gather out of each."""
        at, positions = self.entry_offsets, self.entry_positions
        return np.stack(
            [table.flat.take(table.offsets.take(positions) + at) for table in tables], axis=1
        )

    def bind(
        self, rows: list[list[tuple[Gate, ...]]], reuse_ops: list | None,
        tables: list[GateTable],
    ) -> tuple[list, int]:
        """The op stream of a stack — per job its matching pools (*rows*),
        its numbers read from its table of *tables* — every kernel's
        numbers for every row out of one gather-program run:
        ``(ops, ops taken verbatim from reuse_ops)`` — *reuse_ops* aligned
        slot by slot, bound from this structure for one row
        (:meth:`_KernelSlot.bind`).  A solo job is a stack of one."""
        run = self.program(self.entries(tables)) if self.program is not None else None
        ops: list = []
        reused = 0
        for index, slot in enumerate(self.slots):
            if isinstance(slot, CompiledOp):
                ops.append(slot)
                continue
            old = reuse_ops[index] if reuse_ops is not None else None
            op = slot.bind([pools[slot.pool] for pools in rows], old, run)
            reused += op is old
            ops.append(op)
        return ops, reused


def _gate_table(plan: ExecutionPlan) -> GateTable:
    """The table *plan*'s stage ``gate_indices`` point into (every plan
    has one from construction on, :class:`ExecutionPlan`)."""
    if plan.gate_table is None:
        raise PlanValidationError("plan carries no gate table")
    return plan.gate_table


class Row(NamedTuple):
    """What the admit reads of a plan (:meth:`PlanRecord.admit`): its
    :meth:`~repro.core.plan.ExecutionPlan.digest` and
    :meth:`~repro.core.plan.ExecutionPlan.kernel_types`, its local qubit
    count — the machine's, else each stage partition's (one number when
    the stages agree) —, whether its gates are its table's at its recorded
    indices (:meth:`~repro.core.plan.ExecutionPlan.names_its_gates`) and
    its gate table.  :func:`row_of` takes it, once per plan."""

    digest: str
    kinds: tuple
    local: "int | tuple[int, ...]"
    named: bool
    table: GateTable


def row_of(plan: ExecutionPlan, local: int | None) -> Row:
    """*plan*'s :class:`Row` under *local* (``None``: each stage's own
    local count)."""
    if local is None:
        counts = tuple([stage.partition.num_local for stage in plan.stages])
        local = counts[0] if len(set(counts)) == 1 else counts
    return Row(
        plan.digest(), plan.kernel_types(), local, plan.names_its_gates(), _gate_table(plan)
    )


class PlanRecord:
    """What both lowerings of a plan — a compiled program and a shard
    schedule — are built from, and the one admit of a warm plan they share.

    Built once per structure, from the plan the structure is built from
    (and its :class:`Row`): ``groups`` per stage its layout, its local
    qubit count and its kernels as ``(gates, kernel type, table
    positions)`` — an un-kernelized stage as one group of type ``None``
    per gate —, read through the recorded stage and kernel
    ``gate_indices``; ``positions`` every group's positions, group after
    group, and ``guard`` the plan table's records there.  ``digest``,
    ``kinds`` and ``local`` are the row's: a plan with that digest and
    those kernel types has these stages, layouts, kernel ``gate_indices``
    and lowerings, so a row whose gates are its table's at its indices is
    admitted by three compares and one bytes compare, and its gates are
    its table's at ``positions`` (:meth:`gates`).
    """

    def __init__(self, plan: ExecutionPlan, row: Row) -> None:
        self.digest, self.kinds, self.local = row.digest, row.kinds, row.local
        self.num_stages = len(plan.stages)
        self.groups: list[tuple[dict[int, int], int, list[tuple]]] = []
        layout = QubitLayout(plan.num_qubits)
        for stage_idx, stage in enumerate(plan.stages):
            l2p = stage.partition.logical_to_physical()
            layout.update(l2p)
            indices = stage.gate_indices
            if len(indices) != stage.num_gates:
                raise PlanValidationError(
                    f"stage {stage_idx} records {len(indices)} gate indices for "
                    f"{stage.num_gates} gates"
                )
            if stage.kernels is None:
                groups = [((gate,), None, (index,)) for gate, index in zip(stage.gates, indices)]
            else:
                groups = []
                for group_idx, kernel in enumerate(stage.kernels):
                    if len(kernel.gate_indices) != len(kernel.gates):
                        raise PlanValidationError(
                            f"kernel {group_idx} of stage {stage_idx} records "
                            f"{len(kernel.gate_indices)} gate indices for {len(kernel.gates)} gates"
                        )
                    groups.append((
                        tuple(kernel.gates), kernel.kernel_type,
                        tuple([indices[j] for j in kernel.gate_indices]),
                    ))
            stage_local = row.local if isinstance(row.local, int) else row.local[stage_idx]
            self.groups.append((l2p, stage_local, groups))
        self.position_list = [
            p for _l2p, _local, groups in self.groups for _g, _t, at in groups for p in at
        ]
        if not row.named:
            raise PlanValidationError("a kernel's gate_indices do not name its gates in its stage")
        self.positions = np.asarray(self.position_list, dtype=np.intp)
        self.guard = row.table.signature_blob(self.positions)
        self._gates = _picker(tuple(self.position_list)) if self.position_list else lambda _g: ()

    def admit(self, row: Row) -> GateTable | None:
        """*row*'s gate table when the row has this structure — its digest,
        kernel types and local count are the record's, its gates are its
        table's at its indices, and the table's records at ``positions``
        are the guard: per gate the name, the qubits and, parameterized,
        the exact matrix signature (stricter than
        :meth:`Circuit.structural_key`'s ``> 1e-12`` pattern, so
        ``rx(1e-13)`` is not taken for ``rx(0)``) — else ``None``."""
        if not row.named or (row.digest, row.kinds, row.local) != (
            self.digest, self.kinds, self.local
        ):
            return None
        table = row.table
        if table.signature_blob(self.positions) != self.guard:
            return None
        return table

    def gates(self, table: GateTable) -> list[Gate]:
        """The gates of an admitted row's *table* at ``positions``: every
        group's, group after group."""
        return list(self._gates(table.gates))


class ProgramStructure(_Structure):
    """Everything about a compiled plan that does not depend on angles.

    On top of the slots (layout transposes are finished ops) and pool
    positions, ``record`` is the plan's :class:`PlanRecord` — what
    :meth:`admit` compares — and ``nonlocal_gates`` lists the ``(pool,
    position)`` of every gate with a qubit at a non-local physical
    position, with that stage's layout and local count: the gates
    :meth:`prove_locality` checks.
    """

    def __init__(self, plan: ExecutionPlan, row: Row) -> None:
        n = plan.num_qubits
        super().__init__(n)
        self.record = PlanRecord(plan, row)
        table = row.table
        table.patterns()  # every gate's signature, for its lowering shape
        self.nonlocal_gates: list[tuple[int, int, dict[int, int], int]] = []
        self.num_kernels = 0
        self.num_permutations = 0
        self.kernels_per_stage: list[int] = []

        layout = identity = {q: q for q in range(n)}
        for stage_idx, (l2p, stage_local, groups) in enumerate(self.record.groups):
            if l2p != layout:
                axes = permutation_axes(layout, l2p, n)
                if axes != list(range(n)):
                    self.slots.append(compile_layout_op(axes, n, ("layout", stage_idx)))
                layout = l2p
                self.num_permutations += 1
            for group_idx, (gates, kernel_type, _positions) in enumerate(groups):
                self._add(gates, l2p, stage_local).source = (
                    "gate" if kernel_type is None
                    else "kernel" if kernel_type is KernelType.FUSION else "sm",
                    stage_idx, group_idx,
                )
            kernels = sum(kernel_type is not None for _g, kernel_type, _p in groups)
            self.kernels_per_stage.append(kernels)
            self.num_kernels += kernels

        # Permute back to the identity layout so callers see logical ordering.
        if layout != identity:
            axes = permutation_axes(layout, identity, n)
            if axes != list(range(n)):
                self.slots.append(compile_layout_op(axes, n, ("layout", "final")))
            self.num_permutations += 1
        #: Ops that bind gates (every slot but the layout transposes).
        self.num_gate_ops = sum(
            not isinstance(slot, CompiledOp) for slot in self.slots
        )
        self.seal(self.record.position_list, table)
        self.pools = [
            _picker(tuple(self.record.position_list[a:b]))
            for a, b in zip(self.starts, self.starts[1:])
        ]
        #: ``(table position, layout, local count)`` of each gate of
        #: ``nonlocal_gates``.
        self._checked = [
            (int(self.positions[self.starts[pool] + at]), l2p, local)
            for pool, at, l2p, local in self.nonlocal_gates
        ]

    def _add(self, gates: tuple[Gate, ...], l2p: dict[int, int], local: int) -> _KernelSlot:
        """:meth:`add_kernel`, noting the gates :meth:`prove_locality` checks."""
        pool = len(self.starts) - 1
        far = {q for q, position in l2p.items() if position >= local}
        for position, gate in enumerate(gates):
            if not far.isdisjoint(gate.qubits):
                self.nonlocal_gates.append((pool, position, l2p, local))
        return self.add_kernel(gates, l2p)

    def admit(
        self, row: Row, check_locality: bool
    ) -> tuple[list[tuple[Gate, ...]], GateTable] | None:
        """``(the row's gate pools, its gate table)`` when *row* has this
        structure (:meth:`PlanRecord.admit`), else ``None``; with
        *check_locality* an admitted row is proved local
        (:meth:`prove_locality`, which raises)."""
        table = self.record.admit(row)
        if table is None:
            return None
        if check_locality:
            self.prove_locality(table)
        held = table.gates
        return [pick(held) for pick in self.pools], table

    def prove_locality(self, table: GateTable) -> None:
        """The staging invariant for the gates of *table* at the structure's
        positions, for exactly the gates it is not vacuous for — their
        insular qubits read off *table*."""
        for at, l2p, local in self._checked:
            _check_locality(table.gates[at], table.non_insular_qubits(at), l2p, local)


class SegmentStructure(_Structure):
    """A stage's per-shard work over ``2^L`` shard buffers: the same slots
    a plan's kernels get, built by the same builder.

    *groups* are the stage's kernels as :class:`PlanRecord` reads them,
    each ``(gates, kernel type, their positions in table)``, lowered in the
    stage's ``n``-qubit layout *l2p* as the in-core program lowers them —
    one slot, one op per shard; a kernel with qubits at non-local
    positions binds one op per variant of the shard's bits there
    (:class:`_KernelSlot`).  ``shards`` is resolved here, once: per shard
    index, which slot — and which variant — of a bind runs on the shard,
    in order, and the index the shard is stored at; a slot runs the
    variant it reads off the index as it stands, and the index threads on
    through the slot's ``flips``
    (:func:`~repro.runtime.sharding.shard_out_index`, gate by gate).
    """

    def __init__(
        self, groups: list[tuple[tuple[Gate, ...], object, tuple[int, ...]]],
        l2p: dict[int, int], local: int, table: GateTable,
    ) -> None:
        super().__init__(local)
        table.patterns()  # every gate's signature, for its lowering shape
        for gates, _kernel_type, _positions in groups:
            self.add_kernel(gates, l2p)
        self.seal([p for _gates, _kernel_type, positions in groups for p in positions], table)
        self.shards: list[tuple[list[tuple[int, int | None]], int]] = []
        for shard_index in range(1 << (len(l2p) - local)):
            index, picks = shard_index, []
            for at, slot in enumerate(self.slots):
                if not slot.far:
                    picks.append((at, None))
                    continue
                variant = slot.variant(index)
                if slot.variants[variant] is not None:
                    picks.append((at, variant))
                index ^= slot.flips[variant]
            self.shards.append((picks, index))

    def shard_streams(self, ops: list) -> tuple[tuple[tuple[CompiledOp, ...], int], ...]:
        """Per shard index, ``(the ops of *ops* — bound from this structure,
        slot by slot — that run on the shard, the index it is stored at)``."""
        return tuple(
            (tuple([ops[at] if variant is None else ops[at][variant] for at, variant in picks]), out)
            for picks, out in self.shards
        )


def bind_structure(reuse, rows: list, admit, build) -> tuple:
    """The one admit → bind → else-cold sequence of every compile.

    *rows* are the jobs bound together — a stack; a shard schedule binds
    one — each a :class:`Row`.  *reuse* is ``(structure, what was bound
    from it)`` of an earlier compile, or ``None``; ``admit(structure,
    row)`` returns ``(the job's gates — pools for a program —, its gate
    table)`` when it has that structure, else ``None``; ``build()`` returns
    a fresh structure built from the first row's plan, which admits that
    row (a kernel whose ``gate_indices`` do not name its gates is a
    :class:`PlanValidationError` of the build).  The rows the reuse
    structure admits are bound over it; when it admits none, the first row
    is built cold in full — never adopting the reuse structure — and every
    row the cold structure admits is bound over that.  Returns
    ``(structure, what its bind returned, whether the reuse structure was
    bound, the indices of the rows it declined)``.
    """
    if reuse is not None:
        structure, bound = reuse
        admitted = [admit(structure, row) for row in rows]
        if any(entry is not None for entry in admitted):
            result, declined = _bind_rows(structure, admitted, bound)
            return structure, result, True, declined
    structure = build()
    admitted = [admit(structure, row) for row in rows]
    result, declined = _bind_rows(structure, admitted, None)
    return structure, result, False, declined


def _bind_rows(structure, admitted: list, bound) -> tuple:
    """Bind the admitted rows of a stack over *structure*, in row order:
    ``(its bind's result, the declined rows' indices)``."""
    declined = tuple([index for index, entry in enumerate(admitted) if entry is None])
    taken = [entry for entry in admitted if entry is not None]
    result = structure.bind([gates for gates, _t in taken], bound, [table for _g, table in taken])
    return result, declined


def compile_plan(
    plan: "ExecutionPlan | Sequence[ExecutionPlan]",
    machine: MachineConfig | None = None,
    check_locality: bool = True,
    reuse: CompiledProgram | None = None,
    workspace: Workspace | None = None,
) -> CompiledProgram:
    """Lower *plan* into a :class:`CompiledProgram`.

    Parameters
    ----------
    plan:
        A kernelized execution plan (or a rebound copy of one) — or a
        stack of them, plans of one structure (a structural-key group of a
        parameter sweep, a service burst): every kernel op of the program
        then carries one payload row per plan and runs the ``(B, 2^n)``
        stack of their states through
        :meth:`~repro.sim.program.CompiledProgram.run_batched`, row ``b``
        bit for bit the program of plan ``b`` alone.  Each plan is admitted
        on its own; ``declined`` lists the ones the stack's structure does
        not admit (``rx(0)`` bound onto a generic ``rx``), which the
        program does not run — compile each alone, through the counted
        fallback.  A stack of one plan object repeated is one payload row
        that serves every row, as a single plan is.
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
        (``ops_recompiled``) — still correct, just not a rebind.  Only a
        one-row program's ops are taken verbatim.
    workspace:
        Buffer set for the program; defaults to the reuse program's (so a
        rebound family shares one ping-pong pair) or a fresh one.
    """
    faults.check("compile")
    plans = [plan] if isinstance(plan, ExecutionPlan) else list(plan)
    if all(row is plans[0] for row in plans):
        plans = plans[:1]
    first = plans[0]
    if workspace is None:
        workspace = reuse.workspace if reuse is not None else Workspace()
    if reuse is not None and reuse.num_qubits != first.num_qubits:
        raise PlanValidationError("reuse program spans a different qubit count")

    local = machine.local_qubits if machine is not None else None
    rows = [row_of(row, local) for row in plans]
    held = reuse.structure if reuse is not None else None
    structure, (ops, reused), rebound, declined = bind_structure(
        (held, reuse.ops if reuse.rows == 1 else None)
        if isinstance(held, ProgramStructure) else None,
        rows, lambda structure, row: structure.admit(row, check_locality),
        lambda: ProgramStructure(first, rows[0]),
    )

    return CompiledProgram(
        num_qubits=first.num_qubits,
        ops=ops,
        workspace=workspace,
        num_stages=structure.record.num_stages,
        num_gates=len(structure.record.position_list),
        num_kernels=structure.num_kernels,
        num_permutations=structure.num_permutations,
        kernels_per_stage=list(structure.kernels_per_stage),
        ops_reused=reused,
        ops_rebound=structure.num_gate_ops - reused if rebound else 0,
        ops_recompiled=structure.num_gate_ops if reuse is not None and not rebound else 0,
        provenance=first.provenance,
        structure=structure,
        rows=len(plans) - len(declined),
        declined=declined,
    )


def program_row(
    program: CompiledProgram, plan: ExecutionPlan, machine: MachineConfig | None = None
) -> CompiledProgram:
    """*program* as the static verifier reads it for *plan*, one of the
    plans it was bound from: a stacked program's ops name its first row's
    gates, so the row's view takes the same op closures with *plan*'s
    gates and items (:func:`repro.check.verify_program` compares them
    with the plan).  A one-row program is its own view."""
    structure = program.structure
    if program.rows == 1 or not isinstance(structure, ProgramStructure):
        return program
    admitted = structure.admit(
        row_of(plan, machine.local_qubits if machine is not None else None), False
    )
    if admitted is None:
        raise PlanValidationError("plan is not a row of this stacked program")
    pools = admitted[0]
    view = copy.copy(program)
    view.ops = [
        op if isinstance(slot, CompiledOp) else slot.template.compiled(
            op.run, slot.source, pools[slot.pool],
            [pick(pools[slot.pool]) for pick in slot.pickers],
        )
        for slot, op in zip(structure.slots, program.ops)
    ]
    return view


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
