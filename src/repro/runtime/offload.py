"""DRAM-offloading executor (Section VII-C of the paper).

When the state vector does not fit in GPU memory, Atlas keeps it in host
DRAM, splits it into shards of ``2^L`` amplitudes, and swaps shards through
the GPUs one batch at a time.  Functionally the result is identical to the
in-memory executor; what changes is the *access pattern*: within a stage,
each shard is loaded once, all of the stage's kernels are applied to it,
and it is written back — the property that makes staged execution so much
cheaper than gate-at-a-time offloading (the QDAO comparison of Figure 7).

This module provides that shard-by-shard execution path.  Gates whose
non-insular qubits are local act entirely within a shard; insular non-local
qubits are handled per shard from the shard's fixed high-order bits.  The
classification is **per qubit axis** — the one the stager's insularity is
(:func:`repro.circuits.gates.axes_of`, read through
:func:`repro.runtime.sharding.nonlocal_axes`), not per whole-gate matrix:

* a *control* on a non-local qubit selects which shards keep the gate's
  control-1 block,
* a qubit along which the gate is *diagonal* (the matrix never changes that
  bit) fixes which block of the gate a shard applies — even when the gate
  as a whole is not diagonal,
* a qubit along which the gate is *anti-diagonal* (X/Y-like: the bit always
  flips) exchanges amplitudes between shard pairs.  The executor realises
  this as a shard-index relabel: the shard is processed once and stored at
  its new index, so the one-load-per-stage-per-shard property still holds,
* a qubit the gate genuinely *mixes* (e.g. an H) would move amplitudes
  between shards, so the staging invariant keeps it local: every executor
  refuses a plan that breaks the staging invariant, and here the schedule
  build raises :class:`~repro.errors.PlanValidationError` before any shard
  moves, as :func:`repro.runtime.compile.compile_plan` does in core.

All of it is resolved when a stage's segment is compiled, inside the
kernel the gate belongs to: a shard runs the kernel the in-core program
runs, its items taken at the shard's fixed bits (one op per kernel per
shard), each shard index has a recorded op stream and output index, and a
shard pass only replays them.  A stage is one shard pass.

The executor counts shard loads/stores so tests can verify the
one-load-per-stage-per-shard property that the paper's speedup over QDAO
rests on.

The qubit remapping between stages (Algorithm 1's SHARD step) decides only
*which* amplitudes a shard load reads: where the layouts allow it, a stage
boundary is the next pass's loads gathering through strided views of the
array still in the old layout, or the previous pass's stores scattering
into the new one (:func:`repro.runtime.sharding.in_pass_moves`), and no
stage-level sweep of the state runs at all.

**Who owns what.**  This module owns the stage loop: :func:`build_schedule`
lowers a plan to a :class:`Schedule` — the sharded executors' *program*:
per stage one segment whose shard-local work is compiled through the plan
compiler's slots (:class:`repro.runtime.compile.SegmentStructure`) once
per plan structure (:class:`ScheduleStructure`, with each layout boundary
decided there) and bound per job from the plan's one gate table — and
:func:`run_stages` is the one driver that walks it (state init, resume,
the permutes no pass carries, guards, checkpoints) for every sharded
executor.  An executor owns only its *shard
pass* — how the shards of one stage are loaded, computed and stored:
sequentially with per-shard retry in :func:`execute_plan_offloaded` here,
across a supervised worker pool in :mod:`repro.runtime.parallel`.  Neither
keeps a schedule: both take one (``schedule=``) from a caller that does —
the Session plan cache — and build it cold otherwise.  The schedule is the
only way a plan runs here, and the recovery rule is one line: transient
shard faults retry inside the shard pass, and everything else — a segment
that fails to lower included — raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..circuits.gates import Gate, GateTable
from ..cluster.machine import MachineConfig
from ..core.plan import ExecutionPlan
from ..errors import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    PlanValidationError,
    ReproError,
    RetryPolicy,
    TransientError,
)
from ..sim.apply import tracked_empty
from ..sim.program import thread_workspace
from ..sim.statevector import StateVector
from . import faults
from .checkpoint import (
    CheckpointConfig,
    checkpoint_fingerprint,
    find_checkpoint,
    write_checkpoint,
)
from .compile import PlanRecord, Row, SegmentStructure, bind_structure, row_of
from .integrity import IntegrityMonitor
from .sharding import (
    QubitLayout,
    in_pass_moves,
    permute_state,
    shard_slices,
    shard_views,
    zero_state_shards,
)

__all__ = [
    "OffloadStats",
    "Schedule",
    "ScheduleStructure",
    "WorkerStats",
    "build_schedule",
    "compile_segment_ops",
    "execute_plan_offloaded",
    "run_segment_ops",
]


@dataclass
class WorkerStats:
    """Per-worker shard-traffic accounting (filled by the parallel runtime).

    ``compute_seconds`` is wall-clock time the worker spent inside kernel
    execution.  Workers of one group run the stage's kernels in lockstep
    (the SIMT model of the paper's data-parallel GPUs), so their compute
    times are equal within a group pass.
    """

    worker: int
    shard_loads: int = 0
    shard_stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    load_seconds: float = 0.0
    store_seconds: float = 0.0
    compute_seconds: float = 0.0
    #: Transient shard failures this worker retried (load/compute/store).
    retries: int = 0


@dataclass
class OffloadStats:
    """Shard-traffic accounting of one offloaded execution."""

    num_stages: int = 0
    num_shards: int = 0
    shard_loads: int = 0
    shard_stores: int = 0
    bytes_transferred: int = 0
    #: Shard passes *scheduled* per stage (the count ``timeline.py`` models);
    #: a retried load shows in ``shard_loads``/``retries``, not here.
    per_stage_loads: list[int] = field(default_factory=list)
    #: Data-parallel width the run was scheduled with (1 = sequential).
    num_workers: int = 1
    #: Per-worker accounting; empty for the sequential executor.
    per_worker: list[WorkerStats] = field(default_factory=list)
    #: Transient shard failures that were retried (summed over workers).
    retries: int = 0
    #: Workers quarantined during this execution after exhausting retries.
    quarantined_workers: int = 0
    #: Stage-boundary checkpoints durably written this execution.
    checkpoints_written: int = 0
    #: Checkpoint writes that failed (the run continues — checkpointing is
    #: advisory and never fails an execution).
    checkpoint_errors: int = 0
    #: Last completed stage restored from a checkpoint (-1 = cold start).
    resumed_from_stage: int = -1
    #: Stages skipped on resume (their work was recovered from disk).
    stages_skipped: int = 0
    #: Integrity-monitor boundary checks performed (0 = monitor off).
    integrity_checks: int = 0
    #: Worst relative state-norm drift the monitor observed.
    max_norm_drift: float = 0.0
    #: Stage-boundary layout changes run as a full-state permute (no
    #: in-pass move carries the boundary, or a resume's layout is not the
    #: one the schedule expected).
    layout_permutes: int = 0
    #: Stage-boundary layout changes folded into a shard pass's loads
    #: (gather-in) or stores (scatter-out), or elided on |0…0⟩.
    layout_in_pass: int = 0


# ---------------------------------------------------------------------------
# The segment bind
# ---------------------------------------------------------------------------


class SegmentOps(list):
    """A segment's bound stream — one entry per kernel slot: its op,
    or, for a kernel with qubits at non-local positions, its variant ops
    (``None`` where a variant is no op) — the next job's rebind takes ops
    from, with ``shards``: per shard index the ops that run on that shard
    and the index it is stored at, which :func:`run_segment_ops` reads."""

    __slots__ = ("shards",)

    @property
    def write_map(self) -> list[int]:
        """The index each shard is stored at, by shard index."""
        return [out_index for _stream, out_index in self.shards]


def compile_segment_ops(
    structure: SegmentStructure,
    gates: list[Gate],
    table: GateTable,
    reuse: SegmentOps | None = None,
) -> SegmentOps:
    """Bind one stage's segment of a schedule's structure to a job's
    *gates* — the stage's, in order — whose numbers *table* holds.

    *structure* is the stage compiled like a plan over ``2^L`` buffers,
    once per plan structure (:class:`ScheduleStructure`): every kernel
    lowered as the in-core program lowers it, to
    :class:`~repro.sim.program.CompiledOp` templates through the slots of
    a :class:`~repro.runtime.compile.SegmentStructure` — a kernel touching
    non-local qubits to one op per assignment of the shard's fixed bits on
    them — and every shard's op stream and output index resolved.  The
    bind fills the templates as ``compile_plan(reuse=)`` binds a program:
    entries of *reuse* — this segment of an earlier job bound from the
    same structure — whose gates compare equal are taken verbatim, the
    rest refilled; every shard of every execution replays its stream.
    """
    faults.check("compile")
    starts = structure.starts
    bound, _reused = structure.bind(
        [[tuple(gates[a:b]) for a, b in zip(starts, starts[1:])]], reuse, [table],
    )
    ops = SegmentOps(bound)
    ops.shards = structure.shard_streams(bound)
    return ops


def run_segment_ops(
    data: np.ndarray,
    scratch: np.ndarray,
    ops: SegmentOps,
    logical_to_physical: dict[int, int],
    local_qubits: int,
    shard_index: int,
    workspace=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply a compiled segment (:func:`compile_segment_ops`) to one
    loaded shard: the op stream recorded for *shard_index*, as a compiled
    program runs its ops (the layout arguments are the recorded stream's,
    resolved when it was compiled).

    Returns the final ``(data, scratch, out_index)``: the caller stores
    the shard at the recorded *out_index*, which differs from
    *shard_index* when anti-diagonal non-local axes relabel the shard.
    *workspace* defaults to the calling thread's private buffer set,
    keeping concurrent shard workers race-free.
    """
    if workspace is None:
        workspace = thread_workspace()
    faults.check("kernel_apply", shard=shard_index)
    stream, out_index = ops.shards[shard_index]
    for op in stream:
        data, scratch = op.run(data, scratch, workspace)
    return data, scratch, out_index


# ---------------------------------------------------------------------------
# Stage schedule and the stage driver (shared by every sharded executor)
# ---------------------------------------------------------------------------


class Segment(NamedTuple):
    """A stage's one shard pass: *payload* the stage's gates, in order, and
    *ops* their compiled per-shard stream.

    It may carry a stage boundary (:class:`ScheduleStructure`):
    *load_from* — its loads gather the stage's shards through views of the
    array still in that earlier layout — and *store_to* — its stores
    scatter into the second array in that next layout.  *in_place* says
    its stores update the slices it loaded; it is false when the pass
    relabels shards (its recorded ``ops.write_map`` is not the identity)
    or carries a boundary, and its stores then fill the second DRAM
    array."""

    payload: list[Gate]
    ops: SegmentOps
    in_place: bool
    load_from: dict[int, int] | None = None
    store_to: dict[int, int] | None = None


class _Cut(NamedTuple):
    """A stage's pass in a :class:`ScheduleStructure`: its compiled
    :class:`SegmentStructure`, the range ``[start, stop)`` of the plan's
    group gates it runs, and the :class:`Segment` flags a bind copies."""

    structure: SegmentStructure
    start: int
    stop: int
    in_place: bool
    load_from: dict[int, int] | None = None
    store_to: dict[int, int] | None = None


class ScheduleStructure:
    """Everything about a plan's :class:`Schedule` that does not depend on
    angles, built once per plan structure — what a
    :class:`~repro.runtime.compile.ProgramStructure` is to a compiled
    program.

    ``record`` is the plan's :class:`~repro.runtime.compile.PlanRecord`,
    the one the plan compiler builds, and ``stages`` per stage the layout
    and a :class:`_Cut` — the stage's kernel groups as one compiled
    structure, positions into the plan's gate table through ``record``,
    store flag and layout moves — or ``None`` for a stage without gates.
    Each layout boundary — into stage 0, between stages, and back to
    logical order — is decided here by :func:`in_pass_moves`: a gather-in
    on the next stage's pass or a scatter-out on the previous stage's; a
    boundary neither carries is left to the driver's full-state permute.
    ``far`` holds the table positions of every gate with a non-local
    qubit, and ``key_guard`` their ``> 1e-12`` key patterns, which the
    axis tables and every kernel's variants follow.
    """

    def __init__(self, plan: ExecutionPlan, row: Row) -> None:
        n, local_qubits = plan.num_qubits, row.local
        table = row.table
        self.record = PlanRecord(plan, row)
        self.stages: list[tuple[dict[int, int], _Cut | None]] = []
        far: list[int] = []
        at = 0
        for l2p, _local, groups in self.record.groups:
            cut = None
            if groups:
                structure = SegmentStructure(groups, l2p, local_qubits, table)
                outs = [out for _picks, out in structure.shards]
                cut = _Cut(structure, at, at + structure.starts[-1], outs == list(range(len(outs))))
                at = cut.stop
                far.extend(
                    position for gates, _kernel_type, positions in groups
                    for gate, position in zip(gates, positions)
                    if any(l2p[q] >= local_qubits for q in gate.qubits)
                )
            self.stages.append((l2p, cut))
        identity = {q: q for q in range(n)}
        layouts = [identity] + [l2p for l2p, _cut in self.stages] + [identity]
        for k, (old, new) in enumerate(zip(layouts, layouts[1:])):
            if old == new:
                continue
            after = self.stages[k][1] if k < len(self.stages) else None
            before = self.stages[k - 1][1] if k else None
            for move in in_pass_moves(old, new, local_qubits):
                if move == "gather" and after is not None:
                    self.stages[k] = (new, after._replace(in_place=False, load_from=old))
                    break
                if move == "scatter" and before is not None:
                    self.stages[k - 1] = (old, before._replace(in_place=False, store_to=new))
                    break
        self.far = np.asarray(far, dtype=np.intp)
        self.key_guard = table.key_blob(self.far)

    def admit(self, row: Row) -> tuple[list[Gate], GateTable] | None:
        """``(the row's group gates, its gate table)`` when *row* has this
        structure — the plan compiler's admit
        (:meth:`~repro.runtime.compile.PlanRecord.admit`), then one bytes
        compare of the key patterns at ``far`` — else ``None``."""
        table = self.record.admit(row)
        if table is None or table.key_blob(self.far) != self.key_guard:
            return None
        return self.record.gates(table), table

    def bind(
        self, rows: list[list[Gate]], reuse_stages, tables: list[GateTable]
    ) -> list[tuple[dict[int, int], Segment | None]]:
        """The schedule stages of a job's gates — *rows* holds the one job a
        schedule binds, *tables* its gate table: every stage's segment
        bound through :func:`compile_segment_ops`, with the segment of
        *reuse_stages* — stages bound from this structure, if any — as its
        ``reuse``."""
        ((gates,), (table,)) = rows, tables
        stages: list[tuple[dict[int, int], Segment | None]] = []
        for index, (l2p, cut) in enumerate(self.stages):
            if cut is None:
                stages.append((l2p, None))
                continue
            old = reuse_stages[index][1] if reuse_stages is not None else None
            run = gates[cut.start : cut.stop]
            ops = compile_segment_ops(cut.structure, run, table, None if old is None else old.ops)
            stages.append((l2p, Segment(run, ops, cut.in_place, cut.load_from, cut.store_to)))
        return stages


@dataclass
class Schedule:
    """A plan lowered for the sharded executors: what they run, as a
    :class:`~repro.sim.program.CompiledProgram` is what the in-core one
    does."""

    #: Per stage ``(logical_to_physical, its one shard pass)``; ``None``
    #: for a stage without gates, which runs no pass.
    stages: list[tuple[dict[int, int], Segment | None]]
    #: What it was bound from, built once per plan structure; the next
    #: job's rebind admits its plan against it and binds it again.
    structure: ScheduleStructure
    #: Whether the job's plan was admitted whole and bound over the
    #: ``reuse`` schedule's structure (false for a cold build: no
    #: ``reuse``, or a plan without its structure).
    rebound: bool = False


def build_schedule(
    plan: ExecutionPlan, local_qubits: int, reuse: Schedule | None = None
) -> Schedule:
    """Lower *plan* to a :class:`Schedule`: the layout walk, each stage's
    work compiled **once** (:class:`ScheduleStructure`), and every stage's
    segment bound through :func:`compile_segment_ops`, so every shard of
    every execution replays the compiled stream instead of re-deriving the
    lowering and the kernels' tile programs.  A lowering that fails raises
    its typed error, and a gate that mixes amplitudes along a non-local
    qubit — a plan that breaks the staging invariant — raises
    :class:`~repro.errors.PlanValidationError`, before any shard moves.

    *reuse* is an earlier schedule of the same structure (the Session plan
    cache's, for a parameter sweep).  It is admitted as
    ``compile_plan(reuse=)`` admits a program — the whole plan or nothing
    (:meth:`ScheduleStructure.admit`) — and its structure is bound to this
    plan's gates, stage by stage; a plan that is not admitted, or whose
    products leave their templates' class, is built cold in full.  Either
    way the result equals a cold build bit for bit and never carries
    another circuit's angles.
    """
    row = row_of(plan, local_qubits)
    structure, stages, rebound, _declined = bind_structure(
        None if reuse is None else (reuse.structure, reuse.stages), [row],
        lambda held, row: held.admit(row),
        lambda: ScheduleStructure(plan, row),
    )
    return Schedule(stages, structure, rebound)


def run_stages(
    plan: ExecutionPlan,
    machine: MachineConfig,
    schedule: Schedule,
    shard_pass,
    stats: OffloadStats,
    state_scratch: np.ndarray,
    initial_state: StateVector | None,
    deadline: "Deadline | float | None",
    checkpoint: "CheckpointConfig | str | None",
    resume_from,
    monitor,
) -> tuple[np.ndarray, np.ndarray]:
    """The stage loop of every sharded executor (the paper's EXECUTE).

    Owns everything but how one shard pass is scheduled: state init,
    resume, layout transitions, relabel swaps and the final un-permute,
    over a *schedule* from :func:`build_schedule` — one shard pass per
    stage, none for a stage without gates.  An executor supplies
    ``shard_pass(shards, out_shards, ops, logical_to_physical, deadline)``,
    which must process every shard of ``shards`` exactly once and store
    shard ``i`` at ``out_shards[j]`` for the index ``j`` its kernels
    return, and the DRAM-side *state_scratch* (permutations and every
    store that is not in place ping-pong between it and the one state
    array allocated here).  A shard
    or out-shard may be a strided ``(2,)*L`` view (:func:`shard_views`):
    the pass copies through ``reshape(view.shape)``.  Returns ``(state,
    spare)``: the final amplitudes in logical order and the other array,
    which the executor may keep as its next scratch.

    A layout boundary is a shard load or a shard store wherever the
    schedule recorded one: the stage's pass gathers from the array still
    in the layout it expects (``load_from``), or scatters into the next
    layout (``store_to``).  The full-state
    :func:`permute_state` runs only where neither was recorded, or where
    the array is not in the recorded source layout (a resume from another
    boundary's snapshot).  A run from |0…0⟩ that resumes nothing and has
    no monitor moves no data into stage 0's layout (a qubit permutation
    fixes |0…0⟩), and when stage 0 has gates its pass loads generated
    shards (:func:`zero_state_shards`) instead of a
    zero-filled state.  ``stats.layout_permutes`` / ``layout_in_pass``
    count the two paths.

    The guards run inline, in this order, for every stage:

    1. ``deadline.check("stage")`` (the shard pass checks ``"shard"``);
    2. ``monitor.stage_begin`` — the state is bit-identical to what the
       previous ``stage_complete`` saw;
    3. the permute, if the boundary needs one, then the stage's pass;
    4. ``monitor.stage_complete`` — norm conservation, boundary digest;
    5. the checkpoint write — advisory: a failed snapshot is counted
       (``checkpoint_errors``) and costs resumability, never the run; the
       last stage is not snapshotted, the result supersedes it;
    6. the ``crash_after_stage`` hook, last, so a crash-recovery harness
       dies with the boundary's checkpoint already durable.

    Before the loop, *resume_from* is validated against the plan's
    fingerprint and restores state + layout (stages up to the snapshot are
    skipped), and the monitor is reset so an :class:`IntegrityMonitor`
    instance reused across executions starts clean.  The driver owns the
    stage-level fields of *stats* — ``num_stages``, ``per_stage_loads``
    (*scheduled* shard passes; retried loads show in ``shard_loads`` /
    ``retries``, which the shard pass owns), checkpoint, resume and
    integrity counters.
    """
    n = plan.num_qubits
    local = machine.local_qubits
    deadline = Deadline.resolve(deadline)
    if initial_state is not None and initial_state.num_qubits != n:
        raise PlanValidationError("initial state size does not match plan")
    state = tracked_empty(1 << n)
    layout = QubitLayout(n)

    def relayout(target: dict[int, int]) -> None:
        nonlocal state, state_scratch
        if target != layout.logical_to_physical():
            permuted = permute_state(state, layout, target, out=state_scratch)
            if permuted is not state:
                state, state_scratch = permuted, state
            layout.update(target)
            stats.layout_permutes += 1

    ckpt = CheckpointConfig.coerce(checkpoint) if checkpoint is not None else None
    mon = IntegrityMonitor.coerce(monitor)
    if mon is not None:
        mon.reset()
    fingerprint = (
        checkpoint_fingerprint(plan)
        if ckpt is not None or resume_from is not None
        else ""
    )
    start_stage = 0
    if resume_from is not None:
        ck = find_checkpoint(
            resume_from,
            fingerprint=fingerprint,
            tag=ckpt.tag if ckpt is not None else "run",
        )
        if ck is not None:
            if ck.num_qubits != n or ck.state.shape != state.shape \
                    or ck.state.dtype != state.dtype:
                raise PlanValidationError(
                    f"checkpoint {ck.path.name} does not match the plan's "
                    f"state ({ck.num_qubits} qubits, {ck.state.dtype})"
                )
            np.copyto(state, ck.state)
            layout.update(ck.layout_mapping())
            start_stage = ck.stage_index + 1
            stats.resumed_from_stage = ck.stage_index
            stats.stages_skipped = start_stage

    # A qubit permutation fixes |0…0⟩: a fresh run from it moves no data
    # into stage 0's layout, and stage 0's pass loads generated shards
    # instead of a zero-filled state.
    generated = False
    if initial_state is None and start_stage == 0 and mon is None and schedule.stages:
        first_layout, first_segment = schedule.stages[0]
        generated = first_segment is not None
        if first_layout != layout.logical_to_physical():
            layout.update(first_layout)
            stats.layout_in_pass += 1
    if start_stage == 0 and initial_state is not None:
        initial_state.copy_into(state)
    elif start_stage == 0 and not generated:
        state[:] = 0.0
        state[0] = 1.0

    for stage_index in range(start_stage, len(schedule.stages)):
        logical_to_physical, segment = schedule.stages[stage_index]
        deadline.check("stage")
        if mon is not None:
            mon.stage_begin(state, stage_index)
        source = layout.logical_to_physical()
        gather = (
            source != logical_to_physical
            and segment is not None and segment.load_from == source
        )
        if gather:
            layout.update(logical_to_physical)
            stats.layout_in_pass += 1
        else:
            relayout(logical_to_physical)

        stage_loads = 0
        if segment is not None:
            if generated:
                shards = zero_state_shards(state, local)
            elif gather:
                shards = shard_views(state, source, logical_to_physical, local)
            else:
                shards = shard_slices(state, local)
            # A pass that is not in place — its shards land at relabelled
            # indices, or it moves the layout — stores into the second DRAM
            # array (every amplitude written exactly once: the relabel map
            # is a bijection and the views partition the state), which
            # leaves its sources intact until the arrays swap after it.
            out = state if segment.in_place else state_scratch
            out_shards = (
                shard_slices(out, local) if segment.store_to is None
                else shard_views(out, segment.store_to, logical_to_physical, local)
            )
            shard_pass(shards, out_shards, segment.ops, logical_to_physical, deadline)
            stage_loads = len(shards)
            if not segment.in_place:
                state, state_scratch = state_scratch, state
            if segment.store_to is not None:
                layout.update(segment.store_to)
                stats.layout_in_pass += 1
            generated = False
        stats.per_stage_loads.append(stage_loads)
        stats.num_stages += 1
        if mon is not None:
            mon.stage_complete(state, stage_index)
            stats.integrity_checks += 1
        if (
            ckpt is not None
            and stage_index < len(schedule.stages) - 1
            and (stage_index + 1) % ckpt.every == 0
        ):
            try:
                write_checkpoint(
                    ckpt,
                    fingerprint=fingerprint,
                    num_qubits=n,
                    stage_index=stage_index,
                    layout=layout.logical_to_physical(),
                    state=state,
                )
                stats.checkpoints_written += 1
            except (ReproError, OSError):
                stats.checkpoint_errors += 1
        faults.crash_after_stage(stage_index)

    if mon is not None:
        stats.max_norm_drift = mon.max_norm_drift
    relayout({q: q for q in range(n)})
    return state, state_scratch


# ---------------------------------------------------------------------------
# Sequential executor
# ---------------------------------------------------------------------------


def execute_plan_offloaded(
    plan: ExecutionPlan,
    machine: MachineConfig,
    initial_state: StateVector | None = None,
    deadline: "Deadline | float | None" = None,
    retry: RetryPolicy | None = None,
    checkpoint: "CheckpointConfig | str | None" = None,
    resume_from=None,
    monitor=None,
    schedule: Schedule | None = None,
) -> tuple[StateVector, OffloadStats]:
    """Execute *plan* shard by shard, as the DRAM-offloading runtime would.

    The full state lives in a host-side array (standing in for node DRAM);
    each stage walks its shards sequentially, applying every kernel of the
    stage to one shard before touching the next.  This is the reference
    one-worker shard pass under :func:`run_stages` — kept as separate code
    because the tests and the benchmark use it as the bit-exact oracle for
    :class:`repro.runtime.parallel.ParallelRuntime`, which maps the same
    passes onto multiple workers.

    Fault tolerance: transient shard failures (load, kernel, store) are
    retried from the DRAM copy under *retry* (bounded exponential backoff;
    bit-exact, since a shard's DRAM slice is only written once its
    computation finished); anything else raises its typed error; and
    *deadline* is checked cooperatively at stage and shard boundaries
    (:class:`repro.errors.DeadlineExceeded`).  A plan that breaks the
    staging invariant raises :class:`~repro.errors.PlanValidationError`
    when its schedule is built, before any shard moves.

    Durability: *checkpoint* (a :class:`CheckpointConfig` or directory
    path) snapshots the DRAM state at stage boundaries; *resume_from* (a
    checkpoint file or directory) validates the snapshot against the
    plan's fingerprint and restarts after its last completed stage,
    bit-exact with an uninterrupted run.  A failed checkpoint write is
    counted (``checkpoint_errors``) and never fails the run.  *monitor*
    (``True`` / :class:`IntegrityConfig` / :class:`IntegrityMonitor`)
    enables per-stage norm-drift and inter-stage checksum checks that
    raise :class:`repro.errors.IntegrityError` on corruption.

    *schedule* is *plan*'s :func:`build_schedule` when the caller holds it
    (the Session builds one per structure and rebinds it per job); without
    one it is built cold here.
    """
    n = plan.num_qubits
    machine.validate(n)
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    local = machine.local_qubits
    stats = OffloadStats(num_shards=1 << (n - local))
    # The GPU-side buffer pair shard contents ping-pong through; with the
    # driver's two DRAM arrays that is O(1) allocations per execution.
    buffers = [tracked_empty(1 << local), tracked_empty(1 << local)]

    def shard_pass(shards, out_shards, segment_ops, logical_to_physical, deadline):
        for shard_index, shard in enumerate(shards):
            # Transient failures retry from the DRAM shard, which is
            # untouched until the store below succeeds.
            attempt = 1
            while True:
                try:
                    deadline.check("shard")
                    faults.check("shard_load", shard=shard_index)
                    data, scratch = buffers
                    np.copyto(data.reshape(shard.shape), shard)
                    stats.shard_loads += 1
                    stats.bytes_transferred += data.nbytes

                    data, scratch, out_index = run_segment_ops(
                        data, scratch, segment_ops, logical_to_physical,
                        local, shard_index,
                    )

                    faults.check("shard_store", shard=shard_index)
                    out = out_shards[out_index]
                    np.copyto(out, data.reshape(out.shape))
                    buffers[:] = data, scratch
                    stats.shard_stores += 1
                    stats.bytes_transferred += data.nbytes
                    break
                except TransientError:
                    stats.retries += 1
                    if attempt >= policy.max_attempts:
                        raise
                    policy.sleep(attempt)
                    attempt += 1

    if schedule is None:
        schedule = build_schedule(plan, local)
    state, _spare = run_stages(
        plan, machine, schedule, shard_pass, stats, tracked_empty(1 << n),
        initial_state, deadline, checkpoint, resume_from, monitor,
    )
    return StateVector(n, state), stats
