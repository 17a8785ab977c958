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
classification is **per qubit axis** (matching :func:`_project_insular`),
not per whole-gate matrix:

* a *control* on a non-local qubit selects which shards the reduced gate is
  applied to,
* a qubit along which the gate is *diagonal* (the matrix never changes that
  bit) contributes a per-shard reduced gate — even when the gate as a whole
  is not diagonal,
* a qubit along which the gate is *anti-diagonal* (X/Y-like: the bit always
  flips) exchanges amplitudes between shard pairs.  The executor realises
  this as a shard-index relabel: the shard is processed once and stored at
  its new index, so the one-load-per-stage-per-shard property still holds,
* only a qubit the gate genuinely *mixes* (e.g. an H the staging invariant
  would never place non-locally) forces the gate onto the full-state path,
  splitting the stage into extra shard passes.

The executor counts shard loads/stores so tests can verify the
one-load-per-stage-per-shard property that the paper's speedup over QDAO
rests on.

**Who owns what.**  This module owns the stage loop: :func:`build_schedule`
lowers a plan to a :class:`Schedule` — the sharded executors' *program*:
per-stage segments whose shard-local work is compiled through the plan
compiler's slots (:class:`repro.runtime.compile.SegmentStructure`) and
bound per job — and :func:`run_stages` is the one driver that walks it
(state init, resume, layout transitions, guards, checkpoints, final
un-permute) for every sharded executor.  An executor owns only its *shard
pass* — how the shards of one segment are loaded, computed and stored:
sequentially with per-shard retry in :func:`execute_plan_offloaded` here,
across a supervised worker pool in :mod:`repro.runtime.parallel`.  Neither
keeps a schedule: both take one (``schedule=``) from a caller that does —
the Session plan cache — and build it cold otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..circuits.gates import Gate
from ..cluster.machine import MachineConfig
from ..core.kernel import KernelType
from ..core.plan import ExecutionPlan
from ..errors import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    PlanValidationError,
    ReproError,
    RetryPolicy,
    TransientError,
)
from ..sim.apply import apply_gate_buffered, tracked_empty
from ..sim.fusion import apply_lowered_items, fused_unitary_cached, lower_kernel_gates
from ..sim.program import thread_workspace
from ..sim.statevector import StateVector
from . import faults
from .checkpoint import (
    CheckpointConfig,
    checkpoint_fingerprint,
    find_checkpoint,
    write_checkpoint,
)
from .compile import SegmentStructure, bind_structure
from .integrity import IntegrityMonitor
from .sharding import QubitLayout, permute_state, shard_slices

__all__ = [
    "OffloadStats",
    "Schedule",
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
    #: Segments degraded to the uncompiled per-gate path after a compile
    #: failure.
    fallbacks: int = 0
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


# ---------------------------------------------------------------------------
# Per-qubit axis classification
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16384)
def _axis_kind(gate: Gate, pos: int) -> str:
    """How *gate* acts along the axis of ``gate.qubits[pos]``.

    ``"control"``
        A declared control qubit (never mixes, gates the gate on/off).
    ``"diagonal"``
        The matrix never changes this bit: every non-zero entry has equal
        input and output bit.  True for globally diagonal gates, but also
        e.g. for the control axis of an undeclared controlled structure.
    ``"antidiagonal"``
        The matrix always flips this bit (X/Y-like axis).
    ``"mixing"``
        Amplitude genuinely moves between the two bit values — the gate
        cannot be resolved per shard along this axis.
    """
    if gate.qubits[pos] in gate.control_qubits:
        return "control"
    matrix = gate.matrix()
    rows, cols = np.nonzero(np.abs(matrix) > 1e-12)
    row_bits = (rows >> pos) & 1
    col_bits = (cols >> pos) & 1
    if np.array_equal(row_bits, col_bits):
        return "diagonal"
    if np.all(row_bits != col_bits):
        return "antidiagonal"
    return "mixing"


@lru_cache(maxsize=16384)
def _axis_table(
    gate: Gate, physical: tuple[int, ...], local_qubits: int
) -> tuple[tuple[int, int, str], ...]:
    """``(qubit, shift, kind)`` for every qubit of *gate* at a non-local
    *physical* position ``p >= local_qubits``, in ``gate.qubits`` order:
    bit ``shift = p - local_qubits`` of a shard's index is the qubit's fixed
    value on that shard, ``kind`` its :func:`_axis_kind`.  The one table the
    segmentation, the shard executors and the race detector read.
    """
    return tuple(
        (q, p - local_qubits, _axis_kind(gate, pos))
        for pos, (q, p) in enumerate(zip(gate.qubits, physical))
        if p >= local_qubits
    )


def nonlocal_axes(
    gate: Gate, logical_to_physical: dict[int, int], local_qubits: int
) -> tuple[tuple[int, int, str], ...]:
    """The :func:`_axis_table` of *gate* under the layout *logical_to_physical*."""
    return _axis_table(
        gate, tuple(logical_to_physical[q] for q in gate.qubits), local_qubits
    )


def shard_out_index(axes: tuple[tuple[int, int, str], ...], shard_index: int) -> int:
    """Where a gate with the non-local *axes* stores shard *shard_index*:
    every anti-diagonal axis flips its index bit — unless a non-local
    control bit is 0, which leaves the shard, and its index, untouched."""
    out_index = shard_index
    for _q, shift, kind in axes:
        if kind == "control":
            if not (shard_index >> shift) & 1:
                return shard_index
        elif kind == "antidiagonal":
            out_index ^= 1 << shift
    return out_index


def _is_cross_shard(gate: Gate, logical_to_physical: dict[int, int], local_qubits: int) -> bool:
    """True when *gate* cannot be resolved shard-locally and must run on the
    full state.

    That happens only when a qubit the gate *mixes* is mapped to a
    non-local physical position — something the staging invariant rules out
    for planner-produced plans.  Control, diagonal and anti-diagonal axes
    (checked **per qubit**, so e.g. a gate that is diagonal along one
    non-local qubit but not globally diagonal stays on the shard path) are
    all handled within the shard pass by :func:`_gate_on_shard`.
    """
    return any(
        kind == "mixing"
        for _q, _shift, kind in nonlocal_axes(gate, logical_to_physical, local_qubits)
    )


# ---------------------------------------------------------------------------
# Gate reduction for fixed non-local bits
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _reduced_gate(
    gate: Gate, fixed: tuple[tuple[int, int, int], ...]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduce *gate* by resolving the listed ``(qubit, bit_in, bit_out)``
    assignments.

    Control qubits are dropped (the caller only asks when the bit is 1);
    insular diagonal qubits are projected onto their fixed bit
    (``bit_out == bit_in``); anti-diagonal qubits are projected onto the
    flipped transition (``bit_out == 1 - bit_in``).  Memoized so every
    shard that resolves the same gate the same way shares one matrix object
    (which also keeps the apply-engine's dispatch analysis warm).
    """
    matrix = gate.matrix()
    qubits = list(gate.qubits)
    control_set = set(gate.control_qubits)
    for q, bit_in, bit_out in fixed:
        if q in control_set:
            matrix, qubits = _drop_control(matrix, qubits, q)
        else:
            matrix, qubits = _project_insular(matrix, qubits, q, bit_in, bit_out)
    matrix = np.ascontiguousarray(matrix)
    matrix.setflags(write=False)
    return matrix, tuple(qubits)


def _gate_on_shard(
    shard: np.ndarray,
    scratch: np.ndarray,
    gate: Gate,
    logical_to_physical: dict[int, int],
    local_qubits: int,
    shard_index: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply *gate* to one shard, resolving insular non-local qubits.

    The shard contents ping-pong between the two buffers; returns
    ``(shard, scratch, new_shard_index)``.  The buffers are unchanged when
    a controlled gate whose non-local control bit is 0 leaves the shard
    untouched; the index changes when an anti-diagonal non-local axis
    relabels the shard (the caller must store the shard at the new index).
    """
    physical = tuple(logical_to_physical[q] for q in gate.qubits)
    axes = _axis_table(gate, physical, local_qubits)
    if not axes:
        data, scratch = apply_gate_buffered(shard, scratch, gate.matrix(), physical)
        return data, scratch, shard_index

    # Some qubits are non-local; resolve each axis from the shard's fixed
    # high-order bits.
    fixed: list[tuple[int, int, int]] = []
    for q, shift, kind in axes:
        bit = (shard_index >> shift) & 1
        if kind == "control":
            if bit == 0:
                # Unsatisfied non-local control: the shard is untouched.
                return shard, scratch, shard_index
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
    out_index = shard_out_index(axes, shard_index)
    matrix, reduced_qubits = _reduced_gate(gate, tuple(fixed))
    if not reduced_qubits:
        # Pure phase on this shard (possibly plus a shard relabel).
        shard *= matrix[0, 0]
        return shard, scratch, out_index
    reduced_physical = [logical_to_physical[q] for q in reduced_qubits]
    if any(p >= local_qubits for p in reduced_physical):
        raise PlanValidationError(
            f"gate {gate} has a non-insular qubit mapped to a non-local position"
        )
    data, scratch = apply_gate_buffered(shard, scratch, matrix, reduced_physical)
    return data, scratch, out_index


def _drop_control(matrix: np.ndarray, qubits: list[int], control: int) -> tuple[np.ndarray, list[int]]:
    """Remove a satisfied control qubit from a gate matrix."""
    pos = qubits.index(control)
    k = len(qubits)
    dim = 1 << k
    keep = [i for i in range(dim) if (i >> pos) & 1]
    reduced = matrix[np.ix_(keep, keep)]
    new_qubits = [q for q in qubits if q != control]
    return np.ascontiguousarray(reduced), new_qubits


def _project_insular(
    matrix: np.ndarray, qubits: list[int], qubit: int, bit_in: int, bit_out: int
) -> tuple[np.ndarray, list[int]]:
    """Project an insular qubit onto the fixed ``bit_in -> bit_out`` transition.

    For a diagonal axis ``bit_out == bit_in`` and projection keeps the
    ``bit -> bit`` block; for an anti-diagonal axis ``bit_out == 1 -
    bit_in`` and projection keeps the flip block.  Amplitude leaving the
    projected transition would leak between shards, so the projection is
    verified to be exact (for a unitary matrix the one-sided check
    suffices).
    """
    pos = qubits.index(qubit)
    k = len(qubits)
    dim = 1 << k
    rows_in = [i for i in range(dim) if ((i >> pos) & 1) == bit_in]
    rows_out = [i for i in range(dim) if ((i >> pos) & 1) == bit_out]
    block = matrix[np.ix_(rows_out, rows_in)]
    other = [i for i in range(dim) if ((i >> pos) & 1) != bit_out]
    if other and np.max(np.abs(matrix[np.ix_(other, rows_in)])) > 1e-12:
        raise PlanValidationError(
            f"gate matrix mixes amplitudes along qubit {qubit}; it cannot be "
            f"resolved per shard"
        )
    new_qubits = [q for q in qubits if q != qubit]
    return np.ascontiguousarray(block), new_qubits


# ---------------------------------------------------------------------------
# Stage segmentation (shared with the parallel runtime)
# ---------------------------------------------------------------------------


def stage_gate_groups(stage) -> list[tuple[list[Gate], object]]:
    """The stage's kernels as ``(gates, kernel_type)`` groups (one
    single-gate group with ``None`` type per gate of an un-kernelized
    stage)."""
    if stage.kernels is None:
        return [([g], None) for g in stage.gates]
    return [(list(k.gates), k.kernel_type) for k in stage.kernels]


def split_stage_segments(
    stage,
    logical_to_physical: dict[int, int],
    local_qubits: int,
) -> list[tuple[str, object]]:
    """Split a stage's kernel list into shard-parallel and full-state segments.

    Returns ``("shards", groups)`` segments — runs of ``(gates,
    kernel_type)`` groups every shard processes independently — separated by
    ``("full", gate)`` segments for gates that genuinely mix amplitudes
    across shards (hand-built plans only; staged plans never produce them).
    A kernel holding such a gate is split around it, order preserved; its
    pieces lose the kernel type and run like a shared-memory kernel.
    """
    segments: list[tuple[str, object]] = []
    current: list[tuple[list[Gate], object]] = []
    for gates, ktype in stage_gate_groups(stage):
        crossing = [_is_cross_shard(g, logical_to_physical, local_qubits) for g in gates]
        if not any(crossing):
            current.append((gates, ktype))
            continue
        run: list[Gate] = []
        for gate, crosses in zip(gates, crossing):
            if not crosses:
                run.append(gate)
                continue
            if run:
                current.append((run, None))
                run = []
            if current:
                segments.append(("shards", current))
                current = []
            segments.append(("full", gate))
        if run:
            current.append((run, None))
    if current:
        segments.append(("shards", current))
    return segments


def segment_relabels_shards(
    groups: list[tuple[list[Gate], object]],
    logical_to_physical: dict[int, int],
    local_qubits: int,
) -> bool:
    """True when any gate of a shards-segment relabels shard indices — has
    an anti-diagonal axis on a non-local qubit — so stores must target a
    second DRAM array rather than update in place."""
    return any(
        kind == "antidiagonal"
        for gates, _ in groups
        for gate in gates
        for _q, _shift, kind in nonlocal_axes(gate, logical_to_physical, local_qubits)
    )


def group_uses_fusion(
    gates: list[Gate],
    ktype,
    logical_to_physical: dict[int, int],
    local_qubits: int,
) -> bool:
    """Whether a kernel group can be applied as one fused local matrix."""
    return ktype is KernelType.FUSION and all(
        logical_to_physical[q] < local_qubits
        for gate in gates
        for q in gate.qubits
    )


def _local_runs(
    gates: list[Gate], logical_to_physical: dict[int, int], local_qubits: int
):
    """Split a kernel group's gates, in order, into ``("local", gates)`` —
    maximal runs acting on local physical positions only — and
    ``("dynamic", gate)`` for each gate touching a non-local qubit (its
    reduction depends on the shard index, see :func:`_gate_on_shard`)."""
    run: list[Gate] = []
    for gate in gates:
        if all(logical_to_physical[q] < local_qubits for q in gate.qubits):
            run.append(gate)
            continue
        if run:
            yield "local", tuple(run)
            run = []
        yield "dynamic", gate
    if run:
        yield "local", tuple(run)


class SegmentOps(list):
    """A shards-segment's bound per-shard stream — ``("local", op)`` /
    ``("dynamic", gate)`` entries for :func:`run_segment_ops` — with the
    structure it was bound from, which the next job's rebind fills again."""

    __slots__ = ("structure",)


def compile_segment_ops(
    groups: list[tuple[list[Gate], object]],
    logical_to_physical: dict[int, int],
    local_qubits: int,
    reuse: SegmentOps | None = None,
) -> SegmentOps:
    """Compile a shards-segment's kernel groups into per-shard ops.

    The segment is cut at the shard boundary — a fusion kernel wholly on
    local positions, runs of local gates of the other kernels, and the
    gates touching a non-local qubit between them — and compiled like a
    plan over ``2^L`` buffers: the local pieces lower **once** to
    :class:`~repro.sim.program.CompiledOp` closures through the slots of a
    :class:`~repro.runtime.compile.SegmentStructure`, so every shard of
    every execution replays a pre-resolved stream; the gates touching
    non-local qubits keep the dynamic per-shard path (their reduction
    depends on the shard index) and bound the runs.  *reuse* — this segment
    of an earlier job of the same structure — is admitted and bound as
    ``compile_plan(reuse=)`` binds a program: ops whose gates compare equal
    are taken verbatim, the rest refilled, a segment that does not have the
    structure built cold.
    """
    faults.check("compile")
    pieces: list[tuple[str, tuple[Gate, ...]]] = []
    for gates, ktype in groups:
        if group_uses_fusion(gates, ktype, logical_to_physical, local_qubits):
            pieces.append(("fused", tuple(gates)))
            continue
        for kind, payload in _local_runs(gates, logical_to_physical, local_qubits):
            pieces.append((kind, payload if kind == "local" else (payload,)))
    structure, bound, _reused, _rebound = bind_structure(
        None if reuse is None else (reuse.structure, [payload for _kind, payload in reuse]),
        lambda held: held.admit(pieces, logical_to_physical, local_qubits),
        lambda: (
            SegmentStructure(pieces, logical_to_physical, local_qubits),
            [gates for _kind, gates in pieces],
        ),
    )
    ops = SegmentOps(
        ("dynamic" if isinstance(op, Gate) else "local", op) for op in bound
    )
    ops.structure = structure
    return ops


def run_segment_ops(
    data: np.ndarray,
    scratch: np.ndarray,
    ops: list[tuple[str, object]],
    logical_to_physical: dict[int, int],
    local_qubits: int,
    shard_index: int,
    workspace=None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply a compiled shards-segment (:func:`compile_segment_ops`) to one
    loaded shard.  Same contract as :func:`run_groups_on_shard`; compiled
    local ops make the hot loop a tight pre-resolved dispatch.  *workspace*
    defaults to the calling thread's private buffer set, keeping concurrent
    shard workers race-free.
    """
    if workspace is None:
        workspace = thread_workspace()
    faults.check("kernel_apply", shard=shard_index)
    index = shard_index
    for kind, payload in ops:
        if kind == "local":
            data, scratch = payload.run(data, scratch, workspace)
        else:
            data, scratch, index = _gate_on_shard(
                data, scratch, payload, logical_to_physical, local_qubits, index
            )
    return data, scratch, index


def run_groups_on_shard(
    data: np.ndarray,
    scratch: np.ndarray,
    groups: list[tuple[list[Gate], object]],
    logical_to_physical: dict[int, int],
    local_qubits: int,
    shard_index: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Apply a shards-segment's kernel groups to one loaded shard.

    Returns the final ``(data, scratch, shard_index)`` — the index may
    differ from the input when anti-diagonal non-local axes relabelled the
    shard; the caller stores the shard at the returned index.
    """
    faults.check("kernel_apply", shard=shard_index)
    index = shard_index
    for gates, ktype in groups:
        if group_uses_fusion(gates, ktype, logical_to_physical, local_qubits):
            matrix, logical_qubits = fused_unitary_cached(tuple(gates))
            physical = [logical_to_physical[q] for q in logical_qubits]
            data, scratch = apply_gate_buffered(data, scratch, matrix, physical)
            continue
        for kind, payload in _local_runs(gates, logical_to_physical, local_qubits):
            if kind == "dynamic":
                data, scratch, index = _gate_on_shard(
                    data, scratch, payload, logical_to_physical, local_qubits, index
                )
            else:
                data, scratch = apply_lowered_items(
                    data, scratch, lower_kernel_gates(payload, logical_to_physical),
                    logical_to_physical,
                )
    return data, scratch, index


# ---------------------------------------------------------------------------
# Stage schedule and the stage driver (shared by every sharded executor)
# ---------------------------------------------------------------------------


class Segment(NamedTuple):
    """One segment of a stage: ``("full", gate, None, False)``, or
    ``("shards", groups, ops, relabels)`` with *ops* the groups' compiled
    per-shard stream — ``None`` after a failed compile, which degrades the
    segment to the uncompiled per-gate path (shard passes branch on it) —
    and *relabels* whether its stores need the second DRAM array
    (:func:`segment_relabels_shards`)."""

    kind: str
    payload: object
    ops: SegmentOps | None
    relabels: bool


@dataclass
class Schedule:
    """A plan lowered for the sharded executors: what they run, as a
    :class:`~repro.sim.program.CompiledProgram` is what the in-core one
    does."""

    #: Per stage ``(logical_to_physical, segments)``.
    stages: list[tuple[dict[int, int], list[Segment]]]
    #: Segments degraded to the uncompiled path by a compile failure.
    fallbacks: int = 0
    #: Whether every shards-segment was bound over the ``reuse`` schedule's
    #: structure (false for a cold build, and when any segment was).
    rebound: bool = False


def build_schedule(
    plan: ExecutionPlan, local_qubits: int, reuse: Schedule | None = None
) -> Schedule:
    """Lower *plan* to a :class:`Schedule`: the layout walk, each stage's
    :func:`split_stage_segments`, and every shards-segment's local work
    compiled **once** (:func:`compile_segment_ops`), so every shard of
    every execution replays the compiled stream instead of re-deriving
    fusion, analysis and gemm planning.

    *reuse* is an earlier schedule of the same structure (the Session plan
    cache's, for a parameter sweep): segment by segment its structures are
    admitted and bound to this plan's gates, and whatever does not match —
    or was degraded there — is built cold, so the result equals a cold
    build bit for bit and never carries another circuit's angles.  A
    failed compile degrades that segment instead of failing the run, and
    is counted in ``fallbacks``.
    """
    layout = QubitLayout(plan.num_qubits)
    stages = []
    fallbacks = 0
    rebound = reuse is not None
    for stage_index, stage in enumerate(plan.stages):
        layout.update(stage.partition.logical_to_physical())
        logical_to_physical = layout.logical_to_physical()
        held = (
            reuse.stages[stage_index][1]
            if reuse is not None and stage_index < len(reuse.stages) else ()
        )
        segments = []
        for index, (kind, payload) in enumerate(
            split_stage_segments(stage, logical_to_physical, local_qubits)
        ):
            if kind == "full":
                segments.append(Segment(kind, payload, None, False))
                continue
            old = held[index].ops if index < len(held) else None
            ops = None
            try:
                ops = compile_segment_ops(payload, logical_to_physical, local_qubits, old)
            except ReproError:
                fallbacks += 1
            rebound = rebound and None not in (ops, old) and ops.structure is old.structure
            segments.append(Segment(
                kind, payload, ops,
                segment_relabels_shards(payload, logical_to_physical, local_qubits),
            ))
        stages.append((logical_to_physical, segments))
    return Schedule(stages, fallbacks, rebound)


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
    resume, layout transitions, full-state segments, relabel swaps and the
    final un-permute, over a *schedule* from :func:`build_schedule`.  An
    executor supplies ``shard_pass(shards, out_shards, ops, groups,
    logical_to_physical, deadline)``, which must process every shard of
    ``shards`` exactly once and store shard ``i`` at ``out_shards[j]`` for
    the index ``j`` its kernels return, and the DRAM-side *state_scratch*
    (permutations, cross-shard gates and relabelled stores ping-pong
    between it and the one state array allocated here).  Returns ``(state,
    spare)``: the final amplitudes in logical order and the other array,
    which the executor may keep as its next scratch.

    The guards run inline, in this order, for every stage:

    1. ``deadline.check("stage")`` (then ``"segment"`` before each segment;
       the shard pass checks ``"shard"``);
    2. ``monitor.stage_begin`` — the state is bit-identical to what the
       previous ``stage_complete`` saw;
    3. layout transition, then the stage's segments;
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
    state = tracked_empty(1 << n)
    if initial_state is None:
        state[:] = 0.0
        state[0] = 1.0
    else:
        if initial_state.num_qubits != n:
            raise PlanValidationError("initial state size does not match plan")
        initial_state.copy_into(state)
    layout = QubitLayout(n)

    def relayout(target: dict[int, int]) -> None:
        nonlocal state, state_scratch
        if target != layout.logical_to_physical():
            permuted = permute_state(state, layout, target, out=state_scratch)
            if permuted is not state:
                state, state_scratch = permuted, state
            layout.update(target)

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

    for stage_index in range(start_stage, len(schedule.stages)):
        logical_to_physical, segments = schedule.stages[stage_index]
        deadline.check("stage")
        if mon is not None:
            mon.stage_begin(state, stage_index)
        relayout(logical_to_physical)

        stage_loads = 0
        for kind, payload, segment_ops, relabels in segments:
            deadline.check("segment")
            if kind == "full":
                state, state_scratch = apply_lowered_items(
                    state, state_scratch,
                    lower_kernel_gates((payload,), logical_to_physical),
                    logical_to_physical,
                )
                continue
            shards = shard_slices(state, local)
            # Relabelled shards land at new indices, so they are stored into
            # the second DRAM array (every index is written exactly once —
            # the relabel map is a bijection) and the arrays swap after the
            # pass.  Without relabels shards are updated in place.
            out_shards = shard_slices(state_scratch, local) if relabels else shards
            shard_pass(
                shards, out_shards, segment_ops, payload, logical_to_physical,
                deadline,
            )
            stage_loads += len(shards)
            if relabels:
                state, state_scratch = state_scratch, state
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
    computation finished), a failed segment-op compile degrades to the
    uncompiled per-gate path, and *deadline* is checked cooperatively at
    stage/segment/shard boundaries (:class:`repro.errors.DeadlineExceeded`).

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
    one it is built cold here.  ``stats.fallbacks`` counts the segments of
    the schedule that ran degraded.
    """
    n = plan.num_qubits
    machine.validate(n)
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    local = machine.local_qubits
    stats = OffloadStats(num_shards=1 << (n - local))
    # The GPU-side buffer pair shard contents ping-pong through; with the
    # driver's two DRAM arrays that is O(1) allocations per execution.
    buffers = [tracked_empty(1 << local), tracked_empty(1 << local)]

    def shard_pass(shards, out_shards, segment_ops, groups, logical_to_physical, deadline):
        for shard_index, shard in enumerate(shards):
            # Transient failures retry from the DRAM shard, which is
            # untouched until the store below succeeds.
            attempt = 1
            while True:
                try:
                    deadline.check("shard")
                    faults.check("shard_load", shard=shard_index)
                    data, scratch = buffers
                    np.copyto(data, shard)
                    stats.shard_loads += 1
                    stats.bytes_transferred += data.nbytes

                    if segment_ops is not None:
                        data, scratch, out_index = run_segment_ops(
                            data, scratch, segment_ops, logical_to_physical,
                            local, shard_index,
                        )
                    else:
                        data, scratch, out_index = run_groups_on_shard(
                            data, scratch, groups, logical_to_physical,
                            local, shard_index,
                        )

                    faults.check("shard_store", shard=shard_index)
                    out_shards[out_index][:] = data
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
    stats.fallbacks = schedule.fallbacks
    state, _spare = run_stages(
        plan, machine, schedule, shard_pass, stats, tracked_empty(1 << n),
        initial_state, deadline, checkpoint, resume_from, monitor,
    )
    return StateVector(n, state), stats
