"""Static race detection for parallel shard schedules.

The offload/parallel runtimes rely on one property for correctness without
locks: within a barrier interval (one shards-segment of one stage), the
DRAM write-slice footprints of all workers are pairwise disjoint.  Shards
are round-robined to workers, each worker stores every shard it processed
at its (possibly relabelled) output index, and — when a segment relabels —
the per-segment relabel map must be a bijection so the second DRAM array
is written exactly once per slice.  PR 6's quarantine/redistribution keeps
the *assignment* a partition of the shard set; nothing before this module
ever proved the property.

:func:`verify_schedule` proves it statically: it replays the layout walk
and the stage segmentation exactly as the runtimes do, computes every
shard's output index symbolically (from the executors' own non-local axis
table and :func:`repro.runtime.offload.shard_out_index` — control gating
and anti-diagonal flips — without touching any amplitude data), and
checks (1) the worker assignment covers every shard exactly once and stays
in bounds, (2) the relabel map of every relabelling segment is a
bijection, (3) segments flagged non-relabelling really have the identity
map (their in-place stores depend on it), (4) per-worker write footprints
are pairwise disjoint, and (5) no shard-resolved gate actually mixes
amplitudes across shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .report import CheckReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits.gates import Gate
    from ..cluster.machine import MachineConfig
    from ..core.plan import ExecutionPlan

__all__ = ["round_robin_assignment", "shard_write_map", "verify_schedule"]


def round_robin_assignment(num_shards: int, num_workers: int) -> dict[int, list[int]]:
    """The runtimes' default shard→worker assignment: worker ``w`` takes
    shards ``w, w+W, w+2W, ...`` (matching
    :class:`repro.runtime.parallel.ParallelRuntime`)."""
    width = max(1, min(num_workers, num_shards))
    return {w: list(range(w, num_shards, width)) for w in range(width)}


def shard_write_map(
    gates: "Sequence[Gate]",
    logical_to_physical: dict[int, int],
    local_qubits: int,
    num_shards: int,
) -> tuple[list[int], list[str]]:
    """The output index of every shard after applying *gates*, computed
    symbolically.

    Index for index what :func:`repro.runtime.offload._gate_on_shard`
    returns, because both read one axis table
    (:func:`~repro.runtime.offload.nonlocal_axes`) through one rule
    (:func:`~repro.runtime.offload.shard_out_index`): a gate whose
    non-local control bit is 0 on a shard leaves that shard's index
    untouched; an anti-diagonal non-local axis flips the corresponding
    index bit; the index threads through the gate sequence so later gates
    read the relabelled bits.  The map is computed from the
    segment's gates, not from the ops they lower to: the executors lower
    only runs of gates on local positions
    (:func:`repro.runtime.offload.compile_segment_ops`) — each run one
    ``sm`` kernel op, in place over the union of its gates' physical
    positions, or one fused op — so no op touches a shard-index bit, and
    the gates that do are never folded nor reordered against each
    other.  Returns ``(write_map, mixing)``
    where ``mixing`` lists descriptions of gates that mix amplitudes along
    a non-local axis (unresolvable per shard — a planner invariant
    violation).
    """
    from ..runtime.offload import nonlocal_axes, shard_out_index

    tables = [nonlocal_axes(gate, logical_to_physical, local_qubits) for gate in gates]
    mixing: dict[str, str] = {}
    for gate, axes in zip(gates, tables):
        for q, _shift, kind in axes:
            if kind == "mixing":
                mixing.setdefault(
                    f"{gate}",
                    f"gate {gate} mixes amplitudes along non-local qubit {q}",
                )
    moving = [axes for axes in tables if axes]  # all-local gates move no shard
    write_map: list[int] = []
    for shard_index in range(num_shards):
        index = shard_index
        for axes in moving:
            index = shard_out_index(axes, index)
        write_map.append(index)
    return write_map, list(mixing.values())


def _segment_gates(groups: "list[tuple[list[Gate], str]]") -> "list[Gate]":
    return [g for gates, _ktype in groups for g in gates]


def _check_assignment(
    report: CheckReport,
    assignment: dict[int, list[int]],
    num_shards: int,
    stage_idx: int,
    segment_idx: int,
) -> None:
    seen: dict[int, list[int]] = {}
    for worker, shards in assignment.items():
        local_seen: set[int] = set()
        for shard in shards:
            if not 0 <= shard < num_shards:
                report.add(
                    "schedule.out-of-range",
                    f"worker {worker} is assigned shard {shard} but the "
                    f"segment has only {num_shards} shards — an orphan "
                    f"prefetch-write outside the DRAM slices",
                    site="schedule.out-of-range",
                    stage=stage_idx,
                    segment=segment_idx,
                    worker=worker,
                )
                continue
            if shard in local_seen:
                report.add(
                    "schedule.duplicate-assignment",
                    f"worker {worker} is assigned shard {shard} twice — its "
                    f"double-buffered prefetch would load and store the "
                    f"slice twice in one barrier interval",
                    site="schedule.duplicate-assignment",
                    stage=stage_idx,
                    segment=segment_idx,
                    worker=worker,
                )
            local_seen.add(shard)
            seen.setdefault(shard, []).append(worker)
    for shard, workers in sorted(seen.items()):
        if len(workers) > 1:
            report.add(
                "schedule.duplicate-assignment",
                f"shard {shard} is assigned to workers {workers} — "
                f"concurrent loads and stores of one DRAM slice",
                site="schedule.duplicate-assignment",
                stage=stage_idx,
                segment=segment_idx,
                shard=shard,
            )
    orphans = sorted(set(range(num_shards)) - set(seen))
    if orphans:
        report.add(
            "schedule.orphan-shard",
            f"shard(s) {orphans} are assigned to no worker — their slices "
            f"would carry stale amplitudes through the barrier",
            site="schedule.orphan-shard",
            stage=stage_idx,
            segment=segment_idx,
            orphans=orphans,
        )


def _check_write_disjointness(
    report: CheckReport,
    assignment: dict[int, list[int]],
    write_map: list[int],
    num_shards: int,
    stage_idx: int,
    segment_idx: int,
) -> None:
    writers: dict[int, int] = {}
    for worker, shards in sorted(assignment.items()):
        for shard in shards:
            if not 0 <= shard < num_shards:
                continue  # reported by the assignment check
            out = write_map[shard]
            prev = writers.get(out)
            if prev is not None and prev != worker:
                report.add(
                    "schedule.overlap",
                    f"workers {prev} and {worker} both write DRAM slice "
                    f"{out} in one barrier interval — a data race",
                    site="schedule.overlap",
                    stage=stage_idx,
                    segment=segment_idx,
                    slice=out,
                )
            writers[out] = worker


def verify_schedule(
    plan: "ExecutionPlan",
    machine: "MachineConfig",
    num_workers: int = 1,
    assignments: Optional[dict[int, list[int]]] = None,
) -> CheckReport:
    """Statically verify the parallel shard schedule *plan* induces.

    Replays each stage's layout and segmentation exactly as
    :func:`repro.runtime.offload.execute_plan_offloaded` and
    :class:`repro.runtime.parallel.ParallelRuntime` do, then proves the
    write-exclusivity properties listed in the module docstring.
    *assignments* overrides the default round-robin shard→worker map for
    every shards-segment (the hook the differential tests use to model a
    corrupted redistribution).
    """
    from ..runtime.offload import segment_relabels_shards, split_stage_segments
    from ..runtime.sharding import QubitLayout

    report = CheckReport(target="schedule")
    report.checks_run += [
        "assignment", "relabel-bijection", "relabel-flag", "write-disjointness",
        "mixing",
    ]
    n = plan.num_qubits
    local = machine.local_qubits if machine.local_qubits < n else n
    num_shards = 1 << (n - local)

    layout = QubitLayout(n)
    for stage_idx, stage in enumerate(plan.stages):
        target = stage.partition.logical_to_physical()
        if target != layout.logical_to_physical():
            layout.update(target)
        l2p = layout.logical_to_physical()
        segments = split_stage_segments(stage, l2p, local)
        for segment_idx, (kind, payload) in enumerate(segments):
            if kind != "shards":
                continue  # full-state segments run single-threaded
            assignment = (
                assignments if assignments is not None
                else round_robin_assignment(num_shards, num_workers)
            )
            _check_assignment(report, assignment, num_shards, stage_idx, segment_idx)
            gates = _segment_gates(payload)
            write_map, mixing = shard_write_map(gates, l2p, local, num_shards)
            for message in mixing:
                report.add(
                    "schedule.mixing",
                    message + " — it cannot run in a shards-segment",
                    site="schedule.mixing",
                    stage=stage_idx,
                    segment=segment_idx,
                )
            relabels = segment_relabels_shards(payload, l2p, local)
            identity = write_map == list(range(num_shards))
            if not relabels and not identity:
                report.add(
                    "schedule.relabel-flag",
                    "segment is flagged non-relabelling (in-place stores) "
                    "but its write map is not the identity",
                    site="schedule.relabel-flag",
                    stage=stage_idx,
                    segment=segment_idx,
                )
            if relabels and sorted(write_map) != list(range(num_shards)):
                missed = sorted(set(range(num_shards)) - set(write_map))
                report.add(
                    "schedule.relabel-bijection",
                    f"segment relabel map is not a bijection: slices "
                    f"{missed} are never written while others are written "
                    f"more than once",
                    site="schedule.relabel-bijection",
                    stage=stage_idx,
                    segment=segment_idx,
                    write_map=list(write_map),
                )
            _check_write_disjointness(
                report, assignment, write_map, num_shards, stage_idx, segment_idx
            )
    return report
