"""Static race detection for parallel shard schedules.

The offload/parallel runtimes rely on one property for correctness without
locks: within a barrier interval (the one shard pass of a stage), the DRAM
write-slice footprints of all workers are pairwise disjoint.  Shards are
round-robined to workers, each worker stores every shard it processed at
its (possibly relabelled) output index, and — when a pass relabels — the
pass's relabel map must be a bijection so the second DRAM array is written
exactly once per slice.  Quarantine and redistribution keep the
*assignment* a partition of the shard set; this module proves the
property.

A pass that carries a stage boundary reads or writes DRAM through
strided views instead of contiguous slices: a gather-in loads the stage's
shards from the array still in the previous layout, a scatter-out stores
them into the second array in the next layout
(:func:`repro.runtime.sharding.shard_views`).

:func:`verify_schedule` proves it statically over the
:class:`~repro.runtime.offload.Schedule` the executors run — one pass
per stage, its store flag, recorded boundary moves and recorded write map
(the index every shard is stored at, which the executors read off the
compiled segment: ``Segment.ops.write_map``), read as they are and not
re-derived, without touching any amplitude data — and checks (1)
the worker assignment covers every shard exactly once and stays in bounds,
(2) the relabel map of every pass that stores out of place is a
bijection, (3) passes flagged in place really have the identity map and
move no layout (their in-place stores depend on both), (4) every gather-in
and scatter-out view set partitions the ``2^n`` amplitudes, (5) per-worker
write footprints are pairwise disjoint, and (6) no shard-resolved gate
actually mixes amplitudes across shards (the schedule build refuses such a
plan; the check holds for a schedule edited after it was built).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

from ..circuits.gates import stray_qubits
from .report import CheckReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.machine import MachineConfig
    from ..core.plan import ExecutionPlan
    from ..runtime.offload import Schedule

__all__ = ["round_robin_assignment", "verify_schedule"]


def round_robin_assignment(num_shards: int, num_workers: int) -> dict[int, list[int]]:
    """The runtimes' default shard→worker assignment: worker ``w`` takes
    shards ``w, w+W, w+2W, ...`` (matching
    :class:`repro.runtime.parallel.ParallelRuntime`)."""
    width = max(1, min(num_workers, num_shards))
    return {w: list(range(w, num_shards, width)) for w in range(width)}


def _view_partition_defect(mapping: dict[int, int], n: int) -> Optional[str]:
    """Why shard views through the layout *mapping* would not partition the
    ``2^n`` amplitudes, or ``None`` when they do.

    A view fixes the amplitudes' bits at the positions the non-local
    qubits take and runs over the rest, so the views are pairwise disjoint
    with a complete union exactly when *mapping* places each of the ``n``
    qubits on its own position of ``0..n-1``: two qubits on one position
    make two shards' views overlap there, and a position no qubit takes
    is an index bit no shard ever sets.
    """
    if sorted(mapping) != list(range(n)):
        return f"it places qubits {sorted(mapping)}, not 0..{n - 1}"
    taken = Counter(mapping.values())
    shared = sorted(p for p, count in taken.items() if count > 1)
    missing = sorted(set(range(n)) - set(taken))
    if shared or missing:
        return (
            f"positions {shared} hold two qubits each and {missing} none: "
            f"shard views overlap and amplitudes with bits {missing} set are "
            f"in no view"
        )
    return None


def _check_assignment(
    report: CheckReport,
    assignment: dict[int, list[int]],
    num_shards: int,
    stage_idx: int,
) -> None:
    seen: dict[int, list[int]] = {}
    for worker, shards in assignment.items():
        local_seen: set[int] = set()
        for shard in shards:
            if not 0 <= shard < num_shards:
                report.add(
                    "schedule.out-of-range",
                    f"worker {worker} is assigned shard {shard} but the "
                    f"pass has only {num_shards} shards — an orphan "
                    f"prefetch-write outside the DRAM slices",
                    site="schedule.out-of-range",
                    stage=stage_idx,
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
            orphans=orphans,
        )


def _check_write_disjointness(
    report: CheckReport,
    assignment: dict[int, list[int]],
    write_map: list[int],
    num_shards: int,
    stage_idx: int,
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
                    slice=out,
                )
            writers[out] = worker


def verify_schedule(
    plan: "ExecutionPlan",
    machine: "MachineConfig",
    num_workers: int = 1,
    assignments: Optional[dict[int, list[int]]] = None,
    schedule: "Schedule | None" = None,
) -> CheckReport:
    """Statically verify the parallel shard schedule of *plan*.

    Reads *schedule* — the :func:`repro.runtime.offload.build_schedule`
    of *plan* that :func:`repro.runtime.offload.execute_plan_offloaded`
    and :class:`repro.runtime.parallel.ParallelRuntime` run; built here
    when not given — one pass per stage, then proves the write-exclusivity
    properties listed in the module docstring.  *assignments* overrides
    the default round-robin shard→worker map for every pass (the hook the
    differential tests use to model a corrupted redistribution).
    """
    from ..runtime.offload import build_schedule

    report = CheckReport(target="schedule")
    report.checks_run += [
        "assignment", "relabel-bijection", "relabel-flag", "transition-partition",
        "transition-in-place", "write-disjointness", "mixing",
    ]
    n = plan.num_qubits
    local = machine.local_qubits if machine.local_qubits < n else n
    num_shards = 1 << (n - local)
    if schedule is None:
        schedule = build_schedule(plan, local)

    assignment = (
        assignments if assignments is not None
        else round_robin_assignment(num_shards, num_workers)
    )
    for stage_idx, (l2p, segment) in enumerate(schedule.stages):
        if segment is None:
            continue  # a stage without gates runs no pass
        _check_assignment(report, assignment, num_shards, stage_idx)
        write_map = segment.ops.write_map
        mixing = {}
        for gate in segment.payload:
            bad = stray_qubits(gate.non_insular_qubits(), l2p, local)
            if bad:
                mixing[f"{gate}"] = bad[0]
        for gate, q in mixing.items():
            report.add(
                "schedule.mixing",
                f"gate {gate} mixes amplitudes along non-local qubit {q} — "
                f"it cannot run in a shard pass",
                site="schedule.mixing",
                stage=stage_idx,
            )
        moves = {"gather-in": segment.load_from, "scatter-out": segment.store_to}
        for move, other in moves.items():
            if other is None:
                continue
            for layout in (l2p, other):
                defect = _view_partition_defect(layout, n)
                if defect is not None:
                    report.add(
                        "schedule.transition-partition",
                        f"{move} views do not partition the 2^{n} "
                        f"amplitudes: {defect}",
                        site="schedule.transition-partition",
                        stage=stage_idx,
                        layout=dict(layout),
                    )
            if segment.in_place:
                report.add(
                    "schedule.transition-in-place",
                    f"a {move} pass is flagged in place: its stores "
                    f"would overwrite amplitudes other shards still load",
                    site="schedule.transition-in-place",
                    stage=stage_idx,
                )
        identity = write_map == list(range(num_shards))
        if segment.in_place and not identity:
            report.add(
                "schedule.relabel-flag",
                "pass is flagged in place but its write map is not "
                "the identity",
                site="schedule.relabel-flag",
                stage=stage_idx,
            )
        if not segment.in_place and sorted(write_map) != list(range(num_shards)):
            missed = sorted(set(range(num_shards)) - set(write_map))
            report.add(
                "schedule.relabel-bijection",
                f"pass relabel map is not a bijection: slices "
                f"{missed} are never written while others are written "
                f"more than once",
                site="schedule.relabel-bijection",
                stage=stage_idx,
                write_map=list(write_map),
            )
        _check_write_disjointness(report, assignment, write_map, num_shards, stage_idx)
    return report
