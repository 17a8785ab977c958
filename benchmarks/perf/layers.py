"""Where the traced run hooks into each layer, and what it reports.

:func:`build_tracer` lists, layer by layer, the public callable wrapped and
the attribute its caller looks it up through.  :func:`layer_metrics` turns
the collected spans plus the program's public stat objects
(``SessionStats``, ``OffloadStats``, ``Result.plan`` / ``Result.timing``,
``service.stats()``) into the per-layer metrics of ``BENCHMARK.json``.

Unless a name says otherwise a ``*.s`` metric is the span's **self time**
in calibrated seconds per traced job, so the metrics of one workload add
up to (at most) its traced job time.  The exceptions are inclusive on
purpose: ``planner.pass.*.s`` (what ``PartitionReport.pass_seconds``
shows), ``runtime.*.job.s`` and the two ``sim.*.run.s`` (leaf spans).
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict

import repro.core.stage as core_stage
import repro.planner.passes as planner_passes
import repro.runtime.offload as rt_offload
import repro.runtime.parallel as rt_parallel
import repro.service.service as service_mod
import repro.session.backends as backends_mod
import repro.session.session as session_mod
from repro.circuits import Circuit
from repro.planner import PassManager
from repro.runtime.parallel import ParallelRuntime
from repro.service import JobJournal, SharedPlanStore, SimulationService
from repro.service.admission import AdmissionController
from repro.service.scheduling import FairShareScheduler
from repro.session import Session
from repro.sim import CompiledProgram

from spans import Tracer

SCHEDULER_THREAD = "repro-service-scheduler"


# ---------------------------------------------------------------------------
# Hook sites
# ---------------------------------------------------------------------------


def build_tracer() -> Tracer:
    tracer = Tracer()
    site = tracer.add_site
    job_ids = itertools.count(1)
    #: id(circuit) -> job id, for jobs that change threads (the service).
    submitted: dict[int, int] = {}

    def first_circuit(circuits):
        return circuits if isinstance(circuits, Circuit) else circuits[0]

    def enter_submit(tracer, args, kwargs):
        job = next(job_ids)
        submitted[id(first_circuit(args[1]))] = job
        tracer.set_job(job)

    def enter_session_run(tracer, args, kwargs):
        job = submitted.pop(id(first_circuit(args[1])), None)
        if job is not None:
            tracer.set_job(job)
        elif threading.current_thread().name != SCHEDULER_THREAD:
            tracer.set_job(next(job_ids))  # a direct client call is a job

    def note_next_job(args, kwargs, result):
        # The scheduler thread learns its next job here, before the
        # journal's "running" record and the Session.run that follow.
        if result is not None:
            job = submitted.get(id(first_circuit(result[1].payload.circuits)))
            tracer.set_job(job)
            return {"job": job}
        return None

    def enter_parallel(tracer, args, kwargs):
        tracer.shared_job = tracer.current_job()  # for the pool's workers

    # circuits
    site(Circuit, "structural_key", "circuits.structural_key", "circuits")
    site(Circuit, "canonical_structural_key", "circuits.canonical_key", "circuits")
    site(service_mod, "to_qasm", "circuits.to_qasm", "circuits")
    # ilp: core.stage calls the solver through its own module attribute
    site(core_stage, "solve", "ilp.solve", "ilp")
    # core: the planner passes call staging and the kernelizers
    site(planner_passes, "stage_circuit", "core.stage", "core")
    for fn in ("fast_kernelize", "kernelize", "ordered_kernelize", "greedy_kernelize"):
        site(planner_passes, fn, "core.kernelize", "core")
    # planner
    site(PassManager, "run", "planner.run", "planner")
    for name, planning_pass in planner_passes.PASSES.items():
        site(type(planning_pass), "run", f"planner.pass.{name}", "planner")
    # runtime.compile, as the session calls it
    site(
        session_mod, "compile_plan",
        lambda args, kwargs: (
            "runtime.compile.rebind" if kwargs.get("reuse") is not None
            else "runtime.compile"
        ),
        "runtime.compile",
        note=lambda args, kwargs, program: {
            "ops": len(program.ops), "reused": program.ops_reused,
        },
    )
    # sim
    site(
        CompiledProgram, "run", "sim.program.run", "sim",
        note=lambda args, kwargs, state: {"ops": len(args[0].ops)},
    )
    for module in (rt_offload, rt_parallel):
        site(module, "run_segment_ops", "sim.segment.run", "sim")
        site(
            module, "compile_segment_ops", "runtime.compile_segment", "runtime",
            note=lambda args, kwargs, ops: {"ops": len(ops)},
        )
        site(module, "permute_state", "runtime.layout", "runtime")
    # runtime executors
    site(backends_mod, "execute_plan_offloaded", "runtime.offload.execute", "runtime.offload")
    site(
        ParallelRuntime, "execute", "runtime.parallel.execute", "runtime.parallel",
        on_enter=enter_parallel,
    )
    # session
    site(Session, "run", "session.run", "session", on_enter=enter_session_run)
    site(Session, "plan_for", "session.plan_for", "session")
    site(session_mod, "plan_cache_key", "session.cache.key", "session")
    site(session_mod, "rebind_plan", "session.cache.rebind", "session")
    site(session_mod, "shared_plan_key", "session.shared.key", "session")
    site(session_mod, "skeleton_to_plan", "session.shared.bind", "session")
    for backend in ("ExecutionBackend", "InCoreBackend", "ParallelBackend"):
        site(getattr(backends_mod, backend), "run_batch", "session.execute", "session")
    site(backends_mod, "model_simulation_time", "cluster.model_time", "cluster")
    # service
    site(SimulationService, "submit", "service.submit", "service", on_enter=enter_submit)
    site(JobJournal, "append", "service.journal.append", "service")
    site(JobJournal, "replay", "service.journal.replay", "service")
    site(AdmissionController, "admit", "service.admission", "service")
    site(SharedPlanStore, "__init__", "service.store.warm_load", "service")
    site(SharedPlanStore, "get", "service.store.get", "service")
    site(SharedPlanStore, "put", "service.store.put", "service")
    site(
        FairShareScheduler, "next_job", "service.schedule.next_job", "service",
        note=note_next_job,
    )
    return tracer


# ---------------------------------------------------------------------------
# Metric names (BENCHMARK.json's per_layer list is generated from this)
# ---------------------------------------------------------------------------

#: (metric, unit, better, layer, what it should move).
PER_LAYER = [
    ("circuits.structural_key.s", "s", "lower", "circuits", "job_p50_s on service-burst-12q"),
    ("circuits.canonical_key.s", "s", "lower", "circuits", "job_p50_s on service-burst-12q"),
    ("circuits.to_qasm.s", "s", "lower", "circuits", "job_p50_s on service-burst-12q"),
    ("ilp.solve.s", "s", "lower", "ilp", "circuits_per_s on cold-plan-16q"),
    ("ilp.solve.calls", "count", "lower", "ilp", "circuits_per_s on cold-plan-16q"),
    ("core.stage.s", "s", "lower", "core", "circuits_per_s on cold-plan-16q"),
    ("core.kernelize.s", "s", "lower", "core", "circuits_per_s on cold-plan-16q"),
    ("core.stages", "count", "lower", "core", "plan quality; job_p50_s on shard-stream-20q"),
    ("core.kernels", "count", "lower", "core", "plan quality; job_p50_s on incore-exec-20q"),
    ("core.kernel_cost", "count", "lower", "core", "plan quality; job_p50_s on incore-exec-20q"),
    ("planner.pass.analyze.s", "s", "lower", "planner", "circuits_per_s on cold-plan-16q"),
    ("planner.pass.stage.s", "s", "lower", "planner", "circuits_per_s on cold-plan-16q"),
    ("planner.pass.kernelize.s", "s", "lower", "planner", "circuits_per_s on cold-plan-16q"),
    ("planner.pass.refine.s", "s", "lower", "planner", "circuits_per_s on cold-plan-16q"),
    ("planner.pass.finalize.s", "s", "lower", "planner", "circuits_per_s on cold-plan-16q"),
    ("planner.self.s", "s", "lower", "planner", "circuits_per_s, setup_s on cold-plan-16q"),
    ("runtime.compile.s", "s", "lower", "runtime.compile", "circuits_per_s on cold-plan-16q"),
    ("runtime.compile.rebind.s", "s", "lower", "runtime.compile", "job_p50_s on service-burst-12q"),
    ("runtime.compile.ops_reused_ratio", "1", "higher", "runtime.compile", "job_p50_s on service-burst-12q"),
    ("sim.program.run.s", "s", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.segment.run.s", "s", "lower", "sim", "job_p50_s on shard-stream-20q (busy seconds over workers)"),
    ("sim.program.ops", "count", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.program.sweeps_per_op", "1", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.fusion.hit_ratio", "1", "higher", "sim", "circuits_per_s on cold-plan-16q"),
    ("sim.apply.dense_1q.sweeps", "1", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.apply.dense_2q.sweeps", "1", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.apply.diagonal.sweeps", "1", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.apply.permutation.sweeps", "1", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.apply.controlled.sweeps", "1", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("sim.apply.fused_3q.sweeps", "1", "lower", "sim", "job_p50_s on incore-exec-20q"),
    ("runtime.offload.job.s", "s", "lower", "runtime.offload", "job_p50_s on shard-stream-20q"),
    ("runtime.parallel.job.s", "s", "lower", "runtime.parallel", "job_p50_s on shard-stream-20q"),
    (
        "runtime.parallel.speedup_vs_offload", "1", "higher", "runtime.parallel",
        "circuits_per_s on shard-stream-20q",
    ),
    ("runtime.shard_loads", "count", "lower", "runtime", "job_p50_s on shard-stream-20q"),
    ("runtime.stages", "count", "lower", "runtime", "job_p50_s on shard-stream-20q"),
    ("runtime.segments", "count", "lower", "runtime", "job_p50_s on shard-stream-20q"),
    (
        "runtime.parallel.schedule_hit_ratio", "1", "higher", "runtime.parallel",
        "job_p50_s on shard-stream-20q",
    ),
    ("runtime.parallel.exec_lock_wait.s", "s", "lower", "runtime.parallel", "none (single client)"),
    ("runtime.retries", "count", "lower", "runtime", "none (no faults injected)"),
    ("check.plans.overhead_ratio", "1", "lower", "check", "none while off"),
    ("check.full.overhead_ratio", "1", "lower", "check", "none while off"),
    ("runtime.integrity.overhead_ratio", "1", "lower", "runtime.integrity", "none while off"),
    ("runtime.checkpoint.overhead_ratio", "1", "lower", "runtime.checkpoint", "none while off"),
    ("runtime.checkpoint.bytes", "count", "lower", "runtime.checkpoint", "none while off"),
    ("session.run.self.s", "s", "lower", "session", "job_p50_s on service-burst-12q"),
    ("session.plan_for.s", "s", "lower", "session", "job_p50_s on service-burst-12q"),
    ("session.cache.hit_ratio", "1", "higher", "session", "job_p50_s on incore-exec-20q"),
    ("session.cache.rebind.s", "s", "lower", "session", "job_p50_s on service-burst-12q"),
    ("session.shared.hit_ratio", "1", "higher", "session", "setup_s on service-burst-12q"),
    ("session.result.s", "s", "lower", "session", "job_p50_s on service-burst-12q"),
    ("service.submit.s", "s", "lower", "service", "job_p50_s on service-burst-12q"),
    ("service.journal.append.s", "s", "lower", "service", "job_p50_s on service-burst-12q"),
    ("service.journal.bytes", "count", "lower", "service", "job_p50_s on service-burst-12q"),
    ("service.admission.s", "s", "lower", "service", "job_p50_s on service-burst-12q"),
    ("service.queue_wait.s", "s", "lower", "service", "job_p50_s on service-burst-12q"),
    ("service.dispatch.self.s", "s", "lower", "service", "circuits_per_s on service-burst-12q"),
    ("service.store.get.s", "s", "lower", "service", "setup_s on service-burst-12q"),
    ("service.peak_queue_depth", "count", "lower", "service", "none (set by the burst size)"),
    ("service.tenant_turnaround_max_over_min", "1", "lower", "service", "fairness; none"),
    ("service.replay.s", "s", "lower", "service", "setup_s on service-burst-12q"),
    ("service.store.warm_load.s", "s", "lower", "service", "setup_s on service-burst-12q"),
    ("cluster.modelled_over_measured", "1", "higher", "cluster", "none; calibration evidence"),
    ("bench.probe.pyloop.s", "s", "lower", "harness", "none"),
    ("bench.probe.l2.s", "s", "lower", "harness", "none"),
    ("bench.probe.copy.s", "s", "lower", "harness", "none"),
    ("bench.probe.sweep.s", "s", "lower", "harness", "none"),
    ("bench.speed_factor", "1", "lower", "harness", "none"),
    ("bench.raw.job_p50_s", "s", "lower", "harness", "none"),
    ("bench.raw.setup_s", "s", "lower", "harness", "none"),
    ("bench.job_p90_s", "s", "lower", "harness", "none"),
    ("bench.cpu_s_per_circuit", "s", "lower", "harness", "none"),
    ("bench.trace_overhead_ratio", "1", "lower", "harness", "none"),
    ("bench.traced.job_s", "s", "lower", "harness", "none"),
    ("bench.traced.covered_ratio", "1", "higher", "harness", "none"),
    ("bench.traced.planning_share", "1", "lower", "harness", "none"),
    ("bench.traced.sim_share", "1", "lower", "harness", "none"),
    ("bench.rounds", "count", "higher", "harness", "none"),
    ("bench.jobs", "count", "higher", "harness", "none"),
]

_PLANNING_LAYERS = ("ilp", "core", "planner")


def _over(numerator: float, denominator: float) -> float:
    """A ratio that reads 0 when the workload never exercised its base."""
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# From spans and stat objects to metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced_rounds, setup_window, state_copy_s) -> dict:
    """Per-layer metrics of the traced rounds.

    *traced_rounds* are the harness's round records (``start``, ``end``,
    ``factor``, ``calibrated_s``, ``records``); *setup_window* is ``(start, end, factor)`` of
    the set-up, whose spans feed the two service restart metrics;
    *state_copy_s* is the raw seconds one ``np.copyto`` of the workload's
    state took in this run (the copy roofline).
    """
    own = tracer.self_seconds()
    records = [record for rnd in traced_rounds for record in rnd.records]
    jobs = len(records)
    rounds = len(traced_rounds)

    def window_factor(span):
        for rnd in traced_rounds:
            if rnd.start <= span.start <= rnd.end:
                return rnd.factor
        return None

    #: calibrated seconds per span name, self and inclusive, traced rounds only
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    notes: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    in_rounds = []
    for span in tracer.spans:
        factor = window_factor(span)
        if factor is None:
            continue
        in_rounds.append((span, factor))
        self_s[span.name] += own[span] / factor
        total_s[span.name] += span.seconds / factor
        counts[span.name] += 1
        for key, value in (span.note or {}).items():
            if isinstance(value, (int, float)):
                notes[span.name][key] += value

    def per_job(value):
        return value / jobs

    def per_round(value):
        return value / rounds

    results = [record.result for record in records if record.result]
    m: dict[str, float] = {}

    # circuits: the structural key is a leaf; the canonical key's self time
    # is the relabelling around its nested structural key.
    m["circuits.structural_key.s"] = per_job(total_s["circuits.structural_key"])
    m["circuits.canonical_key.s"] = per_job(self_s["circuits.canonical_key"])
    m["circuits.to_qasm.s"] = per_job(self_s["circuits.to_qasm"])

    m["ilp.solve.s"] = per_job(self_s["ilp.solve"])
    m["ilp.solve.calls"] = per_round(counts["ilp.solve"])
    m["core.stage.s"] = per_job(self_s["core.stage"])
    m["core.kernelize.s"] = per_job(self_s["core.kernelize"])
    m["core.stages"] = per_round(sum(r.plan.num_stages for r in results))
    m["core.kernels"] = per_round(sum(r.plan.num_kernels for r in results))
    m["core.kernel_cost"] = per_round(sum(r.plan.total_kernel_cost for r in results))
    for name in ("analyze", "stage", "kernelize", "refine", "finalize"):
        m[f"planner.pass.{name}.s"] = per_job(total_s[f"planner.pass.{name}"])
    m["planner.self.s"] = per_job(self_s["planner.run"])

    m["runtime.compile.s"] = per_job(self_s["runtime.compile"])
    m["runtime.compile.rebind.s"] = per_job(self_s["runtime.compile.rebind"])
    rebind = notes["runtime.compile.rebind"]
    m["runtime.compile.ops_reused_ratio"] = _over(rebind["reused"], rebind["ops"])

    m["sim.program.run.s"] = per_job(total_s["sim.program.run"])
    m["sim.segment.run.s"] = per_job(total_s["sim.segment.run"])
    program_ops = notes["sim.program.run"]["ops"]
    m["sim.program.ops"] = per_round(
        program_ops + notes["runtime.compile_segment"]["ops"]
    )
    # Achieved cost of one compiled op against the copy roofline: how many
    # state copies one op is worth (raw over raw, same moment of the host).
    raw_run_s = sum(s.seconds for s, _f in in_rounds if s.name == "sim.program.run")
    m["sim.program.sweeps_per_op"] = _over(raw_run_s, program_ops * state_copy_s)

    for backend in ("offload", "parallel"):
        span_name = f"runtime.{backend}.execute"
        m[f"runtime.{backend}.job.s"] = _over(total_s[span_name], counts[span_name])
    m["runtime.parallel.speedup_vs_offload"] = _over(
        m["runtime.offload.job.s"], m["runtime.parallel.job.s"]
    )
    shard_stats = [
        r.execution_stats for r in results
        if hasattr(r.execution_stats, "shard_loads")
    ]
    sharded = len(shard_stats)
    m["runtime.shard_loads"] = _over(sum(s.shard_loads for s in shard_stats), sharded)
    m["runtime.stages"] = _over(sum(s.num_stages for s in shard_stats), sharded)
    m["runtime.segments"] = _over(
        sum(s.shard_loads / s.num_shards for s in shard_stats), sharded
    )
    m["runtime.retries"] = float(sum(s.retries for s in shard_stats))

    # session: result assembly is what follows the backend's run_batch
    # inside Session.run (modelled timing, Result objects, stat deltas).
    result_s = 0.0
    executes = [(s, f) for s, f in in_rounds if s.name == "session.execute"]
    for span, factor in executes:
        if span.parent is not None and span.parent.name == "session.run":
            result_s += (span.parent.end - span.end) / factor
    m["session.result.s"] = per_job(result_s)
    m["session.run.self.s"] = per_job(self_s["session.run"]) - m["session.result.s"] + per_job(
        self_s["cluster.model_time"]
    )
    m["session.plan_for.s"] = per_job(self_s["session.plan_for"] + self_s["session.cache.key"])
    m["session.cache.rebind.s"] = per_job(self_s["session.cache.rebind"])

    # service
    m["service.submit.s"] = per_job(self_s["service.submit"])
    m["service.journal.append.s"] = per_job(self_s["service.journal.append"])
    m["service.admission.s"] = per_job(self_s["service.admission"])
    m["service.store.get.s"] = per_job(self_s["service.store.get"])
    queue_wait, dispatch_self, service_jobs = _service_path(in_rounds)
    m["service.queue_wait.s"] = _over(queue_wait, service_jobs)
    m["service.dispatch.self.s"] = _over(dispatch_self, service_jobs)
    setup_start, setup_end, setup_factor = setup_window
    setup_totals: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if setup_start <= span.start <= setup_end:
            setup_totals[span.name] += own[span] / setup_factor
    m["service.replay.s"] = setup_totals["service.journal.replay"]
    m["service.store.warm_load.s"] = setup_totals["service.store.warm_load"]

    modelled = sum(r.timing.total_seconds for r in results)
    measured = sum(
        total_s[name]
        for name in ("sim.program.run", "runtime.offload.execute", "runtime.parallel.execute")
    )
    m["cluster.modelled_over_measured"] = _over(modelled, measured)

    # How much of a traced job the spans explain, and who owns it.  The
    # blocking path is the thread that runs Session.run: the client, or the
    # service's scheduler thread (the submitting client overlaps it, as the
    # parallel runtime's pool workers overlap theirs, so both are left out).
    traced_job_s = sum(record.calibrated for record in records)
    path_threads = {s.thread for s, _f in in_rounds if s.name == "session.run"}
    worker_threads = {
        s.thread for s, _f in in_rounds if s.name == "sim.segment.run"
    } - path_threads
    blocking = defaultdict(float)
    for span, factor in in_rounds:
        if span.thread in path_threads:
            blocking[span.layer] += own[span] / factor
    # The scheduler loop's own time sits between spans, not in one; the
    # next_job spans inside it are already counted above.
    blocking["service"] += dispatch_self - self_s["service.schedule.next_job"]
    if service_jobs:
        # Burst jobs overlap (24 in flight), so job time sums to far more
        # than wall time; coverage is judged against the burst interval.
        traced_job_s = sum(rnd.calibrated_s for rnd in traced_rounds)
    m["bench.traced.job_s"] = traced_job_s / jobs
    m["bench.traced.covered_ratio"] = sum(blocking.values()) / traced_job_s
    m["bench.traced.planning_share"] = (
        sum(blocking[layer] for layer in _PLANNING_LAYERS) / traced_job_s
    )
    sim_busy = blocking["sim"]
    if worker_threads:
        # Workers run the sim layer while the client thread waits at the
        # segment barrier: charge the slower worker's busy time per job.
        busy = defaultdict(float)
        for span, factor in in_rounds:
            if span.thread in worker_threads and span.layer == "sim":
                busy[span.thread] += span.seconds / factor
        sim_busy += max(busy.values())
    m["bench.traced.sim_share"] = sim_busy / traced_job_s
    return m


def stat_metrics(stats) -> dict:
    """Ratios read off the traced jobs' public ``SessionStats`` objects."""

    def ratio(hits: str, misses: str) -> float:
        h = sum(getattr(s, hits) for s in stats)
        return _over(h, h + sum(getattr(s, misses) for s in stats))

    jobs = sum(s.jobs for s in stats)
    return {
        "session.cache.hit_ratio": ratio("cache_hits", "cache_misses"),
        "session.shared.hit_ratio": ratio("shared_cache_hits", "shared_cache_misses"),
        "sim.fusion.hit_ratio": ratio("fusion_cache_hits", "fusion_cache_misses"),
        "runtime.parallel.schedule_hit_ratio": ratio(
            "schedule_cache_hits", "schedule_cache_misses"
        ),
        "runtime.parallel.exec_lock_wait.s": _over(
            sum(s.exec_lock_wait_seconds for s in stats), jobs
        ),
    }


def _service_path(in_rounds):
    """Queue wait and scheduler self time of the traced service jobs.

    The scheduler thread's top-level spans per job are ``next_job`` →
    journal "running" → ``Session.run`` → journal "completed"; whatever of
    its busy interval within a round is not a journal or session span is
    the dispatch loop's own time (DRR pick, job completion, accounting).
    A job's queue wait is the gap between the end of the client's
    ``submit`` and the start of its ``Session.run``.
    """
    submit_end = {}
    run_start = {}
    by_round = defaultdict(list)
    for span, factor in in_rounds:
        if span.name == "service.submit":
            submit_end[span.job] = (span.end, factor)
        elif span.parent is None and span.name in (
            "service.schedule.next_job", "service.journal.append", "session.run",
        ):
            by_round[factor].append(span)
            if span.name == "session.run":
                run_start[span.job] = span.start
    if not submit_end:
        return 0.0, 0.0, 0  # no service in this workload
    queue_wait = sum(
        max(0.0, run_start[job] - end) / factor
        for job, (end, factor) in submit_end.items()
        if job in run_start
    )
    dispatch_self = 0.0
    for factor, spans in by_round.items():
        busy = max(s.end for s in spans) - min(s.start for s in spans)
        nested = sum(s.seconds for s in spans if s.name != "service.schedule.next_job")
        dispatch_self += (busy - nested) / factor
    return queue_wait, dispatch_self, len(submit_end)
