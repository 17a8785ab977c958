"""Parallel shard-scheduler runtime: data-parallel DRAM offload execution.

The paper's machine model executes the ``2^(R+G)`` shards of a stage *in
parallel* across the cluster's physical GPUs (Section II); the sequential
:func:`repro.runtime.offload.execute_plan_offloaded` walks them one at a
time on one thread.  This module maps the same shard passes onto a pool of
``W = min(num_shards, machine.physical_gpus)`` worker threads:

* **Static round-robin schedule** — worker ``w`` owns shard indices
  ``w, w+W, w+2W, ...`` of every stage, mirroring how shards beyond the
  GPU count are streamed through a fixed device in passes (Section VII-C).
  The assignment is deterministic, so runs are reproducible and — because
  every shard executes exactly the same kernel sequence on its own buffers
  as under the sequential executor — **bit-exact** with it.
* **Per-worker buffer ownership** — each worker thread owns two ping-pong
  buffer pairs of ``2^L`` amplitudes (its "device memory").  No shard
  buffer is ever shared between workers; the DRAM-resident state is only
  touched through disjoint shard views — contiguous slices
  (:func:`repro.runtime.sharding.shard_slices`), or strided views
  (:func:`~repro.runtime.sharding.shard_views`) on a pass that carries a
  stage boundary.
* **Double-buffered prefetch** — while a worker computes on one buffer
  pair, the load of its next shard proceeds into the other pair on a
  dedicated loader thread, modelling the PCIe/compute overlap of the
  paper's offload pipeline.  The alternation guarantees a prefetch never
  writes a buffer the compute still reads.
* **Barriers only where the model requires them** — workers join at the
  end of each shards-segment.  A stage boundary is the workers' own loads
  (gathered from the old layout) or stores (scattered into the new one)
  wherever the schedule recorded it; full-state gates (cross-shard mixing,
  only reachable from hand-built plans) and the layout permutes no pass
  carries run on the scheduling thread between barriers, exactly like the
  sequential executor.

The NumPy/BLAS kernels of :mod:`repro.sim.apply` release the GIL for the
bulk of their work and keep their temporaries in thread-local scratch
pools, so workers genuinely overlap on multi-core hosts.  (On a host with
fewer cores than workers the schedule still pipelines correctly but cannot
yield wall-clock speedup.)

One runtime executes many plans back to back — the "heavy traffic"
scenario, a Session's batch — reusing the worker pool, the per-worker
device buffers and the DRAM scratch array, so only the result array is
allocated per execution.

**Who owns what.**  The stage loop is not here: it is
:func:`repro.runtime.offload.run_stages`, shared with the sequential
executor, over a schedule from :func:`repro.runtime.offload.build_schedule`.
This runtime owns its *shard pass* (:meth:`ParallelRuntime._run_segment_supervised`
and the worker body under it) plus what makes it reusable — the pools, the
DRAM-scratch reuse, the per-worker stats and the exec lock.  It holds
nothing keyed by plan: a caller that executes a structure more than once
keeps the :class:`~repro.runtime.offload.Schedule` (the Session plan cache
does) and passes it back through ``schedule=``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Sequence

import numpy as np

from ..cluster.machine import MachineConfig
from ..core.plan import ExecutionPlan
from ..errors import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    PermanentError,
    RetryPolicy,
    SessionClosedError,
    TransientError,
)
from ..sim import native
from ..sim.apply import tracked_empty
from ..sim.statevector import StateVector
from . import faults
from .checkpoint import CheckpointConfig
from .offload import (
    OffloadStats,
    Schedule,
    WorkerStats,
    build_schedule,
    run_segment_ops,
    run_stages,
)

# Not called here (the shared driver and ``build_schedule`` resolve them
# through ``offload``; the lint rule ``one-layout-move`` keeps the permute
# out of the shard passes): ``benchmarks/perf/layers.py`` registers its
# ``runtime.compile_segment`` / ``runtime.layout`` span sites on both
# runtime modules by these names, so they stay importable from this one.
from .offload import compile_segment_ops  # noqa: F401
from .sharding import permute_state  # noqa: F401

__all__ = ["ParallelRuntime", "execute_plan_parallel"]


class _WorkerFailed(Exception):
    """Internal: a worker exhausted its transient-retry budget.

    Carries the underlying :class:`~repro.errors.TransientError` and the
    shard indices the worker had *not* completed (current one included) so
    the scheduler can quarantine the worker and redistribute exactly that
    remainder.  Never escapes :meth:`ParallelRuntime.execute`.
    """

    def __init__(self, cause: TransientError, remaining: Sequence[int]):
        super().__init__(str(cause))
        self.cause = cause
        self.remaining = list(remaining)


class ParallelRuntime:
    """Reusable parallel executor for DRAM-offloaded plans on one machine.

    Parameters
    ----------
    machine:
        Cluster configuration.  The data-parallel width defaults to
        ``min(machine.num_shards, machine.physical_gpus)`` — DRAM shards
        beyond the physical GPU count stream through the workers in
        passes, they do not add parallelism.
    num_workers:
        Override the worker count (the differential tests sweep it).  It
        is still clamped to the shard count of each executed plan.
    retry:
        :class:`~repro.errors.RetryPolicy` for transient shard failures
        (default: the shared bounded-exponential-backoff policy).

    Use as a context manager (or call :meth:`close`) to release the worker
    threads; a runtime is cheap to keep alive across many :meth:`execute`
    calls and that is the intended usage.

    **Supervision** (see ``docs/robustness.md``): a shard whose load,
    kernel stream or store raises a :class:`~repro.errors.TransientError`
    is retried from its DRAM copy with bounded exponential backoff; a
    worker that exhausts the budget is *quarantined* for the rest of the
    run and its unfinished shards are redistributed across the surviving
    workers (bit-exact — shards are independent within a segment).
    Permanent failures — in workers *or* the loader/prefetch thread —
    propagate promptly on the calling thread after every in-flight worker
    has drained (no hung barriers, no buffer left shared), and cooperative
    ``deadline`` checks run at stage/segment/shard boundaries.
    """

    def __init__(
        self,
        machine: MachineConfig,
        num_workers: int | None = None,
        retry: RetryPolicy | None = None,
    ):
        if num_workers is None:
            num_workers = min(machine.num_shards, machine.physical_gpus)
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")  # lint: config-error
        self.machine = machine
        self.num_workers = num_workers
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._compute_pool: ThreadPoolExecutor | None = None
        self._loader_pool: ThreadPoolExecutor | None = None
        self._tls = threading.local()
        #: DRAM scratch array per state size, reused across executions.
        self._dram_scratch: dict[int, np.ndarray] = {}
        #: Cumulative recovery accounting across executions, surfaced
        #: through Session stats.
        self.retries = 0
        self.quarantined_workers = 0
        self._closed = False
        #: Serializes executions when one runtime is shared by concurrent
        #: jobs (the service's shared pool): the worker pool and DRAM
        #: scratch are shared state, so callers take turns at
        #: execution granularity while shards parallelise within each turn.
        self._exec_lock = threading.RLock()
        #: Exec-lock contention accounting (surfaced in SessionStats): how
        #: many executions took the lock, and the total time spent waiting
        #: for it while another job held it.  Lets the service watchdog
        #: tell a stuck job from pool convoying.
        self.exec_lock_acquisitions = 0
        self.exec_lock_wait_seconds = 0.0

    # ------------------------------------------------------------------
    # Pool / buffer management
    # ------------------------------------------------------------------

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pools and drop cached buffers (idempotent)."""
        if self._compute_pool is not None:
            self._compute_pool.shutdown(wait=True)
            self._compute_pool = None
        if self._loader_pool is not None:
            self._loader_pool.shutdown(wait=True)
            self._loader_pool = None
        self._dram_scratch.clear()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def pools_shut_down(self) -> bool:
        """True when no worker/loader pool is live (the thread-leak check)."""
        return self._compute_pool is None and self._loader_pool is None

    def _ensure_pools(self) -> None:
        if self._closed:
            raise SessionClosedError("ParallelRuntime is closed")
        if self._compute_pool is None:
            # A worker's passes stay on it: the workers already share the
            # cores one shard each, and a split on top of that nests.
            self._compute_pool = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-shard-worker",
                initializer=native.one_tile_thread,
            )
            self._loader_pool = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-shard-loader",
            )

    def _worker_pairs(self, local_qubits: int) -> list[list[np.ndarray]]:
        """The calling worker thread's two ping-pong buffer pairs.

        Allocated once per (worker thread, shard size) and reused for
        every segment, stage, and execution — the worker's "device
        memory".  Two pairs, not one, so the prefetch of shard ``i+1``
        never touches the pair shard ``i`` is computing in.
        """
        pairs = getattr(self._tls, "pairs", None)
        if pairs is None:
            pairs = self._tls.pairs = {}
        got = pairs.get(local_qubits)
        if got is None:
            size = 1 << local_qubits
            got = [
                [tracked_empty(size), tracked_empty(size)],
                [tracked_empty(size), tracked_empty(size)],
            ]
            pairs[local_qubits] = got
        return got

    def _scratch_state(self, num_qubits: int) -> np.ndarray:
        scratch = self._dram_scratch.get(num_qubits)
        if scratch is None:
            scratch = self._dram_scratch[num_qubits] = tracked_empty(1 << num_qubits)
        return scratch

    # ------------------------------------------------------------------
    # Worker body
    # ------------------------------------------------------------------

    def _run_worker(
        self,
        worker: int,
        indices: list[int],
        shards: list[np.ndarray],
        out_shards: list[np.ndarray],
        segment_ops: list,
        logical_to_physical: dict[int, int],
        local_qubits: int,
        stats: WorkerStats,
        deadline: Deadline,
    ) -> None:
        """Process this worker's shard indices for one shards-segment.

        Loads pipeline through the loader pool: while shard ``i`` computes
        in one buffer pair, shard ``i+1`` streams into the other.  The
        segment arrives pre-compiled (``segment_ops``); temporaries come
        from this worker thread's private workspace.

        Transient failures — whether raised here or inside a prefetch on
        the loader thread — retry the current shard from its DRAM copy
        (untouched until the store succeeds, so retries are bit-exact)
        under the runtime's :class:`RetryPolicy`; an exhausted budget
        raises :class:`_WorkerFailed` carrying the unfinished indices so
        the scheduler can quarantine this worker and redistribute them.
        Before any exception escapes, outstanding prefetch futures are
        drained: a redistributed shard must never race a stale load into
        this thread's buffers.
        """
        try:
            faults.check("worker_start", worker=worker)
        except TransientError as exc:
            raise _WorkerFailed(exc, indices) from exc
        pairs = self._worker_pairs(local_qubits)

        def load(slot: int, shard_index: int) -> float:
            start = time.perf_counter()
            faults.check("shard_load", worker=worker, shard=shard_index)
            shard = shards[shard_index]
            np.copyto(pairs[slot][0].reshape(shard.shape), shard)
            return time.perf_counter() - start

        if self._loader_pool is None:
            raise SessionClosedError(
                "worker scheduled without a loader pool (runtime closed?)"
            )
        prefetch: dict[int, Future] = {0: self._loader_pool.submit(load, 0, indices[0])}
        policy = self.retry
        try:
            for i, index in enumerate(indices):
                slot = i & 1
                fut = prefetch.pop(i, None)
                attempt = 1
                while True:
                    try:
                        deadline.check("shard")
                        if fut is not None:
                            stats.load_seconds += fut.result()
                            fut = None
                        else:
                            # Retry (or resubmitted) path: load synchronously.
                            stats.load_seconds += load(slot, index)
                        if i + 1 < len(indices) and (i + 1) not in prefetch:
                            prefetch[i + 1] = self._loader_pool.submit(
                                load, 1 - slot, indices[i + 1]
                            )
                        data, scratch = pairs[slot]
                        stats.shard_loads += 1
                        stats.bytes_loaded += data.nbytes

                        start = time.perf_counter()
                        data, scratch, out_index = run_segment_ops(
                            data, scratch, segment_ops, logical_to_physical,
                            local_qubits, index,
                        )
                        stats.compute_seconds += time.perf_counter() - start

                        start = time.perf_counter()
                        faults.check("shard_store", worker=worker, shard=index)
                        out = out_shards[out_index]
                        np.copyto(out, data.reshape(out.shape))
                        stats.store_seconds += time.perf_counter() - start
                        stats.shard_stores += 1
                        stats.bytes_stored += data.nbytes
                        pairs[slot][0], pairs[slot][1] = data, scratch
                        break
                    except TransientError as exc:
                        fut = None
                        stats.retries += 1
                        if attempt >= policy.max_attempts:
                            raise _WorkerFailed(exc, indices[i:]) from exc
                        policy.sleep(attempt)
                        attempt += 1
        except BaseException:
            # Drain in-flight prefetches before the failure escapes: the
            # scheduler may re-run these shards on a pool thread sharing
            # this thread-local buffer set.
            for fut in prefetch.values():
                fut.cancel()
            for fut in prefetch.values():
                try:
                    fut.result()
                except BaseException:
                    pass
            raise

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        plan: ExecutionPlan,
        initial_state: StateVector | None = None,
        schedule: Schedule | None = None,
        deadline: "Deadline | float | None" = None,
        checkpoint: "CheckpointConfig | str | None" = None,
        resume_from=None,
        monitor=None,
    ) -> tuple[StateVector, OffloadStats]:
        """Execute *plan*, scheduling each stage's shards across workers.

        Bit-exact with :func:`repro.runtime.offload.execute_plan_offloaded`
        for any worker count: every shard sees the identical kernel
        sequence on private buffers, and segment barriers impose the same
        cross-segment ordering.  That equivalence survives recovery:
        retried shards recompute from their unmodified DRAM slice and
        redistributed shards run the identical kernel sequence on another
        worker's private buffers.

        ``schedule`` (optional) is *plan*'s
        :func:`~repro.runtime.offload.build_schedule`, for a caller that
        holds it already (the Session builds it once per structure and
        rebinds it per job); without one it is built cold here.

        ``deadline`` (optional, seconds or a :class:`~repro.errors.Deadline`)
        is checked cooperatively at stage/segment/shard boundaries; an
        expired deadline raises :class:`~repro.errors.DeadlineExceeded`
        with every worker drained and the runtime reusable.

        **Pool sharing:** one runtime may serve several concurrent jobs
        (the multi-tenant service front-ends exactly this).  Executions are
        serialized on an internal lock — the worker pool and DRAM scratch
        are shared across the callers, while each plan's shards still fan
        out over every worker.  Concurrent callers
        interleave at execution granularity (per batch item of a Session),
        so a long batch does not monopolise the pool against a competing
        job.

        ``checkpoint`` / ``resume_from`` / ``monitor`` enable the
        durability layer — stage-boundary snapshots, fingerprint-validated
        resume and runtime integrity checks — with the exact semantics of
        :func:`repro.runtime.offload.execute_plan_offloaded`.
        """
        # Contention instrumentation: the uncontended path is one failed
        # try-acquire (cheap); only a genuinely contended acquisition pays
        # for the two monotonic reads.
        if self._exec_lock.acquire(blocking=False):
            self.exec_lock_acquisitions += 1
        else:
            started = time.monotonic()
            self._exec_lock.acquire()
            self.exec_lock_wait_seconds += time.monotonic() - started
            self.exec_lock_acquisitions += 1
        try:
            n = plan.num_qubits
            self.machine.validate(n)
            self._ensure_pools()
            if schedule is None:
                schedule = build_schedule(plan, self.machine.local_qubits)
            num_shards = 1 << (n - self.machine.local_qubits)
            width = min(self.num_workers, num_shards)
            stats = OffloadStats(num_shards=num_shards, num_workers=width)
            stats.per_worker = [WorkerStats(worker=w) for w in range(width)]
            #: Workers quarantined for the remainder of *this* execution.
            quarantined: set[int] = set()
            try:
                # The driver allocates the result array — the only
                # per-execution state-sized allocation — and hands back
                # whichever of it and the cached DRAM scratch the caller is
                # not given, which becomes the next scratch (no copy, no
                # aliasing of cached buffers).
                state, self._dram_scratch[n] = run_stages(
                    plan, self.machine, schedule,
                    partial(self._run_segment_supervised, stats, quarantined),
                    stats, self._scratch_state(n), initial_state, deadline,
                    checkpoint, resume_from, monitor,
                )
            finally:
                for worker in stats.per_worker:
                    stats.shard_loads += worker.shard_loads
                    stats.shard_stores += worker.shard_stores
                    stats.bytes_transferred += worker.bytes_loaded + worker.bytes_stored
                    stats.retries += worker.retries
                self.retries += stats.retries
            return StateVector(n, state), stats
        finally:
            self._exec_lock.release()

    def _run_segment_supervised(
        self,
        stats: OffloadStats,
        quarantined: set[int],
        shards: list[np.ndarray],
        out_shards: list[np.ndarray],
        segment_ops: list,
        logical_to_physical: dict[int, int],
        deadline: Deadline,
    ) -> None:
        """Dispatch one shards-segment across the non-quarantined workers
        (this runtime's shard pass under :func:`~repro.runtime.offload.run_stages`).

        The barrier is failure-safe: **every** submitted future is awaited
        before any exception propagates, so no worker is still touching a
        shard buffer when the caller sees the error.  Workers that exhaust
        their transient-retry budget are quarantined and their unfinished
        shards redistributed round-robin across the survivors; the segment
        only completes once every shard index has been stored exactly once.
        When the last worker is quarantined the underlying transient error
        escalates to the caller.
        """
        width, num_shards = stats.num_workers, stats.num_shards
        local = self.machine.local_qubits
        active = [w for w in range(width) if w not in quarantined]
        if not active:
            # Every worker was quarantined by an earlier segment; execute()
            # can only get here if that segment still completed, which
            # cannot happen — quarantining the last worker escalates below.
            raise PermanentError(
                "no workers left to schedule"
            )  # pragma: no cover
        # Round-robin over the survivors; with none quarantined this is the
        # documented ownership rule (worker w owns shards w, w+W, w+2W, ...).
        assignments = {
            w: list(range(j, num_shards, len(active)))
            for j, w in enumerate(active)
        }
        while True:
            futures = {
                w: self._compute_pool.submit(
                    self._run_worker,
                    w,
                    indices,
                    shards,
                    out_shards,
                    segment_ops,
                    logical_to_physical,
                    local,
                    stats.per_worker[w],
                    deadline,
                )
                for w, indices in assignments.items()
                if indices
            }
            if not futures:
                return
            failed: dict[int, _WorkerFailed] = {}
            fatal: BaseException | None = None
            # Failure-safe barrier: await every future, collect outcomes.
            for w, future in futures.items():
                try:
                    future.result()
                except _WorkerFailed as exc:
                    failed[w] = exc
                except BaseException as exc:
                    if fatal is None:
                        fatal = exc
            if fatal is not None:
                # Permanent (or unexpected) failure: propagate promptly —
                # all workers have drained, buffers are quiescent.
                raise fatal
            if not failed:
                return
            # Transient exhaustion: quarantine the failed workers and
            # redistribute exactly their unfinished shards.
            leftover: list[int] = []
            last_cause: TransientError | None = None
            for w, exc in failed.items():
                quarantined.add(w)
                stats.quarantined_workers += 1
                self.quarantined_workers += 1
                leftover.extend(exc.remaining)
                last_cause = exc.cause
            leftover.sort()
            active = [w for w in range(width) if w not in quarantined]
            if not active:
                if last_cause is None:  # pragma: no cover - defensive
                    raise PermanentError(
                        "every worker quarantined but no failure cause recorded"
                    )
                raise last_cause
            assignments = {
                w: leftover[j :: len(active)] for j, w in enumerate(active)
            }


def execute_plan_parallel(
    plan: ExecutionPlan,
    machine: MachineConfig,
    initial_state: StateVector | None = None,
    num_workers: int | None = None,
) -> tuple[StateVector, OffloadStats]:
    """One-shot parallel execution (see :class:`ParallelRuntime`).

    Spins up a runtime, executes *plan*, and tears the workers down again.
    Prefer a long-lived :class:`ParallelRuntime` (or a
    :class:`~repro.session.Session`) when executing more than once.
    """
    with ParallelRuntime(machine, num_workers=num_workers) as runtime:
        return runtime.execute(plan, initial_state)
