"""Job and Result objects — what one ``Session.run`` call hands back.

A :class:`Job` is the *future-backed* handle for one unit of submitted
work: an ordered list of per-circuit :class:`Result` objects plus
job-level accounting, behind a ``done()`` / ``result(timeout=...)`` /
``cancel()`` surface.  Three completion modes share the one class:

* **eager** — ``Session.run(..., execute=True)`` completes the job before
  returning it, so ``result()`` never blocks;
* **deferred** — ``Session.run(..., execute=False)`` returns a pending job
  carrying the plan and modelled timing (:meth:`Job.modelled`); the first
  ``result()`` call executes it lazily, exactly once, thread-safe;
* **queued** — :meth:`repro.service.SimulationService.submit` returns a
  pending job completed asynchronously by the service scheduler thread;
  ``result(timeout=...)`` blocks, ``cancel()`` withdraws it from the queue.

A :class:`Result` carries everything produced for one circuit: the final
state (when the job executed functionally), measurement samples,
observable expectation values, the modelled timing, and plan provenance —
which plan ran, whether it came from the structural cache, and which
backend executed it.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..core.partitioner import PartitionReport
from ..core.plan import ExecutionPlan
from ..errors import DeadlineExceeded, JobCancelledError
from ..runtime.timeline import TimingBreakdown
from ..sim import native
from ..sim.statevector import StateVector

__all__ = ["Job", "JobStatus", "Result", "normalize_observable"]


def normalize_observable(observable) -> tuple[int, ...]:
    """Canonicalise an observable spec into a sorted tuple of qubit indices.

    Supported specs — all denoting a product of Pauli-Z operators:

    * ``int q`` — ``<Z_q>``;
    * an iterable of ints — ``<Z_{q0} Z_{q1} ...>`` (empty = identity);
    * a string like ``"z0"`` or ``"z0*z3"`` — the same, spelled readably.

    The canonical form sorts the qubits and cancels pairs (``Z_q Z_q = I``),
    so ``(1, 0)``, ``"z0*z1"`` and ``(0, 1, 2, 2)`` all normalise to
    ``(0, 1)``.
    """
    if isinstance(observable, (int, np.integer)):
        return (int(observable),)
    if isinstance(observable, str):
        qubits = []
        for term in observable.lower().split("*"):
            term = term.strip()
            if not term.startswith("z") or not term[1:].isdigit():
                raise ValueError(  # lint: config-error
                    f"unsupported observable {observable!r}; expected e.g. 'z0' or 'z0*z3'"
                )
            qubits.append(int(term[1:]))
    else:
        try:
            qubits = [int(q) for q in observable]
        except TypeError as exc:
            raise ValueError(f"unsupported observable spec {observable!r}") from exc  # lint: config-error
    odd = {q for q in set(qubits) if qubits.count(q) % 2}
    return tuple(sorted(odd))


@dataclass
class Result:
    """Everything produced for one circuit of a job."""

    circuit_name: str
    backend: str
    #: Final state; ``None`` for modelled-only (``execute=False``) jobs.
    state: StateVector | None
    #: Modelled wall-clock time on the target cluster.
    timing: TimingBreakdown
    #: The execution plan that ran (possibly re-bound from the cache).
    plan: ExecutionPlan
    #: Preprocessing statistics; ``None`` when the plan came from the cache
    #: (there was no preprocessing) or from a baseline partitioner.
    report: PartitionReport | None
    #: Whether the plan came from the session's structural cache.
    cache_hit: bool
    #: This circuit's share of the job's measured execution wall time —
    #: the batch total divided evenly across its circuits, not a per-circuit
    #: measurement (batches run through one ``run_batch`` call; use
    #: :attr:`Job.wall_seconds` for the whole job).
    wall_seconds: float
    #: Sampled basis-state indices (``shots`` draws), or ``None``.
    samples: np.ndarray | None = None
    shots: int | None = None
    #: Observable spec (normalised qubit tuple) -> expectation value.
    expectations: dict[tuple[int, ...], float] = field(default_factory=dict)
    #: Executor-specific stats: ``ExecutionTrace`` (incore), ``OffloadStats``
    #: (offload/parallel), or ``None``.
    execution_stats: object | None = None
    #: Recovery provenance for the job this result belongs to: non-zero
    #: counters only (``retries``, ``fallbacks``, ``quarantined_workers``,
    #: ``faults_injected``) plus ``backend_chain`` when the job degraded
    #: across backends.  ``None`` for a clean run — so auditing recovered
    #: runs is one truthiness check.
    recovery: dict | None = None

    def expectation(self, observable) -> float:
        """Look up a computed expectation value by observable spec."""
        key = normalize_observable(observable)
        try:
            return self.expectations[key]
        except KeyError as exc:
            raise KeyError(
                f"observable {observable!r} was not requested for this run"
            ) from exc

    def counts(self) -> dict[int, int]:
        """Histogram of sampled basis-state indices (requires ``shots``)."""
        if self.samples is None:
            raise ValueError("no samples: run with shots=...")  # lint: config-error
        return dict(Counter(int(s) for s in self.samples))

    def summary(self) -> dict:
        stats = self.execution_stats
        op_counts = getattr(stats, "op_counts", None)
        return {
            "circuit": self.circuit_name,
            "backend": self.backend,
            "cache_hit": self.cache_hit,
            "num_stages": self.plan.num_stages,
            "num_kernels": self.plan.num_kernels,
            # How many gates each executed op absorbed: gates of the plan
            # against the ops of the program that ran it (``None`` for
            # backends that execute no whole-state program).
            "num_gates": self.plan.gate_count(),
            "num_ops": getattr(stats, "num_ops", None),
            "op_counts": dict(op_counts) if op_counts else None,
            # Which body shared-memory kernels ran in this process: the C
            # tile pass ("native") or the NumPy item loop ("numpy").
            "engine": native.engine(),
            # Which compile path the program took on a cache hit: ops kept
            # from the cached program, ops refilled through its structure,
            # ops of a structure-fallback compile (``None`` without a
            # program; all zero for the run that compiled it cold).
            "ops_reused": getattr(stats, "ops_reused", None),
            "ops_rebound": getattr(stats, "ops_rebound", None),
            "ops_recompiled": getattr(stats, "ops_recompiled", None),
            "modelled_seconds": self.timing.total_seconds,
            "wall_seconds": self.wall_seconds,
            "shots": self.shots,
            "expectations": {k: v for k, v in self.expectations.items()},
            # Plan provenance: which pipeline/preset produced the plan (a
            # cache hit carries it over from the entry that built it), and
            # — for the run that actually planned — the per-pass telemetry.
            "plan_provenance": dict(self.plan.provenance),
            "planning": self.report.as_dict() if self.report is not None else None,
            # Recovery provenance: ``None`` for a clean run, else the
            # non-zero recovery counters (and any backend fallback chain)
            # of the job that produced this result.
            "recovery": dict(self.recovery) if self.recovery else None,
        }


class JobStatus(enum.Enum):
    """Lifecycle of a :class:`Job` (pending → running → terminal)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class Job:
    """Future-backed handle for one unit of submitted work.

    Constructed completed (``Job(results=[...], ...)`` — the eager
    ``Session.run`` path keeps its historical signature), deferred
    (``Job.deferred(...)``), or pending (``Job.pending(...)``, completed by
    a service scheduler through the ``_mark_running``/``_complete``/
    ``_fail`` internal protocol).  All state transitions are serialized
    under one lock and signalled through one event, so ``result()`` /
    ``done()`` / ``cancel()`` are safe from any thread.

    .. note:: **Migration (1.6):** ``job.result`` and ``job.results`` were
       attributes; they are now *methods* — ``job.result()`` /
       ``job.results()`` — that resolve the future (lazily executing a
       deferred job, blocking on a queued one).  Use :meth:`modelled` /
       :meth:`modelled_results` for the plan-and-timing view that never
       triggers execution.
    """

    def __init__(
        self,
        results: list[Result] | None = None,
        backend: str = "",
        wall_seconds: float = 0.0,
        cache_hits: int = 0,
        *,
        num_circuits: int | None = None,
        modelled: list[Result] | None = None,
        tenant: str | None = None,
    ):
        self._lock = threading.RLock()
        self._event = threading.Event()
        self._results: list[Result] | None = None
        self._modelled = modelled
        self._thunk: Callable[[], "Job"] | None = None
        self._error: BaseException | None = None
        self._status = JobStatus.PENDING
        #: Backend the job ran (or is requested to run) on.
        self.backend = backend
        #: Measured wall time of the completed work (planning + execution),
        #: seconds; 0.0 until the job completes.
        self.wall_seconds = wall_seconds
        #: How many of the job's plans came from a plan cache (local
        #: structural or cross-tenant shared); 0 until the job completes.
        self.cache_hits = cache_hits
        #: Logical tenant that submitted the job (service path), or ``None``.
        self.tenant = tenant
        self._num_circuits = num_circuits
        if results is not None:
            self._results = list(results)
            self._num_circuits = len(self._results)
            self._status = JobStatus.DONE
            self._event.set()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def deferred(
        cls,
        thunk: Callable[[], "Job"],
        modelled: list[Result],
        backend: str = "",
    ) -> "Job":
        """A lazily-executing job: *thunk* runs the real execution exactly
        once, on the first ``result()`` call, from whichever thread makes
        it; *modelled* is the plan/timing-only view available immediately."""
        job = cls(
            backend=backend,
            num_circuits=len(modelled),
            modelled=list(modelled),
        )
        job._thunk = thunk
        return job

    @classmethod
    def pending(
        cls,
        num_circuits: int,
        backend: str = "",
        tenant: str | None = None,
    ) -> "Job":
        """A queued job to be completed externally (the service path)."""
        return cls(backend=backend, num_circuits=num_circuits, tenant=tenant)

    # ------------------------------------------------------------------
    # Future surface
    # ------------------------------------------------------------------

    @property
    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    def done(self) -> bool:
        """Whether the job reached a terminal state (done/failed/cancelled)."""
        return self._event.is_set()

    def cancelled(self) -> bool:
        with self._lock:
            return self._status is JobStatus.CANCELLED

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; ``False`` on timeout.

        Deferred jobs are *not* executed by ``wait`` — only ``result()`` /
        ``results()`` trigger the lazy execution.
        """
        return self._event.wait(timeout)

    def cancel(self) -> bool:
        """Withdraw a job that has not started; ``True`` when it worked.

        A pending queued job transitions to ``CANCELLED`` (the scheduler
        will skip it); a deferred job drops its thunk.  Running or already
        terminal jobs return ``False`` — in-flight execution is never
        interrupted (shard runtimes own cooperative deadlines for that).
        """
        with self._lock:
            if self._status is not JobStatus.PENDING:
                return False
            self._status = JobStatus.CANCELLED
            self._thunk = None
            self._error = JobCancelledError("job cancelled before execution")
        self._event.set()
        return True

    def results(self, timeout: float | None = None) -> list[Result]:
        """The job's per-circuit results, resolving the future if needed.

        Deferred jobs execute here — exactly once, even under concurrent
        callers; queued jobs block up to *timeout* seconds (``None`` waits
        indefinitely).  Raises :class:`~repro.errors.DeadlineExceeded` on
        timeout, :class:`~repro.errors.JobCancelledError` if cancelled, and
        re-raises the job's failure if it failed.
        """
        thunk = None
        with self._lock:
            if self._status is JobStatus.PENDING and self._thunk is not None:
                thunk = self._thunk
                self._thunk = None
                self._status = JobStatus.RUNNING
        if thunk is not None:
            try:
                inner = thunk()
            except BaseException as exc:
                self._fail(exc)
            else:
                self._complete(
                    inner.results(),
                    backend=inner.backend,
                    wall_seconds=inner.wall_seconds,
                    cache_hits=inner.cache_hits,
                )
        if not self._event.wait(timeout):
            raise DeadlineExceeded(
                f"job did not complete within {timeout:.6g}s",
                site="job.result",
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            assert self._results is not None
            return self._results

    def result(self, timeout: float | None = None) -> Result:
        """The single result of a one-circuit job (see :meth:`results`)."""
        results = self.results(timeout)
        if len(results) != 1:
            raise ValueError(  # lint: config-error
                f"job has {len(results)} results; index it or iterate"
            )
        return results[0]

    def modelled_results(self) -> list[Result]:
        """Plan-and-timing results without resolving the future.

        For a completed job these are the real results; for a deferred job
        the modelled view (``state=None``) captured at submission.  Queued
        service jobs have no modelled view before completion.
        """
        with self._lock:
            if self._results is not None:
                return self._results
            if self._modelled is not None:
                return self._modelled
        raise ValueError(  # lint: config-error
            "job has no modelled results yet; wait for completion or use "
            "result(timeout=...)"
        )

    def modelled(self) -> Result:
        """Single-circuit :meth:`modelled_results` (never executes)."""
        results = self.modelled_results()
        if len(results) != 1:
            raise ValueError(  # lint: config-error
                f"job has {len(results)} results; index it or iterate"
            )
        return results[0]

    # ------------------------------------------------------------------
    # Completion protocol (Session / service internals)
    # ------------------------------------------------------------------

    def _mark_running(self) -> bool:
        """Scheduler claim: pending → running; ``False`` if already
        cancelled (the scheduler must then skip the job)."""
        with self._lock:
            if self._status is not JobStatus.PENDING:
                return False
            self._status = JobStatus.RUNNING
            return True

    def _complete(
        self,
        results: list[Result],
        backend: str = "",
        wall_seconds: float = 0.0,
        cache_hits: int = 0,
    ) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._results = list(results)
            self._num_circuits = len(self._results)
            if backend:
                self.backend = backend
            self.wall_seconds = wall_seconds
            self.cache_hits = cache_hits
            self._status = JobStatus.DONE
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._error = error
            self._status = JobStatus.FAILED
        self._event.set()

    # ------------------------------------------------------------------
    # Container / accounting surface
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of circuits in the job — known up front, never resolves."""
        if self._num_circuits is not None:
            return self._num_circuits
        return len(self.results())

    def __iter__(self) -> Iterator[Result]:
        return iter(self.results())

    def __getitem__(self, idx) -> Result:
        return self.results()[idx]

    def states(self) -> list[StateVector | None]:
        return [r.state for r in self.results()]

    @property
    def modelled_seconds(self) -> float:
        """Summed modelled cluster time across the job's circuits."""
        return sum(r.timing.total_seconds for r in self.modelled_results())

    def summary(self) -> dict:
        return {
            "backend": self.backend,
            "status": self.status.value,
            "tenant": self.tenant,
            "num_circuits": len(self),
            "cache_hits": self.cache_hits,
            "wall_seconds": self.wall_seconds,
            "modelled_seconds": (
                self.modelled_seconds if self._terminal_or_modelled() else None
            ),
        }

    def _terminal_or_modelled(self) -> bool:
        with self._lock:
            return self._results is not None or self._modelled is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Job status={self.status.value} circuits={self._num_circuits} "
            f"backend={self.backend!r}>"
        )
