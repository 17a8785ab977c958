"""The multi-tenant simulation service.

:class:`SimulationService` fronts **one** shared
:class:`~repro.session.Session` (and therefore one
:class:`~repro.runtime.parallel.ParallelRuntime` worker pool and one plan
cache hierarchy) for many logical tenants:

* ``submit`` applies admission control synchronously (typed
  :class:`~repro.errors.AdmissionError` rejections at the call site),
  then enqueues and returns a genuinely deferred :class:`~repro.session.Job`
  — ``done()`` / ``result(timeout=...)`` / ``cancel()`` work from any
  thread while a dedicated scheduler thread drains the queues.
* Scheduling is priority + weighted fair-share: per-tenant queues ordered
  by ``(-priority, submission)``, dispatched under deficit round-robin
  (:mod:`repro.service.scheduling`) so no tenant can starve another.
* Every tenant's plans flow through one cross-tenant
  :class:`~repro.service.SharedPlanStore` keyed on relabel-invariant
  structural keys, optionally persisted to disk so a restarted service
  replans nothing it already planned.
* Per-tenant accounting (waits, turnarounds, cache hit rates) and global
  service counters are maintained continuously and snapshot via
  :meth:`SimulationService.stats`.
* With ``journal_dir=`` the service is **durable**: every accepted job is
  recorded in a write-ahead :class:`~repro.service.JobJournal` before it
  queues, every state transition after, and a restarted service replays
  the journal, re-admitting orphaned jobs (resuming in-flight work from
  their latest stage checkpoint).  A watchdog thread monitors the
  scheduler heartbeat and flags stuck jobs against their modelled time.

The scheduler thread is the only thread that executes on the shared
session; deferred jobs returned by ``Session.run(execute=False)`` resolve
through the session's own lock, so both paths compose safely.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from ..circuits import Circuit, from_qasm, to_qasm
from ..circuits.library import get_circuit
from ..errors import ServiceClosedError, SpecParseError
from ..runtime.checkpoint import CheckpointConfig
from ..session import Job, Session
from ..sim import native
from .admission import AdmissionController, AdmissionPolicy
from .journal import JobJournal
from .persistence import SharedPlanStore
from .scheduling import FairShareScheduler, QueuedJob

__all__ = ["SimulationService", "TenantStats"]


@dataclass
class TenantStats:
    """Continuous accounting for one tenant."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    circuits: int = 0
    #: Structurally deduplicated submissions (fan-out followers).
    deduplicated: int = 0
    #: Plan-cache hits attributed to this tenant's dispatched jobs —
    #: local structural hits and cross-tenant shared-store hits.
    cache_hits: int = 0
    shared_cache_hits: int = 0
    plans_built: int = 0
    wait_seconds: float = 0.0
    turnaround_seconds: float = 0.0
    #: Jobs the watchdog flagged as exceeding their modelled-time budget.
    stuck_jobs: int = 0

    def as_dict(self) -> dict:
        dispatched = self.completed + self.failed
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "circuits": self.circuits,
            "deduplicated": self.deduplicated,
            "cache_hits": self.cache_hits,
            "shared_cache_hits": self.shared_cache_hits,
            "plans_built": self.plans_built,
            "stuck_jobs": self.stuck_jobs,
            "mean_wait_seconds": (
                self.wait_seconds / dispatched if dispatched else 0.0
            ),
            "mean_turnaround_seconds": (
                self.turnaround_seconds / dispatched if dispatched else 0.0
            ),
            "cache_hit_rate": (
                (self.cache_hits + self.shared_cache_hits)
                / max(1, self.cache_hits + self.shared_cache_hits + self.plans_built)
            ),
        }


@dataclass
class _WorkItem:
    """One scheduled unit: the circuits, the run kwargs, and every Job
    (primary + dedup followers) to complete with the shared results."""

    jobs: list
    circuits: list
    run_kwargs: dict
    tenant: str
    submitted_at: float
    entry: "QueuedJob | None" = field(default=None)
    #: Journal id (assigned at admission when journalling is on).
    job_id: "int | None" = None
    #: True when this item was re-admitted from a crashed service's
    #: journal — dispatch then resumes from the job's latest checkpoint.
    recovered: bool = False
    #: Admission-time modelled cluster seconds (the watchdog's budget
    #: baseline), when the policy priced the job.
    modelled_seconds: "float | None" = None


def _shape(circuit: Circuit) -> tuple:
    """What two circuits of one structural key always share and is read in
    constant time: qubit and gate counts, and the first and last gates'
    names and qubits (a qubit relabelling moves them)."""
    gates = circuit.gates
    ends = (gates[0].name, gates[0].qubits, gates[-1].name, gates[-1].qubits) if gates else ()
    return circuit.num_qubits, len(gates), ends


def parse_circuit_spec(spec: str) -> Circuit:
    """Build a circuit from a one-line textual spec.

    Accepted forms: ``family:nqubits`` (a named generator from
    :mod:`repro.circuits.library`, e.g. ``vqc:8``) or a path to an OpenQASM
    file.  Used by :meth:`SimulationService.submit_file` and for string
    entries in :meth:`SimulationService.submit_many`.

    A malformed spec raises :class:`~repro.errors.SpecParseError` — a
    typed, *per-job* admission failure: batch intake fails only the job
    for the bad line, never the rest of the batch.
    """
    spec = spec.strip()
    try:
        if ":" in spec and not Path(spec).exists():
            family, _, n = spec.partition(":")
            return get_circuit(family.strip(), int(n))
        return from_qasm(Path(spec).read_text(), name=Path(spec).stem)
    except SpecParseError:
        raise
    except Exception as exc:
        raise SpecParseError(
            f"cannot parse circuit spec {spec!r}: {exc}",
            site="service.parse",
            spec=spec,
        ) from exc


class SimulationService:
    """Multi-tenant front end over one shared simulation session.

    Parameters
    ----------
    machine:
        Cluster model for a service-owned session (ignored when *session*
        is given).
    session:
        An existing :class:`~repro.session.Session` to front.  The service
        wires its shared plan store into the session (replacing ``None``;
        an explicitly configured ``shared_cache`` is kept).
    policy:
        Admission limits (:class:`~repro.service.AdmissionPolicy`).
    store:
        Cross-tenant :class:`~repro.service.SharedPlanStore`; built
        automatically (persisting under *persist_dir* if given) when
        omitted.
    persist_dir:
        Directory for the store's disk tier — a service restarted with the
        same directory warms every previously planned structure.
    quantum:
        Deficit round-robin quantum (cost credited per tenant visit).
    journal_dir:
        Directory for the write-ahead job journal.  When given, every
        accepted submission is journalled before it queues, dispatched
        jobs checkpoint at stage boundaries under
        ``journal_dir/checkpoints``, and a *restarted* service with the
        same directory replays the journal: orphaned jobs (queued or
        running at the crash) are re-admitted and resume from their
        latest checkpoint; non-recoverable ones are recorded as
        abandoned.  ``None`` (default) disables durability.
    journal_fsync:
        fsync each journal append (default True; tests disable it).
    watchdog_interval:
        Seconds between watchdog sweeps (``0`` disables the watchdog).
    stuck_slack, stuck_grace_seconds:
        A running job is flagged *stuck* once its wall time exceeds
        ``stuck_grace_seconds + stuck_slack × modelled_seconds``.
    session_kwargs:
        Forwarded to the service-owned :class:`~repro.session.Session`.
    """

    def __init__(
        self,
        machine=None,
        session: "Session | None" = None,
        *,
        policy: "AdmissionPolicy | None" = None,
        store: "SharedPlanStore | None" = None,
        persist_dir: "str | Path | None" = None,
        quantum: float = 1.0,
        journal_dir: "str | Path | None" = None,
        journal_fsync: bool = True,
        watchdog_interval: float = 1.0,
        stuck_slack: float = 4.0,
        stuck_grace_seconds: float = 30.0,
        **session_kwargs,
    ):
        if store is None:
            store = SharedPlanStore(persist_dir=persist_dir)
        self.store = store
        if session is None:
            session = Session(machine, shared_cache=store, **session_kwargs)
            self._owns_session = True
        else:
            if session.shared_cache is None:
                session.shared_cache = store
            self._owns_session = False
        self.session = session
        self.policy = policy if policy is not None else AdmissionPolicy()
        self._admission = AdmissionController(self.policy, session)
        self._scheduler = FairShareScheduler(quantum=quantum)
        self._cond = threading.Condition()
        self._tenants: dict[str, TenantStats] = {}
        self._closed = False
        self._stop = False
        self._inflight = 0
        # Global counters (guarded by the condition lock).
        self.submitted = 0
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.rejected = 0
        self.deduplicated = 0
        self.peak_queue_depth = 0
        #: Dispatches that ran two or more jobs as one stack, and the jobs
        #: they ran (``docs/service.md``).
        self.stacked_dispatches = 0
        self.stacked_rows = 0
        # Durability: write-ahead journal, crash recovery, watchdog.
        self.recovered = 0
        self.abandoned = 0
        self.stuck_jobs = 0
        #: Old-journal-id → re-admitted Job, for clients re-attaching
        #: after a restart.
        self.recovered_jobs: dict[int, Job] = {}
        self._running_since: dict[int, tuple[float, "float | None", str]] = {}
        self._stuck_flagged: set[int] = set()
        self._heartbeat = time.monotonic()
        self._watchdog_interval = watchdog_interval
        self._stuck_slack = stuck_slack
        self._stuck_grace_seconds = stuck_grace_seconds
        self._watchdog_stop = threading.Event()
        self._watchdog: "threading.Thread | None" = None
        self._journal: "JobJournal | None" = None
        next_job_id = 0
        if journal_dir is not None:
            self._journal = JobJournal(journal_dir, fsync=journal_fsync)
            replay = self._journal.replay()
            next_job_id = replay.last_job_id + 1
            # Re-admit orphans before the scheduler thread exists — the
            # queue is still private, so no locking subtleties.
            self._recover(replay)
        self._job_ids = itertools.count(next_job_id)
        self._thread = threading.Thread(
            target=self._scheduler_loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()
        if watchdog_interval > 0:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="repro-service-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    def _recover(self, replay) -> None:
        """Re-admit every durable orphan from a replayed journal.

        Runs in ``__init__`` before the scheduler thread starts.  Orphans
        bypass admission control — they were already admitted by the
        crashed process; re-rejecting them would silently drop accepted
        work.  Each re-admitted item dispatches with ``resume_from``
        pointing at the journal's checkpoint directory, so work that
        crashed mid-plan restarts from its last completed stage.
        """
        for payload in replay.orphans():
            jid = payload["job"]
            tenant = payload.get("tenant", "default")
            circuits = None
            if payload.get("durable"):
                try:
                    circuits = [from_qasm(text) for text in payload["circuits"]]
                except Exception:
                    circuits = None
            if circuits is None:
                self.abandoned += 1
                self._journal.append("abandoned", jid, tenant=tenant)
                continue
            run_kwargs = dict(payload.get("run_kwargs") or {})
            job = Job.pending(
                len(circuits),
                backend=run_kwargs.get("backend") or "",
                tenant=tenant,
            )
            item = _WorkItem(
                jobs=[job],
                circuits=circuits,
                run_kwargs=run_kwargs,
                tenant=tenant,
                submitted_at=time.monotonic(),
                job_id=jid,
                recovered=True,
            )
            item.entry = self._scheduler.enqueue(
                tenant,
                item,
                priority=int(payload.get("priority", 0)),
                cost=len(circuits),
                weight=float(payload.get("weight", 1.0)),
            )
            stats = self._tenant(tenant)
            self.submitted += 1
            stats.submitted += 1
            stats.circuits += len(circuits)
            self.recovered += 1
            self.recovered_jobs[jid] = job
            self._journal.append("recovered", jid, tenant=tenant)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True) -> None:
        """Stop the service (idempotent).

        ``drain=True`` (default) waits for every queued job to finish
        first; ``drain=False`` cancels everything still pending.  A
        service-owned session is closed too; a caller-supplied session is
        left open.
        """
        with self._cond:
            if self._closed and not self._thread.is_alive():
                return
            self._closed = True
            if not drain:
                while True:
                    entry = self._scheduler.next_job()
                    if entry is None:
                        break
                    item = entry[1].payload
                    for job in item.jobs:
                        if job.cancel():
                            self.cancelled += 1
                            self._tenant(item.tenant).cancelled += 1
                    if self._journal is not None and item.job_id is not None:
                        self._journal.append(
                            "cancelled", item.job_id, tenant=item.tenant
                        )
            else:
                while self._scheduler.pending() or self._inflight:
                    self._cond.wait(timeout=0.1)
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=30.0)
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
        if self._journal is not None:
            self._journal.close()
        if self._owns_session:
            self.session.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed", site="service.submit")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        circuits,
        *,
        tenant: str = "default",
        priority: int = 0,
        weight: float = 1.0,
        **run_kwargs,
    ) -> Job:
        """Queue one job (one circuit or a batch) for *tenant*.

        Admission runs synchronously — the caller sees
        :class:`~repro.errors.QueueFullError` /
        :class:`~repro.errors.TenantQuotaError` /
        :class:`~repro.errors.AdmissionError` here, never deferred — and
        the returned :class:`~repro.session.Job` completes asynchronously
        once the fair-share scheduler dispatches it.  ``priority`` orders
        jobs *within* the tenant (higher first); ``weight`` sets the
        tenant's fair share (fixed at the tenant's first submission).
        ``run_kwargs`` are forwarded to :meth:`Session.run`.
        """
        circuit_list = (
            list(circuits) if isinstance(circuits, (list, tuple)) else [circuits]
        )
        modelled_seconds = None
        if self.policy.max_modelled_seconds is not None:
            # Plan now (cached for the execution) to price the job in
            # modelled cluster time before letting it occupy the queue.
            modelled_job = self.session.run(
                circuit_list, execute=False, **run_kwargs
            )
            modelled_seconds = sum(
                r.timing.total_seconds for r in modelled_job.modelled_results()
            )
        with self._cond:
            self._ensure_open()
            stats = self._tenant(tenant)
            try:
                self._admission.admit(
                    circuit_list,
                    tenant=tenant,
                    pending_total=self._scheduler.pending(),
                    pending_tenant=self._scheduler.pending_for(tenant),
                    modelled_seconds=modelled_seconds,
                    backend=run_kwargs.get("backend"),
                    machine=run_kwargs.get("machine"),
                )
            except Exception:
                self.rejected += 1
                stats.rejected += 1
                raise
            job_id = None
            if self._journal is not None:
                # Write-ahead: the acceptance record must be durable
                # before the job can queue, or a crash loses it.
                job_id = next(self._job_ids)
                self._journal.append(
                    "submitted",
                    job_id,
                    tenant=tenant,
                    priority=priority,
                    weight=weight,
                    **self._journal_payload(circuit_list, run_kwargs),
                )
            job = Job.pending(
                len(circuit_list),
                backend=run_kwargs.get("backend") or "",
                tenant=tenant,
            )
            item = _WorkItem(
                jobs=[job],
                circuits=circuit_list,
                run_kwargs=dict(run_kwargs),
                tenant=tenant,
                submitted_at=time.monotonic(),
                job_id=job_id,
                modelled_seconds=modelled_seconds,
            )
            item.entry = self._scheduler.enqueue(
                tenant,
                item,
                priority=priority,
                cost=len(circuit_list),
                weight=weight,
            )
            self.submitted += 1
            stats.submitted += 1
            stats.circuits += len(circuit_list)
            self.peak_queue_depth = max(
                self.peak_queue_depth, self._scheduler.pending()
            )
            self._cond.notify_all()
        return job

    @staticmethod
    def _journal_payload(circuit_list, run_kwargs) -> dict:
        """The recoverable portion of a submission's journal record.

        Circuits serialize as OpenQASM (bit-exact float round-trip) and
        run kwargs as JSON.  Anything that cannot be re-materialised from
        text makes the record ``durable: false`` — journalled for
        accounting, abandoned on recovery.
        """
        try:
            circuits = [to_qasm(c) for c in circuit_list]
            kwargs = json.loads(json.dumps(dict(run_kwargs)))
            if kwargs != dict(run_kwargs):
                return {"durable": False}
        except Exception:
            return {"durable": False}
        return {"durable": True, "circuits": circuits, "run_kwargs": kwargs}

    def submit_many(
        self,
        specs,
        *,
        tenant: str = "default",
        priority: int = 0,
        weight: float = 1.0,
        concurrency: int = 4,
        dedup: bool = True,
        **run_kwargs,
    ) -> list[Job]:
        """Batch intake: one Job per spec, deduplicating identical work.

        *specs* may mix :class:`~repro.circuits.Circuit` objects and
        textual specs (``family:nqubits`` or QASM paths — see
        :func:`parse_circuit_spec`); textual specs are parsed concurrently
        on up to *concurrency* threads.  With ``dedup=True`` (default),
        submissions whose circuit *content* (structure **and** parameters)
        and run kwargs coincide execute **once**: followers receive the
        primary's results through their own independent Jobs (separately
        cancellable, same fan-out results).

        A malformed textual spec fails **only its own job**: that Job is
        returned already failed with a
        :class:`~repro.errors.SpecParseError` (counted as a rejection),
        and every other spec in the batch is admitted normally.
        """
        specs = list(specs)
        if any(isinstance(s, str) for s in specs):
            if concurrency < 1:
                raise ValueError(
                    "concurrency must be positive"
                )  # lint: config-error

            def _parse(spec):
                if not isinstance(spec, str):
                    return spec
                try:
                    return parse_circuit_spec(spec)
                except SpecParseError as exc:
                    return exc

            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                circuits = list(pool.map(_parse, specs))
        else:
            circuits = specs
        kwargs_key = tuple(sorted((k, repr(v)) for k, v in run_kwargs.items()))
        jobs: list[Job] = []
        primaries: dict[object, Job] = {}
        for circuit in circuits:
            if isinstance(circuit, SpecParseError):
                job = Job.pending(1, tenant=tenant)
                job._fail(circuit)
                with self._cond:
                    self.rejected += 1
                    self._tenant(tenant).rejected += 1
                jobs.append(job)
                continue
            key = (circuit.content_key(), kwargs_key) if dedup else None
            primary = primaries.get(key) if key is not None else None
            if primary is None:
                job = self.submit(
                    circuit,
                    tenant=tenant,
                    priority=priority,
                    weight=weight,
                    **run_kwargs,
                )
                if key is not None:
                    primaries[key] = job
            else:
                job = self._attach_follower(primary, tenant)
            jobs.append(job)
        return jobs

    def submit_file(
        self,
        path,
        *,
        tenant: str = "default",
        priority: int = 0,
        weight: float = 1.0,
        concurrency: int = 4,
        dedup: bool = True,
        **run_kwargs,
    ) -> list[Job]:
        """Submit every circuit spec listed in a text file.

        One spec per line (``family:nqubits`` or a QASM path); blank lines
        and ``#`` comments are skipped.  Semantics otherwise identical to
        :meth:`submit_many`.
        """
        lines = Path(path).read_text().splitlines()
        specs = [
            line.strip()
            for line in lines
            if line.strip() and not line.strip().startswith("#")
        ]
        return self.submit_many(
            specs,
            tenant=tenant,
            priority=priority,
            weight=weight,
            concurrency=concurrency,
            dedup=dedup,
            **run_kwargs,
        )

    def _attach_follower(self, primary: Job, tenant: str) -> Job:
        """A dedup follower: its own cancellable Job, completed with the
        primary item's results when that item executes."""
        with self._cond:
            self._ensure_open()
            item = self._find_item(primary)
            stats = self._tenant(tenant)
            if item is None:
                # Primary already dispatched (or cancelled): fall back to
                # mirroring its terminal outcome via a deferred resolve.
                follower = Job.pending(len(primary), tenant=tenant)
                self.submitted += 1
                self.deduplicated += 1
                stats.submitted += 1
                stats.deduplicated += 1

                def _mirror(primary=primary, follower=follower):
                    try:
                        results = primary.results()
                    except BaseException as exc:
                        follower._fail(exc)
                    else:
                        follower._complete(
                            results,
                            backend=primary.backend,
                            wall_seconds=primary.wall_seconds,
                            cache_hits=primary.cache_hits,
                        )

                threading.Thread(target=_mirror, daemon=True).start()
                return follower
            follower = Job.pending(len(item.circuits), tenant=tenant)
            item.jobs.append(follower)
            self.submitted += 1
            self.deduplicated += 1
            stats.submitted += 1
            stats.deduplicated += 1
            return follower

    def _find_item(self, job: Job) -> "_WorkItem | None":
        for queue in self._scheduler._queues.values():
            for entry in queue._heap:
                if job in entry.payload.jobs:
                    return entry.payload
        return None

    # ------------------------------------------------------------------
    # Scheduler thread
    # ------------------------------------------------------------------

    #: Run keywords a job may carry and still share a dispatch: they act
    #: the same on each circuit of a stack.  (``seed``, ``deadline`` and
    #: ``initial_states`` would act on the stack as a whole.)
    _STACKABLE_KWARGS = frozenset(
        {"backend", "machine", "planner", "shots", "observables", "normalize"}
    )

    def _stack_match(self, item: _WorkItem):
        """What a queued item must be to share *item*'s dispatch — one
        circuit, equal run keywords and the same structural key, on a
        backend that runs compiled programs — as ``(predicate over
        payloads, how many rows the stack takes)``; ``None`` when *item*
        runs alone.  (A shard backend's schedule binds one job, so it
        keeps one dispatch per job.)  The rows are as many as the session's
        memory budget holds (:meth:`Session.stack_limit`), so a stack never
        runs a job over a budget it fits alone."""
        kwargs = item.run_kwargs
        if len(item.circuits) != 1 or not self._STACKABLE_KWARGS.issuperset(kwargs):
            return None
        (circuit,) = item.circuits
        session = self.session
        try:
            machine = kwargs.get("machine") or session.machine
            backend_name = session.resolve_backend(
                circuit.num_qubits, machine, kwargs.get("backend")
            )
            backend = session.backend_instance(backend_name)
        except Exception:
            return None
        if not (backend.uses_programs and backend.program_kind == "program"):
            return None
        limit = session.stack_limit(backend_name, machine, circuit.num_qubits)
        if limit < 2:
            return None
        key = circuit.structural_key()
        shape = _shape(circuit)

        def match(other: _WorkItem) -> bool:
            # The cheap shape first: a queued circuit's key is computed (and
            # memoised for its own dispatch) only when it could match.
            if len(other.circuits) != 1:
                return False
            (candidate,) = other.circuits
            if _shape(candidate) != shape or candidate.structural_key() != key:
                return False
            try:
                return bool(other.run_kwargs == kwargs)
            except Exception:  # keywords that do not compare (arrays)
                return False

        return match, limit

    def _claim(self, entries) -> list:
        """``(tenant, item, claimed jobs)`` of each scheduled entry with a
        job still to run; an entry whose every job was cancelled while
        queued is accounted (and journalled) as cancelled here."""
        group = []
        for tenant, queued in entries:
            item: _WorkItem = queued.payload
            claimed = [job for job in item.jobs if job._mark_running()]
            if claimed:
                group.append((tenant, item, claimed))
                continue
            stats = self._tenant(tenant)
            self.cancelled += len(item.jobs)
            stats.cancelled += len(item.jobs)
            if self._journal is not None and item.job_id is not None:
                self._journal.append("cancelled", item.job_id, tenant=tenant)
        return group

    def _scheduler_loop(self) -> None:
        """Dispatch under DRR, one structure at a time: the item DRR picks,
        with the queued items of its structure that may run early
        (:meth:`_stack_match`, :meth:`FairShareScheduler.drain` — at most
        a stack's rows, charged to their own tenants), runs as one
        :meth:`Session.run` — a solo item is a group of one.  A group that
        fails runs again item by item, so only an item whose own run fails
        is failed.  Journal records stay per job: ``running`` for each
        before, ``completed`` / ``failed`` for each after, each set written
        as one batch (:meth:`JobJournal.batch`)."""
        while True:
            with self._cond:
                self._heartbeat = time.monotonic()
                while not self._stop and self._scheduler.pending() == 0:
                    self._cond.wait(timeout=0.5)
                    self._heartbeat = time.monotonic()
                if self._stop and self._scheduler.pending() == 0:
                    return
                entry = self._scheduler.next_job()
                if entry is None:
                    continue
                group = self._claim([entry])
                if not group:
                    self._cond.notify_all()
                    continue
                self._inflight += 1
            # Which queued items share the pick's structure is worked out
            # outside the service lock (a circuit's first key costs a gate
            # table), so a client's submit never waits on it.
            stack = self._stack_match(group[0][1])
            if stack is not None:
                match, limit = stack
                with self._cond:
                    candidates = self._scheduler.drainable()
                chosen = {id(other) for other in candidates if match(other)}
                if chosen:
                    with self._cond:
                        group += self._claim(
                            self._scheduler.drain(lambda other: id(other) in chosen, limit - 1)
                        )
            with self._cond:
                self.dispatched += len(group)
                if len(group) > 1:
                    self.stacked_dispatches += 1
                    self.stacked_rows += len(group)
                now = time.monotonic()
                for tenant, member, _claimed in group:
                    if member.job_id is not None:
                        self._running_since[member.job_id] = (
                            now, member.modelled_seconds, tenant,
                        )
            first = group[0][1]
            run_kwargs = dict(first.run_kwargs)
            if self._journal is not None:
                with self._journal.batch():
                    for tenant, item, _claimed in group:
                        if item.job_id is not None:
                            # Write-ahead: the transition precedes the
                            # execution, so a crash mid-run replays this job
                            # as an orphan.
                            self._journal.append("running", item.job_id, tenant=tenant)
                if first.job_id is not None:
                    # Durable dispatch: stage checkpoints land under the
                    # journal with a per-job tag; recovered jobs resume from
                    # whatever their crashed run already completed.  (A
                    # stack runs in core, where neither applies.)
                    run_kwargs.setdefault(
                        "checkpoint",
                        CheckpointConfig(self._journal.checkpoint_dir, tag=f"job{first.job_id}"),
                    )
                    if first.recovered:
                        run_kwargs.setdefault("resume_from", self._journal.checkpoint_dir)
            started = time.monotonic()
            session_stats = self.session.stats
            stats_before = (
                session_stats.cache_hits, session_stats.shared_cache_hits,
                session_stats.plans_built,
            )
            # Per item: (its results, the Job that ran them, the error).  A
            # stack's failure is no one job's yet: each of its items then
            # runs alone, and only one whose own run fails is failed.
            outcomes: list = []
            parts = [group]
            while parts:
                part = parts.pop(0)
                try:
                    inner = self.session.run(
                        [c for _tenant, item, _claimed in part for c in item.circuits],
                        execute=True, **run_kwargs,
                    )
                except BaseException as exc:  # propagate through every Job
                    if len(part) > 1 and isinstance(exc, Exception):
                        parts[:0] = [[member] for member in part]
                    else:
                        outcomes += [([], None, exc)] * len(part)
                    continue
                results, at = inner.results(), 0
                for _tenant, item, _claimed in part:
                    outcomes.append((results[at : at + len(item.circuits)], inner, None))
                    at += len(item.circuits)
            finished = time.monotonic()
            if self._journal is not None:
                with self._journal.batch():
                    for (tenant, item, _claimed), (_own, _inner, error) in zip(group, outcomes):
                        if item.job_id is None:
                            continue
                        if error is None:
                            self._journal.append(
                                "completed", item.job_id, tenant=tenant,
                                wall_seconds=finished - started,
                            )
                        else:
                            self._journal.append(
                                "failed", item.job_id, tenant=tenant,
                                error=f"{type(error).__name__}: {error}",
                            )
            for (_tenant, _item, claimed), (own, inner, error) in zip(group, outcomes):
                for job in claimed:
                    if error is None:
                        job._complete(
                            own, backend=inner.backend, wall_seconds=inner.wall_seconds,
                            cache_hits=sum(1 for r in own if r.cache_hit),
                        )
                    else:
                        job._fail(error)
            with self._cond:
                self._inflight -= 1
                self._heartbeat = time.monotonic()
                # Planning happens for the stack's first row; every later
                # row is a local hit.
                hits = session_stats.cache_hits - stats_before[0]
                for index, ((tenant, item, claimed), (_own, _inner, error)) in enumerate(
                    zip(group, outcomes)
                ):
                    stats = self._tenant(tenant)
                    if item.job_id is not None:
                        self._running_since.pop(item.job_id, None)
                    if index == 0:
                        stats.cache_hits += max(hits - (len(group) - 1), 0)
                        stats.shared_cache_hits += (
                            session_stats.shared_cache_hits - stats_before[1]
                        )
                        stats.plans_built += session_stats.plans_built - stats_before[2]
                    else:
                        stats.cache_hits += 1
                    stats.wait_seconds += started - item.submitted_at
                    stats.turnaround_seconds += finished - item.submitted_at
                    if error is None:
                        self.completed += len(claimed)
                        stats.completed += len(claimed)
                    else:
                        self.failed += len(claimed)
                        stats.failed += len(claimed)
                    skipped = len(item.jobs) - len(claimed)
                    if skipped:
                        self.cancelled += skipped
                        stats.cancelled += skipped
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Watchdog thread
    # ------------------------------------------------------------------

    def _watchdog_loop(self) -> None:
        """Periodic liveness sweep: flag jobs running far beyond budget.

        A job's budget is ``stuck_grace_seconds + stuck_slack ×
        modelled_seconds`` (modelled time is known only when the
        admission policy priced the job; otherwise the grace period
        alone applies).  Each stuck job is flagged once — the watchdog
        observes and reports, it never kills work.
        """
        while not self._watchdog_stop.wait(self._watchdog_interval):
            now = time.monotonic()
            with self._cond:
                for jid, (started, modelled, tenant) in list(
                    self._running_since.items()
                ):
                    if jid in self._stuck_flagged:
                        continue
                    budget = self._stuck_grace_seconds + self._stuck_slack * (
                        modelled or 0.0
                    )
                    if now - started > budget:
                        self._stuck_flagged.add(jid)
                        self.stuck_jobs += 1
                        self._tenant(tenant).stuck_jobs += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = self._tenants[tenant] = TenantStats()
        return stats

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return self._scheduler.pending()

    def tenant_stats(self, tenant: str) -> TenantStats:
        with self._cond:
            return self._tenant(tenant)

    def stats(self) -> dict:
        """Snapshot of service, per-tenant, store and session counters."""
        with self._cond:
            return {
                "queue_depth": self._scheduler.pending(),
                "peak_queue_depth": self.peak_queue_depth,
                "inflight": self._inflight,
                "submitted": self.submitted,
                "dispatched": self.dispatched,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "deduplicated": self.deduplicated,
                "stacked_dispatches": self.stacked_dispatches,
                "stacked_rows": self.stacked_rows,
                "tenants": {
                    name: stats.as_dict()
                    for name, stats in sorted(self._tenants.items())
                },
                "journal": (
                    {
                        **self._journal.stats(),
                        "recovered": self.recovered,
                        "abandoned": self.abandoned,
                    }
                    if self._journal is not None
                    else None
                ),
                "watchdog": {
                    "interval_seconds": self._watchdog_interval,
                    "heartbeat_age_seconds": time.monotonic() - self._heartbeat,
                    "running_jobs": len(self._running_since),
                    "stuck_jobs": self.stuck_jobs,
                },
                "shared_store": self.store.stats.as_dict(),
                "session": self.session.stats.as_dict(),
                # Which body shared-memory kernels run in this process.
                "engine": native.engine(),
            }
