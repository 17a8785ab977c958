"""The :class:`Session` facade — one front door for every execution path.

A Session owns the three things a production simulation service must
amortise across requests:

* a **backend registry instance** — adapters over every executor
  (:mod:`repro.session.backends`), with ``"auto"`` picking in-core vs.
  shard-streaming per job by state size vs. device memory;
* a **structural plan cache** (:mod:`repro.session.cache`) — ILP staging
  and DP kernelization run once per circuit *structure*; every further
  circuit of a parameter sweep re-binds the cached plan to its own angles;
* a **job API** — ``run(circuit_or_circuits, shots=..., observables=...)``
  returning :class:`~repro.session.result.Job`/:class:`~repro.session.result.Result`
  objects carrying states, samples, expectation values, modelled timing and
  plan provenance, with batches routed through one backend ``run_batch``
  so pools, buffers and cached programs are reused.

Quick start::

    from repro import MachineConfig, Session
    from repro.circuits.library import vqc

    machine = MachineConfig.for_circuit(12, num_shards=4, local_qubits=10)
    with Session(machine) as session:
        sweep = [vqc(12, seed=s) for s in range(50)]
        job = session.run(sweep, shots=256, observables=[0, (0, 1)])
        print(session.stats.as_dict())   # 1 plan built, 49 cache hits

:func:`repro.simulate` is a thin one-shot shim over this class.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..cluster.machine import MachineConfig
from ..core.partitioner import PartitionReport
from ..core.plan import ExecutionPlan
from ..errors import (
    AdmissionError,
    CacheCorruptionError,
    Deadline,
    KernelError,
    PlanValidationError,
    ReproError,
    RetryPolicy,
    SessionClosedError,
    StateValidationError,
    TransientError,
)
from ..planner.pipeline import PassManager, resolve_planner
from ..runtime import faults as _faults
from ..runtime.compile import compile_plan
from ..runtime.faults import FaultInjector
from ..runtime.offload import Schedule, build_schedule
from ..sim.fusion import fusion_cache_stats
from ..sim.program import CompiledProgram
from ..sim.statevector import StateVector
from .backends import (
    BACKENDS,
    ExecutionBackend,
    ParallelBackend,
    make_backend,
    select_auto_backend,
)
from .cache import (
    PlanCache,
    freeze_config,
    plan_cache_key,
    plan_skeleton,
    rebind_plan,
    shared_plan_key,
    skeleton_to_plan,
)
from .result import Job, Result, normalize_observable

__all__ = ["Session", "SessionStats"]


@dataclass
class SessionStats:
    """Aggregate accounting of one Session's lifetime."""

    jobs: int = 0
    circuits_run: int = 0
    #: Plans actually built (cache misses that ran the partitioner).
    plans_built: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cross-tenant shared plan-store counters (``Session(shared_cache=...)``):
    #: hits served by binding another submitter's canonical plan skeleton,
    #: and lookups that fell through to the planner.
    shared_cache_hits: int = 0
    shared_cache_misses: int = 0
    #: Functional executions per backend name.
    backend_runs: dict[str, int] = field(default_factory=dict)
    #: Wall time spent partitioning (cache misses only), seconds.
    plan_seconds: float = 0.0
    #: Wall time spent in functional execution, seconds.
    execute_seconds: float = 0.0
    #: Cumulative wall seconds per planning pass across cache misses.
    planning_pass_seconds: dict[str, float] = field(default_factory=dict)
    #: Planning-pass skip counters: pass name -> times it skipped its work
    #: (e.g. the stage pass after the fits-locally shortcut).
    planning_passes_skipped: dict[str, int] = field(default_factory=dict)
    #: Shard schedules the sharded backends' jobs acquired: rebound from
    #: the plan cache's (hits), or built cold (misses — the first job of a
    #: structure, and one whose gates did not fit the cached structure).
    schedule_cache_hits: int = 0
    schedule_cache_misses: int = 0
    #: Compiled programs built from scratch (plan-cache misses on the
    #: in-core backends; these six count in-core programs only).
    programs_compiled: int = 0
    #: Programs produced by rebinding a cached program to new angles.
    programs_rebound: int = 0
    #: Ops taken verbatim from the cached program across all rebinds
    #: (constant-structure gates whose payload never changes).
    program_ops_reused: int = 0
    #: Ops whose payload was refilled through the cached program's
    #: structure across all rebinds (the numeric fill), rebinds whose plan
    #: failed the structure guard and were compiled from scratch instead,
    #: and the wall seconds all rebinds took together.
    program_ops_rebound: int = 0
    program_rebind_fallbacks: int = 0
    program_rebind_seconds: float = 0.0
    #: Bounded fused-unitary cache counters, attributed to this session
    #: (deltas of the process-wide cache since the session was created).
    fusion_cache_hits: int = 0
    fusion_cache_misses: int = 0
    fusion_cache_evictions: int = 0
    #: Recovery accounting (see ``docs/robustness.md``): transient shard
    #: retries across the session's runtimes, graceful degradations taken
    #: (backend chain, compiled-program → interpreter, planner preset →
    #: fallback, cache evict-and-replan), workers quarantined after
    #: exhausting their retry budget, injected faults fired, and cache
    #: entries evicted for failing their integrity check.
    retries: int = 0
    fallbacks: int = 0
    quarantined_workers: int = 0
    faults_injected: int = 0
    cache_corruptions: int = 0
    #: Static-verification passes run over plans/programs/schedules
    #: (``Session(check="plans"|"full")``; zero when checking is off).
    static_checks: int = 0
    #: Durability accounting (``docs/robustness.md`` § Durable execution):
    #: stage-boundary checkpoints written, checkpoint writes that failed
    #: (advisory — the run continued), integrity-monitor boundary checks
    #: performed, and the worst relative norm drift observed.
    checkpoints_written: int = 0
    checkpoint_errors: int = 0
    integrity_checks: int = 0
    max_norm_drift: float = 0.0
    #: Parallel-runtime exec-lock contention: executions that took the
    #: lock, and total seconds spent waiting while another job held it —
    #: the "pool convoying vs stuck job" signal the service watchdog uses.
    exec_lock_acquisitions: int = 0
    exec_lock_wait_seconds: float = 0.0

    def as_dict(self) -> dict:
        """Every field by name (dict-valued ones copied) plus the derived
        ``cache_hit_rate``."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        lookups = self.cache_hits + self.cache_misses
        out["cache_hit_rate"] = self.cache_hits / lookups if lookups else 0.0
        return out


class _Request(NamedTuple):
    """A :meth:`Session.run` call, validated and in batch form."""

    #: One circuit and one (validated) initial state per job item.
    circuits: list
    states: list
    machine: MachineConfig
    #: The backend asked for, resolved (``"auto"`` applied) but not yet admitted.
    backend_name: str
    shots: int | None
    observable_keys: list
    rng: np.random.Generator
    deadline: Deadline
    execute: bool
    planner: "str | PassManager | None"
    checkpoint: object
    resume_from: object


class _Item(NamedTuple):
    """One job item, planned: its inputs and what :meth:`Session.plan_for`
    returned for the circuit."""

    circuit: Circuit
    state: StateVector | None
    plan: ExecutionPlan
    report: PartitionReport | None
    cache_hit: bool
    program: "CompiledProgram | Schedule | None"


class Session:
    """Unified facade over partitioning, caching, and every execution backend.

    Parameters
    ----------
    machine:
        Default cluster configuration for this session's jobs; individual
        :meth:`run` calls may override it.
    backend:
        Default backend name: ``"auto"`` (selection by state size vs.
        device memory), one of the registered executors (``"reference"``,
        ``"incore"``, ``"offload"``, ``"parallel"``), or a modelled
        baseline (``"hyquas"``, ``"cuquantum"``, ``"qiskit"``).
    planner:
        Planning pipeline: a preset name (``"fast"`` / ``"balanced"`` /
        ``"quality"`` or anything registered with
        :func:`repro.planner.register_preset`), a
        :class:`repro.planner.PassManager`, or ``None`` for the default
        (``"balanced"``; per-:meth:`run` override available).  This is the
        only planning knob: the seed planner's stager × kernelizer axes
        are a ``PassManager`` like any other.  The full pipeline
        configuration is part of the plan-cache key, so plans produced by
        different pipelines never alias each other.
    cost_model:
        Kernel cost model; part of the plan-cache key.
    seed:
        Seed of the session RNG used for measurement sampling.  Repeated
        ``run(shots=...)`` calls draw *independent* samples from this one
        generator; two sessions with equal seeds draw identical sequences.
    cache_size:
        Maximum number of plan structures kept in the cache.
    retry:
        :class:`~repro.errors.RetryPolicy` for transient failures in the
        shard runtimes (default: the shared bounded-backoff policy).
    faults:
        Fault-injection plan for this session's jobs: a
        :class:`~repro.runtime.faults.FaultPlan`, a spec string
        (``"shard_load:transient:2"``), or a list of
        :class:`~repro.runtime.faults.FaultSpec`.  Activated around each
        :meth:`run` call; see ``docs/robustness.md``.
    degrade:
        Allow graceful degradation (the backend fallback chain, planner
        preset fallback).  ``False`` turns every degradation point into an
        immediate typed error.
    memory_budget_bytes:
        Modelled device-memory budget for the admission check: jobs whose
        modelled working set exceeds it are degraded down the backend
        chain (``incore`` → ``offload`` → ``parallel``) or rejected with
        :class:`~repro.errors.AdmissionError`.  ``None`` disables the
        check.
    shared_cache:
        Optional cross-tenant shared plan store (typically a
        :class:`repro.service.SharedPlanStore`).  Consulted on local
        plan-cache misses under the circuit's *canonical* (qubit-relabel
        invariant) structural key, and fed every plan this session builds
        through the Atlas pipeline — so structurally equivalent circuits
        from different sessions/tenants share one cold plan, and a store
        with a persistence directory warms restarted services from disk.
        Entries that fail their integrity checksum are evicted and
        replanned, never trusted.
    check:
        Static-verification mode (see ``docs/static-analysis.md``):
        ``"off"`` (default — a single branch, no other overhead) runs no
        checks; ``"plans"`` verifies every plan leaving :meth:`plan_for`
        (:func:`repro.check.verify_plan`); ``"full"`` additionally
        verifies compiled op streams (:func:`repro.check.verify_program`)
        and, on the sharded backends, the parallel shard schedule
        (:func:`repro.check.verify_schedule`).  Violations raise
        :class:`~repro.errors.StaticCheckError` before anything executes.
    monitor:
        Runtime integrity monitoring on the shard backends (see
        ``docs/robustness.md`` § Durable execution): ``True`` (or an
        :class:`~repro.runtime.IntegrityConfig`) checks state-norm
        conservation and inter-stage checksums at every stage boundary,
        raising :class:`~repro.errors.IntegrityError` on corruption;
        telemetry lands in ``stats.integrity_checks`` /
        ``stats.max_norm_drift``.  Off by default (one digest pass over
        the state per boundary).

    Use as a context manager (or call :meth:`close`) to release
    backend-owned worker pools and buffers.  :meth:`close` is idempotent;
    any use after it raises :class:`~repro.errors.SessionClosedError`.
    """

    def __init__(
        self,
        machine: MachineConfig | None = None,
        backend: str = "auto",
        cost_model: CostModel = DEFAULT_COST_MODEL,
        planner: "str | PassManager | None" = None,
        seed: int = 0,
        cache_size: int = 128,
        retry: RetryPolicy | None = None,
        faults: "object | None" = None,
        degrade: bool = True,
        memory_budget_bytes: int | None = None,
        check: str = "off",
        shared_cache: "object | None" = None,
        monitor: "object | None" = None,
    ):
        if backend != "auto" and backend not in BACKENDS:
            raise ValueError(  # lint: config-error
                f"unknown backend {backend!r}; known: "
                f"{['auto'] + sorted(BACKENDS)}"
            )
        if check not in ("off", "plans", "full"):
            raise ValueError(  # lint: config-error
                f"unknown check mode {check!r}; known: ['off', 'plans', 'full']"
            )
        self.machine = machine
        self.backend = backend
        self.cost_model = cost_model
        self.planner = resolve_planner(planner)
        self.cache = PlanCache(maxsize=cache_size)
        self.stats = SessionStats()
        self.retry = retry
        self.degrade = degrade
        self.memory_budget_bytes = memory_budget_bytes
        self.check = check
        self.shared_cache = shared_cache
        self.monitor = monitor
        #: Serializes ``run``/``plan_for`` so one Session may be shared by
        #: a service scheduler and deferred-job resolvers on other threads
        #: (reentrant: a deferred thunk re-enters ``run`` on its own
        #: thread without deadlocking).
        self._lock = threading.RLock()
        self._injector = FaultInjector(faults) if faults is not None else None
        #: Session-level degradations (backend chain, planner fallback,
        #: program-compile fallback, cache evict-and-replan); backend-level
        #: counters are aggregated separately (see ``_recovery_totals``).
        self._session_fallbacks = 0
        self._fusion_baseline = fusion_cache_stats()
        self._rng = np.random.default_rng(seed)
        self._backends: dict[str, ExecutionBackend] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release every backend's pools/buffers and drop the plan cache.

        Idempotent: closing an already-closed session is a no-op.  Any
        later use raises :class:`~repro.errors.SessionClosedError`.
        """
        for backend in self._backends.values():
            backend.close()
        self._backends.clear()
        self.cache.clear()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Backend resolution
    # ------------------------------------------------------------------

    def backend_instance(self, name: str) -> ExecutionBackend:
        """This session's instance of the backend registered under *name*."""
        if self._closed:
            raise SessionClosedError("Session is closed")
        instance = self._backends.get(name)
        if instance is None:
            instance = self._backends[name] = make_backend(name)
            # Backends consult getattr(self, "retry", None) when building
            # their runtimes; only fill it when the factory left it unset.
            if self.retry is not None and getattr(instance, "retry", None) is None:
                instance.retry = self.retry
        return instance

    def resolve_backend(
        self, num_qubits: int, machine: MachineConfig, backend: str | None = None
    ) -> str:
        """The backend name a job with these parameters will run on."""
        name = backend if backend is not None else self.backend
        if name == "auto":
            return select_auto_backend(machine, num_qubits)
        if name not in BACKENDS:
            raise ValueError(  # lint: config-error
                f"unknown backend {name!r}; known: {['auto'] + sorted(BACKENDS)}"
            )
        return name

    def _resolve_machine(self, machine: MachineConfig | None) -> MachineConfig:
        resolved = machine if machine is not None else self.machine
        if resolved is None:
            raise ValueError(  # lint: config-error
                "no machine: pass machine= to Session(...) or to run(...)"
            )
        return resolved

    # ------------------------------------------------------------------
    # Robustness helpers: admission, degradation chain, recovery totals
    # ------------------------------------------------------------------

    #: Ordered degradation chain, each backend followed by its
    #: smaller-working-set successor.  ``incore`` holds the full state in
    #: device memory; ``offload`` streams one shard's buffers; ``parallel``
    #: streams one shard-buffer set per worker but recovers transient
    #: faults in flight.
    _BACKEND_CHAIN = ("incore", "offload", "parallel")

    def backend_chain(self, name: str | None = None) -> tuple[str, ...]:
        """The degradation chain from backend *name* on (all of it by default).

        What the session walks when a job is over its memory budget or an
        allocation fails, and what the service's admission control checks
        a job against.  A backend outside the chain degrades to nothing.
        """
        chain = self._BACKEND_CHAIN
        if name is None:
            return chain
        return chain[chain.index(name):] if name in chain else (name,)

    @staticmethod
    def stack_widths(circuits: Sequence[Circuit]) -> list[tuple[Circuit, int]]:
        """``(circuit, width)`` per run of one circuit object in *circuits*:
        the items that share a plan and a compiled program, which a backend
        that runs compiled programs executes as one ``(width, 2^n)`` stack."""
        return [
            (run[0], len(run))
            for run in (list(group) for _id, group in groupby(circuits, key=id))
        ]

    def modelled_device_bytes(
        self, backend_name: str, machine: MachineConfig, num_qubits: int,
        stack_width: int = 1,
    ) -> int:
        """Modelled device-memory working set of one job on *backend_name*.

        The admission model of this session and of the service layer's
        :class:`repro.service.AdmissionController`.  Complex128 amplitudes:
        the in-core executors ping-pong two full state buffers — two
        ``(stack_width, 2^n)`` stacks when the backend runs one program
        over a fan-out (:meth:`stack_widths`) as a single pass; the shard
        runtimes hold two buffer pairs of ``2^L`` amplitudes per worker
        (the double-buffered prefetch), with the state itself residing in
        DRAM.
        """
        full = 2 * 16 * (1 << num_qubits)
        if backend_name not in self._SHARDED_BACKENDS:
            if stack_width > 1 and self.backend_instance(backend_name).uses_programs:
                full *= stack_width
            return full
        if num_qubits <= machine.local_qubits:
            return full
        shard_pairs = 4 * 16 * (1 << machine.local_qubits)
        if backend_name == "offload":
            return shard_pairs
        workers = max(1, min(machine.num_shards, machine.physical_gpus))
        return workers * shard_pairs

    def _admit(
        self,
        backend_name: str,
        machine: MachineConfig,
        num_qubits: int,
        execute: bool,
        stack_width: int = 1,
    ) -> list[str]:
        """Admission check: reject or degrade over-budget jobs up front.

        With ``memory_budget_bytes`` unset this is a no-op.  Otherwise the
        job's modelled working set — at the widest stack it fans out into —
        must fit the budget; when it does not,
        ``degrade=True`` walks the backend chain to the first admissible
        backend (each hop counted as a fallback) and ``degrade=False`` —
        or an exhausted chain — raises
        :class:`~repro.errors.AdmissionError`.
        Returns the chain walked; its last entry is the admitted backend.
        """
        budget = self.memory_budget_bytes
        if not execute or budget is None:
            return [backend_name]
        candidates = self.backend_chain(backend_name) if self.degrade else (backend_name,)
        for hops, name in enumerate(candidates):
            need = self.modelled_device_bytes(name, machine, num_qubits, stack_width)
            if need <= budget:
                self._session_fallbacks += hops
                return list(candidates[: hops + 1])
        raise AdmissionError(
            f"modelled working set of {need} bytes on backend "
            f"{name!r} exceeds the memory budget of {budget} bytes"
            + ("" if self.degrade else " (degrade=False disables the fallback chain)"),
            backend=name,
            bytes_needed=need,
            budget=budget,
        )

    def _recovery_totals(self) -> dict:
        """Cumulative recovery counters: session-level + every backend's,
        plus the faults fired by the injector this session counts (its own,
        else the process-wide active one), when there is one."""
        totals = {
            "retries": 0,
            "fallbacks": self._session_fallbacks,
            "quarantined_workers": 0,
        }
        for backend in self._backends.values():
            for key, value in backend.recovery_counters().items():
                totals[key] += value
        counting = self._injector if self._injector is not None else _faults.active_injector()
        if counting is not None:
            totals["faults_injected"] = counting.total_fired
        return totals

    def _validate_state(
        self, state: StateVector | None, normalize: bool
    ) -> StateVector | None:
        """Early initial-state validation (see ``run(normalize=...)``).

        Rejects non-finite amplitudes outright and badly non-normalized
        states unless ``normalize=True``, which renormalizes a copy — NaNs
        and norm drift are caught here, at the front door, not after
        propagating through every stage of the plan.
        """
        if state is None:
            return None
        data = state.data
        if not np.all(np.isfinite(data)):
            raise StateValidationError(
                "initial state contains non-finite amplitudes"
            )
        norm = float(np.linalg.norm(data))
        if abs(norm - 1.0) <= 1e-6:
            return state
        if not normalize:
            raise StateValidationError(
                f"initial state has norm {norm:.6g}, not 1; pass "
                f"normalize=True to renormalize it"
            )
        if norm == 0.0:
            raise StateValidationError("cannot normalize the zero state")
        return StateVector(state.num_qubits, data / norm)

    # ------------------------------------------------------------------
    # Planning (through the structural cache)
    # ------------------------------------------------------------------

    def resolve_planner_manager(
        self, planner: "str | PassManager | None" = None
    ) -> PassManager:
        """The pipeline a job with this *planner* override will plan with."""
        if planner is None:
            return self.planner
        return resolve_planner(planner)

    def _planner_key(self, manager: PassManager) -> tuple:
        """Cache-key component identifying the full planning configuration.

        Everything that can influence the produced plan is folded in: the
        complete pipeline signature (pass sequence, every pass's options,
        preset name, time budget) plus the cost model.  Two different
        presets/pipelines therefore can never share — or rebind from — one
        structural cache entry.
        """
        return (
            "atlas-pipeline",
            manager.signature(),
            freeze_config(self.cost_model),
        )

    def plan_for(
        self,
        circuit: Circuit,
        machine: MachineConfig | None = None,
        backend: str | None = None,
        compile_programs: bool = True,
        planner: "str | PassManager | None" = None,
    ) -> "tuple[ExecutionPlan, PartitionReport | None, bool, CompiledProgram | Schedule | None]":
        """Plan *circuit* through the structural cache.

        Returns ``(plan, report, cache_hit, program)``.  On a hit the plan
        is the cached structure re-bound to this circuit's gates and
        ``report`` is ``None`` (no preprocessing happened); on a miss the
        partitioner runs and the result is cached.  ``program`` is what the
        resolved backend executes when it ``uses_programs`` (``None``
        otherwise), lowered once per structure and bound per job:

        * an in-core backend's compiled op stream — compiled once on a
          miss, and on a hit rebound from the cached program: ops whose
          gates changed (new angles) get their payload refilled through
          the cached program's structure, the rest are kept, and the whole
          family shares one workspace;
        * a sharded backend's :class:`~repro.runtime.offload.Schedule` —
          built cold by the first job of a structure and kept, rebound
          from it by every later one (``offload`` and ``parallel`` share
          it), counted in ``schedule_cache_misses`` / ``_hits``.

        The cache entry holds one of each kind, so backends sharing a key
        never evict each other's.  ``compile_programs=False`` skips all of
        it (``run`` passes it for ``execute=False`` jobs, which never
        execute a program).

        With a ``shared_cache`` configured, a local miss consults the
        cross-tenant store under the circuit's canonical structural key:
        a shared hit binds the stored plan skeleton to this circuit
        (relabeled out of canonical form when needed) without running the
        partitioner, and every pipeline-built plan is published back.

        Whatever the source it is one flow: key → :meth:`_acquire_plan`
        (local hit | shared hit | build) → program → store → static check.
        """
        with self._lock:
            machine = self._resolve_machine(machine)
            backend_name = self.resolve_backend(circuit.num_qubits, machine, backend)
            backend_obj = self.backend_instance(backend_name)
            manager = self.resolve_planner_manager(planner)

            planner_key = backend_obj.planner_key()
            if planner_key is None:
                planner_key = self._planner_key(manager)
            key = plan_cache_key(circuit, machine, planner_key)

            source, base, report, programs, publish = self._acquire_plan(
                circuit, machine, key, planner_key, backend_obj, manager
            )
            plan = rebind_plan(base, circuit) if source == "local" else base
            kind = backend_obj.program_kind
            held = keep = programs.get(kind)
            program = None
            if compile_programs and backend_obj.uses_programs:
                acquire = self._schedule_for if kind == "schedule" else self._compiled_for
                program, keep = acquire(plan, machine, held)
            if source != "local" or keep is not held:
                # A shared hit is stored too, so later same-structure jobs
                # rebind (and share the program workspace) locally.
                self.cache.put(key, base, report, {**programs, kind: keep})
            if publish is not None:
                # In canonical labels, so any relabeled twin from another
                # tenant binds the same skeleton.
                shared_key, mapping = publish
                self.shared_cache.put(
                    shared_key,
                    plan_skeleton(plan, program if kind == "program" else None, mapping),
                )
            if self.check != "off":
                self._static_check(plan, machine, circuit, program, kind == "schedule")
            hit = source != "built"
            return plan, None if hit else report, hit, program

    def _acquire_plan(
        self,
        circuit: Circuit,
        machine: MachineConfig,
        key: tuple,
        planner_key: object,
        backend_obj: ExecutionBackend,
        manager: PassManager,
    ) -> tuple:
        """The local cache entry for *circuit*'s structure from the cheapest
        source that has it, counted.

        Returns ``(source, plan, report, programs, publish)``.  ``"local"``:
        the cached entry — ``plan`` has yet to be rebound to *circuit*, and
        ``programs`` holds what was lowered for it so far, by kind.
        ``"shared"`` (bound from the cross-tenant store) and ``"built"``:
        ``plan`` is *circuit*'s own and the entry is yet to be stored.
        ``publish`` is ``(shared_key, mapping)`` when a built plan goes to
        the shared store.
        """
        cached = self._lookup(self.cache, key)
        if cached is not None:
            self.stats.cache_hits += 1
            return ("local", *cached, None)
        self.stats.cache_misses += 1

        # Local miss: try the cross-tenant shared store under the circuit's
        # canonical (qubit-relabel invariant) structural key before paying
        # for the partitioner.
        shared = self.shared_cache
        shared_slot = None
        if shared is not None:
            shared_slot = shared_key, mapping = shared_plan_key(circuit, machine, planner_key)
            plan = self._lookup(
                shared, shared_key,
                lambda skeleton: skeleton_to_plan(skeleton, circuit, mapping),
            )
            if plan is not None:
                self.stats.shared_cache_hits += 1
                return "shared", plan, None, {}, None
            self.stats.shared_cache_misses += 1

        t0 = time.perf_counter()
        plan, report = backend_obj.make_plan(circuit, machine), None
        if plan is None:
            plan, report = self._plan_with_fallback(circuit, machine, manager)
            for name, seconds in report.pass_seconds.items():
                self.stats.planning_pass_seconds[name] = (
                    self.stats.planning_pass_seconds.get(name, 0.0) + seconds
                )
            for name in report.passes_skipped:
                self.stats.planning_passes_skipped[name] = (
                    self.stats.planning_passes_skipped.get(name, 0) + 1
                )
        self.stats.plan_seconds += time.perf_counter() - t0
        self.stats.plans_built += 1
        # Only pipeline-built plans (the ones with a report) are published;
        # a backend's own partitioner keeps to the local cache.
        return "built", plan, report, {}, shared_slot if report is not None else None

    def _schedule_for(
        self, plan: ExecutionPlan, machine: MachineConfig, held: "Schedule | None"
    ) -> "tuple[Schedule, Schedule | None]":
        """The shard schedule of the job's own *plan*, counted: ``(the
        job's, the cache entry's)``.

        Acquired once per job: rebound from the entry's *held* schedule (a
        hit), or built cold (a miss) when the entry has none or the rebind
        had to build any segment cold.  A cold build becomes the entry's
        unless a compile failure degraded single segments of it (the
        executor counts those as it runs them) — the next job then builds
        cold again rather than rebinding onto the uncompiled path.
        """
        schedule = build_schedule(plan, machine.local_qubits, reuse=held)
        if schedule.rebound:
            self.stats.schedule_cache_hits += 1
        else:
            self.stats.schedule_cache_misses += 1
        if held is None and not schedule.fallbacks:
            held = schedule
        return schedule, held

    def _compiled_for(
        self, plan: ExecutionPlan, machine: MachineConfig, held: "CompiledProgram | None"
    ) -> "tuple[CompiledProgram | None, CompiledProgram | None]":
        """The compiled program of the job's own *plan*, counted: ``(the
        job's, the cache entry's)`` — :meth:`_schedule_for`'s shape.

        Rebound from the entry's *held* program, or compiled cold when the
        entry has none — a fresh plan, or a local entry stored by a job
        that ran no program (a sharded backend, they share the Atlas
        planner key, or ``execute=False``) — and then kept as the entry's,
        so later hits only rebind.
        """
        program = self._program_for(plan, machine, held)
        if held is None:
            held = program
        return program, held

    def _program_for(
        self, plan: ExecutionPlan, machine: MachineConfig, reuse
    ) -> "CompiledProgram | None":
        """*plan* compiled, counted: from scratch (``reuse=None``) or
        rebound from the structure's cached *reuse* — ops whose gates
        changed get their payload refilled through it, the rest are kept.
        ``None`` when lowering fails: the job then runs through the
        backend's uncompiled path instead of failing, one counted fallback.
        """
        t0 = time.perf_counter()
        try:
            program = compile_plan(plan, machine, reuse=reuse)
        except (KernelError, TransientError):
            self._session_fallbacks += 1
            return None
        if reuse is None:
            self.stats.programs_compiled += 1
        else:
            self.stats.program_rebind_seconds += time.perf_counter() - t0
            self.stats.programs_rebound += 1
            self.stats.program_ops_reused += program.ops_reused
            self.stats.program_ops_rebound += program.ops_rebound
            self.stats.program_rebind_fallbacks += bool(program.ops_recompiled)
        return program

    def _lookup(self, store, key: tuple, bind=None):
        """``store.get(key)`` — run through *bind* when given — or ``None``
        on any miss.

        Integrity failures — a checksum mismatch surfaced by the store, an
        injected ``cache_rebind`` fault, or a shared skeleton that no longer
        fits the circuit — evict the entry and read as a miss, so the
        caller replans: a corrupted entry, local or cross-tenant, is never
        executed.
        """
        try:
            found = store.get(key)
            if found is not None:
                _faults.check("cache_rebind")
                if bind is not None:
                    found = bind(found)
            return found
        except (CacheCorruptionError, PlanValidationError, KeyError):
            store.evict(key)
            self.stats.cache_corruptions += 1
            self._session_fallbacks += 1
            return None

    #: Backends the admission model charges shard buffers rather than the
    #: full state (everything else about sharded execution follows the
    #: backend object's ``program_kind``).
    _SHARDED_BACKENDS = ("offload", "parallel")

    def _static_check(
        self,
        plan: ExecutionPlan,
        machine: MachineConfig,
        circuit: Circuit,
        program: "CompiledProgram | Schedule | None",
        sharded: bool,
    ) -> None:
        """Run the configured static checks; raise
        :class:`~repro.errors.StaticCheckError` on the first failed report.

        ``"plans"`` verifies the plan IR; ``"full"`` additionally verifies
        the compiled op stream (when one was built) and — *sharded*: the
        backend runs a schedule — the shard schedule's write exclusivity.  The machine's
        locality bound applies only where execution shards the state;
        in-core backends verify against each stage's own partition.
        """
        from ..check import verify_plan, verify_program, verify_schedule

        sharded = sharded and machine.local_qubits < plan.num_qubits
        self.stats.static_checks += 1
        report = verify_plan(
            plan, machine=machine if sharded else None, circuit=circuit
        )
        if self.check == "full":
            if isinstance(program, CompiledProgram):
                report.merge(
                    verify_program(
                        program, plan=plan,
                        machine=machine if sharded else None,
                    )
                )
            if sharded:
                num_shards = 1 << (plan.num_qubits - machine.local_qubits)
                report.merge(
                    verify_schedule(
                        plan, machine, num_workers=min(4, num_shards)
                    )
                )
        report.raise_if_failed()

    def _plan_with_fallback(
        self, circuit: Circuit, machine: MachineConfig, manager: PassManager
    ) -> tuple[ExecutionPlan, PartitionReport]:
        """Run the planning pipeline, degrading once on failure when allowed.

        Chain (``degrade=True``): the configured pipeline → the ``"fast"``
        preset → the *original* error (the fallback was an attempt to save
        the job, not the authoritative diagnosis).  The hop is counted in
        ``SessionStats.fallbacks``; a failing ``"fast"`` has nowhere to go
        and re-raises uncounted.

        Configuration errors — a plain ``ValueError``/``TypeError`` that is
        not a typed :class:`ReproError` (unknown stager, unknown pass, bad
        options) — never degrade: the user asked for something that does
        not exist, and silently planning with a different pipeline would
        mask the mistake.
        """
        try:
            return manager.run(circuit, machine, cost_model=self.cost_model)
        except Exception as exc:
            fallback = resolve_planner("fast")
            if (
                not self.degrade
                or (isinstance(exc, (ValueError, TypeError)) and not isinstance(exc, ReproError))
                or fallback.signature() == manager.signature()
            ):
                raise
            original = exc
        self._session_fallbacks += 1
        try:
            return fallback.run(circuit, machine, cost_model=self.cost_model)
        except Exception:
            raise original from None

    # ------------------------------------------------------------------
    # The job API
    # ------------------------------------------------------------------

    def run(
        self,
        circuits: Circuit | list[Circuit] | tuple[Circuit, ...],
        *,
        shots: int | None = None,
        observables=None,
        initial_state: StateVector | None = None,
        initial_states=None,
        backend: str | None = None,
        machine: MachineConfig | None = None,
        planner: "str | PassManager | None" = None,
        seed: int | None = None,
        execute: bool = True,
        deadline: "Deadline | float | None" = None,
        normalize: bool = False,
        checkpoint=None,
        resume_from=None,
    ) -> Job:
        """Run one circuit or a batch and return a :class:`Job`.

        With ``execute=True`` (default) the job completes before this
        method returns.  With ``execute=False`` it returns a **deferred**
        job: plans and modelled timing are available immediately
        (:meth:`Job.modelled_results`, ``state=None``), and the first
        :meth:`Job.result`/:meth:`Job.results` call performs the functional
        execution lazily — exactly once, thread-safe — through this
        session.

        Parameters
        ----------
        circuits:
            One :class:`Circuit` or a sequence of circuits.  Structurally
            identical circuits (a parameter sweep) are partitioned once.
        shots:
            When given, sample that many basis-state measurements per
            circuit into :attr:`Result.samples` using the session RNG
            (independent across calls, reproducible per session seed).
        observables:
            Pauli-Z product specs (see
            :func:`repro.session.result.normalize_observable`); expectation
            values land in :attr:`Result.expectations`.
        initial_state / initial_states:
            One starting state for every circuit, or one per circuit.  A
            single circuit with ``initial_states=[...]`` fans out into one
            job item per state.  Default |0...0>.
        backend, machine, planner, seed:
            Per-call overrides of the session defaults.  ``planner`` takes
            a preset name or a :class:`repro.planner.PassManager`; the
            override keys its own plan-cache entries, so switching presets
            never rebinds another pipeline's cached plan.
        execute:
            When False, skip functional execution: results carry the plan
            and modelled timing with ``state=None`` (useful for circuits
            too large to materialise, and for the modelled-comparison
            drivers in :mod:`repro.analysis`).
        deadline:
            Wall-clock budget in seconds (or a
            :class:`~repro.errors.Deadline`) for the whole job, checked
            cooperatively at planning, batch-item, and stage/segment/shard
            boundaries.  Expiry raises
            :class:`~repro.errors.DeadlineExceeded` with the session still
            usable.
        normalize:
            Renormalize initial states whose norm drifted (opt-in);
            without it, non-finite or badly non-normalized initial states
            raise :class:`~repro.errors.StateValidationError` instead of
            silently propagating NaNs through the whole plan.
        checkpoint / resume_from:
            Durable execution on the shard backends (``offload`` /
            ``parallel``; silently ignored elsewhere — an in-core run has
            no stage boundaries to snapshot).  ``checkpoint`` is a
            directory path or :class:`~repro.runtime.CheckpointConfig`:
            the executor durably snapshots the DRAM state at each stage
            boundary.  ``resume_from`` is a checkpoint file or directory:
            the run validates the snapshot against the plan's fingerprint
            and restarts after its last completed stage, bit-exact with
            an uninterrupted run (corrupt snapshots are evicted, never
            trusted).  See ``docs/robustness.md`` § Durable execution.
        """
        request = dict(
            shots=shots,
            observables=observables,
            initial_state=initial_state,
            initial_states=initial_states,
            backend=backend,
            machine=machine,
            planner=planner,
            seed=seed,
            deadline=deadline,
            normalize=normalize,
            checkpoint=checkpoint,
            resume_from=resume_from,
        )
        with self._lock:
            job = self._run_locked(circuits, execute=execute, **request)
        if execute:
            return job
        return Job.deferred(
            lambda: self.run(circuits, execute=True, **request),
            modelled=job.results(),
            backend=job.backend,
        )

    def _run_locked(self, circuits, **request) -> Job:
        """Synchronous core of :meth:`run`, which passes its keywords on
        (caller holds the session lock): normalise the request, admit it,
        plan its distinct circuits, execute them as one batch, assemble
        the results."""
        if self._closed:
            raise SessionClosedError("Session is closed")
        req = self._normalize_request(circuits, **request)
        t_job = time.perf_counter()
        recovery_before = self._recovery_totals()
        injector = self._injector
        if injector is not None:
            _faults.activate(injector)
        try:
            # Admission: degrade down the backend chain before allocating a
            # working set the modelled device memory cannot hold.
            chain = self._admit(
                req.backend_name, req.machine, req.circuits[0].num_qubits, req.execute,
                max(width for _circuit, width in self.stack_widths(req.circuits)),
            )
            items = self._plan_items(req, chain[-1])
            outs, execute_seconds = [(None, None)] * len(items), 0.0
            if req.execute:
                outs, execute_seconds = self._execute(req, items, chain)
        finally:
            if injector is not None:
                _faults.deactivate(injector)
        results = self._assemble(req, items, outs, chain, execute_seconds, recovery_before)
        return Job(
            results=results,
            backend=chain[-1],
            wall_seconds=time.perf_counter() - t_job,
            cache_hits=sum(1 for r in results if r.cache_hit),
        )

    def _normalize_request(
        self, circuits, *, shots, observables, initial_state, initial_states,
        backend, machine, planner, seed, execute, deadline, normalize,
        checkpoint, resume_from,
    ) -> _Request:
        """Validate a :meth:`run` call and put it in batch form."""
        single = isinstance(circuits, Circuit)
        circuit_list = [circuits] if single else list(circuits)
        if not circuit_list:
            raise ValueError("no circuits to run")  # lint: config-error
        if not execute and (shots is not None or observables):
            raise ValueError(  # lint: config-error
                "shots/observables need a functional execution; drop them or "
                "run with execute=True"
            )
        machine = self._resolve_machine(machine)
        for circuit in circuit_list:
            machine.validate(circuit.num_qubits)

        if initial_state is not None and initial_states is not None:
            raise ValueError("pass initial_state or initial_states, not both")  # lint: config-error
        if initial_states is not None:
            states = list(initial_states)
            if single:
                # One circuit fanned out over many starting states.
                circuit_list = circuit_list * len(states)
            elif len(states) != len(circuit_list):
                raise ValueError(  # lint: config-error
                    f"{len(circuit_list)} circuits but "
                    f"{len(states)} initial states"
                )
        else:
            states = [initial_state] * len(circuit_list)
        if execute:
            states = [self._validate_state(s, normalize) for s in states]
        return _Request(
            circuits=circuit_list,
            states=states,
            machine=machine,
            backend_name=self.resolve_backend(circuit_list[0].num_qubits, machine, backend),
            shots=shots,
            observable_keys=[normalize_observable(o) for o in observables or ()],
            rng=self._rng if seed is None else np.random.default_rng(seed),
            deadline=Deadline.resolve(deadline),
            execute=execute,
            planner=planner,
            checkpoint=checkpoint,
            resume_from=resume_from,
        )

    def _plan_items(self, req: _Request, backend_name: str) -> list[_Item]:
        """Plan each distinct circuit object once, in request order."""
        planned: dict[int, tuple] = {}
        items = []
        for circuit, state in zip(req.circuits, req.states):
            req.deadline.check("planning")
            if id(circuit) not in planned:
                planned[id(circuit)] = self.plan_for(
                    circuit, req.machine, backend_name,
                    compile_programs=req.execute, planner=req.planner,
                )
            # The same circuit object fanned out over several initial
            # states reuses the exact plan and compiled program (not even a
            # rebind) — the backend batches these into one stacked
            # (B, 2^n) execution.
            items.append(_Item(circuit, state, *planned[id(circuit)]))
        return items

    def _execute(
        self, req: _Request, items: list[_Item], chain: list[str]
    ) -> tuple[list, float]:
        """Run the planned items as one batch on the admitted backend
        (``chain[-1]``); returns ``(outs, wall_seconds)``.  A real
        allocation failure degrades down the backend chain — appending to
        *chain* — and re-runs the batch, planned again for the successor (a
        cache hit that binds the kind of program *it* runs).
        """
        t0 = time.perf_counter()
        while True:
            try:
                outs = self.backend_instance(chain[-1]).run_batch(
                    [(item.plan, item.state, item.circuit) for item in items],
                    req.machine,
                    programs=[item.program for item in items],
                    deadline=req.deadline,
                    checkpoint=req.checkpoint,
                    resume_from=req.resume_from,
                    monitor=self.monitor,
                )
                break
            except MemoryError:
                # The smaller device working set is the next backend's.
                successors = self.backend_chain(chain[-1])[1:]
                if not self.degrade or not successors:
                    raise
                chain.append(successors[0])
                self._session_fallbacks += 1
                items = self._plan_items(req, chain[-1])
        execute_seconds = time.perf_counter() - t0
        self.stats.execute_seconds += execute_seconds
        self.stats.backend_runs[chain[-1]] = (
            self.stats.backend_runs.get(chain[-1], 0) + len(items)
        )
        return outs, execute_seconds

    def _assemble(
        self, req: _Request, items: list[_Item], outs: list, chain: list[str],
        execute_seconds: float, recovery_before: dict,
    ) -> list[Result]:
        """One :class:`Result` per item (samples, expectations, modelled
        timing, per-job recovery provenance), and the job folded into
        ``self.stats``."""
        backend_obj = self.backend_instance(chain[-1])
        # Per-job recovery provenance: what it took to deliver this job
        # (deltas over the pre-job counters), attached to every Result.
        recovery_after = self._recovery_totals()
        recovery = {
            k: v - recovery_before.get(k, 0) for k, v in recovery_after.items()
        }
        if len(chain) > 1:
            recovery["backend_chain"] = list(chain)
        recovery = {k: v for k, v in recovery.items() if v} or None

        per_item_wall = execute_seconds / len(items)
        results = []
        for item, (out_state, exec_stats) in zip(items, outs):
            samples = None
            expectations: dict[tuple[int, ...], float] = {}
            if out_state is not None:
                if req.shots is not None:
                    samples = out_state.sample(req.shots, req.rng)
                for key in req.observable_keys:
                    expectations[key] = out_state.expectation_z_product(key)
            results.append(
                Result(
                    circuit_name=item.circuit.name,
                    backend=chain[-1],
                    state=out_state,
                    timing=backend_obj.timing(item.plan, req.machine, self.cost_model),
                    plan=item.plan,
                    report=item.report,
                    cache_hit=item.cache_hit,
                    wall_seconds=per_item_wall,
                    samples=samples,
                    shots=req.shots if samples is not None else None,
                    expectations=expectations,
                    execution_stats=exec_stats,
                    recovery=recovery,
                )
            )

        stats = self.stats
        for key, value in recovery_after.items():
            setattr(stats, key, value)
        if isinstance(backend_obj, ParallelBackend):
            stats.exec_lock_acquisitions, stats.exec_lock_wait_seconds = (
                backend_obj.exec_lock_counters()
            )
        for _out_state, exec_stats in outs:
            stats.checkpoints_written += getattr(exec_stats, "checkpoints_written", 0)
            stats.checkpoint_errors += getattr(exec_stats, "checkpoint_errors", 0)
            stats.integrity_checks += getattr(exec_stats, "integrity_checks", 0)
            stats.max_norm_drift = max(
                stats.max_norm_drift, getattr(exec_stats, "max_norm_drift", 0.0)
            )
        fusion = fusion_cache_stats()
        stats.fusion_cache_hits = fusion["hits"] - self._fusion_baseline["hits"]
        stats.fusion_cache_misses = fusion["misses"] - self._fusion_baseline["misses"]
        stats.fusion_cache_evictions = (
            fusion["evictions"] - self._fusion_baseline["evictions"]
        )
        stats.jobs += 1
        stats.circuits_run += len(results)
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Session backend={self.backend!r} machine={self.machine!r} "
            f"cache={len(self.cache)} entries>"
        )
