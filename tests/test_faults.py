"""Fault-tolerance suite: taxonomy, injection matrix, supervision, degradation.

The heart of this file is the **fault matrix**: every injection site of
:mod:`repro.runtime.faults` crossed with every functional backend (incore /
offload / parallel at W ∈ {1, 2, 4}), in both transient and permanent
flavours.  Each cell must either *recover* — final states bit-exact with
the fault-free run, the recovery visible in ``Result.recovery`` — or fail
*promptly* with the documented typed error while the session stays usable.
No test here may hang: the supervised barriers must drain on every failure
path (CI additionally runs this file under ``pytest-timeout``).
"""

import threading

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.circuits.library import qft, vqc
from repro.errors import (
    AdmissionError,
    CacheCorruptionError,
    Deadline,
    DeadlineExceeded,
    KernelError,
    PermanentError,
    PlanValidationError,
    ReproError,
    RetryPolicy,
    SessionClosedError,
    ShardIOError,
    StateValidationError,
    TransientError,
)
from repro.runtime import faults
from repro.runtime.faults import SITES, FaultInjector, FaultPlan, FaultSpec
from repro.runtime.parallel import ParallelRuntime
from repro.session.cache import PlanCache, plan_cache_key, plan_fingerprint
from repro.sim.statevector import StateVector

N = 7
LOCAL = 4  # -> 2^(7-4) = 8 shards

#: Fast retry policy so transient-exhaustion tests don't sleep for real.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)

#: (label, backend name, worker count or None)
BACKEND_CONFIGS = [
    ("incore", "incore", None),
    ("offload", "offload", None),
    ("parallel-w1", "parallel", 1),
    ("parallel-w2", "parallel", 2),
    ("parallel-w4", "parallel", 4),
]


@pytest.fixture(scope="module")
def machine():
    return MachineConfig.for_circuit(N, num_gpus=4, local_qubits=LOCAL)


@pytest.fixture(scope="module")
def sweep():
    # Two structurally identical circuits: the second plans as a cache hit,
    # so the ``cache_rebind`` site fires inside every matrix job.
    return [vqc(N, seed=0), vqc(N, seed=1)]


def make_session(machine, backend, workers, **kwargs):
    kwargs.setdefault("planner", "fast")
    kwargs.setdefault("retry", FAST_RETRY)
    session = Session(machine, backend=backend, **kwargs)
    if workers is not None:
        session.backend_instance(backend).num_workers = workers
    return session


@pytest.fixture(scope="module")
def reference_states(machine, sweep):
    """Fault-free final states per backend config.

    Recovery must be bit-exact *within* a backend config (retries and
    redistribution may not change the arithmetic); across backends the
    kernel orderings differ, so references are kept per-config.
    """
    states = {}
    for label, backend, workers in BACKEND_CONFIGS:
        with make_session(machine, backend, workers) as session:
            states[label] = [r.state.data.copy() for r in session.run(sweep)]
    return states


def expected_outcome(backend: str, workers, site: str, flavor: str) -> str:
    """The documented matrix cell: 'recover', 'error', or 'noop'.

    * ``noop`` — the site is never reached on this backend (e.g. shard
      I/O on the in-core executor); the run must be clean and bit-exact.
    * ``recover`` — the fault fires and the run still completes bit-exact
      (retry, quarantine, or a degradation fallback).
    * ``error`` — the fault propagates as its typed error, promptly.
    """
    if site == "cache_rebind":
        return "recover"  # evict-and-replan, every backend
    if site == "compile":
        return "recover"  # program/segment-ops fallback, every backend
    if site in ("checkpoint_write", "checkpoint_load", "journal_append"):
        # Durability sites are only reached when checkpointing, resume or
        # journalling is armed — the plain matrix never enables them
        # (TestDurabilityFaultSites covers the armed paths).
        return "noop"
    if backend == "incore":
        # No shards, no workers; kernel faults degrade to the interpreter.
        return "recover" if site == "kernel_apply" else "noop"
    if site == "worker_start":
        if backend == "offload":
            return "noop"  # sequential executor has no workers
        if flavor == "permanent":
            return "error"
        # Transient: quarantine + redistribution needs a surviving worker.
        return "error" if workers == 1 else "recover"
    # shard_load / shard_store / kernel_apply on the shard runtimes:
    return "recover" if flavor == "transient" else "error"


class TestFaultMatrix:
    """Every site × backend × flavour behaves exactly as documented."""

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("flavor", ["transient", "permanent"])
    @pytest.mark.parametrize(
        "label,backend,workers", BACKEND_CONFIGS, ids=[c[0] for c in BACKEND_CONFIGS]
    )
    def test_cell(
        self, machine, sweep, reference_states, label, backend, workers, site, flavor
    ):
        outcome = expected_outcome(backend, workers, site, flavor)
        spec = f"{site}:{flavor}:1"
        with make_session(machine, backend, workers, faults=spec) as session:
            injector = session._injector
            try:
                job = session.run(sweep)
            except ReproError as exc:
                assert outcome == "error", (
                    f"{label}/{site}/{flavor}: unexpected {type(exc).__name__}: {exc}"
                )
                if flavor == "transient":
                    assert isinstance(exc, TransientError)
                else:
                    assert isinstance(exc, PermanentError)
                assert injector.total_fired >= 1
            else:
                assert outcome in ("recover", "noop"), (
                    f"{label}/{site}/{flavor}: expected an error but the run passed"
                )
                for result, expected in zip(job, reference_states[label]):
                    assert np.array_equal(result.state.data, expected), (
                        f"{label}/{site}/{flavor}: recovered state not bit-exact"
                    )
                if outcome == "recover":
                    assert injector.total_fired >= 1, (
                        f"{label}/{site}/{flavor}: fault never fired"
                    )
                    recovered = [r for r in job if r.recovery]
                    assert recovered, f"{label}/{site}/{flavor}: no recovery provenance"
                else:
                    assert injector.total_fired == 0

            # The session survives every cell: a clean follow-up run (the
            # spec is exhausted) must be bit-exact with the reference.
            job = session.run(sweep)
            for result, expected in zip(job, reference_states[label]):
                assert np.array_equal(result.state.data, expected)


#: Backends that support stage-boundary checkpoints (the incore executor
#: has no stage loop to snapshot).
DURABLE_CONFIGS = [c for c in BACKEND_CONFIGS if c[1] != "incore"]


class TestDurabilityFaultSites:
    """The three durability sites, with durability actually armed."""

    @pytest.mark.parametrize("flavor", ["transient", "permanent"])
    @pytest.mark.parametrize(
        "label,backend,workers", DURABLE_CONFIGS, ids=[c[0] for c in DURABLE_CONFIGS]
    )
    def test_checkpoint_write_failure_is_advisory(
        self, machine, sweep, reference_states, tmp_path, label, backend, workers, flavor
    ):
        # A failed snapshot loses recoverability, never the run: the job
        # completes bit-exact and the failure is counted.
        with make_session(
            machine, backend, workers, faults=f"checkpoint_write:{flavor}:1"
        ) as session:
            injector = session._injector
            job = session.run(sweep, checkpoint=str(tmp_path))
            for result, expected in zip(job, reference_states[label]):
                assert np.array_equal(result.state.data, expected)
            assert injector.total_fired >= 1
            assert session.stats.checkpoint_errors >= 1
            assert session.stats.checkpoints_written >= 1  # later stages ok

    @pytest.mark.parametrize(
        "label,backend,workers", DURABLE_CONFIGS, ids=[c[0] for c in DURABLE_CONFIGS]
    )
    def test_checkpoint_load_corruption_restarts_from_scratch(
        self, machine, sweep, reference_states, tmp_path, label, backend, workers
    ):
        # Directory resume: a checkpoint that fails its load is evicted
        # and never trusted — the run falls back to earlier checkpoints or
        # a cold start, still bit-exact.
        with make_session(machine, backend, workers) as session:
            session.run(sweep, checkpoint=str(tmp_path))
        assert list(tmp_path.glob("*.ckpt"))
        with make_session(
            machine, backend, workers, faults="checkpoint_load:transient:99"
        ) as session:
            injector = session._injector
            job = session.run(
                sweep, checkpoint=str(tmp_path), resume_from=str(tmp_path)
            )
            for result, expected in zip(job, reference_states[label]):
                assert np.array_equal(result.state.data, expected)
            assert injector.total_fired >= 1

    def test_journal_append_transient_is_retried(self, tmp_path):
        from repro.service import JobJournal, replay_journal

        injector = FaultInjector("journal_append:transient:2")
        journal = JobJournal(tmp_path, fsync=False)
        faults.activate(injector)
        try:
            assert journal.append("submitted", 0, tenant="t", durable=False)
        finally:
            faults.deactivate(injector)
        journal.close()
        assert injector.total_fired == 2
        assert not journal.degraded
        assert replay_journal(journal.path).records_read == 1

    def test_journal_append_permanent_degrades_not_raises(self, tmp_path):
        from repro.errors import IntegrityError
        from repro.service import JobJournal

        injector = FaultInjector("journal_append:permanent:99")
        journal = JobJournal(tmp_path, fsync=False)
        faults.activate(injector)
        try:
            assert not journal.append("submitted", 0, tenant="t", durable=False)
        finally:
            faults.deactivate(injector)
        assert journal.degraded
        assert journal.append_errors == 1
        # Degraded journals swallow subsequent appends without touching
        # the (possibly failing) disk.
        assert not journal.append("running", 0, tenant="t")
        journal.close()

        strict = JobJournal(tmp_path / "strict", fsync=False, strict=True)
        injector = FaultInjector("journal_append:permanent:1")
        faults.activate(injector)
        try:
            with pytest.raises(IntegrityError):
                strict.append("submitted", 0, tenant="t", durable=False)
        finally:
            faults.deactivate(injector)
        strict.close()


class TestWorkerSupervision:
    def test_quarantine_redistributes_bit_exact(self, machine, sweep, reference_states):
        # Worker 0 never starts: it is quarantined and its shards run on
        # the survivors, bit-exact with the fault-free schedule.
        with make_session(
            machine, "parallel", 4, faults="worker_start:transient:999@worker=0"
        ) as session:
            job = session.run(sweep)
            for result, expected in zip(job, reference_states["parallel-w4"]):
                assert np.array_equal(result.state.data, expected)
            assert session.stats.quarantined_workers >= 1
            assert job[0].recovery["quarantined_workers"] >= 1

    def test_all_workers_quarantined_escalates(self, machine):
        runtime = ParallelRuntime(machine, num_workers=2, retry=FAST_RETRY)
        with make_session(machine, "parallel", None) as planner:
            plan, *_ = planner.plan_for(qft(N), machine, "parallel")
        injector = FaultInjector("worker_start:transient:999")
        faults.activate(injector)
        try:
            with pytest.raises(TransientError):
                runtime.execute(plan)
        finally:
            faults.deactivate(injector)
        # The runtime itself stays usable (fresh executions reset quarantine).
        state, _ = runtime.execute(plan)
        assert np.isfinite(state.data).all()
        runtime.close()

    def test_transient_retry_counts_into_stats(self, machine, sweep):
        with make_session(
            machine, "parallel", 2, faults="shard_load:transient:3"
        ) as session:
            session.run(sweep)
            assert session.stats.retries >= 3
            assert session.stats.faults_injected == 3

    def test_permanent_failure_releases_barriers_and_pools_shut_down(
        self, machine, sweep
    ):
        # A permanent fault mid-stage must propagate promptly (no hang —
        # this test completing at all is the assertion) and, after close(),
        # leave no worker or loader thread behind.
        with make_session(
            machine, "parallel", 4, faults="shard_store:permanent:1"
        ) as session:
            with pytest.raises(PermanentError):
                session.run(sweep)
            backend = session.backend_instance("parallel")
            runtimes = list(backend._runtimes.values())
            assert runtimes
        for runtime in runtimes:
            assert runtime.pools_shut_down()
        leaked = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("repro-shard")
        ]
        assert not leaked, f"leaked worker threads: {leaked}"

    def test_loader_thread_fault_propagates(self, machine, sweep, reference_states):
        # shard_load faults fire on the loader/prefetch thread; transient
        # ones must be retried on the worker, permanent ones re-raised on
        # the caller thread — never swallowed, never deadlocked.
        with make_session(
            machine, "parallel", 2, faults="shard_load:permanent:1"
        ) as session:
            with pytest.raises(PermanentError):
                session.run(sweep)
            job = session.run(sweep)
            for result, expected in zip(job, reference_states["parallel-w2"]):
                assert np.array_equal(result.state.data, expected)


class TestDeadlines:
    @pytest.mark.parametrize("backend,workers", [("incore", None), ("offload", None), ("parallel", 2)])
    def test_expired_deadline_raises_and_session_survives(
        self, machine, sweep, backend, workers
    ):
        with make_session(machine, backend, workers) as session:
            with pytest.raises(DeadlineExceeded):
                session.run(sweep, deadline=0.0)
            job = session.run(sweep)  # session still usable
            assert all(r.state is not None for r in job)

    def test_generous_deadline_is_a_noop(self, machine, sweep, reference_states):
        with make_session(machine, "parallel", 2) as session:
            job = session.run(sweep, deadline=600.0)
            for result, expected in zip(job, reference_states["parallel-w2"]):
                assert np.array_equal(result.state.data, expected)

    def test_deadline_object(self):
        assert Deadline(None).remaining() == float("inf")
        Deadline(None).check("anywhere")  # never raises
        expired = Deadline(0.0)
        assert expired.expired()
        with pytest.raises(DeadlineExceeded):
            expired.check("stage")
        assert Deadline.resolve(None).seconds is None
        assert Deadline.resolve(5.0).seconds == 5.0
        existing = Deadline(1.0)
        assert Deadline.resolve(existing) is existing
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestCacheCorruption:
    def test_checksum_detects_mutation_and_evicts(self, machine):
        cache = PlanCache(maxsize=4)
        with make_session(machine, "incore", None) as session:
            plan, *_ = session.plan_for(vqc(N, seed=0), machine, "incore")
        key = plan_cache_key(vqc(N, seed=0), machine, ("test",))
        cache.put(key, plan)
        assert cache.get(key) is not None
        # Corrupt the cached structure in place: the next lookup must not
        # serve it.
        plan.stages[0].gate_indices.append(0)
        with pytest.raises(CacheCorruptionError):
            cache.get(key)
        assert key not in cache
        assert cache.stats.corruptions == 1

    def test_fingerprint_is_structural(self, machine):
        with make_session(machine, "incore", None) as session:
            plan_a, *_ = session.plan_for(vqc(N, seed=0), machine, "incore")
            plan_b, *_ = session.plan_for(vqc(N, seed=1), machine, "incore")
        # Same structure, different angles: identical fingerprints.
        assert plan_fingerprint(plan_a) == plan_fingerprint(plan_b)

    def test_injected_corruption_replans_and_recovers(self, machine, sweep):
        with make_session(
            machine, "incore", None, faults="cache_rebind:transient:1"
        ) as session:
            clean = [r.state.data.copy() for r in session.run(sweep)]
            assert session.stats.cache_corruptions == 1
            # The poisoned entry was evicted and rebuilt; later sweeps hit
            # the fresh entry cleanly.
            job = session.run(sweep)
            assert all(r.cache_hit for r in job)
            for result, expected in zip(job, clean):
                assert np.array_equal(result.state.data, expected)


class TestGracefulDegradation:
    def test_admission_walks_backend_chain(self, machine, sweep):
        # Budget fits one shard-buffer set but not the full state: incore
        # is inadmissible, offload is the first admissible hop.
        budget = 4 * 16 * (1 << LOCAL)
        with make_session(
            machine, "incore", None, memory_budget_bytes=budget
        ) as session:
            job = session.run(sweep)
            assert job.backend == "offload"
            assert job[0].recovery["backend_chain"] == ["incore", "offload"]
            assert session.stats.fallbacks >= 1

    def test_admission_rejects_without_degrade(self, machine, sweep):
        with make_session(
            machine, "incore", None, memory_budget_bytes=1, degrade=False
        ) as session:
            with pytest.raises(AdmissionError):
                session.run(sweep)
            # AdmissionError doubles as MemoryError for legacy handlers.
            with pytest.raises(MemoryError):
                session.run(sweep)

    def test_admission_exhausted_chain_rejects(self, machine, sweep):
        with make_session(
            machine, "incore", None, memory_budget_bytes=1
        ) as session:
            with pytest.raises(AdmissionError):
                session.run(sweep)

    def test_allocation_failure_degrades_to_the_next_backend(
        self, machine, sweep, reference_states, monkeypatch
    ):
        # A real MemoryError out of the in-core backend: the batch re-runs on
        # `offload`, planned again for it — the in-core items carry compiled
        # programs, which a sharded backend must never be handed as its
        # schedule.
        from repro.session.backends import InCoreBackend

        def out_of_memory(self, *args, **kwargs):
            raise MemoryError("device allocation failed")

        monkeypatch.setattr(InCoreBackend, "run_batch", out_of_memory)
        with make_session(machine, "incore", None) as session:
            job = session.run(sweep)
            assert job.backend == "offload"
            assert job[0].recovery["backend_chain"] == ["incore", "offload"]
            assert job[0].recovery["fallbacks"] == 1
            assert session.stats.programs_compiled == 1
            assert session.stats.schedule_cache_misses == 1
            for result, expected in zip(job, reference_states["offload"]):
                assert np.array_equal(result.state.data, expected)
        with make_session(machine, "incore", None, degrade=False) as session:
            with pytest.raises(MemoryError):
                session.run(sweep)

    def test_program_failure_falls_back_to_interpreter(self, machine, sweep):
        with make_session(machine, "incore", None) as clean_session:
            clean = [r.state.data.copy() for r in clean_session.run(sweep)]
        with make_session(
            machine, "incore", None, faults="kernel_apply:KernelError:1"
        ) as session:
            job = session.run(sweep)
            for result, expected in zip(job, clean):
                assert np.array_equal(result.state.data, expected)
            assert job[0].recovery["fallbacks"] >= 1
        # A fan-out runs as one stacked pass: its failure degrades the whole
        # span to per-item interpreter runs, bit-exact with the stacked
        # program pass (qft lowers to no `big` op).
        circuit = qft(N)
        states = [StateVector.random_state(N, seed=s) for s in range(3)]
        with make_session(machine, "incore", None) as clean_session:
            job = clean_session.run(circuit, initial_states=states)
            clean = [r.state.data.copy() for r in job]
            assert job[0].recovery is None
        with make_session(
            machine, "incore", None, faults="kernel_apply:KernelError:1"
        ) as session:
            job = session.run(circuit, initial_states=states)
            for result, expected in zip(job, clean):
                assert np.array_equal(result.state.data, expected)
            assert job[0].recovery["fallbacks"] == 1

    def test_admission_charges_the_fan_out_stack(self, machine):
        """A circuit fanned out over B initial states runs in-core as one
        (B, 2^n) ping-pong pair: admission charges the stack, not one
        state, and degrades (or rejects) it like any over-budget job."""
        circuit = qft(N)
        states = [StateVector.random_state(N, seed=s) for s in range(4)]
        single = 2 * 16 * (1 << N)
        with make_session(machine, "incore", None) as session:
            assert session.modelled_device_bytes("incore", machine, N) == single
            assert session.modelled_device_bytes("incore", machine, N, 4) == 4 * single
            # The shard runtimes run a fan-out one state at a time.
            for backend in ("offload", "parallel"):
                assert session.modelled_device_bytes(
                    backend, machine, N, 4
                ) == session.modelled_device_bytes(backend, machine, N)
            want = [r.state.data.copy() for r in session.run(circuit, initial_states=states)]
        with make_session(
            machine, "incore", None, memory_budget_bytes=single, degrade=False
        ) as session:
            assert session.run(circuit, initial_state=states[0]).backend == "incore"
            with pytest.raises(AdmissionError) as excinfo:
                session.run(circuit, initial_states=states)
            assert excinfo.value.context["bytes_needed"] == 4 * single
        with make_session(
            machine, "incore", None, memory_budget_bytes=single
        ) as session:
            job = session.run(circuit, initial_states=states)
            assert job[0].recovery["backend_chain"] == ["incore", "offload"]
            for result, expected in zip(job, want):
                assert np.allclose(result.state.data, expected)

    def test_planner_preset_failure_falls_back(self, machine):
        from repro.planner import PassManager
        from repro.planner.passes import PASSES, register_pass

        class ExplodingPass:
            def run(self, ctx, record):
                raise RuntimeError("synthetic planner failure")

        register_pass("chaos_fail", ExplodingPass())
        try:
            broken = PassManager([("chaos_fail", {})], preset="broken")
            circuit = qft(N)
            # Planning-time failure: degrade to the "fast" preset and plan.
            with Session(machine, backend="incore", planner=broken) as session:
                job = session.run(circuit)
                assert job.result().state is not None
                assert session.stats.fallbacks >= 1
            with Session(
                machine, backend="incore", planner=broken, degrade=False
            ) as session:
                with pytest.raises(RuntimeError):
                    session.run(circuit)
        finally:
            del PASSES["chaos_fail"]

    def test_planner_config_errors_never_degrade(self, machine):
        # Asking for a pipeline component that does not exist is a user
        # error: degradation would silently plan with a different pipeline
        # and mask the mistake.
        from repro.planner import PassManager

        broken = PassManager([("no_such_pass", {})], preset="typo")
        with Session(machine, backend="incore", planner=broken) as session:
            with pytest.raises(ValueError):
                session.run(qft(N))
            assert session.stats.fallbacks == 0


class TestStateValidation:
    def test_non_finite_rejected(self, machine):
        bad = StateVector(N, np.full(1 << N, np.nan, dtype=np.complex128))
        with make_session(machine, "incore", None) as session:
            with pytest.raises(StateValidationError):
                session.run(qft(N), initial_state=bad)
            # StateValidationError is a ValueError for legacy handlers.
            with pytest.raises(ValueError):
                session.run(qft(N), initial_state=bad)

    def test_unnormalized_rejected_unless_opted_in(self, machine):
        unnorm = StateVector(N, np.ones(1 << N, dtype=np.complex128))
        with make_session(machine, "incore", None) as session:
            with pytest.raises(StateValidationError):
                session.run(qft(N), initial_state=unnorm)
            result = session.run(qft(N), initial_state=unnorm, normalize=True).result()
            assert abs(result.state.norm() - 1.0) < 1e-9

    def test_normalized_states_pass_through_untouched(self, machine):
        state = StateVector.random_state(N, seed=3)
        with make_session(machine, "incore", None) as session:
            result = session.run(qft(N), initial_state=state).result()
            assert result.state is not None


class TestLifecycle:
    def test_session_close_is_idempotent_and_post_close_raises(self, machine):
        session = Session(machine, backend="incore")
        session.run(qft(N))
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(SessionClosedError):
            session.run(qft(N))
        # SessionClosedError remains a RuntimeError for legacy handlers.
        with pytest.raises(RuntimeError):
            session.backend_instance("incore")

    def test_runtime_close_is_idempotent_and_post_close_raises(self, machine):
        runtime = ParallelRuntime(machine, num_workers=2)
        with make_session(machine, "parallel", None) as planner:
            plan, *_ = planner.plan_for(qft(N), machine, "parallel")
        runtime.execute(plan)
        runtime.close()
        runtime.close()
        assert runtime.closed and runtime.pools_shut_down()
        with pytest.raises(SessionClosedError):
            runtime.execute(plan)

    def test_context_managers(self, machine):
        with ParallelRuntime(machine, num_workers=2) as runtime:
            pass
        assert runtime.closed
        with Session(machine) as session:
            pass
        assert session.closed


class TestErrorTaxonomy:
    def test_branches_and_builtin_compatibility(self):
        assert issubclass(TransientError, ReproError)
        assert issubclass(PermanentError, ReproError)
        assert issubclass(ShardIOError, (TransientError, OSError))
        assert issubclass(KernelError, (PermanentError, RuntimeError))
        assert issubclass(PlanValidationError, (PermanentError, ValueError))
        assert issubclass(StateValidationError, (PermanentError, ValueError))
        assert issubclass(AdmissionError, (PermanentError, MemoryError))
        assert issubclass(DeadlineExceeded, (PermanentError, TimeoutError))
        assert issubclass(CacheCorruptionError, (TransientError, RuntimeError))
        assert issubclass(SessionClosedError, (PermanentError, RuntimeError))
        assert ShardIOError("x").transient
        assert not KernelError("x").transient
        err = ShardIOError("boom", site="shard_load", worker=2, shard=5)
        assert err.site == "shard_load"
        assert err.context == {"worker": 2, "shard": 5}

    def test_retry_policy_backoff(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.001, multiplier=2.0, max_delay=0.003)
        assert policy.delay(1) == 0.001
        assert policy.delay(2) == 0.002
        assert policy.delay(3) == 0.003  # capped
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestFaultHarness:
    def test_spec_parsing(self):
        plan = FaultPlan.parse(
            "shard_load:transient:2, kernel_apply:KernelError:1:3,"
            "worker_start:transient:99@worker=0,shard_store@shard=5"
        )
        assert len(plan.specs) == 4
        assert plan.specs[0] == FaultSpec("shard_load", "transient", 2)
        assert plan.specs[1] == FaultSpec("kernel_apply", "KernelError", 1, 3)
        assert plan.specs[2] == FaultSpec("worker_start", "transient", 99, worker=0)
        assert plan.specs[3] == FaultSpec("shard_store", worker=None, shard=5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("no_such_site")
        with pytest.raises(ValueError):
            FaultSpec("shard_load", "NoSuchError")
        with pytest.raises(ValueError):
            FaultSpec("shard_load", times=0)
        with pytest.raises(ValueError):
            FaultPlan.parse("shard_load@worker=x")

    def test_times_after_and_filters(self):
        injector = FaultInjector("shard_load:transient:2:1@worker=1")
        injector.check("shard_load", worker=0)  # filtered out
        injector.check("shard_load", worker=1)  # after=1: skipped
        with pytest.raises(ShardIOError):
            injector.check("shard_load", worker=1)
        with pytest.raises(ShardIOError):
            injector.check("shard_load", worker=1)
        injector.check("shard_load", worker=1)  # times=2 exhausted
        assert injector.total_fired == 2
        assert injector.exhausted()
        injector.reset()
        assert injector.total_fired == 0

    def test_probabilistic_specs_are_seed_deterministic(self):
        def fires(seed):
            plan = FaultPlan((FaultSpec("compile", times=50, probability=0.5),), seed=seed)
            injector = FaultInjector(plan)
            out = []
            for _ in range(50):
                try:
                    injector.check("compile")
                    out.append(0)
                except ReproError:
                    out.append(1)
            return out

        assert fires(7) == fires(7)
        assert fires(7) != fires(8)

    def test_activation_is_exclusive(self):
        a = FaultInjector("compile:transient:1")
        b = FaultInjector("compile:transient:1")
        faults.activate(a)
        try:
            faults.activate(a)  # re-activating the same injector is fine
            with pytest.raises(RuntimeError):
                faults.activate(b)
        finally:
            faults.deactivate(a)
        assert faults.active_injector() is None

    def test_env_spec_round_trip(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "compile:KernelError:1")
        monkeypatch.setattr(faults, "_env_loaded", False)
        monkeypatch.setattr(faults, "_env_injector", None)
        injector = faults.active_injector()
        assert injector is not None
        with pytest.raises(KernelError):
            faults.check("compile")
        faults.check("compile")  # exhausted
        monkeypatch.setattr(faults, "_env_loaded", False)
        monkeypatch.setattr(faults, "_env_injector", None)
        monkeypatch.delenv("REPRO_FAULTS")
        assert faults.active_injector() is None
