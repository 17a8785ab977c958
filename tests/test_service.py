"""Tests for the multi-tenant simulation service.

Covers the full subsystem: admission control (typed rejections at the
call site), priority + weighted fair-share scheduling (DRR ratios,
no-starvation regression), the deferred future-backed Job lifecycle
(exactly-once lazy execution, cancellation), structural dedup fan-out,
the cross-tenant shared plan store (relabel-invariant hits, disk
persistence round-trip, checksum-corruption eviction via both the
``cache_rebind`` fault site and on-disk tampering), and the 3-tenant ×
30-job soak acceptance test: bit-exact vs solo ``Session.run``, exactly
one cold plan per structure across tenants, zero replans after a restart
from the persisted cache.
"""

from __future__ import annotations

import json
import threading
from collections import Counter

import numpy as np
import pytest

from repro import (
    AdmissionError,
    Circuit,
    JobCancelledError,
    JobStatus,
    MachineConfig,
    QueueFullError,
    ServiceClosedError,
    Session,
    TenantQuotaError,
)
from repro.circuits.library import ghz, qft, vqc
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    FairShareScheduler,
    SharedPlanStore,
    SimulationService,
)
from repro.session import Job, plan_skeleton, skeleton_fingerprint, skeleton_to_plan

N = 8


@pytest.fixture()
def machine() -> MachineConfig:
    # In-core regime: the planner is relabel-equivariant here, so shared
    # plans bound across relabeled tenants are bit-exact with solo runs.
    return MachineConfig.for_circuit(N)


def _state(result) -> np.ndarray:
    return np.asarray(result.state.data)


def _relabeled(circuit, shift: int):
    n = circuit.num_qubits
    return circuit.remap_qubits({q: (q + shift) % n for q in range(n)})


def _pinned_plan(name: str):
    """``(circuit, plan)`` of one hand-built plan of
    :data:`PINNED_IDENTITIES`.  Per stage: the circuit's gate indices, the
    ``(local, regional, global)`` qubit sets and the kernels as ``(stage
    positions, kernel type, cost)``, or ``None`` for an unkernelized
    stage."""
    from repro.circuits import Circuit
    from repro.core.kernel import Kernel, KernelSequence, KernelType
    from repro.core.plan import ExecutionPlan, QubitPartition, Stage

    provenance = {}
    if name == "kernels":
        circuit = (Circuit(5, name="pin-kernels").h(0).cx(0, 1).rz(0.4, 1).cx(1, 2)
                   .h(3).cp(0.3, 3, 4).rx(1.1, 2).cz(2, 4))
        stages = [
            ([0, 1, 2, 3], ({0, 1, 2}, {3}, {4}), [([0, 1, 2], "fusion", 1.5), ([3], "shm", 0.75)]),
            ([4, 5, 6, 7], ({2, 3, 4}, {0}, {1}), [([0, 1], "shm", 2.25), ([2, 3], "fusion", 1.1)]),
        ]
        provenance = {"preset": "pinned", "pipeline": ["analyze", "stage"],
                      "passes_skipped": {"refine": "off"}}
    elif name == "unkernelized":
        circuit = Circuit(5, name="pin-bare").h(0).cx(0, 1).rz(0.4, 1).cx(1, 2).h(3).cp(0.3, 3, 4)
        stages = [([0, 1, 2, 3, 4, 5], ({0, 1, 2}, {3}, {4}), None)]
    elif name == "order":
        # Plan order is not circuit order: the checkpoint hashes the former.
        circuit = Circuit(4, name="pin-order").h(0).h(3).ry(0.7, 0).rzz(0.25, 2, 3).cx(0, 1)
        stages = [
            ([0, 2, 4], ({0, 1}, {2}, {3}), [([0, 1, 2], "shm", 3.0)]),
            ([1, 3], ({2, 3}, {0}, {1}), [([0], "fusion", 0.5), ([1], "shm", 1.25)]),
        ]
    else:  # "relabel": no qubit is in its first-use position
        circuit = (Circuit(6, name="pin-relabel").cx(5, 2).crz(0.9, 4, 5).h(1).swap(0, 3)
                   .ccx(2, 4, 1).p(0.2, 0))
        stages = [
            ([0, 1, 2], ({1, 2, 4, 5}, {0}, {3}), [([0, 1], "fusion", 2.0), ([2], "shm", 0.5)]),
            ([3, 4, 5], ({0, 1, 3, 4}, {2}, {5}), [([0, 1, 2], "shm", 4.5)]),
        ]
    built = []
    for indices, sets, kernels in stages:
        gates = [circuit.gates[i] for i in indices]
        if kernels is not None:
            kernels = KernelSequence([
                Kernel(
                    gates=tuple(gates[j] for j in at),
                    qubits=tuple(sorted({q for j in at for q in gates[j].qubits})),
                    kernel_type=KernelType(kind),
                    cost=cost,
                    gate_indices=tuple(at),
                )
                for at, kind, cost in kernels
            ])
        built.append(Stage(gates=gates, partition=QubitPartition.from_sets(*sets),
                           kernels=kernels, gate_indices=list(indices)))
    return circuit, ExecutionPlan(circuit.num_qubits, built, circuit.name, provenance)


#: Per hand-built plan (:func:`_pinned_plan`): ``plan_fingerprint``, the
#: ``skeleton_fingerprint`` of its skeleton in its own and in canonical
#: labels, the first 16 hex digits of the SHA-256 of both skeletons'
#: ``stages`` JSON, ``checkpoint_fingerprint`` and ``Circuit.content_key``.
#: Shared-store entries and checkpoints persist the digests: none may change.
PINNED_IDENTITIES = {
    "kernels": (
        "945630310fd3d0a8", "945630310fd3d0a8", "945630310fd3d0a8",
        "ed2b1eca6e6082a3", "ed2b1eca6e6082a3",
        "1a9531a10e3e9493e1bf7842957ea98c", "a97fa80454444ed354c7ce8430c4df21",
    ),
    "order": (
        "65714ae0ae89f4d3", "65714ae0ae89f4d3", "1707b26dcfdd7a10",
        "2a88aabecef13bfd", "d9c8bc5007f5defe",
        "24a176bcc0349da1278508e9af201f17", "e35cfc9dcb99f49e78ac60a690b51431",
    ),
    "relabel": (
        "821ee90b4b00d7b1", "821ee90b4b00d7b1", "3d2c2cb2aef8a7db",
        "cb7374ffc64dffcc", "d772453c987ed1eb",
        "782832832b834aec7884aec23fa1010f", "19180498c0fd701a3e8b01db12408df1",
    ),
    "unkernelized": (
        "df963237be101652", "df963237be101652", "df963237be101652",
        "969cf2488fc65f80", "969cf2488fc65f80",
        "7a12ec67b04c186579d17f805aeef55d", "97ced838e10756e91953fd0c8ef20655",
    ),
}


# ---------------------------------------------------------------------------
# Fair-share scheduling
# ---------------------------------------------------------------------------


class TestFairShareScheduler:
    def test_weighted_ratio_ten_to_one(self):
        sched = FairShareScheduler()
        for i in range(200):
            sched.enqueue("heavy", i, weight=10.0)
            sched.enqueue("light", i, weight=1.0)
        counts = Counter(sched.next_job()[0] for _ in range(110))
        assert counts["heavy"] == 100
        assert counts["light"] == 10

    def test_no_starvation_under_flood(self):
        # Regression: a tenant flooding the queue before another tenant's
        # single job must not delay it beyond one DRR round.
        sched = FairShareScheduler()
        for i in range(100):
            sched.enqueue("flood", i)
        sched.enqueue("victim", "v")
        first_four = [sched.next_job()[0] for _ in range(4)]
        assert "victim" in first_four

    def test_priority_orders_within_tenant_only(self):
        sched = FairShareScheduler()
        sched.enqueue("a", "a-low", priority=0)
        sched.enqueue("a", "a-high", priority=9)
        sched.enqueue("b", "b-job", priority=-5)
        order = [sched.next_job()[1].payload for _ in range(3)]
        # High priority first within tenant a; tenant b is not starved by
        # a's higher priorities (priorities never compare across tenants).
        assert order.index("a-high") < order.index("a-low")
        assert "b-job" in order[:2]

    def test_costed_jobs_draw_proportional_budget(self):
        sched = FairShareScheduler()
        for i in range(10):
            sched.enqueue("singles", i, cost=1)
        sched.enqueue("batcher", "B", cost=5)
        order = [sched.next_job()[0] for _ in range(11)]
        # The cost-5 batch waits ~5 rounds for its deficit to accumulate.
        assert order.index("batcher") >= 4
        assert Counter(order) == Counter(singles=10, batcher=1)

    def test_drains_and_terminates(self):
        sched = FairShareScheduler()
        sched.enqueue("t", "x", cost=7)
        assert sched.next_job()[1].payload == "x"
        assert sched.next_job() is None
        assert sched.pending() == 0


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_is_typed_with_context(self, machine):
        controller = AdmissionController(
            AdmissionPolicy(max_pending_jobs=2), session=None
        )
        with pytest.raises(QueueFullError) as err:
            controller.admit(
                [qft(N)], tenant="t", pending_total=2, pending_tenant=0
            )
        assert err.value.context["depth"] == 2
        assert err.value.context["limit"] == 2

    def test_tenant_quota_is_per_tenant(self, machine):
        controller = AdmissionController(
            AdmissionPolicy(max_pending_per_tenant=1, max_pending_jobs=100),
            session=None,
        )
        with pytest.raises(TenantQuotaError):
            controller.admit(
                [qft(N)], tenant="greedy", pending_total=1, pending_tenant=1
            )
        # Another tenant with an empty queue is unaffected.
        controller.admit([qft(N)], tenant="ok", pending_total=1, pending_tenant=0)

    def test_oversized_job_rejected_synchronously(self, machine):
        svc = SimulationService(
            machine, policy=AdmissionPolicy(max_circuits_per_job=1)
        )
        try:
            with pytest.raises(AdmissionError):
                svc.submit([qft(N), qft(N)], tenant="t")
            assert svc.stats()["rejected"] == 1
            assert svc.tenant_stats("t").rejected == 1
        finally:
            svc.close()

    def test_memory_budget_uses_modelled_cost(self, machine):
        """The controller prices memory with the session's own admission,
        under the session's budget."""
        with Session(machine, memory_budget_bytes=1) as session:
            controller = AdmissionController(AdmissionPolicy(), session)
            with pytest.raises(AdmissionError):
                controller.admit(
                    [qft(N)], tenant="t", pending_total=0, pending_tenant=0
                )
        with Session(machine, memory_budget_bytes=1 << 40) as session:
            generous = AdmissionController(AdmissionPolicy(), session)
            generous.admit(
                [qft(N)], tenant="t", pending_total=0, pending_tenant=0
            )

        class InCoreOnly(Session):
            _BACKEND_CHAIN = ("incore",)

        # One circuit object repeated runs in-core as one stack: the budget
        # is checked against the stack, not against one state.  Distinct
        # circuits of one structure stack only as far as the budget holds.
        a, b = qft(N), qft(N)
        one_state = 2 * 16 * (1 << N)
        with InCoreOnly(machine, memory_budget_bytes=one_state) as session:
            assert session.modelled_device_bytes("incore", machine, N) == one_state
            controller = AdmissionController(AdmissionPolicy(), session)
            controller.admit([a, b, a, b], tenant="t", pending_total=0, pending_tenant=0)
            with pytest.raises(AdmissionError):
                controller.admit([a, a, b], tenant="t", pending_total=0, pending_tenant=0)

    def test_a_job_is_admitted_as_the_session_runs_it(self):
        """Under a session budget of offload's working set, an ``auto``
        12-qubit job is admitted at ``submit`` and runs on ``offload``."""
        machine = MachineConfig.for_circuit(12, num_shards=4)
        with Session(machine) as session:
            budget = session.modelled_device_bytes("offload", machine, 12)
            assert budget < session.modelled_device_bytes("incore", machine, 12)
        circuit = qft(12)
        with SimulationService(machine, memory_budget_bytes=budget) as svc:
            # The price is the session's own walk, and asking counts nothing.
            assert svc.session.admission([circuit]) == ([[0]], ["incore", "offload"])
            assert svc.session.stats.fallbacks == 0
            result = svc.submit(circuit, tenant="t").result(timeout=60)
            stats = svc.stats()
        assert result.backend == "offload"
        assert result.recovery["backend_chain"] == ["incore", "offload"]
        assert (stats["rejected"], stats["completed"], stats["failed"]) == (0, 1, 0)

    def test_a_job_is_priced_on_its_own_machine(self):
        """A job's ``machine=`` run keyword is the machine it is priced on:
        a state over the session machine's budget fits a machine whose
        shards are smaller."""
        big = MachineConfig.for_circuit(12, num_shards=1)
        small = MachineConfig.for_circuit(12, num_shards=4)
        with Session(big) as session:
            budget = session.modelled_device_bytes("offload", small, 12)
            assert budget < session.modelled_device_bytes("offload", big, 12)
        with Session(big, memory_budget_bytes=budget) as session:
            controller = AdmissionController(AdmissionPolicy(), session)
            with pytest.raises(AdmissionError):
                controller.admit([qft(12)], tenant="t", pending_total=0, pending_tenant=0)
            controller.admit(
                [qft(12)], tenant="t", pending_total=0, pending_tenant=0, machine=small
            )

    def test_an_over_budget_job_is_rejected_at_submit(self, machine):
        """With ``degrade=False`` a job over the session's budget is
        refused at ``submit`` with the typed error, never queued to fail."""
        with SimulationService(machine, memory_budget_bytes=1, degrade=False) as svc:
            with pytest.raises(AdmissionError) as excinfo:
                svc.submit(qft(N), tenant="t")
            stats = svc.stats()
        error = excinfo.value
        assert error.site == "service.admit"
        assert error.context["tenant"] == "t"
        assert (error.context["num_qubits"], error.context["budget_bytes"]) == (N, 1)
        assert (stats["rejected"], stats["failed"], stats["submitted"]) == (1, 0, 0)

    def test_modelled_time_ceiling(self, machine):
        svc = SimulationService(
            machine, policy=AdmissionPolicy(max_modelled_seconds=1e-30)
        )
        try:
            with pytest.raises(AdmissionError):
                svc.submit(qft(N), tenant="t")
        finally:
            svc.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_pending_jobs=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_modelled_seconds=0.0)


# ---------------------------------------------------------------------------
# Deferred jobs (Session.run(execute=False))
# ---------------------------------------------------------------------------


class TestDeferredJob:
    def test_lazy_exactly_once_under_concurrency(self, machine):
        with Session(machine) as session:
            calls = []
            original = session._run_locked

            def counting(*args, **kwargs):
                if kwargs.get("execute", True):
                    calls.append(1)
                return original(*args, **kwargs)

            session._run_locked = counting
            job = session.run(qft(N), execute=False)
            assert job.status is JobStatus.PENDING
            assert not calls  # modelling never executes

            outputs = [None] * 8
            def resolve(i):
                outputs[i] = job.result()
            threads = [
                threading.Thread(target=resolve, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(calls) == 1  # the thunk ran exactly once
            states = [_state(r) for r in outputs]
            for s in states[1:]:
                assert np.array_equal(states[0], s)
            assert job.status is JobStatus.DONE

    def test_modelled_view_is_immediate_and_passive(self, machine):
        with Session(machine) as session:
            job = session.run(qft(N), execute=False)
            modelled = job.modelled()
            assert modelled.state is None
            assert modelled.timing.total_seconds > 0
            assert job.status is JobStatus.PENDING

    def test_deferred_matches_eager(self, machine):
        with Session(machine) as session:
            eager = session.run(vqc(N, seed=1)).result()
        with Session(machine) as session:
            lazy = session.run(vqc(N, seed=1), execute=False).result()
        assert np.array_equal(_state(eager), _state(lazy))

    def test_cancel_before_resolve(self, machine):
        with Session(machine) as session:
            job = session.run(qft(N), execute=False)
            assert job.cancel()
            assert job.cancelled()
            with pytest.raises(JobCancelledError):
                job.result()
            assert not job.cancel()  # terminal: second cancel is a no-op

    def test_result_timeout_raises_deadline(self):
        from repro import DeadlineExceeded

        job = Job.pending(1)
        with pytest.raises(DeadlineExceeded):
            job.results(timeout=0.01)


# ---------------------------------------------------------------------------
# Service: submission, dedup, files, cancellation
# ---------------------------------------------------------------------------


class TestService:
    def test_submit_returns_live_future(self, machine):
        with SimulationService(machine) as svc:
            job = svc.submit(qft(N), tenant="alice")
            result = job.result(timeout=60)
            assert job.done()
            assert result.circuit_name == f"qft_{N}"
        # close() drains, so post-close counters are final.
        assert svc.stats()["completed"] == 1

    def test_closed_service_rejects(self, machine):
        svc = SimulationService(machine)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(qft(N), tenant="t")
        svc.close()  # idempotent

    def test_cancel_queued_job(self, machine):
        with SimulationService(machine) as svc:
            jobs = [svc.submit(vqc(N, seed=i), tenant="t") for i in range(40)]
            victim = jobs[-1]
            cancelled = victim.cancel()
            if cancelled:  # scheduler almost certainly hasn't reached it
                assert victim.cancelled()
                with pytest.raises(JobCancelledError):
                    victim.result(timeout=60)
            for job in jobs[:-1]:
                job.result(timeout=120)
        stats = svc.stats()
        assert stats["completed"] == 39 + (0 if cancelled else 1)
        assert stats["cancelled"] == (1 if cancelled else 0)

    def test_submit_many_dedups_structurally(self, machine):
        with SimulationService(machine) as svc:
            a = vqc(N, seed=3)
            twin = vqc(N, seed=3)     # same content -> dedup
            other = vqc(N, seed=4)    # same structure, different params
            jobs = svc.submit_many([a, twin, other], tenant="t")
            assert len(jobs) == 3
            results = [j.result(timeout=60) for j in jobs]
            assert np.array_equal(_state(results[0]), _state(results[1]))
            assert not np.array_equal(_state(results[0]), _state(results[2]))
        stats = svc.stats()
        assert stats["deduplicated"] == 1
        assert stats["submitted"] == 3
        assert stats["dispatched"] == 2  # the twin never re-executed

    def test_submit_file(self, machine, tmp_path):
        listing = tmp_path / "batch.txt"
        listing.write_text(
            f"vqc:{N}\n"
            "# a comment line\n"
            "\n"
            f"qft:{N}\n"
            f"vqc:{N}\n"
        )
        with SimulationService(machine) as svc:
            jobs = svc.submit_file(listing, tenant="files", concurrency=2)
            assert len(jobs) == 3
            for job in jobs:
                job.result(timeout=60)
            assert svc.stats()["deduplicated"] == 1

    def test_submit_many_malformed_spec_fails_only_its_job(self, machine):
        from repro.errors import SpecParseError

        with SimulationService(machine) as svc:
            jobs = svc.submit_many(
                [f"vqc:{N}", "no_such_family:5", vqc(N, seed=9)], tenant="t"
            )
            assert len(jobs) == 3
            with pytest.raises(SpecParseError):
                jobs[1].result(timeout=60)
            assert jobs[0].result(timeout=60).state is not None
            assert jobs[2].result(timeout=60).state is not None
        stats = svc.stats()
        assert stats["rejected"] == 1
        assert stats["tenants"]["t"]["rejected"] == 1

    def test_late_tenant_not_starved_by_flood(self, machine, monkeypatch):
        """The bound deficit round robin implies, read off the dispatch
        order.  A visit credits its tenant one quantum — one single-circuit
        job — and ends once the credit no longer funds the head, so a
        flood visit picks at most one job (its credit never reaches two),
        and the jobs a stack drains with it borrow at most one more visit's
        credit: one dispatch.  Then the cursor moves on to ``late``.  So
        once ``late`` is queued, at most one flood dispatch starts before
        its own.  The first flood dispatch holds the scheduler until
        ``late`` is queued, so the flood (at least 28 of its 30 jobs, at
        most two a dispatch) is still queued: had ``late`` waited behind
        it, many flood dispatches would start first, and the queue would
        be empty at ``late``'s dispatch."""
        with SimulationService(machine) as svc:
            real_run = svc.session.run
            late_circuit = qft(N)
            started, queued = threading.Event(), threading.Event()
            order: list[tuple[str, int]] = []

            def run(circuits, *args, **kwargs):
                late_run = any(c is late_circuit for c in circuits)
                order.append(("late" if late_run else "flood", svc.queue_depth))
                started.set()
                queued.wait(timeout=60)
                return real_run(circuits, *args, **kwargs)

            monkeypatch.setattr(svc.session, "run", run)
            flood = [svc.submit(vqc(N, seed=i), tenant="flood") for i in range(30)]
            assert started.wait(timeout=60)
            late = svc.submit(late_circuit, tenant="late")
            queued.set()
            late.result(timeout=60)
            for job in flood:
                job.result(timeout=120)
        labels = [label for label, _depth in order]
        assert labels.count("late") == 1
        at = labels.index("late")
        # Dispatch 0 started before ``late`` was queued.
        assert labels[1:at].count("flood") <= 1
        assert order[at][1] > 0

    def test_non_finite_angle_is_journalled_non_durable(self, machine, tmp_path):
        # QASM has no spelling for ``nan``: the record must not promise a
        # recovery the reader could not make.
        with SimulationService(machine, journal_dir=tmp_path, journal_fsync=False) as svc:
            job = svc.submit(Circuit(N).h(0).rz(float("nan"), 1), tenant="t")
            job.wait(timeout=60)
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        submitted = [r for r in map(json.loads, lines) if r["type"] == "submitted"]
        assert len(submitted) == 1
        assert submitted[0]["durable"] is False
        assert "circuits" not in submitted[0]

    def test_per_tenant_accounting(self, machine):
        with SimulationService(machine) as svc:
            svc.submit(vqc(N, seed=0), tenant="a").result(timeout=60)
            svc.submit(vqc(N, seed=1), tenant="b").result(timeout=60)
        stats = svc.stats()
        assert stats["tenants"]["a"]["completed"] == 1
        assert stats["tenants"]["b"]["completed"] == 1
        # b's structurally identical circuit hit a's cached plan.
        assert stats["tenants"]["b"]["cache_hit_rate"] == 1.0
        assert stats["tenants"]["a"]["mean_turnaround_seconds"] >= (
            stats["tenants"]["a"]["mean_wait_seconds"]
        )


# ---------------------------------------------------------------------------
# Shared plan store: persistence + corruption
# ---------------------------------------------------------------------------


class TestSharedPlanStore:
    def _skeleton(self, machine):
        with Session(machine) as session:
            plan, *_ = session.plan_for(qft(N), machine, "incore")
        return plan_skeleton(plan)

    @pytest.mark.parametrize(
        "written", [{}, {"program_meta": {"num_ops": 12, "num_qubits": N}}],
        ids=["current", "with-program-meta"],
    )
    def test_round_trip_through_disk(self, machine, tmp_path, written):
        """A skeleton comes back from disk as stored and binds; so does one
        written before skeletons dropped their never-read ``program_meta``
        field (``written``), which the fingerprint never covered."""
        skeleton = {**self._skeleton(machine), **written}
        store = SharedPlanStore(persist_dir=tmp_path)
        store.put(("k",), skeleton)
        assert store.stats.saved == 1
        reborn = SharedPlanStore(persist_dir=tmp_path)
        assert reborn.stats.loaded == 1
        loaded = reborn.get(("k",))
        assert loaded == skeleton
        assert skeleton_fingerprint(loaded) == loaded["fingerprint"]
        skeleton_to_plan(loaded, qft(N)).validate(qft(N))
        # A plan bound from the store through disk, and every local hit
        # rebinding it after, says where it came from as the built one
        # does: preset, pipeline and skipped passes, not the preset alone.
        shared_dir = tmp_path / "shared"
        with Session(machine, shared_cache=SharedPlanStore(persist_dir=shared_dir)) as builder:
            built = builder.run(qft(N)).result()
        with Session(machine, shared_cache=SharedPlanStore(persist_dir=shared_dir)) as other:
            shared, local = (other.run(qft(N)).result() for _ in range(2))
            assert (other.stats.shared_cache_hits, other.stats.cache_hits) == (1, 1)
        assert {"preset", "pipeline", "passes_skipped"} <= set(built.plan.provenance)
        assert shared.plan.provenance == local.plan.provenance == built.plan.provenance
        assert shared.summary()["plan_provenance"] == built.summary()["plan_provenance"]

    def test_persisted_fingerprints_are_pinned(self):
        """Stores and checkpoints written by earlier versions carry these
        digests: a plan and its skeleton hash through one helper, byte for
        byte as before (recorded at the commit that introduced the helper).
        The planner-made plan's digest was re-recorded when staging began to
        certify a window-driven staging (it was ``495386e278cf8e8e``): the
        plan changed, not the hash; the hand-built plan's is the original."""
        from repro.session import plan_fingerprint

        sharded_machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        with Session(sharded_machine, planner="balanced") as session:
            sharded, *_ = session.plan_for(qft(8), sharded_machine, "offload")
        _, unkernelized = _pinned_plan("unkernelized")
        assert all(stage.kernels for stage in sharded.stages)
        assert [
            digest(plan)
            for plan in (sharded, unkernelized)
            for digest in (
                plan_fingerprint,
                lambda p: skeleton_fingerprint(json.loads(json.dumps(plan_skeleton(p)))),
            )
        ] == ["0c2173a24b6bf9a8"] * 2 + ["df963237be101652"] * 2

    @pytest.mark.parametrize("name", sorted(PINNED_IDENTITIES))
    def test_plan_identities_are_pinned(self, name):
        """Every persisted identity of a hand-built plan — fixed stages,
        partitions, kernels and angles, so no planner change re-pins it —
        is byte for byte what it was before the plan's skeleton became one
        walk (values recorded at the commit before): the structural
        fingerprint of the plan and of its stored skeleton, the SHA-256 of
        the stored stages in the circuit's own and its canonical labels,
        the checkpoint fingerprint and the circuit's content key.  The
        canonical skeleton binds back to a plan of the same fingerprint."""
        import hashlib

        from repro.runtime.checkpoint import checkpoint_fingerprint
        from repro.session import plan_fingerprint

        circuit, plan = _pinned_plan(name)
        mapping = circuit.canonical_structural_key()[1]
        own = json.loads(json.dumps(plan_skeleton(plan)))
        canonical = json.loads(json.dumps(plan_skeleton(plan, mapping)))

        def stages_sha(skeleton):
            stages = json.dumps(skeleton["stages"], sort_keys=True).encode()
            return hashlib.sha256(stages).hexdigest()[:16]

        assert (
            plan_fingerprint(plan), skeleton_fingerprint(own), skeleton_fingerprint(canonical),
            stages_sha(own), stages_sha(canonical),
            checkpoint_fingerprint(plan), circuit.content_key(),
        ) == PINNED_IDENTITIES[name]
        bound = skeleton_to_plan(canonical, circuit, mapping)
        assert plan_fingerprint(bound) == plan_fingerprint(plan)
        assert bound.provenance == plan.provenance

    def test_relabelled_skeletons_are_pinned(self):
        """A plan is published in canonical labels by relabelling its
        skeleton's qubit sets only (it used to remap every gate of the plan
        first, for the skeleton to drop the gates again): for the three
        structures of the repo benchmark's service workload under three
        relabellings each, the skeleton — JSON and ``fingerprint`` — is what
        the skeleton of the fully relabelled plan was at the commit before,
        and binds back to the relabelled circuit.  The JSON digest leaves
        out the provenance, which a skeleton has kept whole since (digests
        recorded at the commit before that): it is the plan's own.  The
        digests were re-recorded once more when staging began to certify a
        window-driven staging, which changed the planner's plans, and again
        when skeletons dropped their never-read ``program_meta`` key (each
        old digest is the new JSON with ``"program_meta": null`` put back;
        the fingerprints did not move)."""
        import hashlib

        from repro import build_plan
        from repro.circuits.library import ising, qsvm

        n = 12
        burst_machine = MachineConfig.for_circuit(n, num_shards=4)
        recorded = {}
        for name, circuit in (("qsvm", qsvm(n)), ("ising", ising(n)), ("vqc", vqc(n, ansatz_reps=1))):
            plan, _ = build_plan(circuit, burst_machine, planner="balanced")
            for seed in range(3):
                perm = np.random.default_rng(seed).permutation(n)
                mapping = {q: int(perm[q]) for q in range(n)}
                skeleton = plan_skeleton(plan, mapping=mapping)
                assert skeleton["provenance"] == plan.provenance
                structure = {k: v for k, v in skeleton.items() if k != "provenance"}
                digest = hashlib.blake2b(
                    json.dumps(structure, sort_keys=True).encode(), digest_size=8
                ).hexdigest()
                recorded[f"{name}/{seed}"] = (digest, skeleton["fingerprint"])
                assert skeleton_fingerprint(skeleton) == skeleton["fingerprint"]
                twin = circuit.remap_qubits(mapping)
                skeleton_to_plan(skeleton, twin).validate(twin)
        assert recorded == {
            "qsvm/0": ("7ac801cc3c0642da", "c7f40478758b26e8"),
            "qsvm/1": ("84e78a8bb944418a", "8e85c8a5fb361de9"),
            "qsvm/2": ("aff97d57ef8a5378", "6b01488d4cbdab72"),
            "ising/0": ("8588e27373c9f105", "521f7330736f2b2f"),
            "ising/1": ("77e76946bbe40a88", "b259522c179f2b20"),
            "ising/2": ("660dd31baccb57ca", "edf95bf0b7f753d4"),
            "vqc/0": ("93081ce6aeedd949", "748fed2125b6b204"),
            "vqc/1": ("8ef1cb53b8418af2", "efe68f576d7f0bb4"),
            "vqc/2": ("4c211fcee14e84ae", "21d886d96538e548"),
        }

    def test_on_disk_tampering_evicted_at_load(self, machine, tmp_path):
        store = SharedPlanStore(persist_dir=tmp_path)
        store.put(("k",), self._skeleton(machine))
        [path] = list(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["skeleton"]["stages"][0]["gate_indices"][0] = 999
        path.write_text(json.dumps(payload))
        reborn = SharedPlanStore(persist_dir=tmp_path)
        assert reborn.stats.loaded == 0
        assert reborn.stats.load_rejected == 1
        assert reborn.get(("k",)) is None  # never trusted, fully evicted
        assert not list(tmp_path.glob("*.json"))

    def test_in_memory_corruption_detected_on_get(self, machine):
        from repro import CacheCorruptionError

        store = SharedPlanStore()
        skeleton = self._skeleton(machine)
        store.put(("k",), skeleton)
        skeleton["num_qubits"] += 1  # bit-rot the live entry
        with pytest.raises(CacheCorruptionError):
            store.get(("k",))
        assert store.stats.corruptions == 1
        assert store.get(("k",)) is None

    def test_truncated_file_rejected(self, machine, tmp_path):
        store = SharedPlanStore(persist_dir=tmp_path)
        store.put(("k",), self._skeleton(machine))
        [path] = list(tmp_path.glob("*.json"))
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        reborn = SharedPlanStore(persist_dir=tmp_path)
        assert reborn.stats.load_rejected == 1
        assert len(reborn) == 0

    def test_injected_rebind_fault_evicts_and_replans(self, machine, tmp_path):
        # Warm the persistent store, then restart with the cache_rebind
        # fault armed: the shared-store bind fails once, the session falls
        # back to a cold replan, and the answer is still correct.
        store = SharedPlanStore(persist_dir=tmp_path)
        with SimulationService(machine, store=store) as svc:
            clean = _state(svc.submit(qft(N), tenant="warm").result(timeout=60))
        svc2 = SimulationService(
            machine,
            store=SharedPlanStore(persist_dir=tmp_path),
            faults="cache_rebind:transient:1",
        )
        try:
            result = svc2.submit(qft(N), tenant="cold").result(timeout=60)
            assert np.array_equal(_state(result), clean)
            stats = svc2.stats()["session"]
            assert stats["cache_corruptions"] == 1
            assert stats["plans_built"] == 1  # the fallback replan
        finally:
            svc2.close()


# ---------------------------------------------------------------------------
# Chaos slice: run by CI with REPRO_FAULTS armed during concurrent
# submissions (e.g. cache_rebind transients).  Every assertion here must
# hold with and without injected faults: transient corruption is recovered
# by evict-and-replan, so results stay bit-exact and nothing fails.
# ---------------------------------------------------------------------------


class TestServiceChaos:
    def test_concurrent_submissions_bit_exact_under_faults(
        self, machine, tmp_path
    ):
        circuits = [vqc(N, seed=s) for s in range(4)] + [qft(N), ghz(N)]
        with Session(machine) as solo:
            expected = [_state(solo.run(c).result()) for c in circuits]

        jobs = {}
        jobs_lock = threading.Lock()
        submit_errors = []

        with SimulationService(machine, persist_dir=tmp_path) as svc:
            def submit_all(tenant):
                try:
                    for i, circuit in enumerate(circuits):
                        job = svc.submit(circuit, tenant=tenant)
                        with jobs_lock:
                            jobs[(tenant, i)] = job
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    submit_errors.append(exc)

            threads = [
                threading.Thread(target=submit_all, args=(f"tenant{k}",))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not submit_errors
            for (tenant, i), job in sorted(jobs.items()):
                result = job.result(timeout=120)
                assert np.array_equal(_state(result), expected[i]), (
                    f"{tenant} circuit #{i} diverged"
                )
        stats = svc.stats()
        assert stats["failed"] == 0
        assert stats["submitted"] == stats["completed"] + stats["cancelled"]


# ---------------------------------------------------------------------------
# Soak: the acceptance scenario
# ---------------------------------------------------------------------------


class TestSoak:
    def test_three_tenants_thirty_jobs_bit_exact_one_cold_plan(
        self, machine, tmp_path
    ):
        families = [
            lambda seed: vqc(N, seed=seed),
            lambda seed: qft(N),
            lambda seed: ghz(N),
        ]
        tenants = ["alice", "bob", "carol"]
        # Each tenant submits the same three structures under its own
        # qubit labelling; parameters vary per job.
        submissions = []  # (tenant, circuit)
        for t_index, tenant in enumerate(tenants):
            for j in range(30):
                circuit = families[j % 3](seed=j)
                submissions.append((tenant, _relabeled(circuit, t_index)))

        weights = {"alice": 1.0, "bob": 2.0, "carol": 3.0}
        svc = SimulationService(machine, persist_dir=tmp_path)
        jobs = [
            svc.submit(circuit, tenant=tenant, weight=weights[tenant])
            for tenant, circuit in submissions
        ]
        results = [job.result(timeout=300) for job in jobs]
        session_stats = svc.stats()["session"]
        svc.close()

        # Bit-exactness: every service result equals a solo Session run of
        # the identical circuit on the identical machine.
        with Session(machine) as solo:
            for (tenant, circuit), result in zip(submissions, results):
                expected = solo.run(circuit).result()
                assert np.array_equal(_state(expected), _state(result)), (
                    f"tenant {tenant} circuit {circuit.name} diverged"
                )

        # Exactly one cold plan per distinct structure across all three
        # tenants: vqc/qft/ghz = 3 structures; every relabeled twin bound
        # from the shared store, every parameter twin from the local cache.
        assert session_stats["plans_built"] == 3
        assert session_stats["shared_cache_hits"] >= 6  # 3 structs x 2 relabels
        assert session_stats["cache_corruptions"] == 0

        # Restart from the persisted cache: zero replans.
        svc2 = SimulationService(machine, persist_dir=tmp_path)
        try:
            # The store is keyed canonically, so the 3 tenants' relabeled
            # twins share entries: 3 structures -> 3 persisted plans.
            assert svc2.store.stats.loaded == 3
            redo = [
                svc2.submit(circuit, tenant=tenant)
                for tenant, circuit in submissions[:9]
            ]
            for (tenant, circuit), job in zip(submissions[:9], redo):
                fresh = job.result(timeout=300)
                with Session(machine) as solo:
                    expected = solo.run(circuit).result()
                assert np.array_equal(_state(expected), _state(fresh))
            assert svc2.stats()["session"]["plans_built"] == 0
        finally:
            svc2.close()
