"""Durable execution suite: checkpoint/resume, integrity monitors, the
write-ahead job journal, and whole-process crash recovery.

The contract under test, end to end:

* A run killed after stage *k* resumes from its last completed stage and
  finishes **bit-exact** with an uninterrupted run — per backend, per
  worker count, including relabel-heavy plans.
* Tampered durable artifacts (checkpoints, journal records) are detected,
  evicted and never trusted; a resume against the wrong plan (or the
  wrong *parameters*) is refused.
* A SIGKILLed service restarted on the same journal directory re-admits
  every orphaned job and completes it bit-exact.

The subprocess tests in :class:`TestCrashRecovery` are the ones CI's
``crash-recovery`` job runs under ``pytest-timeout``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.circuits.library import qft, vqc
from repro.errors import (
    CacheCorruptionError,
    IntegrityError,
    PlanValidationError,
    SpecParseError,
)
from repro.runtime import ParallelRuntime, execute_plan_offloaded, faults
from repro.runtime.checkpoint import (
    CheckpointConfig,
    checkpoint_fingerprint,
    find_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.runtime.faults import CRASH_EXIT_CODE, FaultInjector
from repro.runtime.integrity import IntegrityConfig, IntegrityMonitor
from repro.runtime.sharding import QubitLayout
from repro.service import JobJournal, SimulationService, replay_journal
from repro.sim.statevector import StateVector

N = 7
LOCAL = 4

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def machine():
    return MachineConfig.for_circuit(N, num_gpus=4, local_qubits=LOCAL)


@pytest.fixture(scope="module")
def plan(machine):
    with Session(machine, backend="offload", planner="fast") as session:
        plan, *_ = session.plan_for(vqc(N, seed=0), machine, "offload")
    return plan


def run_state(machine, circuit, backend, workers=None, **kwargs):
    with Session(machine, backend=backend, planner="fast") as session:
        if workers is not None:
            session.backend_instance(backend).num_workers = workers
        job = session.run(circuit, execute=True, **kwargs)
        return np.asarray(job.results()[0].state.data).copy(), session.stats


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


class TestCheckpointFormat:
    def test_write_load_round_trip(self, tmp_path, plan):
        config = CheckpointConfig(tmp_path, keep=99)
        fingerprint = checkpoint_fingerprint(plan)
        state = np.asarray(
            StateVector.random_state(N, seed=1).data, dtype=np.complex128
        )
        layout = QubitLayout(N)
        path = write_checkpoint(
            config,
            fingerprint=fingerprint,
            num_qubits=N,
            stage_index=3,
            layout=layout.logical_to_physical(),
            state=state,
        )
        ck = load_checkpoint(path)
        assert ck.stage_index == 3
        assert ck.plan_fingerprint == fingerprint
        assert np.array_equal(ck.state, state)
        assert ck.layout_mapping() == layout.logical_to_physical()

    def test_tampered_payload_is_rejected(self, tmp_path, plan):
        config = CheckpointConfig(tmp_path)
        state = np.asarray(StateVector.random_state(N, seed=2).data)
        path = write_checkpoint(
            config,
            fingerprint=checkpoint_fingerprint(plan),
            num_qubits=N,
            stage_index=0,
            layout=QubitLayout(N).logical_to_physical(),
            state=state,
        )
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one state byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CacheCorruptionError):
            load_checkpoint(path)

    def test_truncated_file_is_rejected(self, tmp_path, plan):
        config = CheckpointConfig(tmp_path)
        path = write_checkpoint(
            config,
            fingerprint=checkpoint_fingerprint(plan),
            num_qubits=N,
            stage_index=0,
            layout=QubitLayout(N).logical_to_physical(),
            state=np.asarray(StateVector.random_state(N, seed=3).data),
        )
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(CacheCorruptionError):
            load_checkpoint(path)

    def test_wrong_fingerprint_file_resume_is_refused(self, tmp_path, plan):
        path = write_checkpoint(
            CheckpointConfig(tmp_path),
            fingerprint=checkpoint_fingerprint(plan),
            num_qubits=N,
            stage_index=0,
            layout=QubitLayout(N).logical_to_physical(),
            state=np.asarray(StateVector.random_state(N, seed=4).data),
        )
        with pytest.raises(PlanValidationError):
            find_checkpoint(path, fingerprint="not-this-plan")

    def test_directory_resume_evicts_corrupt_and_uses_survivor(
        self, tmp_path, plan
    ):
        config = CheckpointConfig(tmp_path, keep=99)
        fingerprint = checkpoint_fingerprint(plan)
        paths = [
            write_checkpoint(
                config,
                fingerprint=fingerprint,
                num_qubits=N,
                stage_index=k,
                layout=QubitLayout(N).logical_to_physical(),
                state=np.asarray(StateVector.random_state(N, seed=k).data),
            )
            for k in range(3)
        ]
        # Corrupt the newest: the resume must fall back to stage 1 and
        # delete the corpse.
        paths[2].write_bytes(b"garbage")
        ck = find_checkpoint(tmp_path, fingerprint=fingerprint)
        assert ck is not None and ck.stage_index == 1
        assert not paths[2].exists()

    def test_prune_keeps_newest(self, tmp_path, plan):
        config = CheckpointConfig(tmp_path, keep=2)
        fingerprint = checkpoint_fingerprint(plan)
        for k in range(5):
            write_checkpoint(
                config,
                fingerprint=fingerprint,
                num_qubits=N,
                stage_index=k,
                layout=QubitLayout(N).logical_to_physical(),
                state=np.asarray(StateVector.random_state(N, seed=k).data),
            )
        kept = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert kept == ["run-stage0003.ckpt", "run-stage0004.ckpt"]

    def test_fingerprint_is_parameter_sensitive(self, machine):
        # The plan cache's fingerprint is deliberately structural; the
        # checkpoint fingerprint must NOT be — resuming a parameter-sweep
        # sibling's state would silently compute garbage.
        with Session(machine, backend="offload", planner="fast") as session:
            plan_a, *_ = session.plan_for(vqc(N, seed=0), machine, "offload")
            plan_b, *_ = session.plan_for(vqc(N, seed=1), machine, "offload")
        assert checkpoint_fingerprint(plan_a) != checkpoint_fingerprint(plan_b)


# ---------------------------------------------------------------------------
# Resume correctness
# ---------------------------------------------------------------------------

RESUME_CONFIGS = [
    ("offload", None),
    ("parallel", 1),
    ("parallel", 2),
    ("parallel", 4),
]


class TestResume:
    @pytest.mark.parametrize(
        "backend,workers",
        RESUME_CONFIGS,
        ids=[f"{b}-w{w}" if w else b for b, w in RESUME_CONFIGS],
    )
    @pytest.mark.parametrize("circuit_factory", [vqc, qft], ids=["vqc", "qft"])
    def test_resume_every_stage_bit_exact(
        self, machine, tmp_path, backend, workers, circuit_factory
    ):
        # qft plans relabel-heavily (its stages permute the layout far
        # more than vqc's): resume must restore layout as well as state.
        circuit = (
            circuit_factory(N, seed=0)
            if circuit_factory is vqc
            else circuit_factory(N)
        )
        config = CheckpointConfig(tmp_path, keep=99)
        reference, stats = run_state(
            machine, circuit, backend, workers, checkpoint=config
        )
        snapshots = sorted(tmp_path.glob("*.ckpt"))
        assert len(snapshots) == stats.checkpoints_written >= 1
        for snapshot in snapshots:
            resumed, rstats = run_state(
                machine, circuit, backend, workers, resume_from=snapshot
            )
            assert np.array_equal(resumed, reference), (
                f"resume from {snapshot.name} not bit-exact"
            )
            assert rstats.checkpoints_written == 0

    def test_resume_directory_picks_newest(self, machine, tmp_path):
        circuit = vqc(N, seed=0)
        config = CheckpointConfig(tmp_path, keep=99)
        reference, stats = run_state(
            machine, circuit, "parallel", 2, checkpoint=config
        )
        resumed, _ = run_state(
            machine, circuit, "parallel", 2, resume_from=tmp_path
        )
        assert np.array_equal(resumed, reference)

    def test_resume_ignores_other_plans_checkpoints(self, machine, tmp_path):
        # A directory holding only another circuit's snapshots: the run
        # silently starts from scratch (fingerprint mismatch is skipped in
        # directory mode) and is still correct.
        config = CheckpointConfig(tmp_path, keep=99)
        run_state(machine, vqc(N, seed=0), "offload", checkpoint=config)
        reference, _ = run_state(machine, vqc(N, seed=1), "offload")
        resumed, _ = run_state(
            machine, vqc(N, seed=1), "offload", resume_from=tmp_path
        )
        assert np.array_equal(resumed, reference)

    def test_session_surfaces_durability_stats(self, machine, tmp_path):
        with Session(machine, backend="parallel", planner="fast", monitor=True) as s:
            job = s.run(vqc(N, seed=0), execute=True, checkpoint=str(tmp_path))
            job.results()
            assert s.stats.checkpoints_written >= 1
            assert s.stats.integrity_checks >= 1
            assert s.stats.max_norm_drift < 1e-9
            assert s.stats.exec_lock_acquisitions >= 1
            d = s.stats.as_dict()
            for key in (
                "checkpoints_written",
                "checkpoint_errors",
                "integrity_checks",
                "max_norm_drift",
                "exec_lock_acquisitions",
                "exec_lock_wait_seconds",
            ):
                assert key in d


# ---------------------------------------------------------------------------
# Integrity monitors
# ---------------------------------------------------------------------------


class TestIntegrityMonitor:
    def test_clean_run_records_and_passes(self):
        monitor = IntegrityMonitor(IntegrityConfig())
        state = np.asarray(StateVector.random_state(N, seed=0).data)
        monitor.stage_complete(state, 0)
        monitor.stage_begin(state, 1)
        monitor.stage_complete(state, 1)
        assert monitor.stages_checked == 2
        assert monitor.max_norm_drift == 0.0

    def test_norm_drift_raises(self):
        monitor = IntegrityMonitor(IntegrityConfig(norm_tolerance=1e-6))
        state = np.asarray(StateVector.random_state(N, seed=0).data).copy()
        monitor.stage_complete(state, 0)
        state *= 1.5  # silent amplitude corruption
        with pytest.raises(IntegrityError):
            monitor.stage_complete(state, 1)

    def test_checksum_mutation_between_stages_raises(self):
        monitor = IntegrityMonitor(IntegrityConfig())
        state = np.asarray(StateVector.random_state(N, seed=0).data).copy()
        monitor.stage_complete(state, 0)
        state[3] = -state[3]  # norm-preserving bit flip
        with pytest.raises(IntegrityError):
            monitor.stage_begin(state, 1)

    def test_coerce(self):
        assert IntegrityMonitor.coerce(None) is None
        assert IntegrityMonitor.coerce(False) is None
        assert isinstance(IntegrityMonitor.coerce(True), IntegrityMonitor)
        monitor = IntegrityMonitor(IntegrityConfig())
        assert IntegrityMonitor.coerce(monitor) is monitor
        assert isinstance(
            IntegrityMonitor.coerce(IntegrityConfig(norm_tolerance=1.0)),
            IntegrityMonitor,
        )

    @pytest.mark.parametrize("backend", ["offload", "parallel"])
    def test_monitor_instance_is_reusable_across_executions(self, machine, plan, backend):
        # One instance handed to a Session sees a batch of two and then a
        # second job: every execution must start from a clean baseline and
        # digest (stage 0 of run k+1 never matches the end of run k), while
        # the instance's own telemetry accumulates.
        monitor = IntegrityMonitor()
        circuit = vqc(N, seed=0)
        with Session(machine, backend=backend, planner="fast", monitor=monitor) as s:
            batch = s.run([circuit, circuit], execute=True).results()
            again = s.run(circuit, execute=True).results()
            assert s.stats.integrity_checks == 3 * plan.num_stages
        assert monitor.stages_checked == 3 * plan.num_stages
        reference, _ = run_state(machine, circuit, backend)
        for result in (*batch, *again):
            assert np.array_equal(np.asarray(result.state.data), reference)


# ---------------------------------------------------------------------------
# One stage driver: every executor reports the same run
# ---------------------------------------------------------------------------

#: The OffloadStats fields that describe the run, not the executor.
STATS_FIELDS = (
    "num_stages", "per_stage_loads", "shard_loads", "shard_stores",
    "bytes_transferred", "retries", "fallbacks", "checkpoints_written",
    "resumed_from_stage", "stages_skipped", "integrity_checks",
)


def execute_on(executor, plan, machine, fault=None, **kwargs):
    """Run *plan* on ``"offload"`` or a W-worker ParallelRuntime.

    Returns ``(state, stats, compile_fallbacks)``; both executors report
    the segments their schedule degraded on the stats of the execution.
    """
    injector = FaultInjector(fault) if fault else None
    if injector is not None:
        faults.activate(injector)
    try:
        if executor == "offload":
            state, stats = execute_plan_offloaded(plan, machine, **kwargs)
        else:
            with ParallelRuntime(machine, num_workers=executor) as runtime:
                state, stats = runtime.execute(plan, **kwargs)
                assert runtime.fallbacks == stats.fallbacks  # the lifetime sum
    finally:
        if injector is not None:
            faults.deactivate(injector)
    return np.asarray(state.data).copy(), stats, stats.fallbacks


def assert_same_run(got, want):
    state, stats, fallbacks = got
    want_state, want_stats, want_fallbacks = want
    assert np.array_equal(state, want_state)
    assert fallbacks == want_fallbacks
    assert {f: getattr(stats, f) for f in STATS_FIELDS} == {
        f: getattr(want_stats, f) for f in STATS_FIELDS
    }


class TestExecutorStatsDifferential:
    """The offload and parallel executors share one stage driver, so the
    same run must read the same on every stats field it owns — and on the
    traffic counters the shard passes keep — for any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "fault",
        [
            None,
            "shard_load:transient:1",
            "kernel_apply:transient:1",
            "shard_store:transient:1",
            "compile:permanent:1",
        ],
    )
    def test_clean_and_faulted_runs(self, machine, plan, workers, fault):
        clean = execute_on("offload", plan, machine)
        sequential = execute_on("offload", plan, machine, fault=fault)
        assert_same_run(execute_on(workers, plan, machine, fault=fault), sequential)
        _state, stats, fallbacks = sequential
        # per_stage_loads is the modelled pass count: a retried load shows
        # in shard_loads/retries, never here.
        assert stats.per_stage_loads == clean[1].per_stage_loads
        compile_fault = fault is not None and fault.startswith("compile")
        assert fallbacks == (1 if compile_fault else 0)
        assert stats.retries == (0 if fault is None or compile_fault else 1)
        if not compile_fault:
            assert np.array_equal(sequential[0], clean[0])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_checkpointed_monitored_run_and_every_resume_point(
        self, machine, plan, workers, tmp_path
    ):
        runs = {}
        for executor in ("offload", workers):
            config = CheckpointConfig(tmp_path / str(executor), keep=99)
            runs[executor] = execute_on(
                executor, plan, machine, checkpoint=config, monitor=True
            )
        assert_same_run(runs[workers], runs["offload"])
        assert runs["offload"][1].checkpoints_written == plan.num_stages - 1
        assert runs["offload"][1].integrity_checks == plan.num_stages
        snapshots = sorted((tmp_path / "offload").glob("*.ckpt"))
        assert len(snapshots) == plan.num_stages - 1
        for k, snapshot in enumerate(snapshots):
            sequential = execute_on(
                "offload", plan, machine, resume_from=snapshot, monitor=True
            )
            assert sequential[1].resumed_from_stage == k
            assert np.array_equal(sequential[0], runs["offload"][0])
            # Each executor resumes the *other's* snapshot of the boundary.
            assert_same_run(
                execute_on(
                    workers, plan, machine, resume_from=snapshot, monitor=True
                ),
                sequential,
            )


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        journal.append("submitted", 0, tenant="a", durable=False)
        journal.append("running", 0, tenant="a")
        journal.append("completed", 0, tenant="a", wall_seconds=0.5)
        journal.append("submitted", 1, tenant="b", durable=False)
        journal.close()
        replay = replay_journal(journal.path)
        assert replay.records_read == 4
        assert replay.last_job_id == 1
        assert replay.jobs[0]["type"] == "completed"
        assert [r["job"] for r in replay.orphans()] == [1]

    def test_sequence_continues_across_restart(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        journal.append("submitted", 0, tenant="a", durable=False)
        journal.close()
        journal2 = JobJournal(tmp_path, fsync=False)
        replay = journal2.replay()
        assert replay.last_seq == 0
        journal2.append("running", 0, tenant="a")
        journal2.close()
        assert [r["seq"] for r in map(json.loads, journal2.path.read_text().splitlines())] == [0, 1]

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        journal.append("submitted", 0, tenant="a", durable=False)
        journal.append("running", 0, tenant="a")
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'{"v":1,"seq":2,"type":"comp')  # crash mid-append
        replay = replay_journal(journal.path)
        assert replay.records_read == 2
        assert replay.torn_records == 1
        assert replay.corrupt_records == 0
        assert replay.jobs[0]["type"] == "running"

    def test_mid_file_tamper_is_counted_and_never_trusted(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=False)
        journal.append("submitted", 0, tenant="a", durable=False)
        journal.append("completed", 0, tenant="a")
        journal.append("submitted", 1, tenant="a", durable=False)
        journal.close()
        lines = journal.path.read_bytes().splitlines(keepends=True)
        # Tamper with the completion record: job 0 must replay as an
        # orphan (its completion is no longer trustworthy).
        lines[1] = lines[1].replace(b'"completed"', b'"cancelled"')
        journal.path.write_bytes(b"".join(lines))
        replay = replay_journal(journal.path)
        assert replay.corrupt_records == 1
        assert replay.jobs[0]["type"] == "submitted"
        with pytest.raises(IntegrityError):
            replay_journal(journal.path, strict=True)


# ---------------------------------------------------------------------------
# Service-level recovery (in-process)
# ---------------------------------------------------------------------------


class TestServiceRecovery:
    def test_orphans_are_readmitted_and_complete_bit_exact(
        self, machine, tmp_path
    ):
        from repro.circuits import to_qasm

        # Forge a crashed service's journal: one finished job, one orphan.
        journal = JobJournal(tmp_path, fsync=False)
        circuit = vqc(N, seed=0)
        journal.append(
            "submitted", 0, tenant="acme", priority=0, weight=1.0,
            durable=True, circuits=[to_qasm(circuit)],
            run_kwargs={"backend": "parallel"},
        )
        journal.append("running", 0, tenant="acme")
        journal.append(
            "submitted", 1, tenant="acme", priority=0, weight=1.0,
            durable=False,
        )
        journal.close()

        reference, _ = run_state(machine, circuit, "parallel")
        service = SimulationService(
            machine, journal_dir=tmp_path, journal_fsync=False, planner="fast"
        )
        try:
            assert service.recovered == 1
            assert service.abandoned == 1
            job = service.recovered_jobs[0]
            state = np.asarray(job.results()[0].state.data)
            assert np.array_equal(state, reference)
            stats = service.stats()
            assert stats["journal"]["recovered"] == 1
            assert stats["journal"]["abandoned"] == 1
            # New submissions continue the journal's id sequence.
            service.submit(vqc(N, seed=1), backend="parallel").results()
        finally:
            service.close()
        replay = replay_journal(tmp_path / "journal.jsonl")
        assert replay.jobs[0]["type"] == "completed"
        assert replay.jobs[2]["type"] == "completed"

    def test_watchdog_flags_stuck_job(self, machine):
        service = SimulationService(
            machine,
            planner="fast",
            watchdog_interval=0.02,
            stuck_grace_seconds=0.0,
            stuck_slack=0.0,
        )
        try:
            # Forge an in-flight entry the scheduler will never clear.
            with service._cond:
                service._running_since[999] = (time.monotonic() - 10.0, None, "slow")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with service._cond:
                    if service.stuck_jobs:
                        break
                time.sleep(0.02)
            assert service.stuck_jobs == 1
            assert service.tenant_stats("slow").stuck_jobs == 1
            assert service.stats()["watchdog"]["stuck_jobs"] == 1
            with service._cond:
                del service._running_since[999]
        finally:
            service.close()

    def test_malformed_spec_fails_only_its_job(self, machine, tmp_path):
        spec_file = tmp_path / "batch.txt"
        spec_file.write_text(
            "vqc:7\n"
            "# comment\n"
            "definitely_not_a_family:3\n"
            "qft:7\n"
        )
        service = SimulationService(machine, planner="fast")
        try:
            jobs = service.submit_file(spec_file, backend="parallel")
            assert len(jobs) == 3
            with pytest.raises(SpecParseError):
                jobs[1].results()
            assert jobs[0].results()[0].state is not None
            assert jobs[2].results()[0].state is not None
            assert service.stats()["rejected"] == 1
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Whole-process crash recovery (subprocess; CI's crash-recovery job)
# ---------------------------------------------------------------------------

CRASH_CHILD = """
import sys
from repro import MachineConfig, Session
from repro.circuits.library import vqc
machine = MachineConfig.for_circuit({n}, num_gpus=4, local_qubits={local})
with Session(machine, backend={backend!r}, planner="fast") as session:
    session.run(vqc({n}, seed=0), execute=True, checkpoint={ckpt!r}).results()
"""

SERVICE_CHILD = """
from repro import MachineConfig
from repro.circuits.library import vqc
from repro.service import SimulationService
machine = MachineConfig.for_circuit({n}, num_gpus=4, local_qubits={local})
service = SimulationService(
    machine, journal_dir={journal!r}, journal_fsync=False, planner="fast"
)
for seed in range(3):
    service.submit(vqc({n}, seed=seed), backend="parallel", tenant="t%d" % seed)
service.close(drain=True)
"""


def spawn(code: str, **env):
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": REPO_SRC, **env},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


class TestCrashRecovery:
    @pytest.mark.parametrize("backend,workers", [("offload", None), ("parallel", 2)])
    def test_killed_after_stage_resumes_bit_exact(
        self, machine, tmp_path, backend, workers
    ):
        proc = spawn(
            CRASH_CHILD.format(
                n=N, local=LOCAL, backend=backend, ckpt=str(tmp_path)
            ),
            REPRO_CRASH="after_stage:3",
        )
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == CRASH_EXIT_CODE, stderr.decode()[-500:]
        snapshots = sorted(tmp_path.glob("*.ckpt"))
        assert snapshots, "crashed run left no checkpoints"

        reference, _ = run_state(machine, vqc(N, seed=0), backend, workers)
        resumed, stats = run_state(
            machine, vqc(N, seed=0), backend, workers, resume_from=tmp_path
        )
        assert np.array_equal(resumed, reference)
        assert stats.checkpoints_written == 0  # resume-only run

    def test_sigkilled_service_recovers_every_job_bit_exact(
        self, machine, tmp_path
    ):
        journal_path = tmp_path / "journal.jsonl"
        proc = spawn(SERVICE_CHILD.format(n=N, local=LOCAL, journal=str(tmp_path)))
        try:
            # Wait until the journal shows work in flight, then pull the rug.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal_path.exists() and b'"running"' in journal_path.read_bytes():
                    break
                time.sleep(0.01)
            else:
                pytest.fail("service child never started running a job")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        replay = replay_journal(journal_path)
        orphans = replay.orphans()
        assert orphans, "SIGKILL landed after all jobs finished; nothing to test"

        service = SimulationService(
            machine, journal_dir=tmp_path, journal_fsync=False, planner="fast"
        )
        try:
            assert service.recovered == len(orphans)
            assert service.abandoned == 0
            for payload in orphans:
                jid = payload["job"]
                seed = int(payload["tenant"].removeprefix("t"))
                reference, _ = run_state(machine, vqc(N, seed=seed), "parallel")
                state = np.asarray(
                    service.recovered_jobs[jid].results()[0].state.data
                )
                assert np.array_equal(state, reference), (
                    f"recovered job {jid} not bit-exact"
                )
        finally:
            service.close()
        final = replay_journal(journal_path)
        assert all(
            record["type"] == "completed"
            for jid, record in final.jobs.items()
            if jid in {p["job"] for p in orphans}
        )
