"""Stacked binds: jobs of one structure bound and run as one ``(B, 2^n)`` pass.

Every row of a stack is the solo run of its circuit, byte for byte, on both
kernel bodies (the native tile pass and the item loop); a row whose exact
signature differs leaves through the counted fallback; and the service
drains same-structure jobs into one dispatch without changing what each
job's journal says, what a cancelled job does or what a tenant's fair share
is.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.circuits import Circuit
from repro.circuits.gates import make_gate
from repro.circuits.library import ising, qsvm, vqc
from repro.errors import KernelError
from repro.service import SimulationService
from repro.service.scheduling import FairShareScheduler
from repro.sim import native
from repro.sim.apply import KernelItem, kernel_template

N = 12
FAMILIES = {
    "qsvm": lambda: qsvm(N),
    "ising": lambda: ising(N),
    "vqc": lambda: vqc(N, ansatz_reps=1),
}


def _redrawn(template: Circuit, rng: np.random.Generator) -> Circuit:
    """*template* with every angle drawn again, clear of the angles where
    a rotation loses entries: the same structure."""
    gates = [
        make_gate(g.name, g.qubits, rng.uniform(0.1, 2 * np.pi - 0.1, len(g.params)))
        if g.params else g
        for g in template.gates
    ]
    return Circuit(template.num_qubits, gates, name=template.name)


@pytest.fixture(params=["native", "item-loop"])
def body(request, monkeypatch):
    """Each kernel body in turn: the native library, or none (the item
    loop, what a host without a compiler runs)."""
    if request.param == "native":
        if native.library() is None:
            pytest.skip("no native library on this host")
    else:
        monkeypatch.setattr(native, "library", lambda: None)
    return request.param


def _solo(machine: MachineConfig, circuit: Circuit) -> bytes:
    with Session(machine, backend="incore") as session:
        return session.run(circuit).result().state.data.tobytes()


class TestStackedRows:
    """Rows of B in {1, 2, 3, 8} — tenant-relabelled twins among them —
    each equal their solo run, on both bodies."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("rows", [1, 2, 3, 8])
    def test_every_row_is_its_solo_run(self, body, family, rows):
        rng = np.random.default_rng(rows)
        machine = MachineConfig.for_circuit(N, num_shards=4)
        template = FAMILIES[family]()
        relabel = dict(enumerate(rng.permutation(N).tolist()))
        stack = [_redrawn(template, rng) for _ in range(rows)]
        twins = [_redrawn(template, rng).remap_qubits(relabel) for _ in range(rows)]
        circuits = [c for pair in zip(stack, twins) for c in pair]  # interleaved keys
        with Session(machine, backend="incore") as session:
            session.run([stack[0], twins[0]])  # cached entries: every row rebinds
            job = session.run(circuits)
            stacked = session.stats.stacked_rows
        assert stacked == (2 * rows if rows > 1 else 0)
        for circuit, result in zip(circuits, job.results(), strict=True):
            got = result.state.data
            want = np.frombuffer(_solo(machine, circuit), dtype=np.complex128)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_a_declined_row_leaves_through_the_counted_fallback(self, body):
        """rx(0) shares rx(1e-13)'s structural key, not its exact zeros: in
        a stack over the generic structure it compiles alone (counted), and
        the other rows stay stacked."""
        machine = MachineConfig.for_circuit(6)

        def circuit(theta):
            return Circuit(6).h(0).cx(0, 1).rx(theta, 1).cz(1, 2).ry(0.4, 3).cx(3, 4).rz(0.2, 5)

        rows = [circuit(2e-13), circuit(0.0), circuit(3e-13)]
        assert len({c.structural_key() for c in rows}) == 1
        with Session(machine, backend="incore") as session:
            session.run(circuit(1e-13))
            job = session.run(rows)
            stats = session.stats
        assert stats.programs_rebound == 3
        assert stats.program_rebind_fallbacks == 1
        assert stats.stacked_rows == 2
        summaries = [r.summary() for r in job.results()]
        assert [s["ops_recompiled"] > 0 for s in summaries] == [False, True, False]
        for row, result in zip(rows, job.results()):
            assert result.state.data.tobytes() == _solo(machine, row)

    def test_a_fan_out_shares_one_payload_row(self, body):
        """One circuit over many initial states binds once: one payload row
        (stride 0) serves every row of the stack."""
        machine = MachineConfig.for_circuit(8)
        circuit = _redrawn(vqc(8, ansatz_reps=1), np.random.default_rng(4))
        states = [None] * 3
        with Session(machine, backend="incore") as session:
            job = session.run(circuit, initial_states=states)
            assert session.stats.stacked_rows == 0
        want = _solo(machine, circuit)
        assert all(r.state.data.tobytes() == want for r in job.results())


@pytest.mark.skipif(native.library() is None, reason="no native library on this host")
class TestPayloadStride:
    def test_stride_zero_is_one_payload_for_every_row(self):
        """The tile pass reads row b's numbers at payload + b * stride: a
        stride of 0 is one payload fanned out, per-row payloads are each
        row's own — and each row equals that payload run alone."""
        n = 9
        rng = np.random.default_rng(5)
        template = kernel_template(
            [KernelItem((1, 4), "gate"), KernelItem((0,), "fold"), KernelItem((6, 2, 8), "gate")], n
        )
        assert template.native
        size = _packed(template, rng).size
        numbers = np.stack([_packed(template, rng) for _ in range(3)])
        assert numbers.shape == (3, size)
        states = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        scratch = np.empty_like(states)

        def run(payload, buffer):
            out = buffer.copy()
            template.bind_numbers(payload, None)(out, np.empty_like(out), None)
            return out

        stacked = run(numbers, states)
        for row in range(3):
            assert stacked[row].tobytes() == run(numbers[row : row + 1], states[row]).tobytes()
        shared = run(numbers[1:2], states)
        for row in range(3):
            assert shared[row].tobytes() == run(numbers[1:2], states[row]).tobytes()
        # Strided rows (a column slice of a wider run) read the same numbers.
        wide = np.zeros((3, size + 5), dtype=np.complex128)
        wide[:, 2 : 2 + size] = numbers
        assert run(wide[:, 2 : 2 + size], states).tobytes() == stacked.tobytes()
        # A stack bound for three rows runs three rows only.
        with pytest.raises(KernelError):
            template.bind_numbers(numbers, None)(states[:2].copy(), scratch[:2], None)


def _packed(template, rng) -> np.ndarray:
    """A random payload of *template*'s size: a unitary matrix per dense
    item, random 2x2 unitaries for the fold."""

    def unitary(dim):
        q, _r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return q

    class Filled:
        def __init__(self, item):
            k = len(item.qubits)
            self.matrix = unitary(1 << k)
            self.factors = np.stack([unitary(2) for _ in range(k)])
            self.phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << k))

    return template.pack([Filled(item) for item in template.items])


# ---------------------------------------------------------------------------
# The service: one dispatch per structure
# ---------------------------------------------------------------------------


def _burst(svc: SimulationService, jobs):
    """Submit *jobs* — ``(tenant, circuit)`` — while the scheduler is held,
    so every one is queued when it next dispatches."""
    with svc._cond:
        return [svc.submit(circuit, tenant=tenant) for tenant, circuit in jobs]


def _records(journal_dir):
    lines = (journal_dir / "journal.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


class TestStackedDispatch:
    def test_a_burst_runs_one_dispatch_per_structure(self, tmp_path):
        rng = np.random.default_rng(7)
        machine = MachineConfig.for_circuit(N, num_shards=4)
        templates = [FAMILIES[name]() for name in sorted(FAMILIES)]
        # Each tenant submits one job of each structure.
        jobs = [
            (tenant, _redrawn(templates[i // 3], rng))
            for i, tenant in enumerate(["a", "b", "c"] * 3)
        ]
        with SimulationService(machine, journal_dir=tmp_path, journal_fsync=False) as svc:
            submitted = _burst(svc, jobs)
            results = [job.result(timeout=60) for job in submitted]
            stats = svc.stats()
        assert (stats["stacked_dispatches"], stats["stacked_rows"]) == (3, 9)
        # Each structure's first row compiles cold (the cache entry's
        # program); the other two bind stacked over it.
        assert stats["session"]["stacked_rows"] == 6
        assert stats["completed"] == 9
        for (_tenant, circuit), result in zip(jobs, results):
            assert result.state.data.tobytes() == _solo(machine, circuit)
        # Per job, today's records in today's order; a dispatch journals
        # every job's "running" before any of its outcomes.
        records = _records(tmp_path)
        by_job: dict[int, list[str]] = {}
        for record in records:
            by_job.setdefault(record["job"], []).append(record["type"])
        assert sorted(by_job.values()) == [["submitted", "running", "completed"]] * 9
        types = [r["type"] for r in records if r["type"] in ("running", "completed")]
        assert types == (["running"] * 3 + ["completed"] * 3) * 3

    def test_a_job_cancelled_while_queued_is_never_claimed(self, tmp_path):
        rng = np.random.default_rng(8)
        machine = MachineConfig.for_circuit(N, num_shards=4)
        template = FAMILIES["vqc"]()
        with SimulationService(machine, journal_dir=tmp_path, journal_fsync=False) as svc:
            with svc._cond:
                jobs = [svc.submit(_redrawn(template, rng), tenant=t) for t in "abc"]
                assert jobs[1].cancel()
            assert jobs[0].result(timeout=60) and jobs[2].result(timeout=60)
            assert jobs[1].cancelled()
            stats = svc.stats()
        assert (stats["completed"], stats["cancelled"]) == (2, 1)
        assert (stats["stacked_dispatches"], stats["stacked_rows"]) == (1, 2)
        types = {}
        for record in _records(tmp_path):
            types.setdefault(record["job"], []).append(record["type"])
        assert sorted(types.values()) == [
            ["submitted", "cancelled"], ["submitted", "running", "completed"],
            ["submitted", "running", "completed"],
        ]

    def test_a_fault_in_a_stacked_dispatch_is_retried_per_job(self, tmp_path):
        """An injected kernel fault fails the stacked run it fires in: each
        job of the stack then runs alone — as a solo job would have run —
        and, the fault spent, each completes with its solo bits, one
        "running" and one "completed" record apiece."""
        rng = np.random.default_rng(9)
        machine = MachineConfig.for_circuit(N, num_shards=4)
        template = FAMILIES["qsvm"]()
        circuits = [_redrawn(template, rng) for _ in "abc"]
        with SimulationService(
            machine, journal_dir=tmp_path, journal_fsync=False,
            faults="kernel_apply:KernelError:1",
        ) as svc:
            jobs = _burst(svc, zip("abc", circuits))
            results = [job.result(timeout=60) for job in jobs]
            stats = svc.stats()
            assert svc.session._injector.total_fired == 1
        for circuit, result in zip(circuits, results):
            assert result.state.data.tobytes() == _solo(machine, circuit)
        assert (stats["failed"], stats["completed"], stats["stacked_rows"]) == (0, 3, 3)
        records = [r["type"] for r in _records(tmp_path) if r["type"] != "submitted"]
        assert records == ["running"] * 3 + ["completed"] * 3

    def test_only_the_job_whose_own_run_fails_is_failed(self, tmp_path, monkeypatch):
        """A job that fails on its own fails its stack's run; its stack
        mates, run alone, complete — one failed job, as the solo path
        gives, not three."""
        rng = np.random.default_rng(11)
        machine = MachineConfig.for_circuit(N, num_shards=4)
        template = FAMILIES["ising"]()
        circuits = [_redrawn(template, rng) for _ in "abc"]
        poisoned = circuits[1]
        with SimulationService(machine, journal_dir=tmp_path, journal_fsync=False) as svc:
            run = svc.session.run

            def failing_run(batch, **kwargs):
                if any(c is poisoned for c in batch):
                    raise KernelError("this job's own fault", site="kernel_apply")
                return run(batch, **kwargs)

            monkeypatch.setattr(svc.session, "run", failing_run)
            jobs = _burst(svc, zip("abc", circuits))
            with pytest.raises(KernelError):
                jobs[1].result(timeout=60)
            results = [jobs[0].result(timeout=60), jobs[2].result(timeout=60)]
            stats = svc.stats()
        for circuit, result in zip([circuits[0], circuits[2]], results):
            assert result.state.data.tobytes() == _solo(machine, circuit)
        assert (stats["failed"], stats["completed"], stats["stacked_rows"]) == (1, 2, 3)
        by_job: dict[int, list[str]] = {}
        for record in _records(tmp_path):
            by_job.setdefault(record["job"], []).append(record["type"])
        assert list(by_job.values()) == [
            ["submitted", "running", "completed"],
            ["submitted", "running", "failed"],
            ["submitted", "running", "completed"],
        ]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_a_stack_fits_the_memory_budget(self, rows):
        """Under a budget of *rows* one-job working sets and no
        degradation, queued jobs of one structure stack at most *rows* at a
        time, and every one runs in core: a job admissible alone is never
        refused for the jobs it is stacked with."""
        rng = np.random.default_rng(12)
        machine = MachineConfig.for_circuit(N, num_shards=4)
        template = FAMILIES["vqc"]()
        one = 2 * 16 * (1 << N)
        with SimulationService(
            machine, memory_budget_bytes=rows * one, degrade=False
        ) as svc:
            jobs = _burst(svc, [(t, _redrawn(template, rng)) for t in "abcabc"])
            backends = [job.result(timeout=60).backend for job in jobs]
            stats = svc.stats()
        assert backends == ["incore"] * 6
        assert (stats["completed"], stats["failed"]) == (6, 0)
        assert stats["stacked_rows"] == rows * stats["stacked_dispatches"]
        assert (stats["stacked_dispatches"] > 0) == (rows > 1)

    def test_a_job_runs_stacked_as_its_session_admitted_it(self):
        """A session budget of one state admits a job of three same-structure
        circuits as three stacks of one, and the session runs it so (no
        stacked row) and computes each row's bits."""
        rng = np.random.default_rng(13)
        machine = MachineConfig.for_circuit(N, num_shards=4)
        template = FAMILIES["qsvm"]()
        circuits = [_redrawn(template, rng) for _ in range(3)]
        one = 2 * 16 * (1 << N)
        with SimulationService(machine, memory_budget_bytes=one) as svc:
            assert svc.session.memory_budget_bytes == one
            svc.submit(_redrawn(template, rng)).result(timeout=60)  # a warm entry
            results = svc.submit(circuits).results(timeout=60)
            stats = svc.stats()
        assert stats["session"]["stacked_rows"] == 0
        assert stats["session"]["programs_rebound"] == 3
        for circuit, result in zip(circuits, results):
            assert result.state.data.tobytes() == _solo(machine, circuit)

    def test_jobs_that_cannot_share_a_pass_run_alone(self):
        """A shard backend binds one schedule per job, and keywords that act
        on a stack as a whole (a seed) keep a job to itself."""
        rng = np.random.default_rng(10)
        machine = MachineConfig.for_circuit(N, num_shards=4, local_qubits=10)
        template = FAMILIES["ising"]()
        with SimulationService(machine) as svc:
            jobs = _burst(svc, [(t, _redrawn(template, rng)) for t in "ab"])
            with svc._cond:
                jobs += [svc.submit(_redrawn(template, rng), tenant="a", backend="offload")]
                jobs += [svc.submit(_redrawn(template, rng), tenant="b", backend="offload")]
                jobs += [
                    svc.submit(_redrawn(template, rng), tenant=t, seed=1, shots=4) for t in "ab"
                ]
            for job in jobs:
                job.result(timeout=60)
            stats = svc.stats()
        assert (stats["stacked_dispatches"], stats["stacked_rows"]) == (1, 2)


class TestFairShareOverStacks:
    def test_each_tenant_repays_the_rows_a_stack_ran_ahead(self):
        """A drained job is charged to its own tenant: the debt survives an
        empty queue and is repaid before that tenant dispatches again."""
        scheduler = FairShareScheduler()
        for label in ("S1", "S2"):
            scheduler.enqueue("a", label)
        for label in ("S3", "T1", "T2"):
            scheduler.enqueue("b", label)
        tenant, job = scheduler.next_job()
        assert (tenant, job.payload) == ("a", "S1")
        drained = scheduler.drain(lambda payload: payload.startswith("S"), 8)
        assert [(t, j.payload) for t, j in drained] == [("a", "S2"), ("b", "S3")]
        queues = scheduler._queues
        assert queues["a"].deficit == -1 and queues["b"].deficit == -1
        # b's next visit repays its debt instead of dispatching T1.
        tenant, job = scheduler.next_job()
        assert (tenant, job.payload) == ("b", "T1")
        assert queues["b"].deficit == 0 and queues["a"].deficit == -1
        scheduler.enqueue("a", "U1")
        # a, back with work, pays its debt on its first visit: b goes first.
        assert scheduler.next_job()[1].payload == "T2"
        assert scheduler.next_job()[1].payload == "U1"

    def test_a_drain_keeps_priority_and_one_visit_of_debt(self):
        """A job runs early only past jobs of its own priority, and only
        while its tenant stays at most one visit's credit in debt."""
        scheduler = FairShareScheduler()
        for label in ("S1", "S2", "S3"):
            scheduler.enqueue("a", label)
        scheduler.enqueue("b", "H", priority=5)
        scheduler.enqueue("b", "S4")
        scheduler.enqueue("c", "S5")
        tenant, job = scheduler.next_job()
        assert (tenant, job.payload) == ("a", "S1")
        assert scheduler.drainable() == ["S2", "S3", "H", "S5"]
        drained = scheduler.drain(lambda payload: payload.startswith("S"), 8)
        # S3 would put a two visits in debt; S4 waits behind b's H.
        assert [(t, j.payload) for t, j in drained] == [("a", "S2"), ("c", "S5")]
        assert scheduler.drainable() == ["H"]
        queues = scheduler._queues
        assert (queues["a"].deficit, queues["c"].deficit) == (-1, -1)

    def test_over_a_burst_each_tenant_gets_its_share(self):
        """Three equal tenants, three structures, a stack of at most four:
        at every point of the burst no tenant is more than one stack of
        rows ahead of another, and every row dispatches once."""
        scheduler = FairShareScheduler()
        tenants = ("a", "b", "c")
        for i in range(72):
            scheduler.enqueue(tenants[i % 3], f"{(i // 3) % 3}:{i}")
        dispatched = dict.fromkeys(tenants, 0)
        while scheduler.pending():
            tenant, job = scheduler.next_job()
            structure = job.payload.partition(":")[0]
            rows = [(tenant, job)] + scheduler.drain(
                lambda payload: payload.partition(":")[0] == structure, 3
            )
            for owner, _job in rows:
                dispatched[owner] += 1
            assert max(dispatched.values()) - min(dispatched.values()) <= 4
        assert dispatched == dict.fromkeys(tenants, 24)
        assert {q.dispatched_cost for q in scheduler._queues.values()} == {24}
