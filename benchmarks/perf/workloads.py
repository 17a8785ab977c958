"""The four benchmark workloads.

Every workload is a closed loop driven by one client thread.  A *round* is
the workload's fixed job list; ``--seed`` redraws every rotation angle (and
the service tenants' qubit relabellings) but never the structure, order or
mix, so different seeds do the same work.  The program only ever receives
the generated circuits.

A round is a sequence of *batches* — the harness brackets each batch with
host-speed probes.  A batch is a callable returning its :class:`JobRecord`
list; input generation happens when the batch is built, outside the timed
interval, and verification happens in the harness afterwards.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from probes import INTERPRETER_SHARE
from repro import MachineConfig, Session, SimulationService
from repro.circuits import Circuit, make_gate
from repro.circuits.gates import gate_matrix
from repro.circuits.library import ae, ising, qft, qpeexact, qsvm, su2random, vqc
from repro.runtime import CheckpointConfig
from repro.sim.program import Workspace, compile_unitary_op

_TWO_PI = 2.0 * np.pi


def redraw_angles(template: Circuit, rng: np.random.Generator) -> Circuit:
    """*template* with every gate parameter redrawn from *rng*.

    Angles stay clear of 0 and 2*pi, where a rotation's matrix loses
    entries and the circuit would be a different structure.
    """
    gates = [
        make_gate(g.name, g.qubits, rng.uniform(0.1, _TWO_PI - 0.1, len(g.params)))
        if g.params
        else g
        for g in template.gates
    ]
    return Circuit(template.num_qubits, gates, name=template.name)


@dataclass
class JobRecord:
    """One measured job as the harness sees it."""

    #: Stable identity across rounds: what the job is, not which run of it.
    structure: str
    circuit: Circuit
    #: Raw seconds from handing the job to the program to holding its result.
    seconds: float
    #: The ``repro`` Result (``None`` when the job failed).
    result: object = None
    error: str = ""
    #: ``SessionStats`` of the job's own session, when it has one.
    stats: object = None
    #: ``seconds`` divided by the host-speed factor (filled by the harness).
    calibrated: float = 0.0


class Workload:
    """Common shape of a workload; see the module docstring."""

    name = ""
    why = ""
    #: Largest state any job touches, in qubits (sizes the copy roofline).
    state_qubits = 0
    #: Share of a job spent sweeping state-sized arrays beyond L2, read off
    #: the traced run; mixes the probe's memory and cpu groups.
    memory_share = 0.0
    jobs_per_round = 0

    def __init__(self, seed: int, toy: bool, work_dir: Path):
        self.rng = np.random.default_rng([seed, sum(self.name.encode())])
        self.toy = toy
        self.work_dir = work_dir
        #: Sessions whose public stats the per-layer report reads.
        self.sessions: list[Session] = []

    def size(self, qubits: int) -> int:
        """Qubit count at the current scale (toy halves everything)."""
        return qubits // 2 if self.toy else qubits

    def setup(self):
        """Build the long-lived objects, plan, and run one warm-up round.

        A generator: it yields after every step (the last one too) that
        step's ``memory_share``, so the harness can bracket each step with
        probes and divide it by the slowdown of the kind of work it did.
        """
        yield from self.warm_up_round()

    def warm_up_round(self):
        """One round outside the measurement that must succeed."""
        for batch in self.round():
            for record in batch():
                if record.error:
                    raise RuntimeError(f"warm-up {record.structure}: {record.error}")
            yield self.memory_share

    def round(self):
        """Yield this round's batches (callables returning JobRecords)."""
        raise NotImplementedError

    def check_batch(self, records: list[JobRecord]) -> list[str]:
        """Workload-specific checks of one batch, outside its timed
        interval; returns failures."""
        return []

    def verify(self) -> list[str]:
        """Workload-specific checks after measuring; returns failures."""
        return []

    def session_stats(self, records: list[JobRecord]) -> list:
        """The ``SessionStats`` objects behind *records* (traced jobs)."""
        return [session.stats for session in self.sessions]

    #: Share of a traced run's seconds handed to :meth:`traced_extras`.
    extras_share = 0.0

    def traced_extras(self, seconds: float) -> dict[str, float]:
        """Per-layer metrics only this workload's traced run measures."""
        return {}

    def close(self) -> None:
        for session in self.sessions:
            session.close()


def _timed_job(structure: str, circuit: Circuit, call) -> JobRecord:
    """Time ``call() -> Result``; a raised job is a counted outcome."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:
        return JobRecord(
            structure, circuit, time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    return JobRecord(structure, circuit, time.perf_counter() - start, result)


def _timed_run(session: Session, circuit: Circuit, structure: str, **run_kwargs) -> JobRecord:
    return _timed_job(
        structure, circuit, lambda: session.run(circuit, **run_kwargs).result()
    )


class ColdPlan(Workload):
    name = "cold-plan-16q"
    why = (
        "every job is a fresh Session on a new structure, so ILP staging, DP "
        "kernelization and the first compile dominate; sim does almost nothing"
    )
    state_qubits = 16
    memory_share = INTERPRETER_SHARE  # the solver's heap is what misses L2

    def __init__(self, seed, toy, work_dir):
        super().__init__(seed, toy, work_dir)
        s = self.size
        self.templates = [
            ("su2random", su2random(s(12))),
            ("qft", qft(s(16))),
            ("ising", ising(s(16))),
            ("ae", ae(s(16))),
            ("qpeexact", qpeexact(s(16))),
            ("qsvm", qsvm(s(16))),
        ]

    jobs_per_round = 6

    def round(self):
        for structure, template in self.templates:
            circuit = redraw_angles(template, self.rng)
            yield lambda c=circuit, s=structure: [self._job(c, s)]

    def _job(self, circuit: Circuit, structure: str) -> JobRecord:
        machine = MachineConfig.for_circuit(circuit.num_qubits, num_shards=4)
        sessions = []

        def call():
            sessions.append(Session(machine))  # the session is the job's cost
            return sessions[0].run(circuit).result()

        record = _timed_job(structure, circuit, call)
        for session in sessions:  # none when the constructor raised
            record.stats = session.stats
            session.close()
        return record

    def session_stats(self, records):
        return [record.stats for record in records]


class InCoreExec(Workload):
    name = "incore-exec-20q"
    why = (
        "one warm Session sweeping a 16 MiB state: plan-cache hit, rebind and "
        "CompiledProgram.run are the job; planner changes must not move it"
    )
    state_qubits = 20
    memory_share = 0.9  # sim.program.run is 97 % of a traced job

    def __init__(self, seed, toy, work_dir):
        super().__init__(seed, toy, work_dir)
        n = self.size(20)
        self.machine = MachineConfig.for_circuit(n)
        self.templates = [
            ("qft", qft(n)),
            ("ising", ising(n)),
            ("su2random", su2random(n, reps=1)),
        ]

    jobs_per_round = 3

    def setup(self):
        self.session = Session(self.machine, backend="incore")
        self.sessions.append(self.session)
        for _structure, template in self.templates:
            self.session.plan_for(redraw_angles(template, self.rng))
            yield INTERPRETER_SHARE
        yield from self.warm_up_round()

    def round(self):
        for structure, template in self.templates:
            circuit = redraw_angles(template, self.rng)
            yield lambda c=circuit, s=structure: [_timed_run(self.session, c, s)]

    def traced_extras(self, seconds: float) -> dict:
        return op_class_sweeps(self.machine.total_qubits())


class ShardStream(Workload):
    name = "shard-stream-20q"
    why = (
        "8 shards of 2 MiB through W=2: per-shard compiled segments, dynamic "
        "gates, layout transitions and DRAM load/store; parallel and offload "
        "stage loops under one gate, their results bit-identical"
    )
    state_qubits = 20
    # 2 MiB shards stay in the last-level cache: the cpu group tracks the
    # job better than the 16 MiB sweeps do (spread over twenty runs 4.6 %
    # at 0.25, 5.5 % at 0.75, 5.8 % at 0.9).
    memory_share = 0.25

    def __init__(self, seed, toy, work_dir):
        super().__init__(seed, toy, work_dir)
        n = self.size(20)
        self.machine = MachineConfig.for_circuit(n, num_shards=2, local_qubits=n - 3)
        self.templates = [("qft", qft(n)), ("ising", ising(n))]

    jobs_per_round = 4

    def setup(self):
        self.session = Session(self.machine)
        self.sessions.append(self.session)
        for _structure, template in self.templates:
            # parallel and offload run the same plan
            self.session.plan_for(redraw_angles(template, self.rng), backend="parallel")
            yield INTERPRETER_SHARE
        yield from self.warm_up_round()

    def round(self):
        for structure, template in self.templates:
            circuit = redraw_angles(template, self.rng)  # shared by the pair
            yield lambda c=circuit, s=structure: [
                _timed_run(self.session, c, s, backend=backend)
                for backend in ("parallel", "offload")
            ]

    def check_batch(self, records):
        parallel, offload = records
        if parallel.error or offload.error:
            return []  # already counted as failed jobs
        if not np.array_equal(parallel.result.state.data, offload.result.state.data):
            return [f"{parallel.structure}: parallel and offload states differ"]
        return []

    extras_share = 0.4

    def traced_extras(self, seconds: float) -> dict:
        """Paired bare/guarded alternation on the qft parallel job.

        Each cycle runs the job bare and once under each guard, back to
        back, so host drift hits every variant alike; a ratio is the
        guarded median over the bare median.  Guards are switched through
        the Session's public ``check`` / ``monitor`` attributes and the
        ``checkpoint=`` run argument.
        """
        circuit = redraw_angles(self.templates[0][1], self.rng)
        ckpt_dir = self.work_dir / "guard-checkpoints"
        session = self.session
        variants = {
            "bare": {},
            "check.plans": {"check": "plans"},
            "check.full": {"check": "full"},
            "runtime.integrity": {"monitor": True},
            "runtime.checkpoint": {"checkpoint": CheckpointConfig(ckpt_dir)},
        }
        times: dict[str, list[float]] = {name: [] for name in variants}
        checkpoint_bytes = 0
        deadline = time.perf_counter() + seconds
        while not times["bare"] or time.perf_counter() < deadline:
            for name, guard in variants.items():
                session.check = guard.get("check", "off")
                session.monitor = guard.get("monitor")
                run_kwargs = {"backend": "parallel"}
                if "checkpoint" in guard:
                    run_kwargs["checkpoint"] = guard["checkpoint"]
                try:
                    record = _timed_run(session, circuit, name, **run_kwargs)
                finally:
                    session.check, session.monitor = "off", None
                if record.error:
                    raise RuntimeError(f"guard {name}: {record.error}")
                times[name].append(record.seconds)
                if "checkpoint" in guard:
                    checkpoint_bytes = sum(
                        p.stat().st_size for p in ckpt_dir.iterdir() if p.is_file()
                    )
                    shutil.rmtree(ckpt_dir)
        bare = float(np.median(times["bare"]))
        out = {
            f"{name}.overhead_ratio": float(np.median(values)) / bare
            for name, values in times.items()
            if name != "bare"
        }
        out["runtime.checkpoint.bytes"] = float(checkpoint_bytes)
        return out


class ServiceBurst(Workload):
    name = "service-burst-12q"
    why = (
        "24 warm 12-qubit jobs per burst through a restarted journalled "
        "service: journal, QASM, admission, DRR, keys, bind and result "
        "assembly are most of a job; sim is small and planning is zero"
    )
    state_qubits = 12
    memory_share = INTERPRETER_SHARE  # glue on two threads; 64 KiB states
    tenants = ("tenant-a", "tenant-b", "tenant-c")

    def __init__(self, seed, toy, work_dir):
        super().__init__(seed, toy, work_dir)
        n = self.size(12)
        self.machine = MachineConfig.for_circuit(n, num_shards=4)
        self.templates = [
            ("qsvm", qsvm(n)),
            ("ising", ising(n)),
            ("vqc", vqc(n, ansatz_reps=1)),
        ]
        # One seed-drawn qubit relabelling per tenant: the same three
        # computations on permuted qubits, i.e. one canonical structure
        # each in the cross-tenant store.
        self.relabel = {
            tenant: dict(enumerate(self.rng.permutation(n).tolist()))
            for tenant in self.tenants
        }
        self.dirs = work_dir / "service"
        self.service = None

    jobs_per_round = 24

    def _service(self) -> SimulationService:
        # fsync is off because the directories must live in the checkout
        # and a shared disk's fsync is not measurable; see README.md.
        return SimulationService(
            self.machine,
            journal_dir=self.dirs / "journal",
            persist_dir=self.dirs / "store",
            journal_fsync=False,
        )

    def setup(self):
        first = self._service()
        try:
            for _structure, template in self.templates:
                first.submit(redraw_angles(template, self.rng), tenant="warm").result()
        finally:
            first.close()
        yield INTERPRETER_SHARE
        self.service = self._service()  # journal replay + store warm-load
        self.sessions.append(self.service.session)
        yield INTERPRETER_SHARE
        yield from self.warm_up_round()

    def round(self):
        jobs = []
        for i in range(self.jobs_per_round):
            tenant = self.tenants[i % len(self.tenants)]
            structure, template = self.templates[(i // len(self.tenants)) % len(self.templates)]
            circuit = redraw_angles(template, self.rng).remap_qubits(self.relabel[tenant])
            jobs.append((structure, tenant, circuit))
        yield lambda: self._burst(jobs)

    def _burst(self, jobs) -> list[JobRecord]:
        clock = time.perf_counter
        pending = []
        for structure, tenant, circuit in jobs:
            start = clock()
            try:
                job = self.service.submit(circuit, tenant=tenant)
            except Exception as exc:
                job = exc
            pending.append((structure, circuit, start, job))
        records = []
        for structure, circuit, start, job in pending:
            result, error = None, ""
            try:
                if isinstance(job, Exception):
                    raise job
                result = job.result(timeout=60.0)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            records.append(JobRecord(structure, circuit, clock() - start, result, error))
        return records

    def traced_extras(self, seconds: float) -> dict:
        snapshot = self.service.stats()
        turnarounds = [
            tenant["mean_turnaround_seconds"] for tenant in snapshot["tenants"].values()
        ]
        journal = snapshot["journal"]
        return {
            "service.peak_queue_depth": float(snapshot["peak_queue_depth"]),
            "service.tenant_turnaround_max_over_min": max(turnarounds) / min(turnarounds),
            # "submitted" + "running" + "completed" records of one job
            "service.journal.bytes": (
                3.0 * Path(journal["path"]).stat().st_size / journal["appends"]
            ),
        }

    def verify(self) -> list[str]:
        built = self.service.session.stats.plans_built
        if built:
            return [f"restarted service replanned {built} structures (want 0)"]
        return []

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        shutil.rmtree(self.dirs, ignore_errors=True)


def op_class_sweeps(num_qubits: int) -> dict[str, float]:
    """Cost of one op of each class in units of a plain state copy.

    Each class is compiled with the program's own public op builder at a
    low, a middle and a high qubit position of a ``2^num_qubits`` state and
    timed beside ``np.copyto`` of the same state; the metric is the median
    over positions of (best op time / best copy time).  Bytes are computed,
    not measured: one "sweep" is one read plus one write of the state.
    """
    rng = np.random.default_rng(7)

    def dense(k: int) -> np.ndarray:
        a = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
        q, _r = np.linalg.qr(a)
        return q

    classes = {
        "dense_1q": (gate_matrix("ry", (0.7,)), 1),
        "dense_2q": (dense(2), 2),
        "diagonal": (gate_matrix("cp", (0.7,)), 2),
        "permutation": (gate_matrix("swap"), 2),
        "controlled": (gate_matrix("cry", (0.7,)), 2),
        "fused_3q": (dense(3), 3),
    }
    size = 1 << num_qubits
    state = np.full(size, 1.0 / np.sqrt(size), dtype=np.complex128)
    scratch = np.empty_like(state)
    workspace = Workspace()
    clock = time.perf_counter

    def best(fn) -> float:
        times = []
        for _ in range(3):
            start = clock()
            fn()
            times.append(clock() - start)
        return min(times)

    copy_s = best(lambda: np.copyto(scratch, state))
    out = {}
    for name, (matrix, k) in classes.items():
        ratios = []
        for low in sorted({0, (num_qubits - k) // 2, num_qubits - k}):
            qubits = tuple(range(low, low + k))
            op = compile_unitary_op(matrix, qubits, num_qubits)
            buffers = [state, scratch]

            def run(op=op, buffers=buffers):
                buffers[0], buffers[1] = op.run(buffers[0], buffers[1], workspace)

            run()  # warm the workspace
            ratios.append(best(run) / copy_s)
            state, scratch = buffers
        out[f"sim.apply.{name}.sweeps"] = statistics.median(ratios)
    return out


WORKLOADS = {
    cls.name: cls for cls in (ColdPlan, InCoreExec, ShardStream, ServiceBurst)
}
