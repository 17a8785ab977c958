"""repro — a from-scratch reproduction of *Atlas: Hierarchical Partitioning
for Quantum Circuit Simulation on GPUs* (SC 2024).

The package is organised as:

* :mod:`repro.circuits` — circuit IR, OpenQASM I/O and the benchmark
  circuit library (Table I's 11 families plus ``hhl``),
* :mod:`repro.ilp` — the integer-linear-programming substrate used by the
  staging algorithm,
* :mod:`repro.sim` — the dense NumPy state-vector engine,
* :mod:`repro.cluster` — the multi-node GPU cluster performance model,
* :mod:`repro.core` — the paper's contribution: ILP circuit staging
  (Section IV), DP circuit kernelization (Section V), and the hierarchical
  partitioner that combines them (Algorithm 1),
* :mod:`repro.runtime` — staged execution, DRAM offloading, the
  end-to-end timing model, and the deterministic fault-injection harness,
* :mod:`repro.errors` — the typed error taxonomy (transient vs permanent)
  plus the :class:`RetryPolicy` / :class:`Deadline` primitives that the
  executors and the Session share,
* :mod:`repro.session` — the :class:`Session` facade: pluggable execution
  backends, a structural plan cache, and the shots/observables job API,
* :mod:`repro.baselines` — HyQuas / cuQuantum / Qiskit-Aer / QDAO simulator
  models used in the evaluation,
* :mod:`repro.analysis` — experiment drivers regenerating every table and
  figure of the paper's evaluation.

Quick start::

    from repro import Session, MachineConfig
    from repro.circuits.library import qft

    machine = MachineConfig.for_circuit(12, num_shards=4, local_qubits=10)
    with Session(machine) as session:
        result = session.run(qft(12), shots=100).result()
    print(result.timing.total_seconds, result.counts())

:func:`simulate` remains as a one-shot convenience over the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, Gate, from_qasm, make_gate, to_qasm
from .cluster import DEFAULT_COST_MODEL, CostModel, MachineConfig
from .check import (
    CheckReport,
    verify_plan,
    verify_program,
    verify_schedule,
)
from .errors import (
    AdmissionError,
    CacheCorruptionError,
    Deadline,
    DeadlineExceeded,
    IntegrityError,
    JobCancelledError,
    KernelError,
    PermanentError,
    PlanValidationError,
    QueueFullError,
    ReproError,
    RetryPolicy,
    ServiceClosedError,
    SessionClosedError,
    ShardIOError,
    SpecParseError,
    StateValidationError,
    StaticCheckError,
    TenantQuotaError,
    TransientError,
)
from .core import (
    ExecutionPlan,
    KernelizeConfig,
    PartitionReport,
    partition,
)
from .planner import PassManager, available_presets, build_plan, register_preset
from .planner import legacy_pipeline  # simulate()'s keyword knobs; not re-exported
from .runtime import (
    CheckpointConfig,
    FaultInjector,
    FaultPlan,
    IntegrityConfig,
    TimingBreakdown,
    compile_plan,
    execute_plan,
)
from .service import AdmissionPolicy, SharedPlanStore, SimulationService
from .session import Job, JobStatus, Result, Session
from .sim import CompiledProgram, StateVector, simulate_reference

__version__ = "1.8.0"

__all__ = [
    "Circuit",
    "Gate",
    "make_gate",
    "to_qasm",
    "from_qasm",
    "StateVector",
    "simulate_reference",
    "MachineConfig",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "ExecutionPlan",
    "KernelizeConfig",
    "partition",
    "PartitionReport",
    "execute_plan",
    "compile_plan",
    "CompiledProgram",
    "TimingBreakdown",
    "Session",
    "Job",
    "JobStatus",
    "Result",
    # Multi-tenant service layer.
    "SimulationService",
    "SharedPlanStore",
    "AdmissionPolicy",
    "PassManager",
    "build_plan",
    "available_presets",
    "register_preset",
    # Robustness: error taxonomy, retry/deadline, fault injection.
    "ReproError",
    "TransientError",
    "PermanentError",
    "ShardIOError",
    "KernelError",
    "PlanValidationError",
    "StateValidationError",
    "AdmissionError",
    "StaticCheckError",
    "DeadlineExceeded",
    "CacheCorruptionError",
    "IntegrityError",
    "SpecParseError",
    "SessionClosedError",
    "ServiceClosedError",
    "QueueFullError",
    "TenantQuotaError",
    "JobCancelledError",
    "RetryPolicy",
    "Deadline",
    "FaultPlan",
    "FaultInjector",
    # Durable execution: checkpoints, integrity monitors.
    "CheckpointConfig",
    "IntegrityConfig",
    # Static verification layer.
    "CheckReport",
    "verify_plan",
    "verify_program",
    "verify_schedule",
    "SimulationResult",
    "simulate",
    "__version__",
]


@dataclass
class SimulationResult:
    """Everything produced by one end-to-end :func:`simulate` call."""

    state: StateVector | None
    plan: ExecutionPlan
    report: PartitionReport | None
    timing: TimingBreakdown


def simulate(
    circuit: Circuit,
    machine: MachineConfig,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    initial_state: StateVector | None = None,
    planner: "str | PassManager | None" = None,
    stager: str = "ilp",
    kernelizer: str = "atlas",
    kernelize_config: KernelizeConfig | None = None,
    execute: bool = True,
) -> SimulationResult:
    """Partition, execute, and time *circuit* on *machine* — the one-call API.

    A thin one-shot shim over :class:`repro.session.Session` with the
    in-core backend: one circuit, one plan, no caching across calls.  Use a
    Session directly for repeated runs (plan-cache amortisation), shard
    streaming backends, shots, or observables.

    Parameters
    ----------
    circuit:
        Input circuit (``machine.total_qubits()`` must match its size).
    machine:
        Cluster configuration; use :meth:`MachineConfig.for_circuit` for the
        common cases.
    cost_model:
        Kernel cost model used by the kernelizer and the timing model.
    initial_state:
        Optional starting state (default |0…0>).
    planner:
        Planning pipeline preset name or :class:`PassManager`; when given
        it replaces the knobs below (see :mod:`repro.planner`).
    stager, kernelizer, kernelize_config:
        The seed planner's strategy knobs (see :func:`repro.core.partition`),
        turned into a pipeline by :func:`repro.planner.legacy_pipeline`.
    execute:
        When False, skip the functional state-vector execution (useful for
        circuits too large to materialise) and return ``state=None``.
    """
    if planner is None:
        planner = legacy_pipeline(
            stager=stager, kernelizer=kernelizer, kernelize_config=kernelize_config
        )
    with Session(
        machine, backend="incore", cost_model=cost_model, planner=planner
    ) as session:
        job = session.run(circuit, initial_state=initial_state, execute=execute)
        result = job.result() if execute else job.modelled()
    return SimulationResult(
        state=result.state,
        plan=result.plan,
        report=result.report,
        timing=result.timing,
    )
