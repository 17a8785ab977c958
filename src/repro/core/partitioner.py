"""PARTITION — hierarchical partitioning (Algorithm 1 of the paper).

:func:`partition` glues the two levels of the hierarchy together: it stages
the circuit (ILP, Section IV) and then kernelizes every stage's subcircuit
(DP, Section V), returning an :class:`~repro.core.plan.ExecutionPlan` that
the executors in :mod:`repro.runtime` can run and the performance model can
time.

The function is a thin wrapper over :mod:`repro.planner`: its knobs
(``stager=``, ``kernelizer=``, ``kernelize_config=``) name a fixed
:class:`~repro.planner.PassManager` pipeline built by
:func:`repro.planner.legacy_pipeline`.  With :func:`repro.simulate` it is
the keyword-style entry point — the seed-output fixture and the paper's
stager × kernelizer ablation axes; everything else
(:func:`repro.planner.build_plan`, ``Session(planner=...)``) takes a preset
name or a pipeline, which adds per-pass telemetry, refinement and time
budgets.  The strategy functions the knobs name are registered in
:data:`repro.planner.KERNELIZERS` / :data:`repro.planner.STAGERS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits.circuit import Circuit
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..cluster.machine import MachineConfig
from .kernelize import KernelizeConfig
from .plan import ExecutionPlan

__all__ = ["partition", "PartitionReport"]


@dataclass
class PartitionReport:
    """Timing, size and telemetry metadata of one planning run.

    The first six fields are the original report (paper Section VII-A-b);
    the rest carry the pipeline's per-pass telemetry: which preset and
    passes produced the plan, how long each pass took, which passes skipped
    their work and why, and each pass's quality metrics (stage counts,
    per-stage kernel costs, refinement savings, ...).
    """

    staging_seconds: float
    kernelization_seconds: float
    num_stages: int
    num_kernels: int
    communication_cost: float
    total_kernel_cost: float
    #: Preset name that produced the plan ("" for legacy/custom pipelines).
    preset: str = ""
    #: Pass names in run order ("" pipelines included).
    pipeline: tuple[str, ...] = ()
    #: Wall seconds per pass, in run order.
    pass_seconds: dict[str, float] = field(default_factory=dict)
    #: Skipped pass name -> why it skipped its work (e.g. the refine pass
    #: when the time budget ran out).
    passes_skipped: dict[str, str] = field(default_factory=dict)
    #: Pass name -> that pass's metrics dictionary.
    pass_metrics: dict[str, dict] = field(default_factory=dict)

    @property
    def preprocessing_seconds(self) -> float:
        return self.staging_seconds + self.kernelization_seconds

    @property
    def planning_seconds(self) -> float:
        """Total pipeline wall time (falls back to staging + kernelize)."""
        if self.pass_seconds:
            return sum(self.pass_seconds.values())
        return self.preprocessing_seconds

    def as_dict(self) -> dict:
        return {
            "staging_seconds": self.staging_seconds,
            "kernelization_seconds": self.kernelization_seconds,
            "planning_seconds": self.planning_seconds,
            "num_stages": self.num_stages,
            "num_kernels": self.num_kernels,
            "communication_cost": self.communication_cost,
            "total_kernel_cost": self.total_kernel_cost,
            "preset": self.preset,
            "pipeline": list(self.pipeline),
            "pass_seconds": dict(self.pass_seconds),
            "passes_skipped": dict(self.passes_skipped),
        }


def partition(
    circuit: Circuit,
    machine: MachineConfig,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    stager: str = "ilp",
    kernelizer: str = "atlas",
    kernelize_config: KernelizeConfig | None = None,
    ilp_backend: str = "scipy",
    ilp_time_limit: float | None = 120.0,
) -> tuple[ExecutionPlan, PartitionReport]:
    """Hierarchically partition *circuit* for execution on *machine*.

    Parameters
    ----------
    circuit:
        The input circuit.
    machine:
        Architecture parameters (``L``, ``R``, ``G``); must satisfy
        ``L + R + G == circuit.num_qubits``.
    cost_model:
        Kernel cost model used by the kernelizer.
    stager:
        ``"ilp"`` (Atlas) or ``"snuqs"`` (greedy baseline).
    kernelizer:
        ``"atlas"`` (KERNELIZE), ``"atlas-naive"`` (ORDERED-KERNELIZE) or
        ``"greedy"`` (5-qubit packing baseline).
    kernelize_config:
        Optional tuning knobs for the DP kernelizer.
    ilp_backend, ilp_time_limit:
        Passed through to the staging ILP solver.

    Returns
    -------
    (plan, report):
        The execution plan plus preprocessing statistics.
    """
    # Imported here: repro.planner imports this module for PartitionReport.
    from ..planner.pipeline import legacy_pipeline

    machine.validate(circuit.num_qubits)
    manager = legacy_pipeline(
        stager=stager,
        kernelizer=kernelizer,
        kernelize_config=kernelize_config,
        ilp_backend=ilp_backend,
        ilp_time_limit=ilp_time_limit,
    )
    return manager.run(circuit, machine, cost_model=cost_model)
