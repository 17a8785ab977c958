"""Planning context and diagnostics — the shared state of a pipeline run.

A :class:`PlanningContext` is the Plan IR threaded through every pass of a
:class:`~repro.planner.pipeline.PassManager` run: the immutable inputs
(circuit, machine, cost model, per-pass options, optional time budget), the
mutable working state the passes grow (the staging, the final
:class:`~repro.core.plan.ExecutionPlan`), and a
:class:`PlanningDiagnostics` ledger recording, for every pass, how long it
ran, what it produced, and — when it decided to skip work — why.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..circuits.circuit import Circuit
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..cluster.machine import MachineConfig
from ..core.plan import ExecutionPlan
from ..core.stage import StagingResult

__all__ = ["PassRecord", "PlanningDiagnostics", "PlanningContext"]


@dataclass
class PassRecord:
    """What one pass did: timing, skip decision, and free-form metrics."""

    name: str
    seconds: float = 0.0
    #: True when the pass decided not to do its main work (the record's
    #: ``skip_reason`` says why — e.g. "time budget exhausted").
    skipped: bool = False
    skip_reason: str = ""
    #: Pass-specific quality/size facts (stage counts, kernel costs, ...).
    metrics: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "metrics": dict(self.metrics),
        }


@dataclass
class PlanningDiagnostics:
    """Ordered ledger of :class:`PassRecord` entries for one pipeline run."""

    records: list[PassRecord] = field(default_factory=list)

    def record(self, record: PassRecord) -> None:
        self.records.append(record)

    def __getitem__(self, name: str) -> PassRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)

    def pass_seconds(self) -> dict[str, float]:
        """Wall seconds per pass, in execution order."""
        return {r.name: r.seconds for r in self.records}

    def passes_skipped(self) -> dict[str, str]:
        """Skipped pass name -> the reason it was skipped."""
        return {r.name: r.skip_reason for r in self.records if r.skipped}

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def as_dict(self) -> dict[str, Any]:
        return {
            "passes": [r.as_dict() for r in self.records],
            "total_seconds": self.total_seconds,
        }


@dataclass
class PlanningContext:
    """Everything a planning pass may read or grow.

    Inputs (set by the PassManager, read-only by convention): ``circuit``,
    ``machine``, ``cost_model``, ``options`` (this run's per-pass option
    mapping), ``preset`` (the preset name, or ``""`` for a custom pipeline)
    and ``deadline`` (absolute :func:`time.perf_counter` instant after
    which budgeted passes should stop starting new work; ``None`` = no
    budget).

    Working state (written by passes): ``staging`` — the
    :class:`~repro.core.stage.StagingResult` the stage pass produced;
    ``plan`` — the assembled :class:`~repro.core.plan.ExecutionPlan` (set
    by the finalize pass).
    """

    circuit: Circuit
    machine: MachineConfig
    cost_model: CostModel = DEFAULT_COST_MODEL
    options: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    preset: str = ""
    #: Names of the pipeline's passes in run order (set by the PassManager).
    pipeline: tuple[str, ...] = ()
    deadline: float | None = None

    staging: StagingResult | None = None
    plan: ExecutionPlan | None = None
    diagnostics: PlanningDiagnostics = field(default_factory=PlanningDiagnostics)

    def pass_options(self, name: str) -> Mapping[str, Any]:
        """The option mapping configured for pass *name* (may be empty)."""
        return self.options.get(name, {})

    def remaining_budget(self) -> float | None:
        """Seconds until the deadline, or ``None`` when unbudgeted."""
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def out_of_budget(self) -> bool:
        remaining = self.remaining_budget()
        return remaining is not None and remaining <= 0.0
