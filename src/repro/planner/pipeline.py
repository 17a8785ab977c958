"""The PassManager: composable planning pipelines and named presets.

A :class:`PassManager` is an ordered list of ``(pass_name, options)``
steps run over one :class:`~repro.planner.context.PlanningContext`.  It is
stateless and reusable: :meth:`PassManager.run` builds a fresh context per
call, so one manager may serve many circuits (and many sessions)
concurrently.

Presets
-------
Three cost-guided presets ship by default, selectable by name everywhere a
planner is accepted (``Session(planner=...)``, ``session.run(planner=...)``,
:func:`build_plan`):

=============  =============================================================
``"fast"``     latency-critical cold planning: a tighter per-solve ILP
               time limit, the bitmask beam DP, no refinement.  Same plan
               quality as the seed planner — staging is the same
               ``stage_circuit`` and the fast DP is result-identical to
               the reference.
``"balanced"`` the default: fast's pipeline plus the cheap ``ordered``
               refinement guard (contiguous-optimal DP per stage, keep the
               cheaper kernelization) — never worse than ``"fast"``.
``"quality"``  balanced plus wide-beam re-kernelization (the paper's C++
               beam width of 500) under a 30 s time budget, and plan
               validation.  Never worse than ``"balanced"``.
=============  =============================================================

Register custom presets with :func:`register_preset`, custom passes with
:func:`repro.planner.register_pass` — together the planning-side analogue
of :func:`repro.session.register_backend`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Mapping, Sequence

from ..circuits.circuit import Circuit
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..cluster.machine import MachineConfig
from ..core.kernelize import KernelizeConfig
from ..core.partitioner import PartitionReport
from ..core.plan import ExecutionPlan
from ..errors import PlanValidationError
from .context import PassRecord, PlanningContext
from .passes import PASSES

__all__ = [
    "PassManager",
    "PRESETS",
    "available_presets",
    "build_plan",
    "freeze_config",
    "legacy_pipeline",
    "register_preset",
    "resolve_planner",
]


def freeze_config(obj: Any) -> Any:
    """Recursively convert a config or pass-option tree into a hashable one.

    Dataclasses (frozen or not), mappings and sequences become nested
    tuples; scalars pass through.  Two trees freeze equal exactly when
    every field compares equal — the correctness condition for sharing a
    plan-cache entry, and the one definition of it: behind
    :meth:`PassManager.signature` and the keys of :mod:`repro.session.cache`.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, freeze_config(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, Mapping):
        return tuple(sorted((k, freeze_config(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return tuple(freeze_config(v) for v in items)
    return obj


class PassManager:
    """An ordered, configured planning pipeline.

    Parameters
    ----------
    passes:
        Sequence of ``(pass_name, options)`` pairs; every name must be
        registered in :data:`repro.planner.PASSES` at run time.
    preset:
        Display name stamped into diagnostics and plan provenance
        (``""`` for ad-hoc pipelines).
    time_budget:
        Soft wall-clock budget in seconds for budget-aware passes (the
        refine pass stops starting per-stage work past it); ``None``
        disables the deadline.
    """

    def __init__(
        self,
        passes: Sequence[tuple[str, Mapping[str, Any]]],
        preset: str = "",
        time_budget: float | None = None,
    ):
        self.passes: tuple[tuple[str, dict], ...] = tuple(
            (name, dict(options)) for name, options in passes
        )
        self.preset = preset
        self.time_budget = time_budget

    def pass_names(self) -> tuple[str, ...]:
        return tuple(name for name, _options in self.passes)

    def signature(self) -> tuple:
        """Hashable identity of the *full* pipeline configuration.

        Everything that can change the produced plan is included: the pass
        sequence, every pass's options, and the time budget.  Structural
        plan caches key on this (plus circuit, machine and cost model), so
        two different pipelines can never alias each other's cache entries.
        """
        return (
            "pass-manager",
            self.preset,
            self.time_budget,
            tuple((name, freeze_config(options)) for name, options in self.passes),
        )

    def run(
        self,
        circuit: Circuit,
        machine: MachineConfig,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        time_budget: float | None = None,
    ) -> tuple[ExecutionPlan, PartitionReport]:
        """Plan *circuit* for *machine* through the configured pipeline.

        Returns ``(plan, report)`` exactly like
        :func:`repro.core.partition`, with the report additionally carrying
        per-pass telemetry.
        """
        machine.validate(circuit.num_qubits)
        budget = time_budget if time_budget is not None else self.time_budget
        ctx = PlanningContext(
            circuit=circuit,
            machine=machine,
            cost_model=cost_model,
            options={name: options for name, options in self.passes},
            preset=self.preset,
            pipeline=self.pass_names(),
            deadline=None if budget is None else time.perf_counter() + budget,
        )
        for name, _options in self.passes:
            try:
                planning_pass = PASSES[name]
            except KeyError as exc:
                raise ValueError(
                    f"unknown planning pass {name!r}; known: {sorted(PASSES)}"
                ) from exc
            record = PassRecord(name=name)
            start = time.perf_counter()
            planning_pass.run(ctx, record)
            record.seconds = time.perf_counter() - start
            ctx.diagnostics.record(record)
        if ctx.plan is None:
            raise RuntimeError(
                "pipeline finished without producing a plan — it needs a "
                "'finalize' pass (or a custom pass that sets context.plan)"
            )
        return ctx.plan, self._report(ctx)

    def _report(self, ctx: PlanningContext) -> PartitionReport:
        diagnostics = ctx.diagnostics
        seconds = diagnostics.pass_seconds()
        plan = ctx.plan
        if plan is None:  # pragma: no cover - guarded by run()
            raise PlanValidationError("pipeline finished without producing a plan")
        return PartitionReport(
            staging_seconds=seconds.get("stage", 0.0),
            kernelization_seconds=seconds.get("kernelize", 0.0)
            + seconds.get("refine", 0.0),
            num_stages=plan.num_stages,
            num_kernels=plan.num_kernels,
            communication_cost=(
                ctx.staging.communication_cost if ctx.staging is not None else 0.0
            ),
            total_kernel_cost=plan.total_kernel_cost,
            preset=self.preset,
            pipeline=self.pass_names(),
            pass_seconds=seconds,
            passes_skipped=diagnostics.passes_skipped(),
            pass_metrics={r.name: dict(r.metrics) for r in diagnostics.records},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.preset or "custom"
        return f"<PassManager {label!r}: {' -> '.join(self.pass_names())}>"


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Preset factories by name; each call returns a fresh PassManager.
PRESETS: dict[str, Callable[[], PassManager]] = {}


def register_preset(name: str, factory: Callable[[], PassManager]) -> None:
    """Register a preset *factory* under *name* (overwrites existing)."""
    PRESETS[name] = factory


def available_presets() -> list[str]:
    """Sorted preset names."""
    return sorted(PRESETS)


def _fast_preset() -> PassManager:
    return PassManager(
        [
            ("analyze", {}),
            ("stage", {"stager": "ilp", "ilp_time_limit": 15.0}),
            ("kernelize", {"kernelizer": "atlas"}),
            ("finalize", {}),
        ],
        preset="fast",
    )


def _balanced_preset() -> PassManager:
    return PassManager(
        [
            ("analyze", {}),
            ("stage", {"stager": "ilp", "ilp_time_limit": 120.0}),
            ("kernelize", {"kernelizer": "atlas"}),
            ("refine", {"strategies": ("ordered",)}),
            ("finalize", {}),
        ],
        preset="balanced",
    )


def _quality_preset() -> PassManager:
    return PassManager(
        [
            ("analyze", {}),
            ("stage", {"stager": "ilp", "ilp_time_limit": 120.0}),
            ("kernelize", {"kernelizer": "atlas"}),
            (
                "refine",
                {"strategies": ("ordered", "beam"), "beam_threshold": 500},
            ),
            ("finalize", {"validate": True}),
            ("verify", {}),
        ],
        preset="quality",
        time_budget=30.0,
    )


register_preset("fast", _fast_preset)
register_preset("balanced", _balanced_preset)
register_preset("quality", _quality_preset)


def resolve_planner(planner: "str | PassManager | None") -> PassManager:
    """Resolve a planner spec into a :class:`PassManager`.

    ``None`` means the default (``"balanced"``); a string names a preset;
    a :class:`PassManager` passes through.
    """
    if planner is None:
        planner = "balanced"
    if isinstance(planner, PassManager):
        return planner
    if isinstance(planner, str):
        try:
            factory = PRESETS[planner]
        except KeyError as exc:
            raise ValueError(
                f"unknown planner preset {planner!r}; known: {available_presets()}"
            ) from exc
        return factory()
    raise TypeError(
        f"planner must be a preset name, a PassManager, or None; got {planner!r}"
    )


def build_plan(
    circuit: Circuit,
    machine: MachineConfig,
    planner: "str | PassManager | None" = "balanced",
    cost_model: CostModel = DEFAULT_COST_MODEL,
    time_budget: float | None = None,
) -> tuple[ExecutionPlan, PartitionReport]:
    """One-call planning through a preset or custom pipeline.

    ``planner`` is a preset name (``"fast"`` / ``"balanced"`` /
    ``"quality"`` or anything registered with :func:`register_preset`), a
    :class:`PassManager`, or ``None`` for the default.  Returns the same
    ``(plan, report)`` pair as :func:`repro.core.partition`.
    """
    manager = resolve_planner(planner)
    return manager.run(
        circuit, machine, cost_model=cost_model, time_budget=time_budget
    )


def legacy_pipeline(
    stager: str = "ilp",
    kernelizer: str = "atlas",
    kernelize_config: KernelizeConfig | None = None,
    ilp_backend: str = "scipy",
    ilp_time_limit: float | None = 120.0,
) -> PassManager:
    """The seed planner's fixed pipeline, by its stager × kernelizer knobs.

    One role: the keyword-style entry points :func:`repro.core.partition`
    and :func:`repro.simulate` build their pipeline here, which makes it
    the seed-output fixture (plans carry the seed planner's stage
    structure, kernel boundaries and costs exactly) and the paper's
    stager × kernelizer ablation axes.  A :class:`~repro.session.Session`
    takes the result like any other ``planner=``; it is not a degradation
    target.  ``"atlas"`` resolves to the result-identical fast DP.
    """
    return PassManager(
        [
            ("analyze", {}),
            (
                "stage",
                {
                    "stager": stager,
                    "ilp_backend": ilp_backend,
                    "ilp_time_limit": ilp_time_limit,
                },
            ),
            ("kernelize", {"kernelizer": kernelizer, "config": kernelize_config}),
            ("finalize", {}),
        ],
        preset="",
    )
