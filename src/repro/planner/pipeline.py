"""The PassManager: composable planning pipelines and named presets.

A :class:`PassManager` is an ordered tuple of ``(pass_name, options)``
steps run over one :class:`~repro.planner.context.PlanningContext`.  It is
a value: frozen at construction, its option mappings read-only and its
:attr:`~PassManager.signature` built once, so one manager may serve many
circuits (and many sessions) concurrently, and :meth:`PassManager.run`
builds a fresh context per call.

Presets
-------
Two cost-guided presets ship by default, selectable by name everywhere a
planner is accepted (``Session(planner=...)``, ``session.run(planner=...)``,
:func:`build_plan`); each name is one shared manager:

=============  =============================================================
``"balanced"`` the default and the one cold preset: ILP staging
               (``stage_circuit``, a 120 s per-solve limit), the bitmask
               beam DP (result-identical to the reference DP), and the
               cheap ``ordered`` refinement guard (contiguous-optimal DP
               per stage, keep the cheaper kernelization).
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
from types import MappingProxyType
from typing import Any, Mapping, Sequence

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
    :attr:`PassManager.signature` and the keys of :mod:`repro.session.cache`.
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


def _read_only(value: Any) -> Any:
    """A copy of an option tree whose mappings, lists and sets cannot be
    changed in place; it freezes (:func:`freeze_config`) as *value* does."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if type(value) in (list, tuple):
        return tuple(_read_only(v) for v in value)
    if isinstance(value, set):
        return frozenset(value)
    return value


@dataclasses.dataclass(frozen=True)
class PassManager:
    """An ordered, configured planning pipeline; immutable once built.

    Parameters
    ----------
    passes:
        Sequence of ``(pass_name, options)`` pairs; every name must be
        registered in :data:`repro.planner.PASSES` at run time.  Stored as
        a tuple of read-only copies of the options (mappings become
        read-only views, lists tuples, sets frozensets).
    preset:
        Display name stamped into diagnostics and plan provenance
        (``""`` for ad-hoc pipelines).
    time_budget:
        Soft wall-clock budget in seconds for budget-aware passes (the
        refine pass stops starting per-stage work past it); ``None``
        disables the deadline.
    """

    passes: Sequence[tuple[str, Mapping[str, Any]]] = dataclasses.field(compare=False)
    preset: str = ""
    time_budget: float | None = None
    #: Hashable identity of the *full* pipeline configuration, built once:
    #: the pass sequence, every pass's options, the preset name and the
    #: time budget.  Structural plan caches key on it (plus circuit,
    #: machine and cost model), so two different pipelines never alias
    #: each other's cache entries; managers compare equal by it.
    signature: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        passes = tuple((name, _read_only(options)) for name, options in self.passes)
        object.__setattr__(self, "passes", passes)
        object.__setattr__(self, "signature", (
            "pass-manager",
            self.preset,
            self.time_budget,
            tuple((name, freeze_config(options)) for name, options in passes),
        ))

    def pass_names(self) -> tuple[str, ...]:
        return tuple(name for name, _options in self.passes)

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

#: Presets by name; every caller of a name gets its one shared manager.
PRESETS: dict[str, PassManager] = {}


def register_preset(name: str, manager: PassManager) -> None:
    """Register *manager* as the preset *name* (overwrites existing)."""
    PRESETS[name] = manager


def available_presets() -> list[str]:
    """Sorted preset names."""
    return sorted(PRESETS)


#: The steps both presets start with: ILP staging (120 s a solve: a
#: timed-out solve counts as infeasible, so the limit can change a plan)
#: and the fast DP.
_COLD = (
    ("analyze", {}),
    ("stage", {"stager": "ilp", "ilp_time_limit": 120.0}),
    ("kernelize", {"kernelizer": "atlas"}),
)
register_preset("balanced", PassManager(
    [*_COLD, ("refine", {"strategies": ("ordered",)}), ("finalize", {})],
    preset="balanced",
))
register_preset("quality", PassManager(
    [
        *_COLD,
        ("refine", {"strategies": ("ordered", "beam"), "beam_threshold": 500}),
        ("finalize", {"validate": True}),
        ("verify", {}),
    ],
    preset="quality",
    time_budget=30.0,
))


def resolve_planner(planner: "str | PassManager | None") -> PassManager:
    """Resolve a planner spec into a :class:`PassManager`.

    ``None`` means the default (``"balanced"``); a string names a preset,
    whose shared manager is returned; a :class:`PassManager` passes
    through.
    """
    if planner is None:
        planner = "balanced"
    if isinstance(planner, PassManager):
        return planner
    if isinstance(planner, str):
        try:
            return PRESETS[planner]
        except KeyError as exc:
            raise ValueError(
                f"unknown planner preset {planner!r}; known: {available_presets()}"
            ) from exc
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

    ``planner`` is a preset name (``"balanced"`` / ``"quality"`` or
    anything registered with :func:`register_preset`), a
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
