"""Unified planning pipeline: PassManager + Plan IR with cost-guided presets.

PRs 1–4 gave *warm* execution an architecture (compiled programs, parallel
runtimes, a structural plan cache); this package gives the *cold* path one
too.  Planning — partitioning a circuit into stages and kernels for a
machine — runs as a pipeline of registered passes over a shared
:class:`PlanningContext`, with per-pass telemetry, cost-model-adaptive
shortcuts, named presets (``"balanced"``, the default, and ``"quality"``), and
the same extension-point style as the execution side
(:func:`register_pass` / :func:`register_preset` mirror
:func:`repro.session.register_backend`).

Quick start::

    from repro.planner import build_plan
    plan, report = build_plan(circuit, machine, planner="balanced")
    print(report.pass_seconds, report.passes_skipped)

or through a session::

    with Session(machine, planner="balanced") as session:
        result = session.run(circuit).result()

See ``docs/planning.md`` for the architecture and the extension guide.
"""

from .context import PassRecord, PlanningContext, PlanningDiagnostics
from .passes import (
    KERNELIZERS,
    PASSES,
    STAGERS,
    AnalyzePass,
    FinalizePass,
    KernelizePass,
    PlanningPass,
    PreprocessPass,
    RefinePass,
    StagePass,
    register_pass,
)
from .pipeline import (
    PRESETS,
    PassManager,
    available_presets,
    build_plan,
    legacy_pipeline,
    register_preset,
    resolve_planner,
)

__all__ = [
    "PassRecord",
    "PlanningContext",
    "PlanningDiagnostics",
    "PlanningPass",
    "PreprocessPass",
    "AnalyzePass",
    "StagePass",
    "KernelizePass",
    "RefinePass",
    "FinalizePass",
    "PASSES",
    "KERNELIZERS",
    "STAGERS",
    "register_pass",
    "PassManager",
    "PRESETS",
    "available_presets",
    "build_plan",
    "legacy_pipeline",
    "register_preset",
    "resolve_planner",
]
