"""The built-in planning passes and the pass / strategy registries.

Every pass is a small stateless object with a ``name`` and a
``run(context, record)`` method: it reads and grows the
:class:`~repro.planner.context.PlanningContext` and documents itself in the
:class:`~repro.planner.context.PassRecord` the PassManager hands it (the
manager owns the timing).  Third-party passes register with
:func:`register_pass` and are then addressable from any pipeline or preset,
exactly like execution backends register with
:func:`repro.session.register_backend`.

Built-in pipeline (the order the presets use)::

    analyze  ->  stage  ->  kernelize  ->  refine  ->  finalize

* **analyze** — cheap structural facts (non-insular qubit union, gate
  counts) that later passes use for their adaptive skips;
* **stage** — circuit staging through the unified stager registry
  (``"ilp"``, ``"snuqs"``, ``"greedy"``), with one provably lossless
  cost-model-adaptive shortcut: a circuit whose non-insular union fits the
  local set is staged directly (no solver).  That the ILP stager starts
  its stage-count iteration at a proven lower bound is not an option of
  this pass: :func:`repro.core.stage.stage_circuit` does so for every
  caller;
* **kernelize** — per-stage kernelization through the unified kernelizer
  registry (``"atlas"``, ``"atlas-ref"``, ``"atlas-naive"``, ``"greedy"``);
* **refine** — quality escalation that can only improve the plan: per
  stage (most expensive first, under the context's time budget) re-derive
  the kernelization with the contiguous-optimal ordered DP and/or a wider
  beam, keeping whichever result is cheaper;
* **finalize** — assemble and (optionally) validate the
  :class:`~repro.core.plan.ExecutionPlan`, stamping plan provenance.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..circuits.gates import Gate
from ..cluster.costmodel import CostModel
from ..core.fast_kernelize import fast_kernelize
from ..core.greedy_kernelize import greedy_kernelize
from ..core.kernel import KernelSequence
from ..core.kernelize import KernelizeConfig, kernelize
from ..core.ordered_kernelize import ordered_kernelize
from ..core.plan import ExecutionPlan, QubitPartition, Stage
from ..core.stage import StagingResult, stage_circuit
from ..core.stage_heuristics import greedy_stage_circuit, snuqs_stage_circuit
from .context import PassRecord, PlanningContext

__all__ = [
    "PlanningPass",
    "PreprocessPass",
    "AnalyzePass",
    "StagePass",
    "KernelizePass",
    "RefinePass",
    "FinalizePass",
    "VerifyPass",
    "PASSES",
    "KERNELIZERS",
    "STAGERS",
    "register_pass",
]


#: Unified kernelizer registry: every strategy behind one
#: ``(gates, cost_model, config) -> KernelSequence`` signature.
#: ``"atlas"`` is the beam DP in its fast bitmask implementation
#: (:func:`repro.core.fast_kernelize.fast_kernelize` — the same ordered
#: kernels, types and costs as the reference, compared with ``==`` by
#: ``tests/test_planner.py``); ``"atlas-ref"`` is the reference
#: implementation kept as the auditable oracle, and this entry is its only
#: caller under ``src/`` (lint rule ``kernelizer-oracle``);
#: ``"atlas-naive"`` the contiguous-segment DP;
#: ``"greedy"`` the 5-qubit packing baseline.
KERNELIZERS: dict[str, Callable[..., KernelSequence]] = {
    "atlas": lambda gates, cost_model, config: fast_kernelize(
        gates, cost_model, config if config is not None else KernelizeConfig()
    ),
    "atlas-ref": lambda gates, cost_model, config: kernelize(
        gates, cost_model, config if config is not None else KernelizeConfig()
    ),
    "atlas-naive": lambda gates, cost_model, config: ordered_kernelize(
        gates, cost_model
    ),
    "greedy": lambda gates, cost_model, config: greedy_kernelize(gates, cost_model),
}

#: Unified stager registry.  Entries are called as
#: ``fn(circuit, machine, **options)`` where the options always include
#: ``ilp_backend``, ``ilp_time_limit`` and ``max_stages``
#: (heuristic stagers swallow what they do not use with ``**_ignored``).
STAGERS: dict[str, Callable[..., StagingResult]] = {}


def _stage_ilp(circuit, machine, *, ilp_backend, ilp_time_limit, max_stages):
    return stage_circuit(
        circuit,
        machine.local_qubits,
        machine.regional_qubits,
        machine.global_qubits,
        inter_node_cost_factor=machine.inter_node_cost_factor,
        backend=ilp_backend,
        max_stages=max_stages,
        time_limit=ilp_time_limit,
    )


def _stage_snuqs(circuit, machine, **_ignored):
    return snuqs_stage_circuit(
        circuit,
        machine.local_qubits,
        machine.regional_qubits,
        machine.global_qubits,
        inter_node_cost_factor=machine.inter_node_cost_factor,
    )


def _stage_greedy(circuit, machine, **_ignored):
    return greedy_stage_circuit(
        circuit,
        machine.local_qubits,
        machine.regional_qubits,
        machine.global_qubits,
        inter_node_cost_factor=machine.inter_node_cost_factor,
    )


STAGERS["ilp"] = _stage_ilp
STAGERS["snuqs"] = _stage_snuqs
STAGERS["greedy"] = _stage_greedy


class PlanningPass:
    """One step of the planning pipeline.

    Subclasses set :attr:`name` and implement :meth:`run`.  Passes must be
    stateless: one instance may serve many concurrent pipeline runs, and
    everything run-specific lives on the context.
    """

    name: str = "pass"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PreprocessPass(PlanningPass):
    """Optional circuit rewriting before staging (not in any preset).

    Runs the named passes of :data:`repro.circuits.passes.CIRCUIT_PASSES`
    (option ``passes``, default ``("optimize",)``) and replaces the
    context's circuit with the semantics-equivalent result; every later
    pass — including finalize's validation — operates on the rewritten
    circuit, and the plan's ``gate_indices`` refer to it.

    Because the rewrite changes gate indices, pipelines containing this
    pass are for direct :func:`repro.planner.build_plan` use: the session's
    structural plan cache keys and rebinds on the *input* circuit, and
    :func:`repro.session.cache.rebind_plan` rejects (loudly) any plan whose
    gate count no longer matches it.
    """

    name = "preprocess"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        from ..circuits.passes import preprocess_circuit

        passes = tuple(ctx.pass_options(self.name).get("passes", ("optimize",)))
        before = len(ctx.circuit)
        rewritten = preprocess_circuit(ctx.circuit, passes)
        if len(rewritten) < before:
            ctx.circuit = rewritten
        else:
            # Cost-adaptive keep: a rewrite that did not shrink the circuit
            # only burns downstream index stability; keep the original.
            record.skipped = True
            record.skip_reason = (
                f"rewrite kept nothing ({before} gates before, "
                f"{len(rewritten)} after): original circuit retained"
            )
        record.metrics.update(
            passes=list(passes),
            gates_before=before,
            gates_after=len(ctx.circuit),
        )


class AnalyzePass(PlanningPass):
    """Cheap structural facts later passes key their adaptive skips on."""

    name = "analyze"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        union: set[int] = set()
        non_insular_gates = 0
        for gate in ctx.circuit:
            non_insular = gate.non_insular_qubits()
            if non_insular:
                non_insular_gates += 1
                union.update(non_insular)
        ctx.facts["non_insular_union"] = frozenset(union)
        ctx.facts["non_insular_gates"] = non_insular_gates
        ctx.facts["fits_locally"] = len(union) <= ctx.machine.local_qubits
        record.metrics.update(
            num_gates=len(ctx.circuit),
            num_qubits=ctx.circuit.num_qubits,
            non_insular_gates=non_insular_gates,
            non_insular_union=len(union),
            fits_locally=ctx.facts["fits_locally"],
        )


def _single_stage_staging(ctx: PlanningContext) -> StagingResult:
    """Directly build the provably optimal single-stage staging.

    Valid exactly when the non-insular union ``U`` fits the local set: one
    stage with ``U`` local (padded with the lowest-index unused qubits) is
    feasible, and no staging can beat one stage with zero communication.
    The gate order is the circuit order — the same order the ILP extraction
    produces for a one-stage solution — so downstream kernelization sees
    identical input.
    """
    machine = ctx.machine
    n = ctx.circuit.num_qubits
    union = ctx.facts["non_insular_union"]
    local = sorted(union)
    for q in range(n):
        if len(local) >= machine.local_qubits:
            break
        if q not in union:
            local.append(q)
    local_set = set(local)
    rest = [q for q in range(n) if q not in local_set]
    partition = QubitPartition.from_sets(
        local_set, rest[: machine.regional_qubits], rest[machine.regional_qubits :]
    )
    stage = Stage(
        gates=list(ctx.circuit.gates),
        partition=partition,
        gate_indices=list(range(len(ctx.circuit))),
    )
    return StagingResult(
        stages=[stage],
        num_stages=1,
        communication_cost=0.0,
        ilp_feasible=False,
        solver_status="fits-locally",
    )


class StagePass(PlanningPass):
    """Staging through the stager registry, with lossless adaptive skips.

    Options
    -------
    stager:
        Registry name (default ``"ilp"``).
    single_stage_shortcut:
        When the analyze pass proved the circuit fits locally, build the
        (provably optimal) single-stage staging directly and skip the
        solver entirely.  Default True.  Only applied with the ``"ilp"``
        stager: the shortcut reproduces the ILP's optimal answer, whereas
        heuristic stagers are often run precisely to study *their*
        behaviour, which must not be silently replaced.
    ilp_backend, ilp_time_limit, max_stages:
        Passed to the ILP stager.

    Besides the staging's stage count and cost the pass reports the ILP's
    size as counts: ``stage_lower_bound`` (the stage windows' proven bound,
    where the iteration starts) and, one entry per solve, ``ilp_rows``,
    ``ilp_cols`` and ``ilp_fixed_vars`` (columns the windows fixed).
    """

    name = "stage"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        options = ctx.pass_options(self.name)
        stager = options.get("stager", "ilp")
        if stager not in STAGERS:
            raise ValueError(f"unknown stager {stager!r}; known: {sorted(STAGERS)}")
        record.metrics["stager"] = stager

        if (
            stager == "ilp"
            and options.get("single_stage_shortcut", True)
            and ctx.facts.get("fits_locally")
        ):
            ctx.staging = _single_stage_staging(ctx)
            union = len(ctx.facts["non_insular_union"])
            record.skipped = True
            record.skip_reason = (
                f"circuit fits locally (|U|={union} <= L="
                f"{ctx.machine.local_qubits}): single-stage staging built "
                f"directly, staging solver skipped"
            )
        else:
            ctx.staging = STAGERS[stager](
                ctx.circuit,
                ctx.machine,
                ilp_backend=options.get("ilp_backend", "scipy"),
                ilp_time_limit=options.get("ilp_time_limit", 120.0),
                max_stages=options.get("max_stages", 32),
            )
        record.metrics.update(
            num_stages=ctx.staging.num_stages,
            communication_cost=ctx.staging.communication_cost,
            solver_status=ctx.staging.solver_status,
            solver_seconds=ctx.staging.solver_seconds,
            num_solves=ctx.staging.num_solves,
            stage_lower_bound=ctx.staging.lower_bound,
            ilp_rows=[rows for rows, _, _ in ctx.staging.model_sizes],
            ilp_cols=[cols for _, cols, _ in ctx.staging.model_sizes],
            ilp_fixed_vars=[fixed for _, _, fixed in ctx.staging.model_sizes],
        )


class KernelizePass(PlanningPass):
    """Per-stage kernelization through the kernelizer registry.

    Options: ``kernelizer`` (registry name, default ``"atlas"``) and
    ``config`` (a :class:`~repro.core.kernelize.KernelizeConfig` or
    ``None`` for the strategy default).
    """

    name = "kernelize"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        if ctx.staging is None:
            raise RuntimeError("kernelize pass needs a staging (run a stage pass first)")
        options = ctx.pass_options(self.name)
        kernelizer = options.get("kernelizer", "atlas")
        if kernelizer not in KERNELIZERS:
            raise ValueError(
                f"unknown kernelizer {kernelizer!r}; known: {sorted(KERNELIZERS)}"
            )
        config = options.get("config")
        fn = KERNELIZERS[kernelizer]
        stage_costs: list[float] = []
        for stage in ctx.staging.stages:
            stage.kernels = fn(stage.gates, ctx.cost_model, config)
            stage_costs.append(stage.kernels.total_cost)
        record.metrics.update(
            kernelizer=kernelizer,
            num_kernels=sum(len(s.kernels) for s in ctx.staging.stages),
            stage_kernel_costs=stage_costs,
            total_kernel_cost=sum(stage_costs),
        )


class RefinePass(PlanningPass):
    """Cost-guided kernel refinement — strictly improve-or-keep.

    Revisits stages most-expensive-first under the context's time budget
    and re-derives each stage's kernelization with stronger (slower)
    searches, keeping whichever :class:`KernelSequence` is cheaper:

    * ``"ordered"`` — the contiguous-segment DP (optimal over contiguous
      kernelizations, cheap);
    * ``"beam"`` — the beam DP re-run at ``beam_threshold`` (the paper's
      C++ beam width of 500 by default — wider than the Python default the
      kernelize pass uses).

    Single-gate stages are skipped (nothing to regroup), and once the
    budget is exhausted the remaining stages are left untouched — the
    record says how many and why.
    """

    name = "refine"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        if ctx.staging is None:
            raise RuntimeError("refine pass needs a kernelized staging")
        options = ctx.pass_options(self.name)
        strategies = tuple(options.get("strategies", ("ordered",)))
        beam_threshold = options.get("beam_threshold", 500)
        base_config = options.get("config")

        order = sorted(
            range(len(ctx.staging.stages)),
            key=lambda i: -(ctx.staging.stages[i].kernel_cost()),
        )
        improved = 0
        saved = 0.0
        budget_skipped = 0
        trivial_skipped = 0
        for index in order:
            stage = ctx.staging.stages[index]
            if stage.kernels is None:
                continue
            if len(stage.gates) <= 1:
                trivial_skipped += 1
                continue
            if ctx.out_of_budget():
                budget_skipped += 1
                continue
            best = stage.kernels
            for strategy in strategies:
                if strategy == "ordered":
                    candidate = ordered_kernelize(stage.gates, ctx.cost_model)
                elif strategy == "beam":
                    config = base_config if base_config is not None else KernelizeConfig()
                    if config.pruning_threshold >= beam_threshold:
                        continue
                    config = dataclasses.replace(
                        config, pruning_threshold=beam_threshold
                    )
                    candidate = fast_kernelize(stage.gates, ctx.cost_model, config)
                else:
                    raise ValueError(f"unknown refine strategy {strategy!r}")
                if candidate.total_cost < best.total_cost - 1e-12:
                    best = candidate
            if best is not stage.kernels:
                saved += stage.kernels.total_cost - best.total_cost
                stage.kernels = best
                improved += 1
        if budget_skipped and not improved:
            record.skipped = True
            record.skip_reason = (
                f"time budget exhausted before refinement started "
                f"({budget_skipped} stages left untouched)"
            )
        record.metrics.update(
            strategies=list(strategies),
            stages_improved=improved,
            cost_saved=saved,
            stages_skipped_budget=budget_skipped,
            stages_skipped_trivial=trivial_skipped,
        )


class FinalizePass(PlanningPass):
    """Assemble the :class:`ExecutionPlan` and stamp plan provenance.

    Options: ``validate`` (default False) runs
    :meth:`ExecutionPlan.validate` against the input circuit — cheap
    insurance the quality preset turns on.
    """

    name = "finalize"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        if ctx.staging is None:
            raise RuntimeError("finalize pass needs a staging")
        plan = ExecutionPlan(
            num_qubits=ctx.circuit.num_qubits,
            stages=ctx.staging.stages,
            circuit_name=ctx.circuit.name,
        )
        plan.provenance = {
            "preset": ctx.preset or "custom",
            "pipeline": list(ctx.pipeline),
            "passes_skipped": ctx.diagnostics.passes_skipped(),
        }
        if ctx.pass_options(self.name).get("validate", False):
            plan.validate(ctx.circuit)
            record.metrics["validated"] = True
        ctx.plan = plan
        record.metrics.update(
            num_stages=plan.num_stages,
            num_kernels=plan.num_kernels,
            total_kernel_cost=plan.total_kernel_cost,
        )


class VerifyPass(PlanningPass):
    """Statically verify the assembled plan (:func:`repro.check.verify_plan`).

    Runs after ``finalize``; proves partition coverage, qubit bounds, the
    locality invariant, kernel consistency and exact circuit coverage, and
    raises :class:`repro.errors.StaticCheckError` on any violation.  The
    quality preset ends with it; any custom pipeline can append it.
    """

    name = "verify"

    def run(self, ctx: PlanningContext, record: PassRecord) -> None:
        if ctx.plan is None:
            raise RuntimeError("verify pass needs a finalized plan")
        from ..check import verify_plan

        report = verify_plan(ctx.plan, machine=ctx.machine, circuit=ctx.circuit)
        record.metrics.update(
            checks_run=list(report.checks_run),
            violations=len(report.violations),
        )
        report.raise_if_failed()


#: Pass registry: name -> pass instance (passes are stateless).
PASSES: dict[str, PlanningPass] = {
    p.name: p
    for p in (
        PreprocessPass(),
        AnalyzePass(),
        StagePass(),
        KernelizePass(),
        RefinePass(),
        FinalizePass(),
        VerifyPass(),
    )
}


def register_pass(name: str, planning_pass: PlanningPass) -> None:
    """Register *planning_pass* under *name* (overwrites existing).

    The pass becomes addressable from any :class:`PassManager` pipeline or
    preset — the planning-side analogue of
    :func:`repro.session.register_backend`.
    """
    PASSES[name] = planning_pass
