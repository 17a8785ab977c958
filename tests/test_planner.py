"""Tests for the planning pipeline: PassManager, presets, pass registry.

Four properties are pinned here:

1. **Fast-DP equivalence** — the beam DP's native body (what
   :func:`repro.core.fast_kernelize` runs where the library loads), its
   Python loop and the reference implementation return the *identical*
   kernelization (the ordered kernels, their types and their costs,
   compared with ``==``) for every configuration, which is what lets the
   presets substitute it without a quality gate.
2. **Preset correctness** — every registered preset produces
   ``ExecutionPlan.validate()``-clean plans that execute to the reference
   state across library circuits, machine shapes, and the
   incore/offload/parallel execution paths.
3. **Cache isolation** — the structural plan cache keys on the *full*
   pipeline configuration: two presets on the same circuit never share an
   entry, so a cached plan can never be rebound by a different pipeline.
4. **Telemetry** — per-pass timings, skip reasons and quality metrics
   surface through ``PartitionReport``, ``Result.report`` /
   ``Result.summary()``, plan provenance, and ``SessionStats.as_dict()``.
"""

from __future__ import annotations

import dataclasses
import importlib

import networkx as nx
import numpy as np
import pytest

from repro import MachineConfig, Session, simulate_reference
from repro.circuits.circuit import Circuit
from repro.circuits.gates import make_gate
from repro.circuits.library import ae, ghz, ising, qft, qpeexact, qsvm, su2random, vqc
from repro.circuits.library import PAPER_FAMILIES, get_circuit
from repro.circuits.library.random_circuits import brickwork_circuit, random_circuit
from repro.cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.core import KernelizeConfig, fast_kernelize, kernelize, partition
from repro.core.fast_kernelize import _beam_loop, _flatten
from repro.core.kernel import KernelSequence
from repro.core.kernelize import _build_kernel_sequence
from repro.core.ordered_kernelize import ordered_kernelize
from repro.sim import native
from repro.planner import (
    KERNELIZERS,
    PASSES,
    PRESETS,
    PassManager,
    PlanningPass,
    available_presets,
    build_plan,
    legacy_pipeline,
    register_pass,
    register_preset,
    resolve_planner,
)

FAST_CONFIG = KernelizeConfig(pruning_threshold=8)
#: The module, not the function ``repro.core`` re-exports under its name.
FAST_MODULE = importlib.import_module("repro.core.fast_kernelize")

#: (circuit factory, qubits) families the differential tests sweep.
FAMILIES = [(qft, 8), (ghz, 8), (vqc, 8)]

#: Machine shapes: in-core sharded, fits-locally (single shard), offload-ish.
def _machines(n: int) -> list[MachineConfig]:
    return [
        MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2),
        MachineConfig.for_circuit(n, num_shards=1),
    ]


def _kernels(seq: KernelSequence) -> list[tuple]:
    """What a kernelization *is*: the ordered kernels, their types and costs."""
    return [(k.gate_indices, k.kernel_type, k.cost) for k in seq]


#: Every knob of the DP, each away from its default.
DP_CONFIGS = {
    "default": KernelizeConfig(),
    "width3": KernelizeConfig(max_kernel_width=3),
    "width4": KernelizeConfig(max_kernel_width=4),
    "width1": KernelizeConfig(max_kernel_width=1),
    "beam1": KernelizeConfig(pruning_threshold=1),
    "beam5": KernelizeConfig(pruning_threshold=5),
    "beam500": KernelizeConfig(pruning_threshold=500),
    "no-subsume": KernelizeConfig(subsume=False),
}

#: A fusion kernel may be wider than a shared-memory one here; the
#: reference's fusion table was sized by the latter and raised IndexError.
WIDE_FUSION = CostModel(max_fusion_qubits=7, max_shm_qubits=3)


def _loop_kernelize(stage, cost_model=DEFAULT_COST_MODEL, config=KernelizeConfig()):
    """The beam's Python loop, called by its private name."""
    gates = list(stage.gates) if isinstance(stage, Circuit) else list(stage)
    return _build_kernel_sequence(gates, _beam_loop(_flatten(gates, cost_model, config)), cost_model)


def _agree(stage, cost_model=DEFAULT_COST_MODEL, config=KernelizeConfig()) -> list[tuple]:
    """The reference, the Python loop and ``fast_kernelize`` (the native body
    wherever the library loads) return one kernelization, under ``==``."""
    ref = _kernels(kernelize(stage, cost_model, config))
    assert _kernels(_loop_kernelize(stage, cost_model, config)) == ref
    assert _kernels(fast_kernelize(stage, cost_model, config)) == ref
    return ref


def _wide_stage() -> list:
    """Gates on qubits 63 to 70 and a few low ones: masks past 64 bits."""
    rng = np.random.default_rng(64)
    qubits = [0, 1, 2, 63, 64, 65, 70]
    gates = []
    for _ in range(30):
        a, b = rng.choice(qubits, size=2, replace=False).tolist()
        gates.append(make_gate("cx", [a, b]) if rng.random() < 0.5 else make_gate("h", [a]))
    return gates


def _lexicographic_order(gates, kernel_gate_indices) -> list[tuple]:
    """networkx's lexicographic topological sort over the kernel DAG: the
    oracle for ``_build_kernel_sequence``'s order."""
    owner = {gi: k for k, indices in enumerate(kernel_gate_indices) for gi in indices}
    dag = nx.DiGraph()
    dag.add_nodes_from(range(len(kernel_gate_indices)))
    last: dict[int, int] = {}
    for gi in sorted(owner):
        for q in gates[gi].qubits:
            if q in last and owner[last[q]] != owner[gi]:
                dag.add_edge(owner[last[q]], owner[gi])
            last[q] = gi
    return [tuple(sorted(kernel_gate_indices[k])) for k in nx.lexicographical_topological_sort(dag)]


# ---------------------------------------------------------------------------
# 1. Fast-DP equivalence
# ---------------------------------------------------------------------------


class TestFastKernelizeEquivalence:
    """Native body == Python loop == ``kernelize``: ordered kernels, types,
    costs, exactly.

    The comparison is ``==`` on floats on purpose: a last-bit difference in
    the ranking estimate re-orders ties and selects another kernelization
    (widths 3/4 below and the three benchmark stages are where it showed).
    Without a compiler ``fast_kernelize`` runs the loop, and the cells still
    hold the loop to the reference.
    """

    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_library_stages_identical(self, family, n):
        circuit = family(n)
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        plan, _ = partition(circuit, machine, kernelize_config=FAST_CONFIG)
        for threshold in (500, 100, 8, 2, 1):
            config = KernelizeConfig(pruning_threshold=threshold)
            for stage in plan.stages:
                _agree(stage.gates, config=config)

    @pytest.mark.parametrize("name", sorted(DP_CONFIGS))
    def test_random_circuits_identical(self, name):
        config = DP_CONFIGS[name]
        # The reference at beam 500 takes ~0.1 s a cell: fewer of them.
        for seed in range(1000, 1200 if config.pruning_threshold <= 100 else 1040):
            _agree(random_circuit(6, 30, seed=seed), config=config)

    @pytest.mark.parametrize(
        "circuit,machine",
        [
            (su2random(12), MachineConfig.for_circuit(12, num_shards=4)),
            (qft(16), MachineConfig.for_circuit(16, num_shards=4)),
            (qft(20), MachineConfig.for_circuit(20)),
        ],
        ids=["su2random-12-sharded", "qft-16-sharded", "qft-20-incore"],
    )
    def test_benchmark_stages_identical(self, circuit, machine):
        # The stages the repo benchmark plans; the 105-, 136- and 210-gate
        # ones are where the two DPs returned different plans at the default
        # config while their estimates were associated differently.
        plan, _ = partition(circuit, machine)
        for stage in plan.stages:
            assert _agree(stage.gates) == _kernels(stage.kernels)

    def test_custom_cost_model(self):
        cheap_wide = CostModel(
            fusion_cost_per_qubits={0: 0.2, 1: 0.4, 2: 0.5, 3: 0.6, 4: 0.7,
                                    5: 0.8, 6: 1.0, 7: 1.4, 8: 2.0, 9: 3.0, 10: 5.0},
            max_fusion_qubits=6,
        )
        for seed in range(4):
            _agree(random_circuit(6, 25, seed=100 + seed), cheap_wide)

    def test_fusion_wider_than_shared_memory(self):
        # The reference raised IndexError here: its fusion table stopped at
        # max_shm_qubits + 1 while a fusion kernel may reach max_fusion_qubits.
        kernels = _agree(qft(8), WIDE_FUSION)
        assert len(kernels) == 3 and sum(cost for *_, cost in kernels) == pytest.approx(4.4)
        for seed in range(20):
            _agree(random_circuit(8, 30, seed=300 + seed), WIDE_FUSION)

    def test_empty_stage(self):
        assert _agree([]) == []

    def test_unpriceable_gates_are_not_dropped(self):
        # No strategy takes a two-qubit kernel here, so every kernelization
        # costs inf; "nothing beats inf" used to return no kernels at all.
        narrow = CostModel(max_fusion_qubits=1, max_shm_qubits=1)
        circuit = qft(4)
        kernels = _agree(circuit, narrow)
        assert sorted(g for indices, *_ in kernels for g in indices) == list(
            range(len(circuit.gates))
        )
        assert sum(cost for *_, cost in kernels) == float("inf")
        for seed in range(10):
            _agree(random_circuit(6, 25, seed=400 + seed), narrow)

    @pytest.mark.parametrize(
        "kwargs",
        [{"pruning_threshold": 0}, {"pruning_threshold": -3}, {"max_kernel_width": 0}],
    )
    def test_config_rejects_an_empty_search(self, kwargs):
        # A beam of zero states returned an empty kernelization of a
        # non-empty stage: every gate silently dropped.
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            KernelizeConfig(**kwargs)

    def test_width_one_kernels_still_plan(self):
        config = KernelizeConfig(max_kernel_width=1)
        circuit = qft(5)
        kernels = _agree(circuit, config=config)
        assert len(kernels) == 12
        assert sorted(g for indices, *_ in kernels for g in indices) == list(
            range(len(circuit.gates))
        )

    def test_a_qubit_past_64_takes_the_loop(self, monkeypatch):
        # The native body's masks are 64 bits wide: such a stage runs the
        # Python loop whatever the host, and still plans.
        stage = _wide_stage()
        for config in (KernelizeConfig(), KernelizeConfig(pruning_threshold=3)):
            _agree(stage, config=config)

        def unreachable(*args):
            raise AssertionError("the native body was called")

        monkeypatch.setattr(FAST_MODULE, "_native_beam", unreachable)
        assert _kernels(fast_kernelize(stage)) == _kernels(kernelize(stage))

    def test_the_native_body_plans_on_a_compiler_host(self, monkeypatch):
        if native.library() is None:
            pytest.skip(f"no native library: {native.status()['reason']}")
        circuit = qft(12)
        want = _kernels(kernelize(circuit))

        def unreachable(*args):
            raise AssertionError("the Python loop was called")

        monkeypatch.setattr(FAST_MODULE, "_beam_loop", unreachable)
        assert _kernels(fast_kernelize(circuit)) == want
        with pytest.raises(AssertionError, match="Python loop"):
            fast_kernelize(_wide_stage())

    def test_kernel_order_is_the_lexicographic_topological_sort(self):
        stages = [list(get_circuit(family, 10).gates) for family in PAPER_FAMILIES]
        stages += [list(random_circuit(8, 40, seed=seed).gates) for seed in range(20)]
        stages += [list(brickwork_circuit(8, 6, seed=seed).gates) for seed in range(10)]
        for gates in stages:
            for config in (KernelizeConfig(), KernelizeConfig(max_kernel_width=2)):
                chain = _beam_loop(_flatten(gates, DEFAULT_COST_MODEL, config))
                built = _build_kernel_sequence(gates, chain, DEFAULT_COST_MODEL)
                assert [k.gate_indices for k in built] == _lexicographic_order(gates, chain)
                # A permuted closing order changes the ties, not the rule.
                assert [
                    k.gate_indices
                    for k in _build_kernel_sequence(gates, chain[::-1], DEFAULT_COST_MODEL)
                ] == _lexicographic_order(gates, chain[::-1])


# ---------------------------------------------------------------------------
# 2. Preset differential correctness
# ---------------------------------------------------------------------------


class TestPresetPlans:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("family,n", FAMILIES + [(lambda n: random_circuit(n, 24, seed=5), 8)])
    def test_presets_validate_and_match_reference(self, preset, family, n):
        circuit = family(n)
        reference = simulate_reference(circuit)
        for machine in _machines(n):
            plan, report = build_plan(circuit, machine, planner=preset)
            plan.validate(circuit)
            with Session(machine, backend="incore", planner=preset) as session:
                result = session.run(circuit).result()
            assert reference.allclose(result.state)
            assert report.total_kernel_cost > 0

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_offload_and_parallel_paths(self, preset):
        n = 8
        circuit = qft(n)
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 4)
        reference = simulate_reference(circuit)
        states = {}
        for backend in ("incore", "offload", "parallel"):
            with Session(machine, backend=backend, planner=preset) as session:
                result = session.run(circuit).result()
                result.plan.validate(circuit)
                assert reference.allclose(result.state)
                states[backend] = result.state.data.copy()
        # The shard-streaming paths are bit-exact with each other.
        assert np.array_equal(states["offload"], states["parallel"])

    def test_quality_never_worse_than_fast(self):
        for family, n in FAMILIES:
            circuit = family(n)
            machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
            _, fast_report = build_plan(circuit, machine, planner="fast")
            _, balanced_report = build_plan(circuit, machine, planner="balanced")
            _, quality_report = build_plan(circuit, machine, planner="quality")
            assert (
                balanced_report.total_kernel_cost
                <= fast_report.total_kernel_cost + 1e-9
            )
            assert (
                quality_report.total_kernel_cost
                <= balanced_report.total_kernel_cost + 1e-9
            )

    def test_fast_preset_matches_seed_cost(self):
        # The fast preset's shortcuts are lossless: same kernel cost as the
        # legacy (seed) planner configuration on every tested family/shape.
        for family, n in FAMILIES:
            circuit = family(n)
            for machine in _machines(n):
                _, seed_report = legacy_pipeline().run(circuit, machine)
                _, fast_report = build_plan(circuit, machine, planner="fast")
                assert (
                    abs(fast_report.total_kernel_cost - seed_report.total_kernel_cost)
                    < 1e-9
                )

    def test_fits_locally_shortcut(self):
        n = 8
        circuit = qft(n)
        machine = MachineConfig.for_circuit(n, num_shards=1)
        plan, report = build_plan(circuit, machine, planner="fast")
        plan.validate(circuit)
        assert plan.num_stages == 1
        assert "stage" in report.passes_skipped
        assert "fits locally" in report.passes_skipped["stage"]
        assert report.pass_metrics["stage"]["solver_status"] == "fits-locally"
        assert report.pass_metrics["stage"]["num_solves"] == 0

    def test_lower_bound_start_skips_infeasible_solves(self):
        n = 8
        circuit = qft(n)  # every qubit in the non-insular union
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        plan, report = build_plan(circuit, machine, planner="fast")
        metrics = report.pass_metrics["stage"]
        assert metrics["stage_lower_bound"] >= 2  # at least ceil(8 / 6)
        assert metrics["num_solves"] == plan.num_stages - metrics["stage_lower_bound"] + 1
        # Model size is reported as counts, one entry per solve.
        for key in ("ilp_rows", "ilp_cols", "ilp_fixed_vars"):
            assert len(metrics[key]) == metrics["num_solves"]
        assert 0 < metrics["ilp_fixed_vars"][-1] < metrics["ilp_cols"][-1]

    @pytest.mark.parametrize(
        "family,n",
        [(su2random, 12), (qft, 16), (ising, 16), (ae, 16), (qpeexact, 16), (qsvm, 16)],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_window_bound_is_tight_on_the_benchmark_structures(self, family, n):
        # The six structures of the repo benchmark's cold-plan workload, on
        # its machine shape: the window bound equals the ILP's minimum, so
        # the only solve is the feasible one.
        machine = MachineConfig.for_circuit(n, num_shards=4)
        plan, report = build_plan(family(n), machine, planner="fast")
        metrics = report.pass_metrics["stage"]
        assert metrics["num_solves"] == 1
        assert metrics["stage_lower_bound"] == plan.num_stages

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown planner preset"):
            resolve_planner("warp-speed")
        with pytest.raises(TypeError):
            resolve_planner(42)


# ---------------------------------------------------------------------------
# 3. Cache isolation across pipelines
# ---------------------------------------------------------------------------


class TestPlannerCacheKeys:
    def test_two_presets_do_not_share_cache_entries(self):
        n = 8
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        circuit = vqc(n, seed=0)
        with Session(machine, backend="incore") as session:
            session.run(circuit, planner="fast")
            assert session.stats.plans_built == 1
            # Same circuit, different preset: must *not* hit the fast
            # preset's entry — a different pipeline may produce a different
            # plan, and rebinding across pipelines would corrupt provenance
            # and quality guarantees.
            session.run(circuit, planner="quality")
            assert session.stats.plans_built == 2
            assert session.stats.cache_hits == 0
            # Re-running either preset is a hit within its own entry.
            session.run(vqc(n, seed=1), planner="fast")
            session.run(vqc(n, seed=2), planner="quality")
            assert session.stats.plans_built == 2
            assert session.stats.cache_hits == 2

    def test_option_change_changes_key(self):
        n = 8
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        circuit = vqc(n, seed=0)
        with Session(machine, backend="incore") as session:
            session.run(circuit, planner=legacy_pipeline(kernelize_config=FAST_CONFIG))
            session.run(
                circuit,
                planner=legacy_pipeline(
                    kernelize_config=KernelizeConfig(pruning_threshold=9)
                ),
            )
            assert session.stats.plans_built == 2
            assert session.stats.cache_hits == 0

    def test_session_default_is_balanced(self):
        session = Session()
        assert session.planner.preset == "balanced"
        session.close()

    def test_signature_covers_full_configuration(self):
        a = resolve_planner("fast").signature()
        b = resolve_planner("balanced").signature()
        c = resolve_planner("fast").signature()
        assert a != b
        assert a == c
        assert hash(a) is not None
        # ... and, through the one ``freeze_config``, the plan-cache keys are
        # pinned byte for byte.  (Digests re-recorded when the
        # ``lower_bound_start`` stage option was deleted from the presets:
        # stores written before that were staged in the submitter's labels,
        # not the canonical ones, and rightly stop hitting.)
        import hashlib

        from repro.session.cache import plan_cache_key, shared_plan_key

        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        with Session(machine) as session:
            planner_key = session._planner_key(resolve_planner("fast"))
        keys = (
            plan_cache_key(qft(8), machine, planner_key),
            shared_plan_key(qft(8), machine, planner_key)[0],
        )
        assert [
            hashlib.blake2b(repr(k).encode(), digest_size=16).hexdigest() for k in keys
        ] == ["f13639d00b679a8b16975475860e12aa", "9033215190ff25d56469acc1b732e238"]


# ---------------------------------------------------------------------------
# 4. Telemetry surfaces
# ---------------------------------------------------------------------------


class TestPlanningTelemetry:
    def test_report_carries_pass_telemetry(self):
        n = 8
        circuit = qft(n)
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        _, report = build_plan(circuit, machine, planner="quality")
        assert report.preset == "quality"
        assert report.pipeline == (
            "analyze", "stage", "kernelize", "refine", "finalize", "verify",
        )
        assert set(report.pass_seconds) == set(report.pipeline)
        assert all(s >= 0.0 for s in report.pass_seconds.values())
        kernelize_metrics = report.pass_metrics["kernelize"]
        assert kernelize_metrics["total_kernel_cost"] > 0
        assert len(kernelize_metrics["stage_kernel_costs"]) == report.num_stages
        refine = report.pass_metrics["refine"]
        assert refine["stages_improved"] >= 0
        as_dict = report.as_dict()
        assert as_dict["preset"] == "quality"
        assert as_dict["planning_seconds"] >= as_dict["staging_seconds"]

    def test_result_and_stats_surface_telemetry(self):
        n = 8
        machine = MachineConfig.for_circuit(n, num_shards=1)
        with Session(machine, backend="incore", planner="fast") as session:
            job = session.run([vqc(n, seed=0), vqc(n, seed=1)])
            first, second = job.results()
            # The cold plan carries the report; the cache hit does not (no
            # planning happened), but both carry plan provenance.
            assert first.report is not None
            assert second.report is None
            assert first.summary()["planning"]["preset"] == "fast"
            assert first.plan.provenance["preset"] == "fast"
            assert second.plan.provenance["preset"] == "fast"
            assert second.cache_hit
            stats = session.stats.as_dict()
            assert stats["planning_pass_seconds"]["kernelize"] >= 0.0
            # The fits-locally shortcut fired once (one cold plan).
            assert stats["planning_passes_skipped"] == {"stage": 1}

    def test_provenance_in_plan_summary(self):
        n = 8
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        plan, _ = build_plan(ghz(n), machine, planner="balanced")
        summary = plan.summary()
        assert summary["provenance"]["preset"] == "balanced"
        assert summary["provenance"]["pipeline"][0] == "analyze"


# ---------------------------------------------------------------------------
# Extension points
# ---------------------------------------------------------------------------


class TestExtensionPoints:
    def test_register_pass_and_preset(self):
        class CountingPass(PlanningPass):
            name = "count-gates"

            def run(self, ctx, record):
                record.metrics["counted"] = len(ctx.circuit)

        register_pass("count-gates", CountingPass())
        try:
            manager = PassManager(
                [
                    ("analyze", {}),
                    ("count-gates", {}),
                    ("stage", {}),
                    ("kernelize", {}),
                    ("finalize", {}),
                ],
                preset="counted",
            )
            register_preset("counted", lambda: manager)
            try:
                assert "counted" in available_presets()
                n = 8
                circuit = ghz(n)
                machine = MachineConfig.for_circuit(n, num_shards=1)
                plan, report = build_plan(circuit, machine, planner="counted")
                plan.validate(circuit)
                assert report.pass_metrics["count-gates"]["counted"] == len(circuit)
            finally:
                del PRESETS["counted"]
        finally:
            del PASSES["count-gates"]

    def test_registered_kernelizers_present(self):
        assert {"atlas", "atlas-ref", "atlas-naive", "greedy"} <= set(KERNELIZERS)

    def test_preprocess_pass_shrinks_and_stays_correct(self):
        n = 6
        circuit = Circuit(n, name="redundant")
        for q in range(n):
            circuit.h(q)
            circuit.h(q)  # cancels
            circuit.rx(0.4, q)
        for q in range(n - 1):
            circuit.cx(q, q + 1)
        machine = MachineConfig.for_circuit(n, num_shards=1)
        manager = PassManager(
            [
                ("preprocess", {}),
                ("analyze", {}),
                ("stage", {}),
                ("kernelize", {}),
                ("finalize", {"validate": True}),
            ]
        )
        plan, report = manager.run(circuit, machine)
        metrics = report.pass_metrics["preprocess"]
        assert metrics["gates_after"] < metrics["gates_before"]
        assert plan.gate_count() == metrics["gates_after"]
        from repro.runtime import execute_plan

        state, _ = execute_plan(plan, machine=machine)
        assert simulate_reference(circuit).allclose(state)

    def test_preprocess_pass_keeps_original_when_no_reduction(self):
        n = 6
        circuit = ghz(n)  # nothing to cancel or merge
        machine = MachineConfig.for_circuit(n, num_shards=1)
        manager = PassManager(
            [
                ("preprocess", {}),
                ("analyze", {}),
                ("stage", {}),
                ("kernelize", {}),
                ("finalize", {"validate": True}),
            ]
        )
        plan, report = manager.run(circuit, machine)
        assert "preprocess" in report.passes_skipped
        assert plan.gate_count() == len(circuit)

    def test_unknown_pass_raises(self):
        manager = PassManager([("no-such-pass", {})])
        n = 8
        machine = MachineConfig.for_circuit(n, num_shards=1)
        with pytest.raises(ValueError, match="unknown planning pass"):
            manager.run(ghz(n), machine)

    def test_pipeline_without_finalize_raises(self):
        manager = PassManager([("analyze", {}), ("stage", {}), ("kernelize", {})])
        n = 8
        machine = MachineConfig.for_circuit(n, num_shards=1)
        with pytest.raises(RuntimeError, match="finalize"):
            manager.run(ghz(n), machine)


# ---------------------------------------------------------------------------
# Refine pass behaviour
# ---------------------------------------------------------------------------


class TestRefinePass:
    def test_refine_improves_or_keeps(self):
        # Kernelize with the weak greedy packer, then refine with the
        # ordered DP: the refined cost must be <= the greedy cost.
        n = 8
        circuit = qft(n)
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        greedy_manager = PassManager(
            [
                ("analyze", {}),
                ("stage", {}),
                ("kernelize", {"kernelizer": "greedy"}),
                ("finalize", {}),
            ]
        )
        refined_manager = PassManager(
            [
                ("analyze", {}),
                ("stage", {}),
                ("kernelize", {"kernelizer": "greedy"}),
                ("refine", {"strategies": ("ordered",)}),
                ("finalize", {}),
            ]
        )
        _, greedy_report = greedy_manager.run(circuit, machine)
        plan, refined_report = refined_manager.run(circuit, machine)
        plan.validate(circuit)
        assert refined_report.total_kernel_cost <= greedy_report.total_kernel_cost + 1e-12
        assert refined_report.pass_metrics["refine"]["stages_improved"] >= 1
        # The refined plan still executes correctly.
        reference = simulate_reference(circuit)
        with Session(machine, backend="incore", planner=refined_manager) as session:
            assert reference.allclose(session.run(circuit).result().state)

    def test_refine_budget_exhaustion_records_skips(self):
        n = 8
        circuit = vqc(n, seed=0)
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        manager = PassManager(
            [
                ("analyze", {}),
                ("stage", {}),
                ("kernelize", {"kernelizer": "greedy"}),
                ("refine", {"strategies": ("ordered",)}),
                ("finalize", {}),
            ],
            time_budget=0.0,  # already expired when refine starts
        )
        plan, report = manager.run(circuit, machine)
        plan.validate(circuit)
        refine = report.pass_metrics["refine"]
        assert refine["stages_improved"] == 0
        assert refine["stages_skipped_budget"] >= 1
        assert "refine" in report.passes_skipped
