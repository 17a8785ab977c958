"""The simulation-core micro gate (``run_bench.py``) under test.

One tier-1 test holds the committed ``BENCH_simcore.json`` to the rule —
counts and within-run ratios, not one second.  Everything else is opt-in
(``pytest -m bench``): the rule itself on synthetic result trees (no
clock), and the sections' within-run floors on real measurements::

    PYTHONPATH=src python -m pytest benchmarks/test_simcore_micro.py -m bench -s
"""

import json
import re
import zlib

import pytest

import run_bench

bench = pytest.mark.bench


def _timing_keys(node) -> list[str]:
    """The dict keys of a result tree that name a second or a rate."""
    if isinstance(node, dict):
        return [key for key in node if re.search(r"_seconds$|_per_s$", key)] + [
            found for value in node.values() for found in _timing_keys(value)
        ]
    if isinstance(node, list):
        return [found for value in node for found in _timing_keys(value)]
    return []


def test_committed_baseline_holds_no_second():
    baseline = json.loads(run_bench.DEFAULT_BASELINE.read_text())
    assert baseline["schema"] == run_bench.SCHEMA
    assert not _timing_keys(baseline)
    # ... and every size of it passes its own gate.
    assert run_bench.check_regression(baseline, baseline) == []


# ---------------------------------------------------------------------------
# The rule, on synthetic trees
# ---------------------------------------------------------------------------


def synthetic() -> dict:
    """A small result tree, shaped like ``run_suite``'s, that every rule
    accepts."""
    gate_class = {
        "mean_copies": 4.0, "speedup": 5.0, "position_copies": [4.0, 3.0],
        "position_ratio": 2.0, "worst_run": [0],
    }
    preset = {
        "speedup_vs_seed": 4.0, "kernel_cost": 19.0, "num_stages": 2,
        "num_kernels": 3, "staging_matches_seed": True, "passes_skipped": {},
    }
    return {
        "schema": run_bench.SCHEMA,
        "micro": {"16": {
            **{label: dict(gate_class) for label in run_bench.GATE_CLASSES},
            "mix_1q2q_speedup": 5.0,
        }},
        "plan": {
            "balanced_median_speedup_vs_seed": 4.0,
            "balanced_min_speedup_vs_seed": 4.0,
            "entries": {"qft-10/sharded": {
                "seed_kernel_cost": 19.0, "seed_stages": 2, "ladder_slack": 0.0,
                "presets": {name: dict(preset) for name in run_bench.PLAN_PRESETS},
            }},
        },
        "compile": {"10": {
            "num_ops": 14, "rebind_ops_reused": 0,
            "batched": {"batch_size": 16, "speedup_vs_loop": 2.5},
        }},
        "rebind": {"vqc": {
            "rebind_ops_reused": 2, "rebind_ops_rebound": 6, "rebind_fallbacks": 0,
            "rebind_vs_run": 4.0, "rebind_vs_budget": 0.2,
        }},
        "kernel_lowering": {"14": {"qft": {
            "fold": [105, 3], "per_gate_ops": 105, "speedup_vs_per_gate": 14.0,
        }}},
        "sm_kernel": {"16": {
            "available": True,
            "families": {"qft": [
                {"qubits": 9, "items": 19, "native": True,
                 "native_copies": 11.0, "item_loop_copies": 42.0},
                {"qubits": 2, "items": 2, "native": True,
                 "native_copies": 2.0, "item_loop_copies": 1.5},
            ]},
            "fusion": {"ising": [
                {"qubits": 5, "items": 3, "native": True,
                 "native_copies": 1.6, "item_loop_copies": 4.6},
            ]},
        }},
    }


def changed(path: str, change) -> dict:
    """:func:`synthetic` with the value at dotted *path* replaced by
    ``change(value)``."""
    tree = node = synthetic()
    *parents, last = path.split(".")
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    if isinstance(node, list):
        last = int(last)
    node[last] = change(node[last])
    return tree


@bench
class TestTheRule:
    def test_a_run_is_no_regression_of_itself(self):
        tree = synthetic()
        assert run_bench.check_regression(tree, tree) == []
        # Sizes the baseline does not hold are not compared; the within-run
        # rules still are, and hold.
        assert run_bench.check_regression(tree, {}) == []

    COUNTS = [
        ("kernel_lowering.14.qft.fold", lambda fold: [fold[0], fold[1] + 1]),
        ("kernel_lowering.14.qft.per_gate_ops", lambda ops: ops + 1),
        ("plan.entries.qft-10/sharded.presets.balanced.num_stages", lambda stages: stages + 1),
        # 18.68 against the reference's 19.0 passed a `<=` gate: on the seed
        # planner's own stages a different cost — cheaper included — means
        # the two DPs returned different kernelizations.
        ("plan.entries.qft-10/sharded.presets.balanced.kernel_cost", lambda cost: 18.68),
        ("plan.entries.qft-10/sharded.presets.balanced.staging_matches_seed", lambda _: False),
        ("rebind.vqc.rebind_fallbacks", lambda _: 1),
        ("rebind.vqc.rebind_ops_reused", lambda ops: ops + 1),
        ("rebind.vqc.rebind_ops_rebound", lambda ops: ops - 1),
        ("compile.10.num_ops", lambda ops: ops + 1),
    ]

    def test_one_changed_count_is_one_finding_naming_it(self):
        for path, change in self.COUNTS:
            problems = run_bench.check_regression(changed(path, change), synthetic())
            assert len(problems) == 1 and problems[0].startswith(path + ":"), (path, problems)

    RATIOS = [
        # A cliff at one position barely moves a class's mean cost; the
        # worst-position / median-position ratio is what shows it.
        ("micro.16.dense_2q.position_ratio", 2.5),
        ("micro.16.diagonal.mean_copies", 2.5),
        ("plan.entries.qft-10/sharded.presets.balanced.speedup_vs_seed", 1 / 2.5),
        ("rebind.vqc.rebind_vs_run", 2.5),
        ("kernel_lowering.14.qft.speedup_vs_per_gate", 1 / 2.5),
    ]

    def test_one_ratio_past_the_threshold_is_one_finding_naming_it(self):
        baseline = synthetic()
        for path, factor in self.RATIOS:
            worse = changed(path, lambda v: v * factor)
            problems = run_bench.check_regression(worse, baseline)
            assert len(problems) == 1 and problems[0].startswith(path + ":"), (path, problems)
            assert "baseline" in problems[0]
            # Inside the threshold, or outside it the good way, is no finding.
            for inside in (factor ** 0.5, 1 / factor):
                tree = changed(path, lambda v: v * inside)
                assert run_bench.check_regression(tree, baseline) == [], path
            # The threshold is the slack.
            assert run_bench.check_regression(worse, baseline, threshold=4.0) == [], path

    def test_a_structured_class_has_no_position_gate(self):
        # Its median is an in-place kernel too short for a stable ratio.
        tree = changed("micro.16.permutation.position_ratio", lambda v: v * 10)
        assert run_bench.check_regression(tree, synthetic()) == []

    BOUNDS = [
        ("micro.16.fused_3q.speedup", 1.4),
        ("plan.balanced_median_speedup_vs_seed", 1.9),
        ("plan.entries.qft-10/sharded.ladder_slack", 0.5),
        ("compile.10.batched.speedup_vs_loop", 1.4),
        ("rebind.vqc.rebind_vs_budget", 1.1),
        ("sm_kernel.16.families.qft.0.native_copies", 43.0),
    ]

    def test_one_within_run_bound_broken_is_one_finding_without_a_baseline(self):
        for path, value in self.BOUNDS:
            problems = run_bench.check_regression(changed(path, lambda _: value), {})
            assert len(problems) == 1 and problems[0].startswith(path + ":"), (path, problems)

    def test_the_native_body_is_held_to_the_item_loop_from_three_items_up(self):
        # The second synthetic kernel has two items and a slower native body.
        tree = synthetic()
        assert run_bench.check_regression(tree, {}) == []
        tree["sm_kernel"]["16"]["families"]["qft"][1]["items"] = 3
        problems = run_bench.check_regression(tree, {})
        assert len(problems) == 1 and "item_loop_copies" in problems[0]

    def test_a_uniformly_slower_host_writes_the_same_tree(self, monkeypatch):
        """Every section run on a made-up clock, then on one sixteen times
        slower (a power of two, so the arithmetic is exact): each emitted
        number is a count or a ratio of two readings of that clock, so the
        trees are equal, and so are the verdicts."""
        sizes = {
            "repeats": 1, "micro": (10,), "plan": (("ghz", 6),), "compile": (6,),
            "kernel_lowering": (8,), "sm_kernel": (8,),
        }

        def clock(scale):
            def side_by_side(rounds, *timed, settle=0.0):
                for _ in range(rounds):
                    for _name, fn in timed:
                        fn()
                return {
                    name: scale * (1 + zlib.crc32(repr(name).encode()) % 97)
                    for name, _ in timed
                }
            return side_by_side

        trees = []
        for scale in (2.0 ** -14, 2.0 ** -10):
            monkeypatch.setattr(run_bench, "_side_by_side", clock(scale))
            trees.append(run_bench.run_suite(sizes))
        base, slow = trees
        assert slow == base
        assert not _timing_keys(base)
        assert run_bench.check_regression(slow, base) == run_bench.check_regression(base, base)

    def test_sweep_covers_every_position(self):
        for k in (1, 2, 3):
            runs = run_bench._sweep_positions(17, k)[: 17 - k + 1]
            assert runs == [list(range(q0, q0 + k)) for q0 in range(17 - k + 1)]


# ---------------------------------------------------------------------------
# The sections' floors, on real measurements
# ---------------------------------------------------------------------------


@bench
class TestMicroSpeedups:
    @pytest.fixture(scope="class")
    def micro_results(self):
        return run_bench.run_micro(num_qubits=18, repeats=3)

    def test_structured_paths_beat_reference(self, micro_results):
        # Conservative floors (the committed 20q baseline records ~5-10x):
        # structured gates must win big, dense gates must at least win.
        assert micro_results["diagonal"]["speedup"] > 3.0
        assert micro_results["permutation"]["speedup"] > 3.0
        assert micro_results["controlled"]["speedup"] > 1.5

    def test_dense_paths_beat_reference(self, micro_results):
        assert micro_results["dense_1q"]["speedup"] > 1.5
        assert micro_results["dense_2q"]["speedup"] > 1.2

    def test_1q2q_mix_speedup(self, micro_results):
        assert micro_results["mix_1q2q_speedup"] > 2.5

    def test_fused_3q_kernel_beats_tensordot(self, micro_results):
        # A k = 3 fused matrix is a one-item kernel: one tile pass.
        assert micro_results["fused_3q"]["speedup"] > 1.5


@bench
class TestKernelLowering:
    @pytest.fixture(scope="class")
    def lowering_results(self):
        return run_bench.run_kernel_lowering_bench(num_qubits=14, repeats=3)

    def test_every_family_folds(self, lowering_results):
        for family, low in lowering_results.items():
            assert low["ops"] < low["per_gate_ops"], family

    def test_lowered_stream_beats_per_gate_stream(self, lowering_results):
        for family, low in lowering_results.items():
            assert low["speedup_vs_per_gate"] > 1.2, family


@bench
class TestBaselineRegression:
    def test_quick_run_has_no_regression_vs_committed_baseline(self):
        # Every within-run floor of RULES rides along: batched >= 1.5x the
        # loop, balanced >= 2x the seed planner at its cost and stage count, the
        # monotone ladder, rebind budgets.
        baseline = json.loads(run_bench.DEFAULT_BASELINE.read_text())
        current = run_bench.run_suite({key: quick for key, (quick, _) in run_bench.SIZES.items()})
        problems = run_bench.check_regression(current, baseline)
        assert not problems, "\n".join(problems)
        assert not _timing_keys(current)
