"""Smoke test of the repo benchmark (tier-1, no timing assertions).

Every workload runs once at toy size (<= 10 qubits, one round) with
``--trace 0`` and ``--trace 1``: the contract's output shape, the metric
names and units against ``BENCHMARK.json``, repeatability of the count
metrics, and the oracle's self-test.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import oracle
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Work done, not time taken: must repeat exactly for one seed.
COUNT_METRICS = (
    "ilp.solve.calls", "core.stages", "core.kernels", "core.kernel_cost",
    "sim.program.ops", "runtime.shard_loads", "runtime.stages", "runtime.segments",
)


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """Run a workload in-process at toy size; results cached per call key."""
    cache = {}

    def go(workload: str, trace: int, attempt: int = 0) -> dict:
        key = (workload, trace, attempt)
        if key not in cache:
            work_dir = tmp_path_factory.mktemp("perf")
            argv = [
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--toy", "--work-dir", str(work_dir),
            ]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert run.main(argv) == 0
            cache[key] = json.loads(stdout.getvalue().splitlines()[-1])
        return cache[key]

    return go


def test_oracle_self_test():
    oracle.self_test()


def test_oracle_imports_nothing_from_the_program():
    tree = ast.parse((HERE / "oracle.py").read_text())
    imported = [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("repro")]


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in run.WORKLOAD_NAMES
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_meets_the_output_contract(toy_run, workload, trace):
    result = toy_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[workload].jobs_per_round
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_count_metrics_repeat_exactly(toy_run, workload):
    first = toy_run(workload, 1)["metrics"]
    second = toy_run(workload, 1, attempt=1)["metrics"]
    assert {n: first[n]["value"] for n in COUNT_METRICS} == {
        n: second[n]["value"] for n in COUNT_METRICS
    }


def test_command_line_result_is_the_last_stdout_line(tmp_path):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "service-burst-12q",
            "--seed", "5", "--seconds", "1", "--trace", "0", "--toy",
            "--work-dir", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 24


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    done = subprocess.run(
        [
            sys.executable, "benchmarks/perf/run.py", "--workload", "cold-plan-16q",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
