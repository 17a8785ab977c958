"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuits.library import (
    dj,
    ghz,
    graphstate,
    ising,
    qft,
    qsvm,
    random_circuit,
    wstate,
)
from repro.cluster import CostModel, MachineConfig


@pytest.fixture
def small_machine() -> MachineConfig:
    """A 10-qubit machine with 4 GPU shards (L=6, R=2, G=2)."""
    return MachineConfig.for_circuit(10, num_gpus=4, local_qubits=6)


@pytest.fixture
def single_gpu_machine() -> MachineConfig:
    """An 8-qubit single-GPU machine (everything local)."""
    return MachineConfig.for_circuit(8, num_gpus=1, local_qubits=8)


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture(
    params=["qft", "ghz", "ising", "dj", "wstate", "qsvm", "graphstate", "random"]
)
def family_circuit_10(request):
    """One 10-qubit circuit per benchmark family (plus a random circuit)."""
    builders = {
        "qft": lambda: qft(10),
        "ghz": lambda: ghz(10),
        "ising": lambda: ising(10),
        "dj": lambda: dj(10),
        "wstate": lambda: wstate(10),
        "qsvm": lambda: qsvm(10),
        "graphstate": lambda: graphstate(10),
        "random": lambda: random_circuit(10, 60, seed=11),
    }
    return builders[request.param]()


# ---------------------------------------------------------------------------
# The item-loop runs of tests/test_native_kernel.py
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
#: The engine, program, schedule and session test modules: one run, niced,
#: beside the suite that is waiting for it (a second one slowed the suite by
#: as much as it saved on a two-core host).
FALLBACK_MODULES = [[
    "tests/test_apply_fastpaths.py", "tests/test_program.py",
    "tests/test_schedule.py", "tests/test_session.py",
]]
FALLBACK_TEST = "test_modules_pass_on_the_item_loop"
#: What a fallback run patches in before pytest starts: a loader whose one
#: attempt is already made, and failed.
UNAVAILABLE = (
    "from repro.sim import native; native._STATE = dict(available=False, "
    "reason='disabled for this run', path=None, compiler=None, flags=[], "
    "build_seconds=0.0, library=None); "
)
_fallback_runs: list[subprocess.Popen] = []


def pytest_collection_finish(session):
    """Start the fallback runs as soon as the suite knows it will collect
    their verdict, so they overlap everything that runs before it (they are
    ~30 s of work, and the suite has two minutes)."""
    wanted = any(item.name == FALLBACK_TEST for item in session.items)
    if not wanted or session.config.option.collectonly:
        return
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    for modules in FALLBACK_MODULES:
        script = UNAVAILABLE + (
            "import os, sys, pytest; os.nice(10); "
            f"sys.exit(pytest.main(['-x', '-q', '-p', 'no:cacheprovider', *{modules!r}]))"
        )
        _fallback_runs.append(subprocess.Popen(
            [sys.executable, "-c", script], cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        ))


def pytest_sessionfinish(session):
    for run in _fallback_runs:
        if run.poll() is None:
            run.kill()
            run.communicate()


@pytest.fixture
def fallback_runs():
    """``(modules, process)`` per fallback run started at collection."""
    return list(zip(FALLBACK_MODULES, _fallback_runs))
