"""Tests for the baseline simulator models and the top-level simulate() API."""

import pytest

import repro
from repro import MachineConfig, simulate
from repro.baselines import (
    AtlasSimulator,
    CuQuantumSimulator,
    HyQuasSimulator,
    QdaoSimulator,
    QiskitAerSimulator,
    SIMULATORS,
    make_simulator,
)
from repro.circuits.library import ghz, ising, qft
from repro.runtime import execute_plan
from repro.sim import simulate_reference


class TestRegistry:
    def test_registry_contents(self):
        assert set(SIMULATORS) == {"atlas", "hyquas", "cuquantum", "qiskit"}

    def test_make_simulator(self):
        sim = make_simulator("hyquas")
        assert isinstance(sim, HyQuasSimulator)
        with pytest.raises(ValueError, match="unknown simulator"):
            make_simulator("quest")


class TestBaselinePlans:
    @pytest.mark.parametrize("sim_cls", [AtlasSimulator, HyQuasSimulator,
                                         CuQuantumSimulator, QiskitAerSimulator])
    def test_plans_are_functionally_correct(self, sim_cls, small_machine):
        circuit = qft(10)
        sim = sim_cls()
        if isinstance(sim, AtlasSimulator):
            sim = AtlasSimulator(pruning_threshold=16)
        plan = sim.partition(circuit, small_machine)
        out, _ = execute_plan(plan, machine=small_machine, check_locality=False)
        assert simulate_reference(circuit).allclose(out)
        # Every gate is covered exactly once.
        assert plan.gate_count() == len(circuit)

    @pytest.mark.parametrize("name", sorted(SIMULATORS))
    def test_model_time_positive(self, name, small_machine):
        kwargs = {"pruning_threshold": 16} if name == "atlas" else {}
        sim = make_simulator(name, **kwargs)
        tb = sim.model_time(qft(10), small_machine)
        assert tb.total_seconds > 0
        assert tb.num_stages >= 1


class TestRelativePerformance:
    """The qualitative claims of Figure 5/7 must hold in the model."""

    def test_atlas_faster_than_qiskit_model(self, small_machine):
        circuit = ising(10)
        atlas = AtlasSimulator(pruning_threshold=16).model_time(circuit, small_machine)
        qiskit = QiskitAerSimulator().model_time(circuit, small_machine)
        assert atlas.total_seconds < qiskit.total_seconds

    def test_atlas_needs_no_more_stages_than_hyquas(self, small_machine):
        circuit = ising(10)
        atlas_plan = AtlasSimulator(pruning_threshold=16).partition(circuit, small_machine)
        hyquas_plan = HyQuasSimulator().partition(circuit, small_machine)
        assert atlas_plan.num_stages <= hyquas_plan.num_stages

    def test_qdao_pays_many_more_sweeps_than_atlas_stages(self):
        # The mechanism behind Figure 7's two-orders-of-magnitude gap.
        circuit = qft(14)
        machine = MachineConfig.for_circuit(14, num_gpus=1, local_qubits=10)
        qdao = QdaoSimulator(on_gpu_qubits=10, group_qubits=7)
        atlas_plan = AtlasSimulator(pruning_threshold=16).partition(circuit, machine)
        assert qdao.num_groups(circuit) > atlas_plan.num_stages

    def test_qdao_does_not_scale_with_gpus(self):
        circuit = qft(14)
        qdao = QdaoSimulator(on_gpu_qubits=10, group_qubits=7)
        t1 = qdao.model_time(circuit, MachineConfig.for_circuit(14, num_gpus=1, local_qubits=10))
        t4 = qdao.model_time(circuit, MachineConfig.for_circuit(14, num_gpus=4, local_qubits=10))
        assert t4.total_seconds == pytest.approx(t1.total_seconds, rel=0.01)

    def test_qdao_offload_kicks_in_beyond_gpu_memory(self):
        qdao = QdaoSimulator(on_gpu_qubits=10, group_qubits=7)
        machine_small = MachineConfig.for_circuit(
            12, num_gpus=1, local_qubits=10, gpu_memory_bytes=(1 << 10) * 16
        )
        tb = qdao.model_time(qft(12), machine_small)
        assert tb.offload_seconds > 0
        assert tb.shard_passes_per_stage > 1


class TestSimulateApi:
    def test_simulate_end_to_end(self, small_machine):
        circuit = qft(10)
        result = simulate(circuit, small_machine,
                          kernelize_config=repro.KernelizeConfig(pruning_threshold=16))
        assert result.state is not None
        assert simulate_reference(circuit).allclose(result.state)
        assert result.timing.total_seconds > 0
        assert result.plan.num_stages >= 1
        assert result.report.preprocessing_seconds > 0

    def test_simulate_without_execution(self, small_machine):
        result = simulate(ghz(10), small_machine, execute=False)
        assert result.state is None
        assert result.plan.num_stages >= 1

    def test_simulate_with_alternative_strategies(self, small_machine):
        circuit = ising(10)
        ref = simulate_reference(circuit)
        for stager in ("ilp", "snuqs"):
            for kernelizer in ("atlas", "atlas-naive", "greedy"):
                result = simulate(circuit, small_machine, stager=stager,
                                  kernelizer=kernelizer,
                                  kernelize_config=repro.KernelizeConfig(pruning_threshold=8))
                assert ref.allclose(result.state), (stager, kernelizer)

    def test_simulate_rejects_unknown_strategies(self, small_machine):
        with pytest.raises(ValueError):
            simulate(ghz(10), small_machine, stager="magic")
        with pytest.raises(ValueError):
            simulate(ghz(10), small_machine, kernelizer="magic")

    def test_version_exported(self):
        assert repro.__version__ == "1.8.0"

    def test_every_exported_name_is_documented(self):
        """``repro.__all__`` is the surface ``docs/api.md`` documents: a name
        a user does not need there is not exported from the top level (it
        stays importable from its subpackage)."""
        import re
        from pathlib import Path

        api = (Path(__file__).resolve().parents[1] / "docs" / "api.md").read_text()
        undocumented = [
            name for name in repro.__all__
            if not re.search(rf"\b{re.escape(name)}\b", api)
        ]
        assert not undocumented
        assert all(hasattr(repro, name) for name in repro.__all__)
