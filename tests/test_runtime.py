"""Tests for the runtime: sharding, staged execution, DRAM offload, timing model."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.library import qft, random_circuit
from repro.cluster import CostModel, MachineConfig
from repro.core import KernelizeConfig, partition
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.runtime import (
    QubitLayout,
    execute_plan,
    execute_plan_offloaded,
    model_simulation_time,
    permute_state,
    shard_slices,
)
from repro.sim import StateVector, simulate_reference


class TestQubitLayout:
    def test_identity_layout(self):
        layout = QubitLayout(4)
        assert layout.is_identity()
        assert layout.physical(2) == 2
        assert layout.logical(3) == 3

    def test_update_and_roundtrip(self):
        layout = QubitLayout(3)
        layout.update({0: 2, 1: 0, 2: 1})
        assert layout.physical(0) == 2
        assert layout.logical(2) == 0
        assert layout.physical_to_logical() == {2: 0, 0: 1, 1: 2}

    def test_invalid_mapping_rejected(self):
        layout = QubitLayout(3)
        with pytest.raises(ValueError):
            layout.update({0: 0, 1: 1})
        with pytest.raises(ValueError):
            layout.update({0: 0, 1: 1, 2: 1})

    def test_copy_and_equality(self):
        a = QubitLayout(3)
        b = a.copy()
        b.update({0: 1, 1: 0, 2: 2})
        assert a != b
        assert a == QubitLayout(3)


class TestPermuteState:
    def test_identity_permutation_returns_same_values(self):
        state = StateVector.random_state(4, seed=0).data
        layout = QubitLayout(4)
        out = permute_state(state, layout, layout.logical_to_physical())
        assert np.allclose(out, state)

    def test_swap_two_qubits(self):
        # |q1 q0> = |01> (qubit0=1).  Swapping the physical positions of
        # qubits 0 and 1 moves the amplitude from index 1 to index 2.
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0
        layout = QubitLayout(2)
        out = permute_state(state, layout, {0: 1, 1: 0})
        assert out[2] == 1.0

    def test_permutation_is_reversible(self):
        state = StateVector.random_state(5, seed=1).data
        layout = QubitLayout(5)
        target = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}
        forward = permute_state(state, layout, target)
        layout2 = QubitLayout(5, target)
        back = permute_state(forward, layout2, {q: q for q in range(5)})
        assert np.allclose(back, state)

    def test_permutation_preserves_norm(self):
        state = StateVector.random_state(6, seed=2).data
        out = permute_state(state, QubitLayout(6), {q: (q + 1) % 6 for q in range(6)})
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            permute_state(np.zeros(7), QubitLayout(3), {0: 0, 1: 1, 2: 2})


class TestShardSlices:
    def test_shapes_and_views(self):
        state = np.arange(16, dtype=complex)
        shards = shard_slices(state, 2)
        assert len(shards) == 4
        assert all(s.size == 4 for s in shards)
        shards[1][0] = -1
        assert state[4] == -1  # views share memory

    def test_invalid_shard_size(self):
        with pytest.raises(ValueError):
            shard_slices(np.zeros(10), 2)


class TestExecutePlan:
    def test_matches_reference_for_all_families(self, family_circuit_10, small_machine):
        circuit = family_circuit_10
        plan, _ = partition(circuit, small_machine,
                            kernelize_config=KernelizeConfig(pruning_threshold=16))
        plan.validate(circuit)
        out, trace = execute_plan(plan, machine=small_machine)
        assert simulate_reference(circuit).allclose(out)
        assert trace.num_stages == plan.num_stages
        assert trace.num_kernels == plan.num_kernels

    def test_custom_initial_state(self, small_machine):
        circuit = qft(10)
        plan, _ = partition(circuit, small_machine)
        init = StateVector.random_state(10, seed=3)
        out, _ = execute_plan(plan, initial_state=init, machine=small_machine)
        assert simulate_reference(circuit, init).allclose(out)

    def test_initial_state_size_mismatch(self, small_machine):
        plan, _ = partition(qft(10), small_machine)
        with pytest.raises(ValueError):
            execute_plan(plan, initial_state=StateVector.zero_state(9))

    def test_locality_violation_detected(self):
        # Hand-build a broken plan: an h gate whose qubit is mapped globally.
        circuit = Circuit(4).h(3)
        partition_bad = QubitPartition.from_sets({0, 1}, {2}, {3})
        plan = ExecutionPlan(
            num_qubits=4,
            stages=[Stage(gates=list(circuit.gates), partition=partition_bad,
                          gate_indices=[0])],
        )
        with pytest.raises(ValueError, match="staging invariant"):
            execute_plan(plan)
        # With the check disabled it still executes correctly.
        out, _ = execute_plan(plan, check_locality=False)
        assert simulate_reference(circuit).allclose(out)

    def test_unkernelized_stage_executes_gates_directly(self):
        circuit = Circuit(3).h(0).cx(0, 1).cz(1, 2)
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1, 2}, set(), set()),
            gate_indices=[0, 1, 2],
        )
        plan = ExecutionPlan(num_qubits=3, stages=[stage])
        out, trace = execute_plan(plan)
        assert simulate_reference(circuit).allclose(out)
        assert trace.num_kernels == 0


class TestOffloadExecutor:
    def test_matches_reference_for_all_families(self, family_circuit_10, small_machine):
        circuit = family_circuit_10
        plan, _ = partition(circuit, small_machine,
                            kernelize_config=KernelizeConfig(pruning_threshold=16))
        out, stats = execute_plan_offloaded(plan, small_machine)
        assert simulate_reference(circuit).allclose(out)
        assert stats.num_stages == plan.num_stages
        assert stats.num_shards == 1 << (10 - small_machine.local_qubits)

    def test_one_load_per_shard_per_stage_for_qft(self, small_machine):
        # The property behind the QDAO comparison: within a stage every shard
        # is loaded exactly once (a stage is one shard pass).
        circuit = qft(10)
        plan, _ = partition(circuit, small_machine)
        _, stats = execute_plan_offloaded(plan, small_machine)
        assert stats.per_stage_loads == [stats.num_shards] * plan.num_stages
        expected_bytes = plan.num_stages * (1 << 10) * 16 * 2
        assert stats.bytes_transferred == expected_bytes

    def test_offload_with_custom_initial_state(self, small_machine):
        circuit = qft(10)
        plan, _ = partition(circuit, small_machine)
        init = StateVector.random_state(10, seed=5)
        out, _ = execute_plan_offloaded(plan, small_machine, initial_state=init)
        assert simulate_reference(circuit, init).allclose(out)

    def test_offload_size_mismatch(self, small_machine):
        plan, _ = partition(qft(10), small_machine)
        with pytest.raises(ValueError):
            execute_plan_offloaded(plan, small_machine, initial_state=StateVector.zero_state(8))


class TestTimingModel:
    def _plan(self, circuit, machine):
        plan, _ = partition(circuit, machine,
                            kernelize_config=KernelizeConfig(pruning_threshold=16))
        return plan

    def test_breakdown_sums_to_total(self, small_machine):
        plan = self._plan(qft(10), small_machine)
        tb = model_simulation_time(plan, small_machine)
        assert tb.total_seconds == pytest.approx(
            tb.computation_seconds + tb.communication_seconds + tb.offload_seconds
        )
        assert 0.0 <= tb.communication_fraction <= 1.0
        assert tb.num_stages == plan.num_stages
        assert len(tb.per_stage_compute) == plan.num_stages
        assert len(tb.per_transition_comm) == plan.num_stages - 1

    def test_single_stage_has_no_communication(self):
        machine = MachineConfig.for_circuit(8, num_gpus=1, local_qubits=8)
        plan = self._plan(qft(8), machine)
        tb = model_simulation_time(plan, machine)
        assert plan.num_stages == 1
        assert tb.communication_seconds == 0.0

    def test_inter_node_machines_pay_more_communication(self):
        circuit = qft(10)
        intra = MachineConfig(local_qubits=8, regional_qubits=2, global_qubits=0)
        inter = MachineConfig(local_qubits=8, regional_qubits=0, global_qubits=2,
                              gpus_per_node=1)
        plan_intra = self._plan(circuit, intra)
        plan_inter = self._plan(circuit, inter)
        t_intra = model_simulation_time(plan_intra, intra)
        t_inter = model_simulation_time(plan_inter, inter)
        if plan_intra.num_stages > 1 and plan_inter.num_stages > 1:
            assert t_inter.communication_seconds > t_intra.communication_seconds

    def test_overhead_factors_scale_time(self, small_machine):
        plan = self._plan(qft(10), small_machine)
        base = model_simulation_time(plan, small_machine)
        slow = model_simulation_time(plan, small_machine,
                                     kernel_overhead_factor=2.0,
                                     comm_overhead_factor=3.0)
        assert slow.computation_seconds == pytest.approx(base.computation_seconds * 2.0)
        assert slow.communication_seconds == pytest.approx(base.communication_seconds * 3.0)

    def test_offload_adds_pcie_time(self):
        # More qubits than the GPUs can hold: shards swap through DRAM.
        machine = MachineConfig(local_qubits=8, regional_qubits=4, global_qubits=0,
                                gpu_memory_bytes=(1 << 8) * 16 * 2)
        plan = self._plan(qft(12), machine)
        tb = model_simulation_time(plan, machine)
        assert tb.shard_passes_per_stage > 1
        assert tb.offload_seconds > 0

    def test_machine_mismatch_rejected(self, small_machine):
        plan = self._plan(qft(10), small_machine)
        other = MachineConfig.for_circuit(12, num_gpus=4, local_qubits=8)
        with pytest.raises(ValueError):
            model_simulation_time(plan, other)
