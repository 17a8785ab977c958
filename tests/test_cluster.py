"""Tests for the cluster performance model (machine, cost model, communication)."""

import pytest

from repro.circuits import make_gate
from repro.cluster import (
    AMPLITUDE_BYTES,
    CommModel,
    CostModel,
    MachineConfig,
    transition_time,
    transition_traffic,
)


class TestMachineConfig:
    def test_derived_counts(self):
        m = MachineConfig(local_qubits=28, regional_qubits=2, global_qubits=3)
        assert m.num_nodes == 8
        assert m.num_gpus == 32
        assert m.shard_amplitudes == 2**28
        assert m.shard_bytes == 2**28 * AMPLITUDE_BYTES
        assert m.total_qubits() == 33

    def test_shard_slots_vs_physical_gpus(self):
        # num_gpus (historical name) counts 2^(R+G) shard *slots*;
        # physical_gpus counts real devices.  They agree only while every
        # shard has a GPU of its own.
        m = MachineConfig(local_qubits=28, regional_qubits=2, global_qubits=3)
        assert m.num_shards == 32
        assert m.num_gpus == m.num_shards
        assert m.physical_gpus == m.num_nodes * m.gpus_per_node == 32

    def test_overflow_qubits_add_shards_not_gpus(self):
        # for_circuit folds qubits beyond GPU capacity into regional_qubits:
        # those shards live in DRAM, so the shard count grows but the
        # physical GPU count must not.
        m = MachineConfig.for_circuit(14, num_gpus=4, local_qubits=8)
        assert m.num_shards == 64
        assert m.num_gpus == 64  # shard slots, not devices
        assert m.physical_gpus == 4

    def test_for_circuit_single_gpu(self):
        m = MachineConfig.for_circuit(10, num_gpus=1, local_qubits=10)
        assert m.local_qubits == 10
        assert m.regional_qubits == 0
        assert m.global_qubits == 0

    def test_for_circuit_multi_node(self):
        m = MachineConfig.for_circuit(36, num_gpus=256, local_qubits=28)
        assert m.regional_qubits == 2  # 4 GPUs per node
        assert m.global_qubits == 6  # 64 nodes
        assert m.total_qubits() == 36

    def test_for_circuit_extra_qubits_become_regional(self):
        # 32-qubit circuit on a single GPU with 28 local qubits: 4 regional.
        m = MachineConfig.for_circuit(32, num_gpus=1, local_qubits=28)
        assert m.regional_qubits == 4
        assert m.global_qubits == 0

    def test_for_circuit_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            MachineConfig.for_circuit(30, num_gpus=3)

    def test_for_circuit_rejects_too_many_local(self):
        with pytest.raises(ValueError):
            MachineConfig.for_circuit(10, num_gpus=4, local_qubits=10)

    def test_validate(self):
        m = MachineConfig(local_qubits=6, regional_qubits=2, global_qubits=2)
        m.validate(10)
        with pytest.raises(ValueError):
            m.validate(11)

    def test_offload_detection(self):
        # 40 GB per GPU holds up to 2^31 amplitudes; a 33-qubit state on one
        # node (4 GPUs) fits, a 36-qubit state does not.
        m = MachineConfig(local_qubits=31, regional_qubits=2, global_qubits=0)
        assert not m.requires_offload(33)
        m_large = MachineConfig(local_qubits=28, regional_qubits=8, global_qubits=0)
        assert m_large.requires_offload(36)

    def test_dram_capacity_validation(self):
        tiny = MachineConfig(
            local_qubits=30, regional_qubits=10, global_qubits=0,
            dram_bytes_per_node=2**20,
        )
        with pytest.raises(ValueError, match="DRAM"):
            tiny.validate(40)


class TestCostModel:
    def test_fusion_cost_monotone_beyond_plateau(self):
        cm = CostModel()
        costs = [cm.fusion_cost(k) for k in range(1, 8)]
        assert costs == sorted(costs)

    def test_fusion_cost_extrapolates(self):
        cm = CostModel(max_fusion_qubits=12)
        assert cm.fusion_cost(11) > cm.fusion_cost(10)

    def test_fusion_cost_infinite_beyond_limit(self):
        cm = CostModel()
        assert cm.fusion_cost(cm.max_fusion_qubits + 1) == float("inf")

    def test_best_fusion_width_is_five(self):
        # The paper's greedy baseline packs up to 5 qubits because that is
        # the most cost-efficient width under the measured cost function.
        assert CostModel().best_fusion_width() == 5

    def test_gate_cost_categories(self):
        cm = CostModel()
        diag = make_gate("rz", [0], [0.5])
        ctrl = make_gate("cx", [0, 1])
        dense = make_gate("h", [0])
        assert cm.gate_cost(diag) < cm.gate_cost(ctrl) <= cm.gate_cost(dense)

    def test_gate_costs_is_gate_cost_per_gate(self):
        # One lookup per (name, pattern): an rx or u3 at angle 0 is diagonal
        # and priced as such, at another angle it is not.
        cm = CostModel(shm_gate_cost={"diagonal": 0.01, "control": 0.02, "default": 0.04})
        gates = [
            make_gate("rx", [0], [0.0]), make_gate("rx", [1], [0.5]),
            make_gate("u3", [0], [0.0, 0.2, 0.3]), make_gate("u3", [2], [0.4, 0.2, 0.3]),
            make_gate("cx", [0, 1]), make_gate("cp", [1, 2], [0.7]), make_gate("h", [0]),
            make_gate("rx", [2], [0.0]), make_gate("ccx", [0, 1, 2]),
        ]
        assert cm.gate_costs(gates) == [cm.gate_cost(g) for g in gates]
        assert cm.gate_costs(gates)[:4] == [0.01, 0.04, 0.01, 0.04]
        assert cm.gate_costs([]) == []

    def test_shm_cost_includes_load(self):
        cm = CostModel()
        gates = [make_gate("h", [0])]
        assert cm.shm_cost(gates, 1) == pytest.approx(
            cm.shm_load_cost + cm.gate_cost(gates[0])
        )
        assert cm.shm_cost(gates, cm.max_shm_qubits + 1) == float("inf")

    def test_kernel_cost_picks_cheaper_strategy(self):
        cm = CostModel()
        # Many gates on few qubits: fusion wins.
        few_qubit_gates = [make_gate("h", [0]) for _ in range(100)]
        assert cm.kernel_cost(few_qubit_gates, [0]).kernel_type == "fusion"
        # A couple of gates on many qubits: shared-memory wins.
        wide_gates = [make_gate("cx", [i, i + 1]) for i in range(0, 8, 2)]
        kc = cm.kernel_cost(wide_gates)
        assert kc.kernel_type == "shm"

    def test_units_to_seconds_scales_with_shard_size(self):
        cm = CostModel()
        assert cm.units_to_seconds(1.0, 28) == pytest.approx(cm.seconds_per_unit)
        assert cm.units_to_seconds(1.0, 27) == pytest.approx(cm.seconds_per_unit / 2)

    def test_cost_shorthand(self):
        cm = CostModel()
        gates = [make_gate("h", [0]), make_gate("cx", [1, 0])]
        assert cm.cost(gates) == cm.kernel_cost(gates).cost


class TestCommunicationModel:
    def _machine(self) -> MachineConfig:
        return MachineConfig(local_qubits=6, regional_qubits=2, global_qubits=2)

    def test_noop_transition(self):
        m = self._machine()
        t = transition_traffic({0, 1}, {8, 9}, {0, 1}, {8, 9}, 10, m)
        assert t.is_noop
        assert transition_time(t, m) == 0.0

    def test_local_change_triggers_intra_node_traffic(self):
        m = self._machine()
        t = transition_traffic({0, 1, 2}, set(), {0, 1, 3}, set(), 10, m)
        assert t.changed_local_qubits == 1
        assert t.intra_node_bytes > 0
        assert t.inter_node_bytes == 0

    def test_global_change_triggers_inter_node_traffic(self):
        m = self._machine()
        t = transition_traffic({0, 1}, {8}, {0, 1}, {9}, 10, m)
        assert t.changed_global_qubits == 1
        assert t.inter_node_bytes > 0

    def test_more_changed_qubits_more_traffic(self):
        m = self._machine()
        one = transition_traffic({0, 1, 2, 3}, set(), {0, 1, 2, 9}, set(), 10, m)
        two = transition_traffic({0, 1, 2, 3}, set(), {0, 1, 8, 9}, set(), 10, m)
        assert two.total_bytes > one.total_bytes

    def test_inter_node_slower_than_intra_node(self):
        m = self._machine()
        intra = transition_traffic({0}, set(), {1}, set(), 10, m)
        inter = transition_traffic({0}, {8}, {1}, {9}, 10, m)
        assert transition_time(inter, m) > transition_time(intra, m)

    def test_comm_model_accumulates(self):
        m = self._machine()
        cm = CommModel(m, 10)
        s1 = cm.record_transition({0, 1}, set(), {0, 2}, set())
        s2 = cm.record_transition({0, 2}, set(), {0, 2}, set())  # no-op
        assert s1 > 0
        assert s2 == 0
        assert cm.num_transitions == 1
        summary = cm.summary()
        assert summary["communication_time"] == pytest.approx(s1)
        assert summary["intra_node_bytes"] > 0
