"""Tests for the three kernelization algorithms (KERNELIZE, ORDERED-KERNELIZE, greedy)."""

import pytest

from repro.circuits import Circuit
from repro.circuits.library import ghz, ising, qft, qsvm, random_circuit, wstate
from repro.cluster import CostModel
from repro.core import (
    Kernel,
    KernelizeConfig,
    KernelType,
    greedy_kernelize,
    kernelize,
    ordered_kernelize,
)
from repro.sim import StateVector, apply_matrix_reference, fused_unitary, simulate_reference


def _functional_check(circuit, kernels) -> bool:
    """Executing the kernels in order must reproduce the circuit's state.
    Each kernel's fused matrix is applied by the tensordot oracle: a kernel
    may span the whole register, far wider than the engine's native
    body."""
    state = StateVector.zero_state(circuit.num_qubits).data
    for kernel in kernels:
        matrix, qubits = fused_unitary(list(kernel.gates))
        state = apply_matrix_reference(state, matrix, qubits)
    return simulate_reference(circuit).allclose(StateVector(circuit.num_qubits, state))


def _coverage_check(circuit, kernels) -> None:
    indices = sorted(kernels.all_gate_indices())
    assert indices == list(range(len(circuit)))


ALL_KERNELIZERS = [
    ("atlas", lambda c: kernelize(c, config=KernelizeConfig(pruning_threshold=32))),
    ("naive", ordered_kernelize),
    ("greedy", greedy_kernelize),
]


class TestKernelDataTypes:
    def test_kernel_from_gates_picks_strategy(self):
        cm = CostModel()
        gates = Circuit(2).h(0).cx(0, 1).gates
        k = Kernel.from_gates(gates, cm, gate_indices=[0, 1])
        assert k.num_gates == 2
        assert k.qubits == (0, 1)
        assert k.kernel_type in (KernelType.FUSION, KernelType.SHM)
        assert k.cost > 0
        assert len(k) == 2

    def test_kernel_sequence_aggregates(self):
        circuit = qft(6)
        ks = greedy_kernelize(circuit)
        assert ks.num_gates == len(circuit)
        assert ks.total_cost == pytest.approx(sum(k.cost for k in ks))
        assert len(ks.widths()) == len(ks)


class TestKernelizeCorrectness:
    @pytest.mark.parametrize("name,fn", ALL_KERNELIZERS)
    def test_empty_circuit(self, name, fn):
        ks = fn(Circuit(3))
        assert len(ks) == 0
        assert ks.total_cost == 0.0

    @pytest.mark.parametrize("name,fn", ALL_KERNELIZERS)
    def test_single_gate(self, name, fn):
        ks = fn(Circuit(3).h(1))
        assert len(ks) == 1
        assert ks.kernels[0].qubits == (1,)

    @pytest.mark.parametrize("name,fn", ALL_KERNELIZERS)
    @pytest.mark.parametrize("builder", [qft, ising, wstate, qsvm, ghz])
    def test_families_covered_and_functional(self, name, fn, builder):
        circuit = builder(8)
        ks = fn(circuit)
        _coverage_check(circuit, ks)
        assert _functional_check(circuit, ks)

    @pytest.mark.parametrize("name,fn", ALL_KERNELIZERS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_functional(self, name, fn, seed):
        circuit = random_circuit(7, 50, seed=seed)
        ks = fn(circuit)
        _coverage_check(circuit, ks)
        assert _functional_check(circuit, ks)

    def test_kernelize_order_is_topologically_valid(self):
        # The concatenated gate order of the returned kernels must respect
        # the circuit's dependencies (Theorem 2).
        for seed in range(4):
            circuit = random_circuit(8, 60, seed=seed)
            ks = kernelize(circuit, config=KernelizeConfig(pruning_threshold=16))
            assert circuit.is_topologically_equivalent(ks.all_gate_indices())

    def test_accepts_plain_gate_lists(self):
        gates = list(qft(6).gates)
        assert kernelize(gates).num_gates == len(gates)
        assert ordered_kernelize(gates).num_gates == len(gates)
        assert greedy_kernelize(gates).num_gates == len(gates)


class TestKernelizeQuality:
    def test_kernelize_beats_or_matches_naive_and_greedy(self):
        # Theorem 6 (vs ORDERED-KERNELIZE) and the Figure 10 comparison
        # (vs greedy packing), checked on representative circuits.
        for builder in (qft, qsvm, ising, wstate):
            circuit = builder(12)
            atlas = kernelize(circuit, config=KernelizeConfig(pruning_threshold=64)).total_cost
            naive = ordered_kernelize(circuit).total_cost
            greedy = greedy_kernelize(circuit).total_cost
            assert atlas <= naive * 1.01, builder.__name__
            assert atlas <= greedy * 1.01, builder.__name__

    def test_higher_pruning_threshold_does_not_hurt(self):
        circuit = qft(12)
        small = kernelize(circuit, config=KernelizeConfig(pruning_threshold=4)).total_cost
        large = kernelize(circuit, config=KernelizeConfig(pruning_threshold=128)).total_cost
        assert large <= small * 1.01

    def test_width_cap_respected(self):
        circuit = random_circuit(10, 80, seed=1)
        config = KernelizeConfig(pruning_threshold=16, max_kernel_width=4)
        ks = kernelize(circuit, config=config)
        # Only single gates may exceed the cap (a 3-qubit gate is still one kernel).
        for kernel in ks:
            assert kernel.num_qubits <= 4 or kernel.num_gates == 1

    def test_greedy_width_bound(self):
        circuit = qft(12)
        ks = greedy_kernelize(circuit, max_width=5)
        for kernel in ks:
            assert kernel.num_qubits <= 5
            assert kernel.kernel_type is KernelType.FUSION

    def test_ordered_kernels_are_contiguous(self):
        circuit = ising(10)
        ks = ordered_kernelize(circuit)
        for kernel in ks:
            indices = list(kernel.gate_indices)
            assert indices == list(range(indices[0], indices[-1] + 1))

    def test_ordered_kernelize_optimal_on_tiny_circuit(self):
        # Brute-force check of the contiguous-segment DP on a 5-gate circuit.
        cm = CostModel()
        circuit = Circuit(4).h(0).cx(0, 1).h(2).cx(2, 3).cz(1, 2)
        ks = ordered_kernelize(circuit, cm)

        def brute(best=float("inf")):
            gates = circuit.gates
            n = len(gates)

            def rec(i):
                if i == n:
                    return 0.0
                best_cost = float("inf")
                for j in range(i + 1, n + 1):
                    seg = gates[i:j]
                    best_cost = min(best_cost, cm.cost(seg) + rec(j))
                return best_cost

            return rec(0)

        assert ks.total_cost == pytest.approx(brute(), rel=1e-9)

    def test_kernelize_no_worse_than_one_kernel_per_gate(self):
        circuit = qsvm(10)
        cm = CostModel()
        per_gate_cost = sum(cm.cost([g]) for g in circuit)
        assert kernelize(circuit).total_cost <= per_gate_cost

    def test_subsumption_shortcut_preserves_quality(self):
        circuit = qft(10)
        with_sub = kernelize(circuit, config=KernelizeConfig(pruning_threshold=32, subsume=True))
        without_sub = kernelize(circuit, config=KernelizeConfig(pruning_threshold=32, subsume=False))
        # Both must remain valid; costs should be in the same ballpark.
        assert _functional_check(circuit, with_sub)
        assert _functional_check(circuit, without_sub)
        assert with_sub.total_cost <= without_sub.total_cost * 1.5
