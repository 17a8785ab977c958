"""Tests for the state-vector simulation substrate (repro.sim)."""

import numpy as np
import pytest

from repro.circuits import Circuit, make_gate
from repro.circuits.library import random_circuit
from repro.sim import (
    StateVector,
    apply_diagonal,
    apply_matrix,
    expand_matrix,
    fused_unitary,
    kernel_qubits,
    simulate_reference,
)
from repro.circuits.gates import gate_matrix
from repro.sim.apply import qubit_axis
from repro.sim.fusion import apply_gate_sequence


def _kron_reference(matrix, qubits, num_qubits):
    """Dense reference: build the full 2^n unitary with Kronecker products."""
    full = expand_matrix(matrix, qubits, list(range(num_qubits)))
    return full


class TestApplyMatrix:
    def test_single_qubit_gate_on_each_position(self):
        n = 4
        h = gate_matrix("h")
        for q in range(n):
            state = np.zeros(2**n, dtype=complex)
            state[0] = 1.0
            out = apply_matrix(state, h, [q])
            expected = _kron_reference(h, [q], n) @ state
            assert np.allclose(out, expected)

    def test_two_qubit_gate_orderings(self):
        n = 3
        cx = gate_matrix("cx")
        rng = np.random.default_rng(0)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        for qubits in ([0, 1], [1, 0], [0, 2], [2, 0], [1, 2], [2, 1]):
            out = apply_matrix(state, cx, qubits)
            expected = _kron_reference(cx, qubits, n) @ state
            assert np.allclose(out, expected), qubits

    def test_three_qubit_gate(self):
        n = 4
        ccx = gate_matrix("ccx")
        rng = np.random.default_rng(1)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        out = apply_matrix(state, ccx, [3, 1, 0])
        expected = _kron_reference(ccx, [3, 1, 0], n) @ state
        assert np.allclose(out, expected)

    def test_norm_preserved(self):
        state = StateVector.random_state(5, seed=3).data
        out = apply_matrix(state, gate_matrix("h"), [2])
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_result_is_contiguous(self):
        state = StateVector.random_state(4, seed=0).data
        out = apply_matrix(state, gate_matrix("swap"), [0, 3])
        assert out.flags.c_contiguous

    def test_errors(self):
        state = np.zeros(8, dtype=complex)
        state[0] = 1
        with pytest.raises(ValueError):
            apply_matrix(state, gate_matrix("h"), [3])  # out of range
        with pytest.raises(ValueError):
            apply_matrix(state, gate_matrix("cx"), [1, 1])  # duplicate
        with pytest.raises(ValueError):
            apply_matrix(state, gate_matrix("cx"), [0])  # shape mismatch

    def test_qubit_axis(self):
        assert qubit_axis(5, 0) == 4
        assert qubit_axis(5, 4) == 0


class TestApplyDiagonal:
    def test_matches_full_matrix_single_qubit(self):
        n = 3
        rz = gate_matrix("rz", [0.7])
        state = StateVector.random_state(n, seed=5).data
        expected = apply_matrix(state, rz, [1])
        inplace = state.copy()
        apply_diagonal(inplace, np.diag(rz).copy(), [1], out=inplace)
        assert np.allclose(inplace, expected)

    def test_pure_call_leaves_input_unmodified(self):
        rz = gate_matrix("rz", [0.7])
        state = StateVector.random_state(3, seed=5).data
        before = state.copy()
        result = apply_diagonal(state, np.diag(rz).copy(), [1])
        assert np.allclose(state, before)
        assert np.allclose(result, apply_matrix(state, rz, [1]))

    def test_matches_full_matrix_two_qubit(self):
        n = 4
        cp = gate_matrix("cp", [1.1])
        for qubits in ([0, 2], [2, 0], [3, 1]):
            state = StateVector.random_state(n, seed=6).data
            expected = apply_matrix(state, cp, qubits)
            inplace = state.copy()
            apply_diagonal(inplace, np.diag(cp).copy(), qubits, out=inplace)
            assert np.allclose(inplace, expected), qubits

    def test_wrong_length_raises(self):
        state = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            apply_diagonal(state, np.ones(4, dtype=complex), [0])


    @pytest.mark.parametrize("qubits,message", [
        ([0, 3], "out of range for 3 qubits"),
        ([-1, 0], "out of range for 3 qubits"),
        ([1, 1], "duplicate qubits"),
        ([0], "does not match 1 qubits"),
    ])
    def test_bad_qubits_raise_like_apply_matrix(self, qubits, message):
        """`apply_diagonal` checks what `apply_matrix` checks, with its
        messages ([0, 3] used to die inside a NumPy reshape, [-1, 0] with
        an IndexError)."""
        state = StateVector.random_state(3, seed=0).data
        before = state.copy()
        phases = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match=message):
            apply_diagonal(state, phases, qubits, out=state)
        if len(qubits) == 2:
            with pytest.raises(ValueError, match=message):
                apply_matrix(state, gate_matrix("cz"), qubits)
        assert np.array_equal(state, before)

    def test_diagonal_lengths_and_state_size_are_checked(self):
        state = StateVector.random_state(3, seed=0).data
        with pytest.raises(ValueError, match="phase vector of length 2 does not match 2 qubits"):
            apply_diagonal(state, np.ones(2, dtype=complex), [0, 1])
        with pytest.raises(ValueError, match="not a power of two"):
            apply_diagonal(np.ones(6, dtype=complex), np.ones(2, dtype=complex), [0])
        with pytest.raises(ValueError, match="out has 4 amplitudes, expected 8"):
            apply_diagonal(state, np.ones(2, dtype=complex), [0], out=np.empty(4, complex))


class TestExpandMatrix:
    def test_identity_embedding(self):
        h = gate_matrix("h")
        expanded = expand_matrix(h, [0], [0, 1])
        assert expanded.shape == (4, 4)
        assert np.allclose(expanded, np.kron(np.eye(2), h))

    def test_embedding_on_high_qubit(self):
        h = gate_matrix("h")
        expanded = expand_matrix(h, [1], [0, 1])
        assert np.allclose(expanded, np.kron(h, np.eye(2)))

    def test_embedding_preserves_unitarity(self):
        cx = gate_matrix("cx")
        expanded = expand_matrix(cx, [2, 0], [0, 1, 2])
        assert np.allclose(expanded @ expanded.conj().T, np.eye(8), atol=1e-12)

    def test_missing_qubits_raise(self):
        with pytest.raises(ValueError):
            expand_matrix(gate_matrix("cx"), [0, 3], [0, 1])


class TestFusion:
    def test_kernel_qubits(self):
        gates = [make_gate("h", [2]), make_gate("cx", [0, 4])]
        assert kernel_qubits(gates) == (0, 2, 4)

    def test_fused_unitary_matches_sequential(self):
        circuit = random_circuit(5, 25, seed=9)
        fused, qubits = fused_unitary(circuit.gates)
        state = StateVector.zero_state(5)
        state.apply_matrix(fused, qubits)
        expected = simulate_reference(circuit)
        assert expected.allclose(state)

    def test_fused_unitary_is_unitary(self):
        circuit = random_circuit(4, 15, seed=2)
        fused, qubits = fused_unitary(circuit.gates)
        dim = 2 ** len(qubits)
        assert np.allclose(fused @ fused.conj().T, np.eye(dim), atol=1e-9)

    def test_fused_unitary_explicit_qubit_order(self):
        gates = [make_gate("cx", [0, 1])]
        m1, q1 = fused_unitary(gates, qubits=[0, 1])
        m2, q2 = fused_unitary(gates, qubits=[1, 0])
        assert q1 != q2
        assert not np.allclose(m1, m2)  # different bit conventions

    @pytest.mark.parametrize(
        "qubits, message",
        [([0, 1], "not contained in target"), ([0, 2, 2], "duplicate")],
        ids=["missing", "duplicate"],
    )
    def test_fused_unitary_validates_explicit_qubits(self, qubits, message):
        """An explicit order must hold every gate's qubits, each once: a
        missing one is a ValueError worded like `expand_matrix`'s, not a
        bare KeyError, and a repeated one is no phantom qubit."""
        with pytest.raises(ValueError, match=message):
            fused_unitary([make_gate("h", [0]), make_gate("cx", [0, 2])], qubits=qubits)

    def test_apply_gate_sequence(self):
        circuit = random_circuit(4, 12, seed=4)
        state = np.zeros(16, dtype=complex)
        state[0] = 1
        out = apply_gate_sequence(state, circuit.gates)
        assert np.allclose(out, simulate_reference(circuit).data)
        assert state[0] == 1 and np.array_equal(apply_gate_sequence(state, []), state)
        with pytest.raises(ValueError, match="out of range for 4 qubits"):
            apply_gate_sequence(state, [make_gate("h", [4])])


class TestStateVector:
    def test_zero_state(self):
        s = StateVector.zero_state(3)
        assert s.amplitude(0) == 1.0
        assert s.is_normalized()

    def test_basis_state(self):
        s = StateVector.basis_state(3, 5)
        assert s.amplitude(5) == 1.0
        with pytest.raises(ValueError):
            StateVector.basis_state(2, 7)

    def test_random_state_normalized_and_deterministic(self):
        a = StateVector.random_state(4, seed=1)
        b = StateVector.random_state(4, seed=1)
        assert a.is_normalized()
        assert np.allclose(a.data, b.data)

    def test_bad_data_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.ones(3))

    def test_apply_gate_and_circuit(self):
        s = StateVector.zero_state(2)
        s.apply_gate(make_gate("h", [0]))
        s.apply_gate(make_gate("cx", [1, 0]))
        assert s.probabilities()[0] == pytest.approx(0.5)
        assert s.probabilities()[3] == pytest.approx(0.5)

    def test_probabilities_sum_to_one(self):
        s = StateVector.random_state(5, seed=7)
        assert s.probabilities().sum() == pytest.approx(1.0)

    def test_marginal_probabilities(self):
        # Bell state on qubits 0,1 of a 3-qubit register.
        c = Circuit(3).h(0).cx(0, 1)
        s = simulate_reference(c)
        marginal = s.marginal_probabilities([0, 1])
        assert marginal[0] == pytest.approx(0.5)
        assert marginal[3] == pytest.approx(0.5)
        single = s.marginal_probabilities([2])
        assert single[0] == pytest.approx(1.0)

    def test_marginal_qubit_order(self):
        c = Circuit(2).x(1)
        s = simulate_reference(c)
        assert s.marginal_probabilities([1])[1] == pytest.approx(1.0)
        assert s.marginal_probabilities([0])[0] == pytest.approx(1.0)

    def test_expectation_z(self):
        s = simulate_reference(Circuit(2).x(0))
        assert s.expectation_z(0) == pytest.approx(-1.0)
        assert s.expectation_z(1) == pytest.approx(1.0)

    def test_sampling_distribution(self):
        s = simulate_reference(Circuit(1).h(0))
        samples = s.sample(4000, seed=0)
        assert 0.4 < np.mean(samples) < 0.6

    def test_fidelity_and_allclose(self):
        a = StateVector.random_state(3, seed=0)
        b = a.copy()
        assert a.fidelity(b) == pytest.approx(1.0)
        # Global phase is ignored by allclose but not by raw data comparison.
        c = StateVector(3, a.data * np.exp(0.3j))
        assert a.allclose(c)
        assert not a.allclose(c, up_to_global_phase=False)
        d = StateVector.random_state(3, seed=9)
        assert a.fidelity(d) < 0.99
        with pytest.raises(ValueError):
            a.fidelity(StateVector.zero_state(2))


class TestReferenceSimulator:
    def test_initial_state_not_modified(self):
        c = Circuit(2).h(0)
        init = StateVector.zero_state(2)
        simulate_reference(c, init)
        assert init.amplitude(0) == 1.0

    def test_custom_initial_state(self):
        c = Circuit(2).x(0)
        init = StateVector.basis_state(2, 1)
        out = simulate_reference(c, init)
        assert abs(out.amplitude(0)) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            simulate_reference(Circuit(3).h(0), StateVector.zero_state(2))

    def test_unitarity_on_random_circuits(self):
        for seed in range(3):
            c = random_circuit(6, 50, seed=seed)
            assert simulate_reference(c).is_normalized()

    def test_statevector_agrees_with_the_tensordot_oracle(self):
        """`StateVector`, `simulate_reference` and the `reference` backend
        apply each gate through the engine's own op (a broadcast diagonal
        or a one-item kernel): gate by gate it must agree with
        `apply_matrix_reference`, which shares no code with it, to 1e-12 —
        every gate spec at random positions on 8 qubits, and random dense
        matrices of width 5 and 6, which run the item loop (the native body
        applies dense items of at most 4 qubits)."""
        from repro.circuits.gates import GATE_SPECS
        from repro.sim.apply import KernelItem, apply_matrix_reference, takes_native

        n = 8
        rng = np.random.default_rng(42)
        for name, spec in sorted(GATE_SPECS.items()):
            for _trial in range(3):
                qubits = [int(q) for q in rng.choice(n, size=spec.num_qubits, replace=False)]
                gate = make_gate(name, qubits, rng.uniform(0.1, 6.2, spec.num_params))
                state = StateVector.random_state(n, seed=int(rng.integers(1 << 30)))
                want = apply_matrix_reference(state.data, gate.matrix(), qubits)
                got = state.copy().apply_gate(gate).data
                assert np.abs(got - want).max() <= 1e-12, (name, qubits)
        for k in (5, 6):
            raw = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            matrix = np.linalg.qr(raw)[0]
            qubits = [int(q) for q in rng.choice(n, size=k, replace=False)]
            assert not takes_native([KernelItem(tuple(qubits), "gate")], n)
            state = StateVector.random_state(n, seed=k)
            want = apply_matrix_reference(state.data, matrix, qubits)
            got = state.copy().apply_matrix(matrix, qubits).data
            assert np.abs(got - want).max() <= 1e-12, k
