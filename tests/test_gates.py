"""Unit tests for the gate vocabulary (repro.circuits.gates)."""

import math

import numpy as np
import pytest

from repro.circuits.gates import (
    GATE_SPECS,
    Gate,
    SUPPORTED_GATES,
    controlled_matrix,
    gate_matrix,
    is_antidiagonal,
    is_diagonal,
    make_gate,
)


def _example_params(spec):
    return tuple(0.3 + 0.1 * i for i in range(spec.num_params))


class TestGateMatrices:
    @pytest.mark.parametrize("name", SUPPORTED_GATES)
    def test_every_gate_matrix_is_unitary(self, name):
        spec = GATE_SPECS[name]
        matrix = gate_matrix(name, _example_params(spec))
        dim = 2 ** spec.num_qubits
        assert matrix.shape == (dim, dim)
        assert np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-12)

    def test_x_matrix(self):
        assert np.allclose(gate_matrix("x"), [[0, 1], [1, 0]])

    def test_h_matrix(self):
        h = gate_matrix("h")
        s = 1 / math.sqrt(2)
        assert np.allclose(h, [[s, s], [s, -s]])

    def test_rz_diagonal_entries(self):
        theta = 0.7
        rz = gate_matrix("rz", [theta])
        assert np.allclose(np.diag(rz), [np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])

    def test_rx_pi_equals_minus_i_x(self):
        rx = gate_matrix("rx", [math.pi])
        assert np.allclose(rx, -1j * gate_matrix("x"), atol=1e-12)

    def test_u3_special_case_is_hadamard_like(self):
        u2 = gate_matrix("u2", [0.0, math.pi])
        assert np.allclose(np.abs(u2), np.abs(gate_matrix("h")), atol=1e-12)

    def test_cx_matrix_block_structure(self):
        cx = gate_matrix("cx")
        assert np.allclose(cx[:2, :2], np.eye(2))
        assert np.allclose(cx[2:, 2:], gate_matrix("x"))

    def test_cp_phase_location(self):
        theta = 1.1
        cp = gate_matrix("cp", [theta])
        expected = np.diag([1, 1, 1, np.exp(1j * theta)])
        assert np.allclose(cp, expected)

    def test_ccx_flips_only_when_both_controls_set(self):
        ccx = gate_matrix("ccx")
        # States with control bits (bits 1 and 2) = 11 are indices 6 and 7.
        expected = np.eye(8)
        expected[6, 6] = expected[7, 7] = 0
        expected[6, 7] = expected[7, 6] = 1
        assert np.allclose(ccx, expected)

    def test_swap_matrix(self):
        swap = gate_matrix("swap")
        state = np.zeros(4)
        state[1] = 1.0  # |01> (qubit0=1)
        assert np.allclose(swap @ state, [0, 0, 1, 0])

    def test_rzz_is_diagonal(self):
        assert is_diagonal(gate_matrix("rzz", [0.4]))

    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError, match="unsupported gate"):
            gate_matrix("not_a_gate")

    def test_wrong_param_count_raises(self):
        with pytest.raises(ValueError, match="parameters"):
            gate_matrix("rx", [])

    def test_matrix_cache_returns_readonly(self):
        m = gate_matrix("h")
        assert not m.flags.writeable

    def test_matrix_cache_reuses_instances(self):
        assert gate_matrix("rz", [0.25]) is gate_matrix("rz", [0.25])


class TestControlledMatrix:
    def test_single_control_dimensions(self):
        base = gate_matrix("h")
        c = controlled_matrix(base, 1)
        assert c.shape == (4, 4)
        assert np.allclose(c[:2, :2], np.eye(2))
        assert np.allclose(c[2:, 2:], base)

    def test_double_control(self):
        base = gate_matrix("z")
        c = controlled_matrix(base, 2)
        assert c.shape == (8, 8)
        assert np.allclose(c[:6, :6], np.eye(6))
        assert np.allclose(c[6:, 6:], base)

    def test_controlled_matrix_is_unitary(self):
        base = gate_matrix("u3", [0.3, 0.4, 0.5])
        c = controlled_matrix(base, 1)
        assert np.allclose(c @ c.conj().T, np.eye(4), atol=1e-12)


class TestDiagonalDetection:
    def test_diagonal_true(self):
        assert is_diagonal(np.diag([1, 1j]))

    def test_diagonal_false(self):
        assert not is_diagonal(gate_matrix("h"))

    def test_antidiagonal_true(self):
        assert is_antidiagonal(gate_matrix("x"))
        assert is_antidiagonal(gate_matrix("y"))

    def test_antidiagonal_false(self):
        assert not is_antidiagonal(gate_matrix("z"))
        assert not is_antidiagonal(gate_matrix("h"))


class TestGateInstance:
    def test_make_gate_coerces_types(self):
        g = make_gate("rx", [np.int64(2)], [np.float64(0.5)])
        assert g.qubits == (2,)
        assert g.params == (0.5,)

    def test_gate_validation_qubit_count(self):
        with pytest.raises(ValueError, match="acts on"):
            Gate("cx", (0,))

    def test_gate_validation_duplicate_qubits(self):
        with pytest.raises(ValueError, match="duplicate"):
            Gate("cx", (1, 1))

    def test_gate_validation_params(self):
        with pytest.raises(ValueError, match="parameters"):
            Gate("rz", (0,), ())

    def test_gate_validation_unknown_name(self):
        with pytest.raises(ValueError, match="unsupported"):
            Gate("bogus", (0,))

    def test_control_and_target_qubits(self):
        g = Gate("cx", (3, 7))  # target 3, control 7
        assert g.target_qubits == (3,)
        assert g.control_qubits == (7,)

    def test_ccx_controls(self):
        g = Gate("ccx", (1, 4, 6))
        assert g.target_qubits == (1,)
        assert set(g.control_qubits) == {4, 6}

    def test_remap(self):
        g = Gate("cx", (0, 1))
        mapped = g.remap({0: 5, 1: 2})
        assert mapped.qubits == (5, 2)
        assert mapped.name == "cx"

    def test_gates_are_hashable_and_comparable(self):
        a = Gate("rz", (0,), (0.5,))
        b = Gate("rz", (0,), (0.5,))
        assert a == b
        assert hash(a) == hash(b)


class TestInsularity:
    """Definition 2 of the paper."""

    @pytest.mark.parametrize("name", ["z", "s", "sdg", "t", "tdg", "rz", "p", "x", "y"])
    def test_single_qubit_diagonal_or_antidiagonal_is_insular(self, name):
        params = (0.3,) * GATE_SPECS[name].num_params
        g = Gate(name, (0,), params)
        assert g.insular_qubits() == (0,)
        assert g.non_insular_qubits() == ()

    @pytest.mark.parametrize("name", ["h", "sx", "rx", "ry", "u3"])
    def test_single_qubit_mixing_gate_is_not_insular(self, name):
        params = (0.3,) * GATE_SPECS[name].num_params
        g = Gate(name, (0,), params)
        assert g.insular_qubits() == ()
        assert g.non_insular_qubits() == (0,)

    def test_cx_control_is_insular_target_is_not(self):
        g = Gate("cx", (2, 5))
        assert g.insular_qubits() == (5,)
        assert g.non_insular_qubits() == (2,)

    def test_cz_is_fully_insular(self):
        g = Gate("cz", (2, 5))
        assert set(g.insular_qubits()) == {2, 5}

    def test_cp_is_fully_insular(self):
        g = Gate("cp", (0, 1), (0.7,))
        assert set(g.insular_qubits()) == {0, 1}

    def test_crz_is_fully_insular(self):
        g = Gate("crz", (0, 1), (0.7,))
        assert set(g.insular_qubits()) == {0, 1}

    def test_cry_only_control_is_insular(self):
        g = Gate("cry", (0, 1), (0.7,))
        assert g.insular_qubits() == (1,)
        assert g.non_insular_qubits() == (0,)

    def test_rzz_is_fully_insular(self):
        g = Gate("rzz", (0, 1), (0.7,))
        assert set(g.insular_qubits()) == {0, 1}

    def test_swap_is_not_insular(self):
        g = Gate("swap", (0, 1))
        assert g.insular_qubits() == ()
        assert set(g.non_insular_qubits()) == {0, 1}

    def test_ccx_controls_insular(self):
        g = Gate("ccx", (0, 1, 2))
        assert set(g.insular_qubits()) == {1, 2}
        assert g.non_insular_qubits() == (0,)

    def test_diagonal_flags(self):
        assert Gate("cz", (0, 1)).is_diagonal()
        assert not Gate("cx", (0, 1)).is_diagonal()
        assert Gate("x", (0,)).is_antidiagonal()


#: Angles at which a gate's structure degenerates (``rx(pi)`` is
#: anti-diagonal, ``rxx(0)`` the identity), and two generic ones.
DEGENERATE_ANGLES = (0.0, math.pi / 2, math.pi, -math.pi, 2 * math.pi, 0.3, 1.1)


def _oracle_insular_slots(matrix):
    """Definition 2 read per axis, straight off *matrix*: slot ``s`` is
    insular when the 2x2 blocks of the matrix along qubit ``s`` — output
    bit by input bit — are zero off the block diagonal or zero on it (at
    ``1e-12``)."""
    k = matrix.shape[0].bit_length() - 1
    tensor = matrix.reshape((2,) * (2 * k))
    slots = []
    for s in range(k):
        blocks = np.abs(np.moveaxis(tensor, (k - 1 - s, 2 * k - 1 - s), (0, 1)))
        same = max(blocks[0, 0].max(), blocks[1, 1].max())
        flip = max(blocks[0, 1].max(), blocks[1, 0].max())
        if flip <= 1e-12 or same <= 1e-12:
            slots.append(s)
    return slots


def _params_to_probe(spec, seed):
    """Every parameter at each degenerate angle (all at once), then seeded
    random draws."""
    rng = np.random.default_rng(seed)
    grid = [(angle,) * spec.num_params for angle in DEGENERATE_ANGLES]
    if spec.num_params > 1:
        grid += [
            (angle,) + tuple(rng.uniform(-7, 7, spec.num_params - 1))
            for angle in DEGENERATE_ANGLES
        ]
    randoms = [tuple(rng.uniform(-7, 7, spec.num_params)) for _ in range(12)]
    return list(dict.fromkeys(grid + randoms)) if spec.num_params else [()]


class TestInsularityOracle:
    """Every gate's insularity, diagonality and anti-diagonality against an
    independent reading of its matrix."""

    @pytest.mark.parametrize("name", SUPPORTED_GATES)
    def test_insular_qubits_are_the_per_axis_block_test(self, name):
        spec = GATE_SPECS[name]
        qubits = tuple(range(3, 3 + spec.num_qubits))
        for params in _params_to_probe(spec, seed=len(name)):
            gate = Gate(name, qubits, tuple(float(p) for p in params))
            matrix = gate.matrix()
            want = [qubits[s] for s in _oracle_insular_slots(matrix)]
            assert list(gate.insular_qubits()) == want, (name, params)
            assert set(gate.non_insular_qubits()) == set(qubits) - set(want)
            assert gate.is_diagonal() == is_diagonal(matrix), (name, params)
            assert gate.is_antidiagonal() == is_antidiagonal(matrix), (name, params)

    @pytest.mark.parametrize("name", ["rxx", "ryy"])
    @pytest.mark.parametrize("angle", [0.0, math.pi, -math.pi, 2 * math.pi])
    def test_rxx_ryy_at_degenerate_angles_are_insular(self, name, angle):
        """± the identity and ``±i X(x)X`` / ``±i Y(x)Y`` mix no axis."""
        gate = Gate(name, (0, 3), (angle,))
        assert gate.insular_qubits() == (0, 3)
        assert gate.non_insular_qubits() == ()
