"""Randomized equivalence suite for the specialized gate-application paths.

Every dispatch path of :mod:`repro.sim.apply` (diagonal, permutation,
controlled, dense-gemm variants, tensordot fallback, fused kernels) is
checked against the tensordot reference (:func:`apply_matrix_reference`)
on random states, under all three ``out`` modes of the buffer contract.
An allocation regression test pins the O(1)-state-sized-allocations
property of :func:`repro.runtime.execute_plan`.
"""

import itertools

import numpy as np
import pytest

from repro.circuits.gates import gate_matrix, make_gate
from repro.circuits.library import qft, random_circuit
from repro.cluster import MachineConfig
from repro.core import partition
from repro.runtime import execute_plan
from repro.sim import (
    StateVector,
    apply_gate_buffered,
    apply_matrix,
    apply_matrix_reference,
    expand_matrix,
    fused_unitary,
    fused_unitary_cached,
    simulate_reference,
)
from repro.sim import apply as apply_mod


def _random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(raw)
    return unitary


#: (gate name, params, expected dispatch kind) — one exemplar per path.
PATH_CASES = [
    ("rz", (0.7,), "diagonal"),
    ("cz", (), "diagonal"),
    ("cp", (1.1,), "diagonal"),
    ("ccz", (), "diagonal"),
    ("x", (), "permutation"),
    ("y", (), "permutation"),
    ("cx", (), "permutation"),
    ("swap", (), "permutation"),
    ("ccx", (), "permutation"),
    ("cswap", (), "permutation"),
    ("ch", (), "controlled"),
    ("crx", (0.8,), "controlled"),
    ("cry", (0.4,), "controlled"),
    ("h", (), "dense"),
    ("u3", (0.3, 0.9, 0.2), "dense"),
    ("rxx", (0.5,), "dense"),
    ("ryy", (0.6,), "dense"),
]


#: The ``out`` contract through the bound templates, at n = 13 (wide enough
#: for the split gemm plans and the controlled gather-gemm): (label, matrix,
#: qubit lists — low, middle and top of the register).  Where a position
#: reroutes the kind (a permutation at the very bottom and a plannable
#: controlled pair run as a gemm) the list says so.
_U3Q = _random_unitary(8, seed=21)
# x·rz on qubits[0], rz on qubits[1]: two phased 2-cycles between views
# that differ in qubits[0] alone.
_PHASED_X = np.kron(gate_matrix("rz", (0.4,)), gate_matrix("x") @ gate_matrix("rz", (0.9,)))
OUT_CONTRACT_N = 13
OUT_CONTRACT_CASES = [
    ("diagonal-1q", gate_matrix("rz", (0.7,)), ([0], [6], [12])),
    ("diagonal-2q", gate_matrix("cp", (1.1,)), ([0, 1], [8, 5], [12, 11])),
    ("permutation-2q", gate_matrix("cx"), ([1, 2], [4, 9], [9, 4], [11, 12])),  # [1, 2]: gemm
    ("permutation-swap", gate_matrix("swap"), ([0, 2], [3, 8], [12, 10])),
    ("permutation-3q", gate_matrix("ccx"), ([0, 1, 2], [3, 7, 9], [10, 12, 11])),
    # Generic phases: the cycle moves scale what they copy.  At [0, 12] and
    # [1, 11] source and destination interleave under a fixed top qubit.
    ("permutation-phased", _PHASED_X, ([0, 1], [0, 12], [1, 11], [4, 9], [12, 0])),
    # qubits = [target, control]: target below control is the gather-gemm,
    # above it the strided views; [0, 1] and [11, 12] plan to one gemm.
    ("controlled", gate_matrix("ch"), ([0, 1], [3, 9], [9, 3], [2, 12], [12, 2], [11, 12])),
    ("controlled-crx", gate_matrix("crx", (0.8,)), ([4, 10], [10, 4])),
    ("dense-1q", gate_matrix("h"), ([0], [4], [5], [12])),
    # [2, 9] is a split gemm, [6, 11] a split stacked plan, [8, 12] a left gemm.
    ("dense-2q", gate_matrix("rxx", (0.5,)), ([0, 1], [1, 0], [6, 7], [2, 9], [6, 11], [8, 12], [11, 12])),
    ("big-plannable", _U3Q, ([0, 1, 2], [0, 1, 3], [5, 6, 7], [7, 5, 6], [10, 11, 12])),
    ("big-scattered", _U3Q, ([0, 5, 11], [2, 6, 12])),
]


class TestDispatchClassification:
    @pytest.mark.parametrize("name,params,kind", PATH_CASES)
    def test_gate_matrices_hit_their_specialized_path(self, name, params, kind):
        info = apply_mod.analyze_matrix(gate_matrix(name, params))
        assert info.kind == kind

    def test_a_controlled_block_is_always_dense(self):
        """identity ⊕ (diagonal or monomial block) is itself monomial and
        classifies as such before control detection runs: no library gate,
        at generic or degenerate angles, and no generated controlled-monomial
        matrix is ever `controlled` with a structured block — the templates
        carry no such branch."""
        from repro.circuits.gates import GATE_SPECS

        for name, spec in sorted(GATE_SPECS.items()):
            for angle in (0.0, 0.7, np.pi / 2, np.pi, 2 * np.pi):
                info = apply_mod.analyze_matrix(gate_matrix(name, (angle,) * spec.num_params))
                if info.kind == "controlled":
                    assert info.reduced_info.kind == "dense", (name, angle)
        rng = np.random.default_rng(5)
        for k in (2, 3):
            dim = 1 << k
            for controls in range(1, k):
                block_dim = dim >> controls
                for trial in range(20):
                    perm = rng.permutation(block_dim) if trial % 2 else np.arange(block_dim)
                    block = np.zeros((block_dim, block_dim), dtype=complex)
                    block[perm, np.arange(block_dim)] = np.exp(1j * rng.uniform(0, 6, block_dim))
                    matrix = np.eye(dim, dtype=complex)
                    matrix[dim - block_dim :, dim - block_dim :] = block
                    # Controls on any index bits, not just the top ones.
                    bits = rng.permutation(k)
                    index = sum(((np.arange(dim) >> j) & 1) << bits[j] for j in range(k))
                    matrix = matrix[np.ix_(index, index)]
                    info = apply_mod.analyze_matrix(matrix)
                    assert info.kind in ("diagonal", "permutation"), (k, controls, trial)

    def test_view_kernels_keep_whole_vectors_per_state(self):
        """A view kernel needs `_MIN_VIEW_BITS` qubits outside the op: with
        fewer, a stack's views merge with its leading axis into NumPy loops
        whose length — a single element on a flat state — picks the
        rounding.  Such ops go to the gemm path; either way every stacked
        row is the flat run, bit for bit."""
        from repro.sim.program import Workspace, compile_unitary_op

        rng = np.random.default_rng(8)
        phased = np.zeros((8, 8), dtype=complex)
        phased[rng.permutation(8), np.arange(8)] = np.exp(1j * rng.uniform(0, 6, 8))
        controlled = np.eye(8, dtype=complex)
        controlled[4:, 4:] = _random_unitary(4, seed=9)
        for matrix, kind in ((phased, "permutation"), (controlled, "controlled")):
            assert apply_mod.analyze_matrix(matrix).kind == kind
            for n in range(3, 3 + apply_mod._MIN_VIEW_BITS + 1):
                op = compile_unitary_op(matrix, (0, 1, 2), n)
                views = n - 3 >= apply_mod._MIN_VIEW_BITS
                assert op.kind == (kind if views else "dense"), (kind, n)
                stack = np.stack([_random_state(n, seed=b) for b in range(5)])
                flat = [op.run(row.copy(), np.empty_like(row), Workspace())[0] for row in stack]
                rows, _ = op.run(stack.copy(), np.empty_like(stack), Workspace())
                for row, want in zip(rows, flat):
                    assert np.array_equal(row, want), (kind, n)

    def test_wide_dense_matrix_falls_back_to_tensordot(self):
        info = apply_mod.analyze_matrix(_random_unitary(8, seed=0))
        assert info.kind == "big"


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name,params,kind", PATH_CASES)
    def test_matches_reference_in_all_out_modes(self, name, params, kind):
        matrix = gate_matrix(name, params)
        k = int(np.log2(matrix.shape[0]))
        n = 7
        rng = np.random.default_rng(hash(name) % 2**32)
        for trial in range(4):
            qubits = list(rng.choice(n, size=k, replace=False))
            state = _random_state(n, seed=trial)
            reference = apply_matrix_reference(state, matrix, qubits)

            before = state.copy()
            pure = apply_matrix(state, matrix, qubits)
            assert np.allclose(state, before), "out=None must not modify state"
            assert np.allclose(pure, reference)

            buffer = np.empty_like(state)
            returned = apply_matrix(state, matrix, qubits, out=buffer)
            assert returned is buffer
            assert np.allclose(buffer, reference)
            assert np.allclose(state, before), "out=buffer must not modify state"

            inplace = state.copy()
            returned = apply_matrix(inplace, matrix, qubits, out=inplace)
            assert returned is inplace
            assert np.allclose(inplace, reference)

    @pytest.mark.parametrize("out_mode", ["none", "distinct", "state"])
    @pytest.mark.parametrize(
        "matrix,qubit_lists",
        [case[1:] for case in OUT_CONTRACT_CASES],
        ids=[case[0] for case in OUT_CONTRACT_CASES],
    )
    def test_out_contract_through_the_bound_templates(self, matrix, qubit_lists, out_mode):
        """Every kind x every ``out`` mode x low / middle / top positions:
        `state` is untouched unless ``out is state``, and the result is
        the compiled op's, bit for bit (`apply_matrix` runs the same bound
        template), and the reference's within rounding."""
        from repro.sim.program import Workspace, compile_unitary_op

        n = OUT_CONTRACT_N
        for trial, qubits in enumerate(qubit_lists):
            state = _random_state(n, seed=trial)
            before = state.copy()
            op = compile_unitary_op(matrix, qubits, n)
            compiled, _ = op.run(state.copy(), np.empty_like(state), Workspace())
            if out_mode == "none":
                got = apply_matrix(state, matrix, qubits)
                assert got is not state
            elif out_mode == "distinct":
                buffer = np.full_like(state, np.nan)
                got = apply_matrix(state, matrix, qubits, out=buffer)
                assert got is buffer
            else:
                target = state.copy()
                got = apply_matrix(target, matrix, qubits, out=target)
                assert got is target
            assert np.array_equal(state, before), (qubits, "state was modified")
            assert np.array_equal(got, compiled), (qubits, op.kind)
            assert np.allclose(got, apply_matrix_reference(before, matrix, qubits)), qubits
            # One body: the same closure on a stack — of one, two, five —
            # gives every row the flat run's bits (`big`: its bound).
            bound = 0.0
            if op.kind == "big":
                bound = (1 << len(qubits)) * np.spacing(np.max(np.abs(compiled)))
            for batch in (1, 2, 5):
                stack = np.stack([_random_state(n, seed=trial + b) for b in range(batch)])
                flat = [
                    op.run(row.copy(), np.empty_like(row), Workspace())[0] for row in stack
                ]
                rows, _ = op.run(stack.copy(), np.empty_like(stack), Workspace())
                assert rows.shape == stack.shape
                for row, want in zip(rows, flat):
                    assert np.max(np.abs(row - want)) <= bound, (qubits, op.kind, batch)

    def test_dense_1q_all_positions(self):
        unitary = _random_unitary(2, seed=3)
        for n in (2, 5, 9):
            state = _random_state(n, seed=n)
            for q in range(n):
                reference = apply_matrix_reference(state, unitary, [q])
                assert np.allclose(apply_matrix(state, unitary, [q]), reference)

    def test_dense_2q_all_pairs(self):
        # n=12 reaches the split_stacked/split_gemm plans (they need a
        # non-adjacent pair with q0 below the gemm edge and q1 above it).
        unitary = _random_unitary(4, seed=4)
        for n in (3, 6, 9, 12):
            state = _random_state(n, seed=n)
            for qubits in itertools.permutations(range(n), 2):
                reference = apply_matrix_reference(state, unitary, list(qubits))
                got = apply_matrix(state, unitary, list(qubits))
                assert np.allclose(got, reference), (n, qubits)

    def test_controlled_all_pairs_wide_register(self):
        # n=13 exercises the gather-gemm controlled subspace path (target
        # below control, non-single-gemm positions) and the strided
        # structured fallback (target above control).
        matrix = gate_matrix("ch")
        n = 13
        state = _random_state(n, seed=0)
        for qubits in itertools.permutations(range(n), 2):
            reference = apply_matrix_reference(state, matrix, list(qubits))
            inplace = state.copy()
            apply_matrix(inplace, matrix, list(qubits), out=inplace)
            assert np.allclose(inplace, reference), qubits
            buffer = np.empty_like(state)
            apply_matrix(state, matrix, list(qubits), out=buffer)
            assert np.allclose(buffer, reference), qubits

    def test_out_size_mismatch_raises(self):
        state = _random_state(4, seed=0)
        with pytest.raises(ValueError):
            apply_matrix(state, gate_matrix("h"), [0], out=np.empty(8, complex))


class TestBufferedApplication:
    def test_random_circuit_matches_reference(self):
        circuit = random_circuit(7, 80, seed=11)
        state = _random_state(7, seed=42)
        buffered = state.copy()
        scratch = np.empty_like(state)
        reference = state.copy()
        for gate in circuit.gates:
            buffered, scratch = apply_gate_buffered(
                buffered, scratch, gate.matrix(), gate.qubits
            )
            reference = apply_matrix_reference(
                reference, gate.matrix(), gate.qubits
            )
        assert np.allclose(buffered, reference)

    def test_statevector_matches_reference_simulator(self):
        circuit = random_circuit(6, 60, seed=5)
        via_statevector = StateVector.zero_state(6).apply_circuit(circuit.gates)
        assert simulate_reference(circuit).allclose(via_statevector)


class TestFusedUnitary:
    def test_matches_expand_matrix_product(self):
        circuit = random_circuit(5, 30, seed=7)
        fused, qubits = fused_unitary(circuit.gates)
        seed_style = np.eye(1 << len(qubits), dtype=np.complex128)
        for gate in circuit.gates:
            seed_style = expand_matrix(gate.matrix(), gate.qubits, qubits) @ seed_style
        assert np.allclose(fused, seed_style)

    def test_cached_variant_shares_one_instance(self):
        gates = (make_gate("h", [0]), make_gate("cx", [1, 0]))
        m1, q1 = fused_unitary_cached(gates)
        m2, q2 = fused_unitary_cached(gates)
        assert m1 is m2 and q1 == q2
        assert not m1.flags.writeable
        fresh, _ = fused_unitary(list(gates))
        assert np.allclose(m1, fresh)


class TestAllocationRegression:
    def test_execute_plan_state_allocations_are_constant(self):
        """A warm plan execution allocates the ping-pong buffer pair plus
        one tensordot workspace per wide (k >= 3) fused-kernel application —
        never O(#gates)."""
        n = 10
        circuit = qft(n)
        machine = MachineConfig.for_circuit(n, num_gpus=4, local_qubits=n - 2)
        plan, _ = partition(circuit, machine)

        # Warm run: populates the scratch pool and the fused-unitary cache.
        execute_plan(plan)

        # Kernel applications that go through the k>=3 tensordot fallback
        # each log one state-sized workspace allocation.
        big_applications = 0
        for stage in plan.stages:
            for kernel in stage.kernels or []:
                matrix, _ = fused_unitary_cached(kernel.gates)
                info = apply_mod.analyze_matrix(matrix)
                if info.kind == "big":
                    big_applications += 1

        apply_mod.reset_allocation_log()
        result, _ = execute_plan(plan)
        log = apply_mod.allocation_log()
        state_sized = [size for size in log if size >= 1 << n]
        budget = 2 + big_applications
        assert len(state_sized) <= budget, (
            f"expected ping-pong pair + {big_applications} tensordot "
            f"workspaces, got {len(state_sized)} state-sized allocations: "
            f"{state_sized}"
        )
        # The bound must not scale with the gate count (qft(10) has 55+
        # gates but only a handful of kernels).
        assert budget < len(circuit) // 2
        assert len(log) <= budget + 6, f"engine allocation count grew: {log}"
        assert simulate_reference(circuit).allclose(result)

    def test_gate_count_does_not_scale_allocations(self):
        n = 8
        logs = []
        for num_gates in (20, 200):
            circuit = random_circuit(n, num_gates, seed=1)
            state = _random_state(n, seed=2)
            buf = state.copy()
            scratch = np.empty_like(state)
            # Warm the analysis/scratch caches with one pass.
            for gate in circuit.gates:
                buf, scratch = apply_gate_buffered(
                    buf, scratch, gate.matrix(), gate.qubits
                )
            apply_mod.reset_allocation_log()
            for gate in circuit.gates:
                buf, scratch = apply_gate_buffered(
                    buf, scratch, gate.matrix(), gate.qubits
                )
            logs.append(len(apply_mod.allocation_log()))
        assert logs[1] == logs[0] == 0, logs


class TestCompiledProgramAllocations:
    """Compiled programs preallocate their whole workspace at compile/warmup
    time: steady-state re-execution performs **zero** engine allocations
    (the one exception is the tensordot fallback for genuinely scattered
    wide kernels, which logs its workspace per application — counted
    exactly below).  Note `reset_allocation_log` clears only the log, never
    the warm workspaces, so these counts are deterministic however many
    runs preceded them."""

    def _program(self, n=10):
        from repro.runtime.compile import compile_plan

        circuit = qft(n)
        machine = MachineConfig.for_circuit(n, num_gpus=4, local_qubits=n - 2)
        plan, _ = partition(circuit, machine)
        return compile_plan(plan, machine), circuit

    def test_steady_state_reexecution_allocates_nothing(self):
        program, circuit = self._program()
        unplannable = sum(1 for op in program.ops if op.kind == "big")
        # qft at this size lowers entirely to gemm/diagonal/permutation
        # ops, so the pin below really is *zero*.
        assert unplannable == 0, program.op_counts()
        result = program.run_view()  # warm: buffers and tmps allocate here
        assert simulate_reference(circuit).allclose(
            StateVector(program.num_qubits, result.copy())
        )
        apply_mod.reset_allocation_log()
        program.run_view()
        program.run_view(StateVector.random_state(program.num_qubits, seed=3))
        assert apply_mod.allocation_log() == []

    def test_steady_state_batched_reexecution_allocates_nothing(self):
        program, _ = self._program()
        states = [
            StateVector.random_state(program.num_qubits, seed=s) for s in range(4)
        ]
        program.run_batched_view(states)  # warm
        apply_mod.reset_allocation_log()
        program.run_batched_view(states)
        assert apply_mod.allocation_log() == []

    def test_run_copy_costs_exactly_one_result_buffer(self):
        program, _ = self._program()
        n = program.num_qubits
        program.run()  # warm
        apply_mod.reset_allocation_log()
        program.run()
        log = apply_mod.allocation_log()
        assert log == [1 << n]

    def test_unplannable_big_ops_are_counted_exactly(self):
        """A hand-built plan with one scattered wide kernel logs exactly
        one tensordot workspace per re-execution — nothing else."""
        from repro.circuits import Circuit
        from repro.core.plan import ExecutionPlan, QubitPartition, Stage
        from repro.runtime.compile import compile_plan
        from repro.core.kernel import Kernel, KernelSequence, KernelType

        n = 9
        gates = [make_gate("h", [0]), make_gate("cx", [0, 4]), make_gate("cx", [4, 8])]
        circuit = Circuit(n, gates)
        kernels = KernelSequence(
            kernels=[
                Kernel(
                    gates=tuple(gates),
                    qubits=(0, 4, 8),
                    kernel_type=KernelType.FUSION,
                    cost=1.0,
                    gate_indices=(0, 1, 2),
                )
            ]
        )
        stage = Stage(
            gates=gates,
            partition=QubitPartition.from_sets(set(range(n)), set(), set()),
            kernels=kernels,
            gate_indices=[0, 1, 2],
        )
        plan = ExecutionPlan(num_qubits=n, stages=[stage])
        program = compile_plan(plan)
        assert program.op_counts().get("big") == 1
        program.run_view()  # warm
        apply_mod.reset_allocation_log()
        program.run_view()
        log = apply_mod.allocation_log()
        assert log == [1 << n]
        assert simulate_reference(circuit).allclose(
            StateVector(n, program.run_view().copy())
        )


class TestSampling:
    def test_sample_distribution_and_determinism(self):
        state = simulate_reference(qft(5))
        a = state.sample(2000, seed=3)
        b = state.sample(2000, seed=3)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 32
        # QFT of |0..0> is uniform; the empirical mean of uniform [0,32) is ~15.5.
        assert 13.0 < a.mean() < 18.0

    def test_sample_matches_probabilities(self):
        state = simulate_reference(qft(3))
        counts = np.bincount(state.sample(20000, seed=0), minlength=8) / 20000
        assert np.allclose(counts, state.probabilities(), atol=0.02)
