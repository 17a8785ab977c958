"""Property-based tests (hypothesis) on the core data structures and invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import Circuit, from_qasm, make_gate, to_qasm
from repro.circuits.library import random_circuit
from repro.cluster import CostModel, MachineConfig
from repro.core import (
    KernelizeConfig,
    greedy_kernelize,
    kernelize,
    ordered_kernelize,
    snuqs_stage_circuit,
    stage_circuit,
)
from repro.ilp import IlpModel, lin_sum, solve_with_branch_and_bound, solve_with_scipy
from repro.core.kernel import Kernel, KernelSequence, KernelType
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.runtime import QubitLayout, compile_plan, execute_plan, permute_state
from repro.sim import StateVector, apply_matrix, simulate_reference
from repro.sim import apply as apply_mod
from repro.sim.apply import MONOMIAL_WIDTH, apply_gate_buffered, kernel_template
from repro.sim.fusion import apply_lowered_items, kernel_items, lower_kernel_gates
from repro.sim.program import Workspace, compile_unitary_op, monomial_template
from repro.circuits.gates import GATE_SPECS, gate_matrix

# Hypothesis settings: these tests build circuits and run simulators, so we
# keep example counts modest and disable the too-slow health check.
SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_ONE_QUBIT_GATES = ["h", "x", "y", "z", "s", "t", "rx", "ry", "rz", "p"]
_TWO_QUBIT_GATES = ["cx", "cz", "cp", "swap", "rzz", "crz", "cry"]
_PARAM_COUNT = {"rx": 1, "ry": 1, "rz": 1, "p": 1, "cp": 1, "rzz": 1, "crz": 1, "cry": 1}


@st.composite
def circuits(draw, min_qubits=3, max_qubits=6, max_gates=25):
    n = draw(st.integers(min_qubits, max_qubits))
    num_gates = draw(st.integers(1, max_gates))
    circuit = Circuit(n, name="hypothesis")
    for _ in range(num_gates):
        use_two = n >= 2 and draw(st.booleans())
        name = draw(st.sampled_from(_TWO_QUBIT_GATES if use_two else _ONE_QUBIT_GATES))
        qubits = draw(
            st.lists(st.integers(0, n - 1), min_size=2 if use_two else 1,
                     max_size=2 if use_two else 1, unique=True)
        )
        params = [
            draw(st.floats(0.01, 6.28, allow_nan=False, allow_infinity=False))
            for _ in range(_PARAM_COUNT.get(name, 0))
        ]
        circuit.add(name, qubits, params)
    return circuit


#: Generic angles plus the degenerate ones where a rotation's matrix gains
#: exact zeros and changes class (rx(0) is diagonal, ry(pi) a permutation),
#: or does so only within the structural key's 1e-12 tolerance (1e-13).
_ANGLES = st.one_of(
    st.floats(0.01, 6.28, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, np.pi / 2, np.pi, 2 * np.pi, 1e-13]),
)


@st.composite
def laid_out_gate_sequences(draw, min_qubits=3, max_qubits=7, max_gates=30):
    """``(n, gates, logical_to_physical)``: a gate sequence over *every*
    library gate and a random layout to execute it in."""
    n = draw(st.integers(min_qubits, max_qubits))
    gates = []
    for _ in range(draw(st.integers(1, max_gates))):
        spec = GATE_SPECS[draw(st.sampled_from(sorted(GATE_SPECS)))]
        qubits = draw(
            st.lists(st.integers(0, n - 1), min_size=spec.num_qubits,
                     max_size=spec.num_qubits, unique=True)
        )
        params = [draw(_ANGLES) for _ in range(spec.num_params)]
        gates.append(make_gate(spec.name, qubits, params))
    layout = draw(st.permutations(range(n)))
    return n, gates, dict(enumerate(layout))


# ---------------------------------------------------------------------------
# Simulator invariants
# ---------------------------------------------------------------------------


class TestSimulatorProperties:
    @given(circuits())
    @settings(**SETTINGS)
    def test_simulation_preserves_norm(self, circuit):
        state = simulate_reference(circuit)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)

    @given(circuits(), st.integers(0, 2**32 - 1))
    @settings(**SETTINGS)
    def test_simulation_is_linear_in_global_phase(self, circuit, seed):
        init = StateVector.random_state(circuit.num_qubits, seed=seed % 1000)
        phased = StateVector(circuit.num_qubits, init.data * np.exp(0.321j))
        a = simulate_reference(circuit, init)
        b = simulate_reference(circuit, phased)
        assert a.allclose(b)

    @given(st.integers(1, 5), st.integers(0, 1000))
    @settings(**SETTINGS)
    def test_apply_matrix_unitarity(self, num_qubits, seed):
        rng = np.random.default_rng(seed)
        state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        state /= np.linalg.norm(state)
        qubit = int(rng.integers(num_qubits))
        out = apply_matrix(state, gate_matrix("h"), [qubit])
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    @given(circuits(max_gates=15))
    @settings(**SETTINGS)
    def test_circuit_inverse_property(self, circuit):
        state = simulate_reference(circuit.compose(circuit.inverse()))
        assert abs(state.amplitude(0)) == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# Shared-memory kernel lowering
# ---------------------------------------------------------------------------


class TestLoweringProperties:
    @given(laid_out_gate_sequences())
    @settings(**SETTINGS)
    def test_items_partition_the_gates_in_a_commuting_order(self, case):
        _n, gates, _layout = case
        items = lower_kernel_gates(gates)
        for item in items:
            assert set(item.qubits) == {q for g in item.gates for q in g.qubits}
            assert len(item.qubits) <= MONOMIAL_WIDTH
            assert (item.matrix is None) != (item.phases is None)
        # Every gate lands in exactly one item (equal gates are
        # interchangeable: match each to its earliest unused original) ...
        unused = list(range(len(gates)))
        order = []
        for gate in (g for item in items for g in item.gates):
            index = next(i for i in unused if gates[i] == gate)
            unused.remove(index)
            order.append(index)
        assert not unused
        # ... and two gates change their relative order only when they act
        # on disjoint qubits (a dense gate hoisted ahead of the open block).
        for a, first in enumerate(order):
            for later in order[a + 1:]:
                if later < first:
                    assert not set(gates[first].qubits) & set(gates[later].qubits)

    @given(laid_out_gate_sequences(), st.sampled_from([16, 0]), st.integers(0, 999))
    @settings(**SETTINGS)
    def test_lowered_matches_gate_at_a_time_and_the_oracle(self, case, gather_bits, seed):
        """In any layout, on either permutation path (gather / slice
        moves), the lowered items equal the per-gate stream to 1e-12 and
        the reference oracle; the compiled kernel op equals the interpreted
        items bit for bit, and the kernel template's item loop is exactly
        the items' own ops run in turn."""
        n, gates, l2p = case
        init = StateVector.random_state(n, seed=seed)
        with mock.patch.object(apply_mod, "_MONOMIAL_GATHER_BITS", gather_bits):
            items = lower_kernel_gates(gates)
            lowered, _ = apply_lowered_items(
                init.data.copy(), np.empty_like(init.data), items, l2p
            )
            ws = Workspace()
            template = kernel_template(kernel_items(items, l2p), n)
            compiled, _ = template.op(items).run(
                init.data.copy(), np.empty_like(init.data), ws
            )
            looped, _ = template.item_loop(items)(
                init.data.copy(), np.empty_like(init.data), ws
            )
            state, scratch = init.data.copy(), np.empty_like(init.data)
            for item in items:
                physical = tuple(l2p[q] for q in item.qubits)
                if item.matrix is None:
                    op = monomial_template(item.perm, physical, n).op(item.phases)
                else:
                    op = compile_unitary_op(item.matrix, physical, n)
                state, scratch = op.run(state, scratch, ws)
        assert np.array_equal(compiled, lowered)
        assert np.array_equal(state, looped)
        assert np.abs(looped - lowered).max() <= 1e-12
        per_gate, scratch = init.data.copy(), np.empty_like(init.data)
        for gate in gates:
            per_gate, scratch = apply_gate_buffered(
                per_gate, scratch, gate.matrix(), [l2p[q] for q in gate.qubits]
            )
        assert np.abs(lowered - per_gate).max() <= 1e-12
        oracle = simulate_reference(Circuit(n, [g.remap(l2p) for g in gates]), init)
        assert oracle.allclose(StateVector(n, lowered))


# ---------------------------------------------------------------------------
# Program rebinds: numeric fill over a cached structure
# ---------------------------------------------------------------------------


@st.composite
def rebind_cases(draw):
    """``(n, base gates, rebound gates, partition sets, chunks)``: a gate
    sequence over every library gate in a random layout, cut into kernels
    of alternating type, and the same sequence with every angle redrawn —
    generic or degenerate, so some rebinds keep the structure and some
    cannot."""
    n, gates, layout = draw(laid_out_gate_sequences(max_qubits=6, max_gates=24))
    rebound = [
        make_gate(g.name, g.qubits, [draw(_ANGLES) for _ in g.params]) for g in gates
    ]
    order = sorted(range(n), key=layout.get)
    cut_a, cut_b = sorted((draw(st.integers(1, n)), draw(st.integers(1, n))))
    sets = (order[:cut_a], order[cut_a:cut_b], order[cut_b:])
    chunks, start = [], 0
    while start < len(gates):
        size = draw(st.integers(1, 8))
        chunks.append((start, min(start + size, len(gates))))
        start += size
    return n, gates, rebound, sets, chunks, draw(st.booleans())


def _chunked_plan(n, gates, sets, chunks, kernelized):
    kernels = None
    if kernelized:
        kernels = KernelSequence([
            Kernel(
                gates=tuple(gates[a:b]),
                qubits=tuple(sorted({q for g in gates[a:b] for q in g.qubits})),
                kernel_type=KernelType.FUSION if i % 2 else KernelType.SHM,
                cost=1.0, gate_indices=tuple(range(a, b)),
            )
            for i, (a, b) in enumerate(chunks)
        ])
    stage = Stage(
        # Built directly: from_sets would sort each set and lose the layout.
        gates=list(gates), partition=QubitPartition(*map(tuple, sets)),
        gate_indices=list(range(len(gates))), kernels=kernels,
    )
    return ExecutionPlan(num_qubits=n, stages=[stage])


class TestRebindProperties:
    @given(rebind_cases(), st.integers(0, 999))
    @settings(**SETTINGS)
    def test_rebind_equals_cold_compile_and_interpreter(self, case, seed):
        """Whatever the angles do to the structure, ``compile_plan(rebound,
        reuse=base)`` is ``compile_plan(rebound)``: op for op, bit for bit
        single and batched, and bit for bit the interpreter — and it leaves
        the base program computing what it computed."""
        n, gates, rebound_gates, sets, chunks, kernelized = case
        base_plan = _chunked_plan(n, gates, sets, chunks, kernelized)
        plan = _chunked_plan(n, rebound_gates, sets, chunks, kernelized)
        base = compile_plan(base_plan, check_locality=False)
        init = StateVector.random_state(n, seed=seed)
        base_before = base.run(init).data.copy()
        warm = compile_plan(plan, check_locality=False, reuse=base)
        cold = compile_plan(plan, check_locality=False)
        assert [(op.kind, op.qubits, op.gates) for op in warm.ops] == [
            (op.kind, op.qubits, op.gates) for op in cold.ops
        ]
        want = cold.run(init).data
        assert np.array_equal(warm.run(init).data, want)
        states = [init, StateVector.random_state(n, seed=seed + 1)]
        for got, ref in zip(warm.run_batched(states), cold.run_batched(states)):
            assert np.array_equal(got.data, ref.data)
        if "big" not in cold.op_counts():
            # One op body: a stacked row is the flat run, bit for bit.
            for got, state in zip(cold.run_batched(states), states):
                assert np.array_equal(got.data, cold.run(state).data)
        interpreted, _ = execute_plan(plan, init, check_locality=False, compiled=False)
        assert np.array_equal(interpreted.data, want)
        assert simulate_reference(Circuit(n, rebound_gates), init).allclose(
            StateVector(n, want)
        )
        assert np.array_equal(base.run(init).data, base_before)
        # Rebinding the rebound program onto the base's angles closes the loop.
        back = compile_plan(base_plan, check_locality=False, reuse=warm)
        assert np.array_equal(back.run(init).data, base_before)


# ---------------------------------------------------------------------------
# QASM round-trip
# ---------------------------------------------------------------------------


class TestQasmProperties:
    @given(circuits(max_gates=20))
    @settings(**SETTINGS)
    def test_roundtrip_preserves_state(self, circuit):
        parsed = from_qasm(to_qasm(circuit))
        assert len(parsed) == len(circuit)
        assert simulate_reference(circuit).allclose(simulate_reference(parsed))


# ---------------------------------------------------------------------------
# Partitioning invariants
# ---------------------------------------------------------------------------


class TestKernelizationProperties:
    @given(circuits(min_qubits=4, max_qubits=7, max_gates=30), st.sampled_from([4, 16]))
    @settings(**SETTINGS)
    def test_kernelize_covers_and_respects_dependencies(self, circuit, threshold):
        ks = kernelize(circuit, config=KernelizeConfig(pruning_threshold=threshold))
        assert sorted(ks.all_gate_indices()) == list(range(len(circuit)))
        assert circuit.is_topologically_equivalent(ks.all_gate_indices())

    @given(circuits(min_qubits=4, max_qubits=6, max_gates=25))
    @settings(**SETTINGS)
    def test_kernelize_cost_never_exceeds_naive(self, circuit):
        cm = CostModel()
        atlas = kernelize(circuit, cm, KernelizeConfig(pruning_threshold=64)).total_cost
        naive = ordered_kernelize(circuit, cm).total_cost
        assert atlas <= naive + 1e-9

    @given(circuits(min_qubits=4, max_qubits=6, max_gates=25))
    @settings(**SETTINGS)
    def test_greedy_kernels_respect_width(self, circuit):
        for kernel in greedy_kernelize(circuit, max_width=4):
            assert kernel.num_qubits <= 4


class TestStagingProperties:
    @given(circuits(min_qubits=5, max_qubits=7, max_gates=25))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_staged_execution_matches_reference(self, circuit):
        n = circuit.num_qubits
        machine = MachineConfig.for_circuit(n, num_gpus=4, local_qubits=n - 2)
        from repro.core import partition

        plan, _ = partition(circuit, machine,
                            kernelize_config=KernelizeConfig(pruning_threshold=8))
        plan.validate(circuit)
        out, _ = execute_plan(plan, machine=machine)
        assert simulate_reference(circuit).allclose(out)

    @given(circuits(min_qubits=5, max_qubits=7, max_gates=25))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ilp_stage_count_at_most_heuristic(self, circuit):
        n = circuit.num_qubits
        local, regional = n - 2, 1
        global_ = n - local - regional
        ilp = stage_circuit(circuit, local, regional, global_)
        heuristic = snuqs_stage_circuit(circuit, local, regional, global_)
        assert ilp.num_stages <= heuristic.num_stages


# ---------------------------------------------------------------------------
# Layout permutations
# ---------------------------------------------------------------------------


class TestLayoutProperties:
    @given(st.integers(2, 6), st.permutations(list(range(6))), st.integers(0, 999))
    @settings(**SETTINGS)
    def test_permute_state_is_norm_preserving_and_reversible(self, n, perm, seed):
        perm = list(perm)[:n]
        if sorted(perm) != list(range(n)):
            perm = list(range(n))
        target = {q: perm[q] for q in range(n)}
        state = StateVector.random_state(n, seed=seed).data
        layout = QubitLayout(n)
        forward = permute_state(state, layout, target)
        assert np.linalg.norm(forward) == pytest.approx(1.0, abs=1e-9)
        back = permute_state(forward, QubitLayout(n, target), {q: q for q in range(n)})
        assert np.allclose(back, state)


# ---------------------------------------------------------------------------
# ILP backend agreement
# ---------------------------------------------------------------------------


class TestIlpProperties:
    @given(
        st.lists(st.integers(1, 6), min_size=3, max_size=7),
        st.integers(4, 12),
    )
    @settings(max_examples=20, deadline=None)
    def test_backends_agree_on_knapsack(self, weights, capacity):
        model = IlpModel("knapsack")
        xs = [model.binary_var(f"x{i}") for i in range(len(weights))]
        model.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= capacity)
        # Value equals weight: maximise packed weight.
        model.minimize(lin_sum(-w * x for w, x in zip(weights, xs)))
        a = solve_with_scipy(model)
        b = solve_with_branch_and_bound(model, time_limit=20)
        assert a.status.is_feasible and b.status.is_feasible
        assert a.objective == pytest.approx(b.objective, abs=1e-6)
