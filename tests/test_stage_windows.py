"""Differential tests of the staging ILP's windows, row store and canonical labels.

``core/stage.py`` proves a lower bound on the stage count and fixes ``F``
variables before the solver runs, emits the model straight into
``IlpModel``'s row store, and stages every circuit in its canonical
(first-use-order) labels.  None of the three may change what staging
returns; this file pins that against :func:`oracle_staging_ilp` — the
expression-algebra construction of Equations (3)–(11) that
``build_staging_ilp`` was before, kept here, unfixed, as the named oracle.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.core.stage as stage_mod
from repro.circuits import Circuit
from repro.circuits.library import random_circuit
from repro.core import KernelizeConfig, fast_kernelize
from repro.core.plan import QubitPartition
from repro.core.stage import (
    _ilp_dependencies,
    _ilp_gates,
    build_staging_ilp,
    stage_circuit,
    stage_windows,
)
from repro.ilp import IlpModel, lin_sum, solve
from repro.ilp.scipy_backend import lower_model

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def oracle_staging_ilp(circuit, num_stages, local_qubits, regional_qubits, global_qubits,
                       inter_node_cost_factor=3.0):
    """Equations (3)–(11) through the expression algebra, no window applied."""
    n = circuit.num_qubits
    assert local_qubits + regional_qubits + global_qubits == n
    s = num_stages
    gates = _ilp_gates(circuit)
    deps = _ilp_dependencies(circuit, gates)

    model = IlpModel(name=f"oracle_{circuit.name}_s{s}")
    a_vars = [[model.binary_var(f"A_{q}_{k}") for k in range(s)] for q in range(n)]
    b_vars = [[model.binary_var(f"B_{q}_{k}") for k in range(s)] for q in range(n)]
    f_vars = [[model.binary_var(f"F_{g}_{k}") for k in range(s)] for g in range(len(gates))]
    s_vars = [[model.binary_var(f"S_{q}_{k}") for k in range(s - 1)] for q in range(n)]
    t_vars = [[model.binary_var(f"T_{q}_{k}") for k in range(s - 1)] for q in range(n)]

    # Objective (3).
    objective_terms = []
    for q in range(n):
        for k in range(s - 1):
            objective_terms.append(s_vars[q][k])
            objective_terms.append(inter_node_cost_factor * t_vars[q][k])
    model.minimize(lin_sum(objective_terms))

    for q in range(n):
        for k in range(s - 1):
            model.add_constraint(a_vars[q][k + 1] - a_vars[q][k] - s_vars[q][k] <= 0)  # (4)
            model.add_constraint(b_vars[q][k + 1] - b_vars[q][k] - t_vars[q][k] <= 0)  # (5)
    for g in range(len(gates)):
        for k in range(s - 1):
            model.add_constraint(f_vars[g][k] - f_vars[g][k + 1] <= 0)  # (6)
        for q in gates[g].non_insular:  # (7)
            for k in range(s):
                if k == 0:
                    model.add_constraint(f_vars[g][0] - a_vars[q][0] <= 0)
                else:
                    model.add_constraint(f_vars[g][k] - f_vars[g][k - 1] - a_vars[q][k] <= 0)
        model.add_eq(f_vars[g][s - 1], 1)  # (9)
    for g1, g2 in deps:  # (8)
        for k in range(s):
            model.add_constraint(f_vars[g2][k] - f_vars[g1][k] <= 0)
    for q in range(n):
        for k in range(s):
            model.add_constraint(a_vars[q][k] + b_vars[q][k] <= 1)  # (10)
    for k in range(s):  # (11)
        model.add_eq(lin_sum([a_vars[q][k] for q in range(n)]), local_qubits)
        model.add_eq(lin_sum([b_vars[q][k] for q in range(n)]), global_qubits)
    return model


def oracle_minimum_stages(circuit, local, regional, global_, backend="scipy", limit=12):
    """Iterate the oracle model from ``s = 1``; ``(s, solution, model)`` of the first feasible."""
    for s in range(1, limit + 1):
        model = oracle_staging_ilp(circuit, s, local, regional, global_)
        solution = solve(model, backend=backend, time_limit=30)
        if solution.status.is_feasible:
            return s, solution, model
    raise AssertionError(f"oracle found no staging within {limit} stages")


_ONE_QUBIT_GATES = ["h", "x", "z", "t", "rx", "ry", "rz"]
_TWO_QUBIT_GATES = ["cx", "cz", "cp", "swap", "rzz", "cry"]
_PARAM_COUNT = {"rx": 1, "ry": 1, "rz": 1, "cp": 1, "rzz": 1, "cry": 1}


@st.composite
def staging_problems(draw, min_qubits=3, max_qubits=6, max_gates=18):
    """``(circuit, L, R, G)`` with every gate's non-insular qubits fitting ``L``."""
    n = draw(st.integers(min_qubits, max_qubits))
    circuit = Circuit(n, name="hypothesis")
    for _ in range(draw(st.integers(1, max_gates))):
        use_two = draw(st.booleans())
        name = draw(st.sampled_from(_TWO_QUBIT_GATES if use_two else _ONE_QUBIT_GATES))
        width = 2 if use_two else 1
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=width, unique=True))
        params = [draw(st.floats(0.01, 6.28)) for _ in range(_PARAM_COUNT.get(name, 0))]
        circuit.add(name, qubits, params)
    local = draw(st.integers(1, n))
    assume(all(len(g.non_insular_qubits()) <= local for g in circuit))
    global_ = draw(st.integers(0, n - local))
    return circuit, local, n - local - global_, global_


def _lowered(model):
    c, matrix, lo, hi, integrality, lower, upper = lower_model(model)
    return c, matrix.toarray(), lo, hi, integrality, lower, upper


class TestRowStoreAgainstOracle:
    @given(staging_problems(), st.integers(1, 4), st.sampled_from([0.0, 1.0, 3.0]))
    @settings(**SETTINGS)
    def test_unwindowed_model_lowers_to_the_oracle_model(self, problem, s, factor):
        # (a) matrix, row bounds, objective, integrality and variable bounds.
        circuit, local, regional, global_ = problem
        model, _ = build_staging_ilp(circuit, s, local, regional, global_, factor)
        oracle = oracle_staging_ilp(circuit, s, local, regional, global_, factor)
        assert [v.name for v in model.variables] == [v.name for v in oracle.variables]
        for ours, theirs in zip(_lowered(model), _lowered(oracle)):
            assert np.array_equal(ours, theirs)

    @given(staging_problems(), st.integers(1, 4))
    @settings(**SETTINGS)
    def test_windows_only_touch_bounds_of_f(self, problem, s):
        circuit, local, regional, global_ = problem
        windows = stage_windows(circuit, local)
        assume(s >= windows.lower_bound)
        fixed, variables = build_staging_ilp(circuit, s, local, regional, global_, windows=windows)
        free, _ = build_staging_ilp(circuit, s, local, regional, global_)
        ours, theirs = _lowered(fixed), _lowered(free)
        for i in range(5):  # objective, matrix, row bounds, integrality
            assert np.array_equal(ours[i], theirs[i])
        f_indices = {v.index for row in variables["F"] for v in row}
        moved = set(np.flatnonzero((ours[5] != theirs[5]) | (ours[6] != theirs[6])))
        assert moved <= f_indices


    @pytest.mark.parametrize("backend", ["scipy", "branch-and-bound"])
    def test_rows_and_expressions_share_one_store(self, backend):
        # min x + y  s.t.  2 <= x + 2y <= 3 (a two-sided row, emitted
        # directly), y <= 1 (expression algebra), x, y integer in [0, 5].
        model = IlpModel("mixed")
        x, y = model.integer_var("x", 0, 5), model.integer_var("y", 0, 5)
        model.add_row((x.index, y.index), (1.0, 2.0), 2.0, 3.0)
        model.add_constraint(y <= 1)
        model.minimize(x + y)
        assert model.num_constraints == 2
        solution = solve(model, backend=backend)
        assert solution.objective == pytest.approx(1.0)  # y = 1, x = 0
        assert model.check_solution(solution.values)
        assert not model.check_solution({x.index: 0.0, y.index: 0.0})  # below the row
        assert not model.check_solution({x.index: 4.0, y.index: 0.0})  # above it


class TestWindowsAreValid:
    @given(staging_problems())
    @settings(**SETTINGS)
    def test_bound_never_exceeds_the_oracle_minimum(self, problem):
        # (b) — and every gate of the oracle's optimum sits inside its window.
        circuit, local, regional, global_ = problem
        windows = stage_windows(circuit, local)
        s, solution, _ = oracle_minimum_stages(circuit, local, regional, global_)
        assert windows.lower_bound <= s
        base = 2 * circuit.num_qubits * s  # F follows the A and B blocks
        for g in range(len(windows.earliest)):
            finished = [round(solution.values[base + g * s + k]) for k in range(s)]
            stage = finished.index(1) + 1
            assert windows.earliest[g] <= stage <= s - windows.latest_from_end[g] + 1

    @given(staging_problems())
    @settings(**SETTINGS)
    def test_fixed_and_unfixed_models_agree(self, problem):
        # (c) same stage count, same cost, and the fixed optimum is a
        # feasible point of the unfixed oracle model.
        circuit, local, regional, global_ = problem
        s, oracle_solution, oracle = oracle_minimum_stages(circuit, local, regional, global_)
        windows = stage_windows(circuit, local)
        for fewer in range(windows.lower_bound, s):
            fixed, _ = build_staging_ilp(
                circuit, fewer, local, regional, global_, windows=windows
            )
            assert not solve(fixed).status.is_feasible
        fixed, _ = build_staging_ilp(circuit, s, local, regional, global_, windows=windows)
        solution = solve(fixed)
        assert solution.status.is_feasible
        assert solution.objective == pytest.approx(oracle_solution.objective, abs=1e-6)
        assert oracle.check_solution(solution.values)

        result = stage_circuit(circuit, local, regional, global_)
        assert result.num_stages == s
        assert result.communication_cost == pytest.approx(oracle_solution.objective, abs=1e-6)
        assert result.lower_bound == windows.lower_bound
        assert result.num_solves == s - windows.lower_bound + 1

    @given(staging_problems(max_qubits=5, max_gates=10))
    @settings(**{**SETTINGS, "max_examples": 15})
    def test_backends_agree_on_fixed_models(self, problem):
        # (e)
        circuit, local, regional, global_ = problem
        a = stage_circuit(circuit, local, regional, global_, backend="scipy")
        b = stage_circuit(circuit, local, regional, global_, backend="branch-and-bound",
                          time_limit=30)
        assert a.num_stages == b.num_stages
        assert a.communication_cost == pytest.approx(b.communication_cost, abs=1e-6)

    def test_loose_bound_still_iterates(self):
        # The relaxation admits a gate when *some* local set could have run
        # its ancestors, not one set for all of a stage's gates, so it can
        # be short of the minimum: here it proves 4 stages and the ILP needs
        # 5.  The loop walks up from the bound and reports both solves.
        circuit = random_circuit(6, 40, seed=1)
        result = stage_circuit(circuit, 3, 1, 2)
        assert (result.lower_bound, result.num_stages, result.num_solves) == (4, 5, 2)
        assert len(result.model_sizes) == 2
        assert oracle_minimum_stages(circuit, 3, 1, 2)[0] == 5


class TestStagingCommutesWithRelabelling:
    @given(staging_problems(), st.data())
    @settings(**SETTINGS)
    def test_relabelled_circuit_stages_to_the_image(self, problem, data):
        # (d) exact: gate indices and partitions.  Qubits no gate touches
        # are interchangeable and keep their relative order in the canonical
        # labels, so the property is stated for circuits that use every qubit.
        circuit, local, regional, global_ = problem
        assume({q for g in circuit for q in g.qubits} == set(range(circuit.num_qubits)))
        pi = dict(enumerate(data.draw(st.permutations(range(circuit.num_qubits)))))
        ours = stage_circuit(circuit, local, regional, global_)
        theirs = stage_circuit(circuit.remap_qubits(pi), local, regional, global_)
        assert theirs.num_stages == ours.num_stages
        assert theirs.communication_cost == ours.communication_cost
        for mine, image in zip(ours.stages, theirs.stages):
            assert image.gate_indices == mine.gate_indices
            assert image.partition == QubitPartition.from_sets(
                (pi[q] for q in mine.partition.local),
                (pi[q] for q in mine.partition.regional),
                (pi[q] for q in mine.partition.global_),
            )


class TestKernelizationCommutesWithRelabelling:
    @given(
        staging_problems(max_gates=30),
        st.sampled_from([1, 5, 100]),
        st.sampled_from([None, 3, 4]),
        st.booleans(),
        st.data(),
    )
    @settings(**SETTINGS)
    def test_relabelled_gates_kernelize_to_the_image(self, problem, beam, width, subsume, data):
        # Every DP operation is a mask operation equivariant under a qubit
        # permutation, and every order it imposes is by gate index or kernel
        # creation: the same ordered kernels, types and costs come back, on
        # the image qubits.  No every-qubit-used caveat — idle qubits never
        # enter a mask.
        circuit = problem[0]
        pi = dict(enumerate(data.draw(st.permutations(range(circuit.num_qubits)))))
        config = KernelizeConfig(
            pruning_threshold=beam, max_kernel_width=width, subsume=subsume
        )
        ours = fast_kernelize(circuit, config=config)
        theirs = fast_kernelize(circuit.remap_qubits(pi), config=config)
        assert [
            (k.gate_indices, k.kernel_type, k.cost, k.qubits) for k in theirs
        ] == [
            (k.gate_indices, k.kernel_type, k.cost, tuple(sorted(pi[q] for q in k.qubits)))
            for k in ours
        ]


class TestFailFast:
    def test_oversized_gate_raises_before_any_model_is_solved(self):
        # A swap needs 2 local qubits; L = 1 can never host it.  The error
        # names the gate, and no model is built or solved on the way to it.
        circuit = Circuit(3).h(0).swap(0, 1)
        with mock.patch.object(stage_mod, "solve") as solver, \
                mock.patch.object(stage_mod, "_staging_model") as builder:
            with pytest.raises(RuntimeError, match=r"no feasible staging: gate 1 has 2"):
                stage_circuit(circuit, 1, 1, 1)
        solver.assert_not_called()
        builder.assert_not_called()
