"""Differential tests of the staging ILP's windows, row store, canonical labels and certificate.

``core/stage.py`` proves a lower bound on the stage count and fixes ``F``
variables before the solver runs, emits the model straight into
``IlpModel``'s row store, stages every circuit in its canonical
(first-use-order) labels, and at the lower bound certifies a window-driven
staging against a proven bound on Equation (3) before building any model.
None of the four may change the stage count or the cost staging returns;
this file pins that against :func:`oracle_staging_ilp` — the
expression-algebra construction of Equations (3)–(11) that
``build_staging_ilp`` was before, kept here, unfixed, as the named oracle —
and against the MILP itself.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.core.stage as stage_mod
from repro import MachineConfig
from repro.circuits import Circuit
from repro.circuits.library import PAPER_FAMILIES, get_circuit, random_circuit
from repro.core import KernelizeConfig, fast_kernelize
from repro.core.plan import QubitPartition
from repro.core.stage import (
    _ilp_dependencies,
    _ilp_gates,
    build_staging_ilp,
    solve_staging,
    stage_circuit,
    stage_windows,
    transition_cost,
)
from repro.core.stage_heuristics import greedy_stage_circuit, snuqs_stage_circuit
from repro.ilp import IlpModel, lin_sum, solve
from repro.ilp.scipy_backend import lower_model
from repro.planner import PassManager, build_plan, legacy_pipeline

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
def staging_problems(draw, min_qubits=3, max_qubits=6, max_gates=18, with_global=None):
    """``(circuit, L, R, G)`` with every gate's non-insular qubits fitting ``L``.

    *with_global* ``True`` / ``False`` draws only ``G > 0`` / ``G = 0``.
    """
    n = draw(st.integers(min_qubits, max_qubits))
    circuit = Circuit(n, name="hypothesis")
    for _ in range(draw(st.integers(1, max_gates))):
        use_two = draw(st.booleans())
        name = draw(st.sampled_from(_TWO_QUBIT_GATES if use_two else _ONE_QUBIT_GATES))
        width = 2 if use_two else 1
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=width, unique=True))
        params = [draw(st.floats(0.01, 6.28)) for _ in range(_PARAM_COUNT.get(name, 0))]
        circuit.add(name, qubits, params)
    local = draw(st.integers(1, n - 1 if with_global else n))
    assume(all(len(g.non_insular_qubits()) <= local for g in circuit))
    if with_global is None:
        global_ = draw(st.integers(0, n - local))
    else:
        global_ = draw(st.integers(1, n - local)) if with_global else 0
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
        if result.solver_status == "certified":  # no model built, none solved
            assert (s, result.num_solves, result.model_sizes) == (windows.lower_bound, 0, [])
        else:
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


def _ilp_point(result, circuit, variables):
    """*result* as values of ``build_staging_ilp``'s A/B/F/S/T variables (circuit labels)."""
    stage_of = {i: k for k, stage in enumerate(result.stages) for i in stage.gate_indices}
    a = [[q in stage.partition.local for stage in result.stages] for q in range(circuit.num_qubits)]
    b = [[q in stage.partition.global_ for stage in result.stages] for q in range(circuit.num_qubits)]
    values = {}
    for q in range(circuit.num_qubits):
        for k in range(result.num_stages):
            values[variables["A"][q][k].index] = float(a[q][k])
            values[variables["B"][q][k].index] = float(b[q][k])
        for k in range(result.num_stages - 1):
            values[variables["S"][q][k].index] = float(a[q][k + 1] and not a[q][k])
            values[variables["T"][q][k].index] = float(b[q][k + 1] and not b[q][k])
    for g, gate in enumerate(variables["gates"]):
        for k in range(result.num_stages):
            values[variables["F"][g][k].index] = float(stage_of[gate.original_index] <= k)
    return values


class TestCertificate:
    """The certificate against the MILP, the named oracle for its cost."""

    @pytest.mark.parametrize("with_global", [False, True], ids=["G=0", "G>0"])
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_bound_and_certified_staging_against_the_milp(self, with_global, data):
        circuit, local, regional, global_ = data.draw(staging_problems(with_global=with_global))
        windows = stage_windows(circuit, local)
        s = windows.lower_bound
        milp = solve_staging(circuit, s, local, regional, global_)
        result = stage_circuit(circuit, local, regional, global_)
        if milp is None:  # the windows are loose here: nothing can be certified
            assert result.solver_status != "certified"
            return
        assert result.stage_bound <= milp.communication_cost
        if result.solver_status != "certified":
            assert result.certificate_declined or result.certificate_gap > 0
            return
        assert (result.num_stages, result.num_solves, result.certificate_gap) == (s, 0, 0.0)
        assert result.num_stages == milp.num_stages
        assert result.communication_cost == milp.communication_cost
        model, variables = build_staging_ilp(
            circuit, s, local, regional, global_, windows=windows
        )
        values = _ilp_point(result, circuit, variables)
        assert model.check_solution(values)
        assert model.objective.evaluate(values) == result.communication_cost
        for stage in result.stages:
            stage.validate_locality()

    #: Figure 9 at 16 qubits (the reduced-scale grid of
    #: ``benchmarks/test_fig9_staging.py``, R = 2): the MILP's stage count and
    #: cost per cell, family by family in ``PAPER_FAMILIES`` order.
    FIG9_16 = {
        8: [(3, 52), (3, 26), (2, 26), (2, 26), (3, 26), (2, 26), (3, 44), (3, 26),
            (7, 156), (9, 208), (3, 26)],
        10: [(3, 36), (2, 18), (2, 18), (2, 18), (2, 18), (2, 18), (3, 28), (2, 18),
             (6, 90), (8, 110), (2, 18)],
        12: [(3, 20), (2, 10), (2, 10), (2, 10), (2, 10), (2, 10), (3, 12), (2, 10),
             (5, 40), (7, 60), (2, 10)],
        14: [(3, 4), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (3, 2), (2, 2),
             (5, 8), (6, 10), (2, 2)],
    }
    FIG9_16_FALLBACKS = {(8, "dj"), (8, "ising"), (8, "qsvm"), (8, "wstate"), (10, "vqc")}

    def test_fig9_grid_certifies_39_of_44_cells_at_the_milp_cost(self):
        fallbacks = set()
        for local, cells in self.FIG9_16.items():
            for family, (stages, cost) in zip(PAPER_FAMILIES, cells):
                result = stage_circuit(get_circuit(family, 16), local, 2, 14 - local)
                assert (result.num_stages, result.communication_cost) == (stages, cost)
                assert result.stage_bound <= cost
                if result.solver_status != "certified":
                    fallbacks.add((local, family))
                    assert result.certificate_gap > 0 and result.num_solves == 1
        assert fallbacks == self.FIG9_16_FALLBACKS

    def test_one_stage_closed_form_is_the_window_staging(self):
        # Where the non-insular union fits locally, stage_circuit returns
        # _one_stage_staging; it must be what the window-driven staging
        # builds at the windows' lower bound of 1, with a bound of 0.
        probe = Circuit(8).h(0).h(1).h(2).h(3).rz(0.4, 6)  # qubits 4, 5, 7 idle
        # Qubit 2 (a control: insular, touched by an ILP gate) fills the
        # second local slot before qubit 3, which is first in use order.
        touched = Circuit(5).rz(0.4, 3).h(0).cx(2, 0)
        circuits = [probe, touched, Circuit(3)] + [
            get_circuit(family, n) for family in ("ghz", "qft", "vqc", "ising") for n in (6, 9)
        ] + [random_circuit(n, 4 * n, seed=n) for n in range(4, 11)]
        checked = 0
        for circuit in circuits:
            n = circuit.num_qubits
            for local in range(1, n + 1):
                for global_ in sorted({0, (n - local) // 2, n - local}):
                    closed = stage_mod._one_stage_staging(circuit, local, global_, 3.0)
                    problem = stage_mod._CanonicalProblem.of(circuit)
                    windows = stage_mod._stage_windows(problem.gates, problem.deps, local) \
                        if all(len(g.non_insular) <= local for g in problem.gates) else None
                    if windows is None or windows.lower_bound > 1:
                        assert closed is None
                        continue
                    bound = stage_mod._staging_bound(problem, windows, local, global_, 3.0)
                    built = stage_mod._assemble(
                        problem, *stage_mod._window_staging(problem, windows, local, global_),
                        3.0, "certified",
                    )
                    assert [(s.gate_indices, s.partition) for s in closed.stages] == [
                        (s.gate_indices, s.partition) for s in built.stages
                    ]
                    assert closed.communication_cost == built.communication_cost == bound == 0.0
                    assert (closed.lower_bound, closed.stage_bound, closed.certificate_gap) == (
                        1, 0.0, 0.0
                    )
                    checked += 1
        assert checked > 50

    def test_max_stages_below_one_admits_no_staging(self):
        with pytest.raises(RuntimeError, match=r"within 0 stages"):
            stage_circuit(Circuit(3).h(0), 3, 0, 0, max_stages=0)


class TestOneCostEvaluator:
    def test_milp_cost_is_exact_on_integer_costs(self):
        # HiGHS reports this optimum as 26.000000000000007; the extraction
        # reports Equation (3) of the partitions it extracted.
        result = stage_circuit(get_circuit("dj", 16), 8, 2, 6)
        assert result.solver_status == "optimal"
        assert result.communication_cost == 26.0

    @pytest.mark.parametrize("stager", [snuqs_stage_circuit, greedy_stage_circuit])
    def test_heuristics_report_the_same_evaluator(self, stager):
        result = stager(get_circuit("qft", 12), 8, 2, 2)
        assert result.communication_cost == transition_cost(result.partitions(), 3.0)
        assert result.communication_cost == int(result.communication_cost) > 0

    def test_transition_cost_counts_newly_local_and_newly_global(self):
        a = QubitPartition.from_sets([0, 1], [2], [3])
        b = QubitPartition.from_sets([1, 2], [3], [0])
        assert transition_cost([a], 3.0) == 0.0
        assert transition_cost([a, b], 3.0) == 1 + 3 * 1
        assert transition_cost([a, b, a], 0.5) == (1 + 0.5) + (1 + 0.5)


class TestStagingCommutesWithRelabelling:
    @given(staging_problems(), st.data())
    @settings(**SETTINGS)
    def test_relabelled_circuit_stages_to_the_image(self, problem, data):
        # (d) exact: gate indices and partitions, certified or solved.
        # Qubits no gate touches are interchangeable and keep their relative
        # order in the canonical labels, so the property is stated for
        # circuits that use every qubit.
        circuit, local, regional, global_ = problem
        assume({q for g in circuit for q in g.qubits} == set(range(circuit.num_qubits)))
        pi = dict(enumerate(data.draw(st.permutations(range(circuit.num_qubits)))))
        self._assert_image(circuit, local, regional, global_, pi)

    @pytest.mark.parametrize("family,n,local", [("qft", 8, 6), ("su2random", 8, 6), ("ae", 8, 5)])
    def test_certified_stagings_relabel_to_the_image(self, family, n, local):
        circuit = get_circuit(family, n)
        pi = dict(enumerate(np.random.default_rng(7).permutation(n).tolist()))
        ours = self._assert_image(circuit, local, n - local - 1, 1, pi)
        assert ours.solver_status == "certified"

    @staticmethod
    def _fits_locally():
        # |U| = 4 <= L = 5 < n = 8, and every qubit is used (the phases are
        # diagonal, so only the h qubits are non-insular).
        n = 8
        circuit = Circuit(n)
        for q in range(4):
            circuit.h(q)
        for a in range(n):
            for b in range(a + 1, n):
                circuit.cp(0.3 + 0.01 * a + 0.001 * b, a, b)
        machine = MachineConfig.for_circuit(n, num_shards=8, local_qubits=5)
        pi = dict(enumerate(np.random.default_rng(7).permutation(n).tolist()))
        return circuit, machine, pi

    @pytest.mark.parametrize("preset", ["balanced", "quality", "legacy"])
    def test_fits_locally_plans_relabel_to_the_image(self, preset):
        # The whole plan, not only stage_circuit: no stager of a preset (or
        # of the keyword entry points' pipeline, "legacy") pads the local
        # set by qubit label.
        circuit, machine, pi = self._fits_locally()
        planner = legacy_pipeline() if preset == "legacy" else preset
        ours, _ = build_plan(circuit, machine, planner=planner)
        theirs, report = build_plan(circuit.remap_qubits(pi), machine, planner=planner)
        assert len(theirs.stages) == len(ours.stages) == 1
        for mine, image in zip(ours.stages, theirs.stages):
            assert image.gate_indices == mine.gate_indices
            assert image.partition == QubitPartition.from_sets(
                (pi[q] for q in mine.partition.local),
                (pi[q] for q in mine.partition.regional),
                (pi[q] for q in mine.partition.global_),
            )
        assert report.pass_metrics["stage"]["solver_status"] == "certified"

    def test_staging_does_not_depend_on_the_analyze_pass(self):
        circuit, machine, pi = self._fits_locally()
        twin = circuit.remap_qubits(pi)
        rest = [("stage", {}), ("kernelize", {}), ("finalize", {})]
        plans = [
            PassManager(passes).run(twin, machine)
            for passes in ([("analyze", {})] + rest, rest)
        ]
        (with_plan, with_report), (without_plan, without_report) = plans
        assert [s.partition for s in with_plan.stages] == [s.partition for s in without_plan.stages]
        assert (
            with_report.pass_metrics["stage"]["solver_status"]
            == without_report.pass_metrics["stage"]["solver_status"]
            == "certified"
        )

    @staticmethod
    def _assert_image(circuit, local, regional, global_, pi):
        ours = stage_circuit(circuit, local, regional, global_)
        theirs = stage_circuit(circuit.remap_qubits(pi), local, regional, global_)
        assert (theirs.num_stages, theirs.solver_status) == (ours.num_stages, ours.solver_status)
        assert theirs.communication_cost == ours.communication_cost
        assert theirs.stage_bound == ours.stage_bound
        for mine, image in zip(ours.stages, theirs.stages):
            assert image.gate_indices == mine.gate_indices
            assert image.partition == QubitPartition.from_sets(
                (pi[q] for q in mine.partition.local),
                (pi[q] for q in mine.partition.regional),
                (pi[q] for q in mine.partition.global_),
            )
        return ours


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

    def test_a_lower_bound_beyond_max_stages_raises_without_a_staging(self):
        # Each swap needs both of its qubits local and L = 2: the windows
        # prove 3 stages, so max_stages = 2 admits no staging, certified or
        # solved.
        circuit = Circuit(4).swap(0, 1).swap(1, 2).swap(2, 3)
        assert stage_windows(circuit, 2).lower_bound == 3
        assert stage_circuit(circuit, 2, 1, 1).num_stages == 3
        with mock.patch.object(stage_mod, "_window_staging") as certificate, \
                mock.patch.object(stage_mod, "solve") as solver:
            with pytest.raises(RuntimeError, match=r"within 2 stages"):
                stage_circuit(circuit, 2, 1, 1, max_stages=2)
        certificate.assert_not_called()
        solver.assert_not_called()

    def test_a_staging_below_its_bound_raises(self):
        # A bound above a staging's cost is a wrong bound: it must not pass
        # for a certificate, nor be stepped over to the solver.
        circuit = Circuit(4).swap(0, 1).swap(1, 2).swap(2, 3)
        with mock.patch.object(stage_mod, "_staging_bound", return_value=99.0):
            with pytest.raises(AssertionError, match="below its proven bound 99.0"):
                stage_circuit(circuit, 2, 1, 1)
