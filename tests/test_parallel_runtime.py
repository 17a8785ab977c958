"""Tests for the parallel shard-scheduler runtime.

The contract under test: for any worker count, the parallel runtime is
**bit-exact** with the sequential offload executor (which in turn matches
``simulate_reference``), its shard accounting matches the sequential
executor's stage for stage, and the per-worker statistics sum to the run
totals.  The differential sweep covers staged planner output as well as
hand-built plans with non-local controls, shard-relabelling anti-diagonal
gates, and pure-phase reductions; a gate that mixes amplitudes along a
non-local qubit breaks the staging invariant and is refused by every
executor.  Generated plans cover the stage boundaries the shard passes
carry (gather-in loads, scatter-out stores, |0…0⟩ elision) against the
always-permute schedule, bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session
from repro.check import verify_schedule
from repro.circuits import Circuit, make_gate
from repro.circuits.library import ising, qft, random_circuit
from repro.cluster import MachineConfig
from repro.core import KernelizeConfig, partition
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.errors import KernelError, PlanValidationError
from repro.runtime import (
    ParallelRuntime,
    compile_plan,
    execute_plan_offloaded,
    execute_plan_parallel,
    faults,
    model_simulation_time,
)
from repro.runtime import offload as offload_mod
from repro.runtime.faults import FaultInjector
from repro.runtime.offload import build_schedule
from repro.sim import StateVector, simulate_reference
from repro.sim.program import Workspace

from test_property_based import SETTINGS

WORKER_COUNTS = [1, 2, 4]


def _staged_plan(circuit, machine):
    plan, _ = partition(
        circuit, machine, kernelize_config=KernelizeConfig(pruning_threshold=16)
    )
    return plan


def _hand_built_plan():
    """One stage exercising every per-shard resolution path at once.

    On a 6-qubit machine with L=3 (qubits 3, 4 regional and 5 global):

    * ``h(0)/h(1)/cx(0,1)`` — plain local gates,
    * ``x(4)`` — anti-diagonal on a regional qubit: shard relabel,
    * ``y(5)`` — anti-diagonal on the global qubit: relabel plus a
      per-transition phase,
    * ``cp(3, 4)`` — both qubits non-local: reduces to a pure per-shard
      phase,
    * ``crz(1, 5)`` — non-local *control*: the reduced gate applies only
      to shards whose control bit is set.

    The stage is one shard pass.
    """
    circuit = (
        Circuit(6)
        .h(0)
        .h(1)
        .x(4)
        .y(5)
        .cp(0.7, 3, 4)
        .crz(0.5, 1, 5)
        .cx(0, 1)
    )
    stage = Stage(
        gates=list(circuit.gates),
        partition=QubitPartition.from_sets({0, 1, 2}, {3, 4}, {5}),
        gate_indices=list(range(len(circuit.gates))),
    )
    return circuit, ExecutionPlan(num_qubits=6, stages=[stage])


@pytest.fixture
def offload_machine_6():
    """6 qubits, L=3: 8 DRAM shards streamed through 4 physical GPUs."""
    return MachineConfig.for_circuit(6, num_gpus=4, local_qubits=3)


class TestDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_exact_for_all_families(
        self, family_circuit_10, small_machine, workers
    ):
        circuit = family_circuit_10
        plan = _staged_plan(circuit, small_machine)
        sequential, seq_stats = execute_plan_offloaded(plan, small_machine)
        parallel, par_stats = execute_plan_parallel(
            plan, small_machine, num_workers=workers
        )
        # Bit-exact, not merely allclose: every shard runs the identical
        # kernel sequence on private buffers regardless of which worker
        # picks it up.
        assert np.array_equal(parallel.data, sequential.data)
        assert simulate_reference(circuit).allclose(parallel)
        assert par_stats.per_stage_loads == seq_stats.per_stage_loads
        assert par_stats.shard_loads == seq_stats.shard_loads
        assert par_stats.shard_stores == seq_stats.shard_stores
        assert par_stats.bytes_transferred == seq_stats.bytes_transferred

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_hand_built_plan_all_resolution_paths(
        self, offload_machine_6, workers
    ):
        circuit, plan = _hand_built_plan()
        init = StateVector.random_state(6, seed=3)
        sequential, seq_stats = execute_plan_offloaded(
            plan, offload_machine_6, initial_state=init
        )
        assert simulate_reference(circuit, init).allclose(sequential)
        parallel, par_stats = execute_plan_parallel(
            plan, offload_machine_6, initial_state=init, num_workers=workers
        )
        assert np.array_equal(parallel.data, sequential.data)
        # One stage, one shard pass.
        assert par_stats.per_stage_loads == [par_stats.num_shards]
        assert par_stats.per_stage_loads == seq_stats.per_stage_loads

    def test_a_stage_that_fails_to_lower_fails_the_build(self, small_machine):
        """Stages lower in order, one segment each: a compile failure at the
        second fails the build, before any shard moves, and the next build
        is whole."""
        plan = _staged_plan(qft(10), small_machine)
        assert plan.num_stages >= 2
        local = small_machine.local_qubits
        injector = FaultInjector("compile:permanent:1:1")
        faults.activate(injector)
        try:
            with pytest.raises(KernelError):
                build_schedule(plan, local)
        finally:
            faults.deactivate(injector)
        assert injector.total_fired == 1
        stages = build_schedule(plan, local).stages
        assert len(stages) == plan.num_stages
        assert all(segment is not None for _l2p, segment in stages)

    def test_workers_beyond_shards_are_clamped(self, small_machine):
        plan = _staged_plan(qft(10), small_machine)
        sequential, _ = execute_plan_offloaded(plan, small_machine)
        parallel, stats = execute_plan_parallel(
            plan, small_machine, num_workers=64
        )
        assert stats.num_workers == stats.num_shards
        assert np.array_equal(parallel.data, sequential.data)

    def test_custom_initial_state(self, small_machine):
        circuit = random_circuit(10, 40, seed=7)
        plan = _staged_plan(circuit, small_machine)
        init = StateVector.random_state(10, seed=9)
        out, _ = execute_plan_parallel(
            plan, small_machine, initial_state=init, num_workers=2
        )
        assert simulate_reference(circuit, init).allclose(out)

    def test_initial_state_size_mismatch(self, small_machine):
        plan = _staged_plan(qft(10), small_machine)
        with pytest.raises(ValueError):
            execute_plan_parallel(
                plan, small_machine, initial_state=StateVector.zero_state(8)
            )

    def test_invalid_worker_count(self, small_machine):
        with pytest.raises(ValueError):
            ParallelRuntime(small_machine, num_workers=0)

    def test_default_width_is_physical_gpus(self, small_machine):
        # small_machine has 16 DRAM shards but only 4 physical GPUs; the
        # default data-parallel width is the hardware's, not the shard
        # count.
        assert small_machine.num_shards == 16
        assert small_machine.physical_gpus == 4
        runtime = ParallelRuntime(small_machine)
        assert runtime.num_workers == 4
        runtime.close()


class TestShardPathRegression:
    """Pin the per-qubit insular classification (the `_is_cross_shard` fix).

    The old whole-gate ``is_diagonal()`` test routed any non-diagonal gate
    with a non-local qubit off the shard path, splitting the stage and
    doubling (or tripling) the shard loads.  Anti-diagonal axes must stay
    on the shard path as index relabels, preserving the
    one-load-per-stage-per-shard property the module docstring promises;
    only a genuinely mixing axis is refused.
    """

    def _run(self, circuit, machine, partition_sets):
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets(*partition_sets),
            gate_indices=list(range(len(circuit.gates))),
        )
        plan = ExecutionPlan(num_qubits=6, stages=[stage])
        init = StateVector.random_state(6, seed=17)
        out, stats = execute_plan_offloaded(plan, machine, initial_state=init)
        assert simulate_reference(circuit, init).allclose(out)
        return stats

    def test_antidiagonal_nonlocal_gate_keeps_one_load_per_shard(
        self, offload_machine_6
    ):
        # x/y on non-local qubits are per-axis anti-diagonal (insular) but
        # not globally diagonal — the case the old check got wrong.
        circuit = Circuit(6).h(0).x(4).y(5).cx(0, 1)
        stats = self._run(
            circuit, offload_machine_6, ({0, 1, 2}, {3, 4}, {5})
        )
        assert stats.per_stage_loads == [stats.num_shards]

    def test_nonlocal_control_keeps_one_load_per_shard(self, offload_machine_6):
        # crz's control is insular; cp is diagonal along both axes.
        circuit = Circuit(6).h(0).crz(0.5, 1, 5).cp(0.3, 3, 4).h(2)
        stats = self._run(
            circuit, offload_machine_6, ({0, 1, 2}, {3, 4}, {5})
        )
        assert stats.per_stage_loads == [stats.num_shards]

    @pytest.mark.parametrize("name", ["incore", "offload", "parallel"])
    def test_mixing_nonlocal_gate_is_refused_by_every_executor(
        self, offload_machine_6, name
    ):
        """h(4) genuinely mixes its axis, and qubit 4 is not local: the plan
        breaks the staging invariant, and every executor refuses it with
        the same typed error before a shard is loaded (an armed
        ``shard_load`` fault never fires).  The backend's runtime and its
        session run the next job."""
        circuit = Circuit(6).h(0).h(4).h(1)
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1, 2}, {3, 4}, {5}),
            gate_indices=list(range(len(circuit.gates))),
        )
        plan = ExecutionPlan(num_qubits=6, stages=[stage])
        with Session(offload_machine_6, backend=name) as session:
            backend = session.backend_instance(name)
            injector = FaultInjector("shard_load:permanent:99")
            faults.activate(injector)
            try:
                with pytest.raises(PlanValidationError, match="staging invariant violated"):
                    backend.run_plan(plan, offload_machine_6)
            finally:
                faults.deactivate(injector)
            assert injector.total_fired == 0
            result = session.run(qft(6)).result()
            assert result.backend == name
            assert simulate_reference(qft(6)).allclose(result.state)
            if name == "parallel":
                runtime = backend.runtime_for(offload_machine_6)
                again, _ = runtime.execute(_staged_plan(qft(6), offload_machine_6))
                assert simulate_reference(qft(6)).allclose(again)


class TestWorkerStats:
    def test_per_worker_accounting_sums_to_totals(self, small_machine):
        plan = _staged_plan(qft(10), small_machine)
        _, stats = execute_plan_parallel(plan, small_machine, num_workers=4)
        assert stats.num_workers == 4
        assert len(stats.per_worker) == 4
        assert sum(w.shard_loads for w in stats.per_worker) == stats.shard_loads
        assert sum(w.shard_stores for w in stats.per_worker) == stats.shard_stores
        assert (
            sum(w.bytes_loaded + w.bytes_stored for w in stats.per_worker)
            == stats.bytes_transferred
        )
        assert all(w.shard_loads == w.shard_stores for w in stats.per_worker)

    def test_round_robin_balances_shards(self, small_machine):
        # 16 shards over 4 workers: every worker gets exactly 4 per pass.
        plan = _staged_plan(qft(10), small_machine)
        _, stats = execute_plan_parallel(plan, small_machine, num_workers=4)
        loads = [w.shard_loads for w in stats.per_worker]
        assert len(set(loads)) == 1

    def test_sequential_executor_reports_no_workers(self, small_machine):
        plan = _staged_plan(qft(10), small_machine)
        _, stats = execute_plan_offloaded(plan, small_machine)
        assert stats.num_workers == 1
        assert stats.per_worker == []


class TestRuntimeReuse:
    def test_results_do_not_alias_runtime_buffers(self, small_machine):
        # A later execution must not overwrite an earlier returned state.
        plan = _staged_plan(qft(10), small_machine)
        with ParallelRuntime(small_machine) as runtime:
            first, _ = runtime.execute(plan)
            snapshot = first.data.copy()
            init = StateVector.random_state(10, seed=23)
            runtime.execute(plan, initial_state=init)
            runtime.execute(plan)
        assert np.array_equal(first.data, snapshot)

    def test_closed_runtime_rejects_work(self, small_machine):
        plan = _staged_plan(qft(10), small_machine)
        runtime = ParallelRuntime(small_machine)
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.execute(plan)


class TestTimelineCrossCheck:
    """The modelled shard traffic must match the measured executor's."""

    def test_modelled_loads_match_measured(self, small_machine):
        plan = _staged_plan(qft(10), small_machine)
        breakdown = model_simulation_time(plan, small_machine)
        _, stats = execute_plan_parallel(plan, small_machine)
        assert breakdown.offload_shard_loads_per_stage == stats.num_shards
        assert stats.per_stage_loads == (
            [breakdown.offload_shard_loads_per_stage] * stats.num_stages
        )
        assert breakdown.parallel_workers == stats.num_workers

    def test_uneven_shard_division_accounts_exact_loads(self):
        # 8 shards over 3 physical GPUs: the old model streamed
        # ceil(8/3) * min(8, 3) = 9 shards per stage; exactly 8 move.
        machine = MachineConfig(
            local_qubits=7,
            regional_qubits=3,
            global_qubits=0,
            gpus_per_node=3,
            gpu_memory_bytes=(1 << 7) * 16,
        )
        assert machine.num_shards == 8
        assert machine.physical_gpus == 3
        plan = _staged_plan(qft(10), machine)
        breakdown = model_simulation_time(plan, machine)
        assert breakdown.offload_shard_loads_per_stage == 8
        expected_per_stage = (
            2.0 * machine.shard_bytes * 8
            / (machine.pcie_bandwidth * machine.physical_gpus)
        )
        assert breakdown.offload_seconds == pytest.approx(
            expected_per_stage * plan.num_stages
        )

    def test_in_memory_machine_models_no_streaming(self):
        machine = MachineConfig.for_circuit(8, num_gpus=1, local_qubits=8)
        plan = _staged_plan(qft(8), machine)
        breakdown = model_simulation_time(plan, machine)
        assert breakdown.offload_shard_loads_per_stage == 0
        assert breakdown.parallel_workers == 1


# ---------------------------------------------------------------------------
# Layout transitions: a stage boundary is a shard load or a shard store
# ---------------------------------------------------------------------------


def _layout_plan(n, local, stage_specs):
    """A plan of one stage per ``(order, gates)``: ``order[p]`` is the
    logical qubit at physical position ``p``, the first *local* of them
    local.  Returns ``(plan, circuit)``."""
    stages, start = [], 0
    for order, gates in stage_specs:
        stages.append(Stage(
            # Built directly: from_sets would sort each set and lose the order.
            gates=list(gates),
            partition=QubitPartition(tuple(order[:local]), tuple(order[local:]), ()),
            gate_indices=list(range(start, start + len(gates))),
        ))
        start += len(gates)
    circuit = Circuit(n, [g for _order, gates in stage_specs for g in gates])
    return ExecutionPlan(num_qubits=n, stages=stages), circuit


def _insular_gates(local, high, angle=0.4):
    """Local dense work plus every per-shard resolution of a non-local
    qubit: a relabel, a non-local control and a phase."""
    return [
        make_gate("h", [local[0]]),
        make_gate("cx", [local[1], local[0]]),
        make_gate("x", [high[0]]),
        make_gate("crz", [local[2], high[1]], [angle]),
        make_gate("rz", [high[-1]], [angle + 0.3]),
    ]


_ANGLE = st.floats(0.1, 6.0, allow_nan=False, allow_infinity=False)


@st.composite
def layout_cases(draw):
    """``(n, L, plan, circuit)``: 1–3 stages at 6–12 qubits, each stage's
    layout random or one to three position swaps from the previous one —
    so over the examples every boundary kind fires: gather, scatter,
    permute, and elided on |0…0⟩ — with relabelling, controlled and phase
    gates on non-local qubits, and now and then a stage without gates,
    which runs no pass and so carries no boundary."""
    n = draw(st.integers(6, 12))
    local = draw(st.integers(3, n - 1))
    order = list(range(n))
    specs = []
    for _stage in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            order = list(draw(st.permutations(range(n))))
        else:
            order = list(order)
            for _swap in range(draw(st.integers(1, 3))):
                a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                order[a], order[b] = order[b], order[a]
        low, high = order[:local], order[local:]
        gates = []
        for _gate in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(["dense", "pair", "relabel", "phase", "control"]))
            if kind == "dense":
                gates.append(make_gate("ry", [draw(st.sampled_from(low))], [draw(_ANGLE)]))
            elif kind == "pair":
                a, b = draw(st.lists(st.sampled_from(low), min_size=2, max_size=2, unique=True))
                gates.append(make_gate("cx", [a, b]))
            elif kind == "relabel":
                gates.append(make_gate(draw(st.sampled_from(["x", "y"])), [draw(st.sampled_from(high))]))
            elif kind == "phase":
                a = draw(st.sampled_from(high))
                b = draw(st.sampled_from([q for q in order if q != a]))
                gates.append(make_gate("cp", [b, a], [draw(_ANGLE)]))
            else:
                gates.append(make_gate(
                    "crz", [draw(st.sampled_from(low)), draw(st.sampled_from(high))],
                    [draw(_ANGLE)],
                ))
        specs.append((list(order), gates))
    return (n, local, *_layout_plan(n, local, specs))


#: ``order[p]`` per stage on 7 qubits with L = 4, picked so that the
#: boundaries are, in turn: gather (elided from |0…0⟩), scatter, permute,
#: gather, and a scatter back to logical order.
BOUNDARY_KIND_ORDERS = [
    [0, 1, 2, 3, 5, 4, 6],
    [3, 1, 2, 6, 5, 4, 0],
    [5, 1, 2, 6, 3, 4, 0],
    [0, 1, 2, 5, 3, 4, 6],
]


def boundary_kinds_plan():
    """``(plan, circuit)`` over :data:`BOUNDARY_KIND_ORDERS`, one shard
    pass per stage."""
    return _layout_plan(7, 4, [
        (order, _insular_gates(order[:4], order[4:], 0.2 + k))
        for k, order in enumerate(BOUNDARY_KIND_ORDERS)
    ])


def _permute_oracle(plan, local):
    """*plan*'s schedule with the boundary rule answering "permute" every
    time: the full-state permute at every boundary, as the stage driver
    ran before boundaries moved into the shard passes."""
    with mock.patch.object(offload_mod, "in_pass_moves", lambda old, new, local_qubits: ()):
        return build_schedule(plan, local)


class TestLayoutTransitions:
    @given(layout_cases(), st.booleans(), st.integers(0, 999))
    @settings(**{**SETTINGS, "max_examples": 30})
    def test_in_pass_moves_equal_the_permute_oracle(self, case, given_state, seed):
        """Gathers and scatters move amplitudes and nothing else: every
        executor equals the always-permute schedule bit for bit, from a
        given state and from |0…0⟩, and counts every boundary that moves
        the layout once, on one of the two paths."""
        n, local, plan, circuit = case
        machine = MachineConfig.for_circuit(n, local_qubits=local)
        init = StateVector.random_state(n, seed=seed) if given_state else None
        schedule = build_schedule(plan, local)
        assert verify_schedule(plan, machine, num_workers=4, schedule=schedule).ok
        want, oracle = execute_plan_offloaded(
            plan, machine, init, schedule=_permute_oracle(plan, local)
        )
        got, stats = execute_plan_offloaded(plan, machine, init, schedule=schedule)
        assert np.array_equal(got.data, want.data)
        assert simulate_reference(circuit, init).allclose(got)
        counts = (stats.layout_permutes, stats.layout_in_pass)
        assert sum(counts) == oracle.layout_permutes + oracle.layout_in_pass
        assert stats.per_stage_loads == oracle.per_stage_loads
        for workers in WORKER_COUNTS:
            with ParallelRuntime(machine, num_workers=workers) as runtime:
                par, par_stats = runtime.execute(plan, init, schedule=schedule)
            assert np.array_equal(par.data, want.data), workers
            assert (par_stats.layout_permutes, par_stats.layout_in_pass) == counts

    def test_every_boundary_kind_is_recorded_and_counted(self):
        plan, circuit = boundary_kinds_plan()
        machine = MachineConfig.for_circuit(7, local_qubits=4)
        layouts = [dict(zip(order, range(7))) for order in BOUNDARY_KIND_ORDERS]
        identity = {q: q for q in range(7)}
        schedule = build_schedule(plan, 4)
        moves = [
            (seg.load_from, seg.store_to, seg.in_place)
            for _l2p, seg in schedule.stages
        ]
        assert moves == [
            (identity, layouts[1], False),
            (None, None, False),  # relabels: stores out of place anyway
            (None, None, False),
            (layouts[2], identity, False),
        ]
        want = execute_plan_offloaded(plan, machine, schedule=_permute_oracle(plan, 4))[0]
        assert simulate_reference(circuit).allclose(want)
        init = StateVector.random_state(7, seed=4)
        want_init = execute_plan_offloaded(
            plan, machine, init, schedule=_permute_oracle(plan, 4)
        )[0]
        # From |0…0⟩ the first gather is elided; from a given state, or
        # under a monitor, it runs.  Either way one permute is left.
        for run_init, monitor, ref in ((None, None, want), (init, None, want_init), (None, True, want)):
            got, stats = execute_plan_offloaded(plan, machine, run_init, monitor=monitor)
            assert np.array_equal(got.data, ref.data)
            assert (stats.layout_permutes, stats.layout_in_pass) == (1, 4)
            assert stats.shard_loads == 4 * stats.num_shards

    def test_a_stage_without_gates_runs_no_pass(self):
        """A gather needs the stage's pass: a stage without gates runs none,
        loads no shard, and the boundary into it is left to the permute
        (or, from |0…0⟩, elided); the next stage gathers out of its layout
        and scatters back to logical order."""
        order = BOUNDARY_KIND_ORDERS[3]
        specs = [(BOUNDARY_KIND_ORDERS[2], []), (order, _insular_gates(order[:4], order[4:]))]
        plan, circuit = _layout_plan(7, 4, specs)
        machine = MachineConfig.for_circuit(7, local_qubits=4)
        schedule = build_schedule(plan, 4)
        empty, opened = schedule.stages[0][1], schedule.stages[1][1]
        assert empty is None and opened.load_from == schedule.stages[0][0]
        assert opened.store_to == {q: q for q in range(7)}
        assert verify_schedule(plan, machine, num_workers=4, schedule=schedule).ok
        init = StateVector.random_state(7, seed=8)
        for run_init, counts in ((init, (1, 2)), (None, (0, 3))):
            got, stats = execute_plan_offloaded(plan, machine, run_init, schedule=schedule)
            assert stats.per_stage_loads == [0, stats.num_shards]
            assert (stats.layout_permutes, stats.layout_in_pass) == counts
            want = execute_plan_offloaded(
                plan, machine, run_init, schedule=_permute_oracle(plan, 4)
            )[0]
            assert np.array_equal(got.data, want.data)
            assert simulate_reference(circuit, run_init).allclose(got)
            for workers in WORKER_COUNTS:
                with ParallelRuntime(machine, num_workers=workers) as runtime:
                    par, par_stats = runtime.execute(plan, run_init, schedule=schedule)
                assert np.array_equal(par.data, got.data), workers
                assert par_stats.per_stage_loads == stats.per_stage_loads

    @pytest.mark.parametrize(
        "family,counts", [(qft, (1, 2)), (ising, (0, 2))], ids=["qft-20", "ising-20"]
    )
    def test_benchmark_workload_moves(self, family, counts):
        """The repo benchmark's shard-stream machine and plans: qft keeps one
        of its three boundaries as a permute and moves two in the pass;
        ising moves two in the pass and elides the third.  A generated or
        gathered load is still one shard load.  (Re-pinned from (0, 3) and
        (1, 2) when staging began to certify a window-driven staging.)"""
        machine = MachineConfig.for_circuit(20, num_shards=2, local_qubits=17)
        with Session(machine) as session:
            plan, *_ = session.plan_for(family(20), machine, "parallel")
        schedule = build_schedule(plan, machine.local_qubits)
        offload, stats = execute_plan_offloaded(plan, machine, schedule=schedule)
        with ParallelRuntime(machine, num_workers=2) as runtime:
            parallel, par_stats = runtime.execute(plan, schedule=schedule)
        assert np.array_equal(parallel.data, offload.data)
        for s in (stats, par_stats):
            assert (s.layout_permutes, s.layout_in_pass) == counts
            assert s.num_stages == 2 and s.shard_loads == 16
            assert s.per_stage_loads == [8, 8]
