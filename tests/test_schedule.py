"""A shard schedule is a program (`runtime/offload.py::build_schedule`).

The contract under test: a sharded plan lowers to a :class:`Schedule` whose
shards-segments are bound through the plan compiler's slots; rebinding an
earlier schedule of the same structure (``reuse=``) equals a cold build —
entry for entry, and bit for bit on the sequential executor and on the
parallel one at every worker count; what does not fit the structure is
built cold; the Session plan cache holds the schedule next to the in-core
program and is the only thing that does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig, Session
from repro.circuits import Circuit, make_gate
from repro.circuits.library import CIRCUIT_FAMILIES, vqc
from repro.core import KernelizeConfig, partition
from repro.errors import SessionClosedError
from repro.runtime import ParallelRuntime, compile as compile_mod, execute_plan_offloaded
from repro.runtime import parallel as parallel_mod
from repro.runtime.offload import Schedule, build_schedule
from repro.session.backends import BACKENDS, ParallelBackend, register_backend
from repro.session.cache import rebind_plan
from repro.sim import StateVector, simulate_reference
from repro.sim.program import CompiledProgram

from test_property_based import SETTINGS, _chunked_plan, rebind_cases

WORKERS = (1, 2, 4)


def entries(schedule):
    """What a schedule executes, comparable with ``==``: per stage the
    layout, per segment its kind, relabel flag and compiled entries."""
    return [
        (l2p, [
            (seg.kind, seg.relabels, seg.ops if seg.ops is None else [
                (kind, payload if kind == "dynamic"
                 else (payload.kind, payload.qubits, payload.gates))
                for kind, payload in seg.ops
            ])
            for seg in segments
        ])
        for l2p, segments in schedule.stages
    ]


def assert_rebind_equals_cold(base_plan, plan, machine, seed):
    """``build_schedule(plan, reuse=base)`` against ``build_schedule(plan)``
    on every executor, from |0...0> and from a random state; the base
    schedule still computes what it computed."""
    local, n = machine.local_qubits, plan.num_qubits
    base = build_schedule(base_plan, local)
    base_before = execute_plan_offloaded(base_plan, machine, schedule=base)[0].data.copy()
    warm = build_schedule(plan, local, reuse=base)
    cold = build_schedule(plan, local)
    assert not cold.rebound and not base.rebound
    assert entries(warm) == entries(cold)
    shared = [
        new.ops.structure is old.ops.structure
        for (_l2p, news), (_l2p_old, olds) in zip(warm.stages, base.stages)
        for new, old in zip(news, olds)
        if new.kind == old.kind == "shards"
    ]
    if warm.rebound:
        assert all(shared)
    for init in (None, StateVector.random_state(n, seed=seed)):
        want = execute_plan_offloaded(plan, machine, init, schedule=cold)[0].data
        assert np.array_equal(execute_plan_offloaded(plan, machine, init)[0].data, want)
        assert np.array_equal(
            execute_plan_offloaded(plan, machine, init, schedule=warm)[0].data, want
        )
        for workers in WORKERS:
            with ParallelRuntime(machine, num_workers=workers) as runtime:
                for schedule in (warm, cold, None):
                    got, _ = runtime.execute(plan, init, schedule=schedule)
                    assert np.array_equal(got.data, want), workers
    assert np.array_equal(
        execute_plan_offloaded(base_plan, machine, schedule=base)[0].data, base_before
    )
    return warm


def redrawn(circuit, rng, angle=None):
    """*circuit* with fresh generic angles; *angle* replaces about half."""
    gates = []
    for g in circuit.gates:
        params = rng.uniform(0.1, 6.0, len(g.params))
        if angle is not None:
            params = np.where(rng.random(len(params)) < 0.5, angle, params)
        gates.append(make_gate(g.name, g.qubits, params))
    return Circuit(circuit.num_qubits, gates, name=circuit.name)


class TestScheduleRebindDifferential:
    @given(rebind_cases(), st.integers(0, 999))
    @settings(**{**SETTINGS, "max_examples": 15})
    def test_generated_plans(self, case, seed):
        """Every library gate in a random layout with a random shard size:
        gates on non-local qubits are dynamic, relabelling or full-state,
        and redrawn angles — degenerate ones included — move gates between
        those classes, so some segments rebind and some cannot."""
        n, gates, rebound_gates, sets, chunks, kernelized = case
        machine = MachineConfig.for_circuit(n, local_qubits=len(sets[0]))
        base_plan = _chunked_plan(n, gates, sets, chunks, kernelized)
        plan = _chunked_plan(n, rebound_gates, sets, chunks, kernelized)
        assert_rebind_equals_cold(base_plan, plan, machine, seed)
        want = simulate_reference(Circuit(n, rebound_gates))
        assert want.allclose(execute_plan_offloaded(plan, machine)[0])

    @pytest.mark.parametrize("family", sorted(CIRCUIT_FAMILIES))
    def test_library_families(self, family):
        """Planner-made plans (several stages, permuted layouts, dynamic
        gates) of every family, rebound onto generic and degenerate
        angles."""
        rng = np.random.default_rng(11)
        template = CIRCUIT_FAMILIES[family](7)
        machine = MachineConfig.for_circuit(7, num_shards=4, local_qubits=5)
        base_plan, _ = partition(
            redrawn(template, rng), machine,
            kernelize_config=KernelizeConfig(pruning_threshold=16),
        )
        parameterized = any(g.params for g in template.gates)
        for angle in (None, 0.0, np.pi, 1e-13):
            circuit = redrawn(template, rng, angle)
            plan = rebind_plan(base_plan, circuit)
            warm = assert_rebind_equals_cold(base_plan, plan, machine, seed=3)
            if angle is None or not parameterized:
                assert warm.rebound
            assert simulate_reference(circuit).allclose(
                execute_plan_offloaded(plan, machine, schedule=warm)[0]
            )

    def test_a_rebind_takes_unchanged_ops_verbatim_and_refills_the_rest(self):
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        base_plan, _ = partition(vqc(8, seed=0), machine)
        base = build_schedule(base_plan, machine.local_qubits)
        warm = build_schedule(
            rebind_plan(base_plan, vqc(8, seed=1)), machine.local_qubits, reuse=base
        )
        assert warm.rebound
        kept = refilled = 0
        for (_l2p, news), (_l2p_old, olds) in zip(warm.stages, base.stages):
            for new, old in zip(news, olds):
                for (kind, op), (_kind, was) in zip(new.ops, old.ops):
                    if kind == "local":
                        assert (op is was) == (op.gates == was.gates)
                        kept += op is was
                        refilled += op is not was
        assert kept and refilled

    def test_a_degraded_segment_is_built_cold_by_the_next_build(self):
        """``ops is None`` (a failed compile) is that schedule's: a rebind
        from it compiles the segment again and is not a rebind."""
        from repro.runtime import faults
        from repro.runtime.faults import FaultInjector

        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        plan, _ = partition(vqc(8, seed=0), machine)
        injector = FaultInjector("compile:permanent:1")
        faults.activate(injector)
        try:
            degraded = build_schedule(plan, machine.local_qubits)
        finally:
            faults.deactivate(injector)
        assert degraded.fallbacks == 1
        assert [seg.ops is None for _l2p, segs in degraded.stages for seg in segs].count(True) == 1
        healed = build_schedule(plan, machine.local_qubits, reuse=degraded)
        assert healed.fallbacks == 0 and not healed.rebound
        assert entries(healed) == entries(build_schedule(plan, machine.local_qubits))
        want, stats = execute_plan_offloaded(plan, machine, schedule=healed)
        assert stats.fallbacks == 0
        got, stats = execute_plan_offloaded(plan, machine, schedule=degraded)
        assert stats.fallbacks == 1 and np.array_equal(got.data, want.data)

    def test_run_batch_over_one_plan_builds_one_schedule(self, monkeypatch):
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        plan, _ = partition(vqc(8, seed=0), machine)
        builds = []
        real = parallel_mod.build_schedule
        monkeypatch.setattr(
            parallel_mod, "build_schedule",
            lambda *args, **kwargs: builds.append(1) or real(*args, **kwargs),
        )
        inits = [StateVector.random_state(8, seed=s) for s in range(3)]
        with ParallelRuntime(machine, num_workers=2) as runtime:
            outs = runtime.run_batch(plan, initial_states=inits)
            assert len(builds) == 1
            runtime.execute(plan)  # a direct caller that passes none: cold
            assert len(builds) == 2
            assert not any(isinstance(v, Schedule) for v in vars(runtime).values())
        for init, (state, _stats) in zip(inits, outs):
            assert np.array_equal(
                state.data, execute_plan_offloaded(plan, machine, init)[0].data
            )

    def test_run_batch_checks_before_it_compiles(self, monkeypatch):
        """A closed runtime, a plan the machine cannot hold and an empty
        batch raise / return what ``execute`` would, without compile work
        (which could consume a one-shot compile fault)."""
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        plan, _ = partition(vqc(8, seed=0), machine)
        small = MachineConfig.for_circuit(4, num_shards=2, local_qubits=3)
        monkeypatch.setattr(
            parallel_mod, "build_schedule",
            lambda *args, **kwargs: pytest.fail("compiled before the checks"),
        )
        with ParallelRuntime(machine, num_workers=2) as runtime:
            assert runtime.run_batch(plan, initial_states=[]) == []
        with pytest.raises(SessionClosedError):
            runtime.run_batch(plan, initial_states=[None])
        with ParallelRuntime(small, num_workers=2) as runtime:
            with pytest.raises(ValueError):
                runtime.run_batch(plan, initial_states=[None])


SHARDED = ("offload", "parallel")


class TestSessionHoldsTheSchedule:
    N = 8

    @pytest.fixture()
    def machine(self):
        return MachineConfig.for_circuit(self.N, num_shards=4, local_qubits=6)

    @staticmethod
    def circuit(a, b, c, seed=0):
        """A vqc with three more rotations; rx(a) and rx(b) share a qubit."""
        return vqc(8, seed=seed).rx(a, 2).rx(b, 2).ry(c, 5).cx(2, 5)

    @staticmethod
    def cold_state(machine, backend, circuit):
        with Session(machine, backend=backend, planner="fast") as solo:
            return solo.run(circuit).result().state.data

    @pytest.mark.parametrize("backend", SHARDED)
    def test_degenerate_angles_inside_a_sweep_take_the_cold_path(
        self, machine, backend, monkeypatch
    ):
        """rx(0) and ry(pi) change the structural key (their own plan and
        schedule); a product leaving its template's class — rx(a)·rx(-a),
        staged as in ``test_dense_fold.py``: with fused multiply-add a 1e-17
        residue survives the cancellation — and rx(1e-13) against rx(0)
        keep the key and fail the rebind.  Each is a counted miss, leaves
        the cached schedule as it was, and is bit-exact with a cold
        session."""
        walk = [
            ("generic", self.circuit(0.4, 1.1, 0.9), (0, 1)),
            ("generic-again", self.circuit(0.7, 0.3, 2.2, seed=1), (1, 1)),
            ("rx(0)", self.circuit(0.0, 1.1, 0.9, seed=2), (1, 2)),
            ("ry(pi)", self.circuit(0.4, 1.1, np.pi, seed=3), (1, 3)),
            ("fold", self.circuit(0.4, -0.4, 0.9, seed=4), (1, 4)),
            ("generic-after", self.circuit(1.9, 0.2, 0.5, seed=5), (2, 4)),
            ("rx(1e-13)-on-rx(0)", self.circuit(1e-13, 1.1, 0.9, seed=6), (2, 5)),
            ("rx(0)-again", self.circuit(0.0, 2.1, 0.3, seed=7), (3, 5)),
        ]
        with Session(machine, backend=backend, planner="fast") as session:
            for name, circuit, counts in walk:
                with monkeypatch.context() as patch:
                    if name == "fold":
                        patch.setattr(
                            compile_mod, "matrix_signature", lambda matrix: b"moved"
                        )
                    state = session.run(circuit).result().state.data
                stats = session.stats
                assert (stats.schedule_cache_hits, stats.schedule_cache_misses) == counts, name
                assert np.array_equal(state, self.cold_state(machine, backend, circuit)), name
            assert stats.programs_compiled == stats.programs_rebound == 0
            assert stats.fallbacks == 0

    def test_every_kind_compiles_once_on_one_structure(self, machine):
        """incore -> parallel -> offload -> incore: the plan-cache entry
        keeps a program and a schedule, neither evicts the other, and the
        two sharded backends share the schedule."""
        sweep = [vqc(self.N, seed=s) for s in range(4)]
        with Session(machine, planner="fast") as session:
            states = [
                session.run(circuit, backend=backend).result().state
                for circuit, backend in zip(sweep, ("incore", "parallel", "offload", "incore"))
            ]
            stats = session.stats
            assert stats.plans_built == 1
            assert (stats.programs_compiled, stats.programs_rebound) == (1, 1)
            assert (stats.schedule_cache_misses, stats.schedule_cache_hits) == (1, 1)
            (entry,) = session.cache._entries.values()
            assert isinstance(entry[2]["program"], CompiledProgram)
            assert isinstance(entry[2]["schedule"], Schedule)
        for circuit, state in zip(sweep, states):
            assert simulate_reference(circuit).allclose(state)

    def test_the_backend_object_names_its_kind(self, machine):
        """A sharded backend registered under another name is lowered to a
        schedule (never handed a compiled program), and shares the entry's
        with the built-in ones."""
        register_backend("two-workers", lambda: ParallelBackend(num_workers=2))
        try:
            with Session(machine, planner="fast") as session:
                a, b = vqc(self.N, seed=0), vqc(self.N, seed=1)
                mine = session.run(a, backend="two-workers").result().state.data
                session.run(b, backend="offload")
                stats = session.stats
                assert stats.programs_compiled == 0
                assert (stats.schedule_cache_misses, stats.schedule_cache_hits) == (1, 1)
            assert np.array_equal(mine, self.cold_state(machine, "parallel", a))
        finally:
            del BACKENDS["two-workers"]

    @pytest.mark.parametrize("backend", SHARDED)
    def test_a_one_shot_compile_fault_never_pins_a_structure(self, machine, backend):
        """The degraded segment is counted for the job that ran it; the
        next job of the structure builds cold again (and is the one that
        is cached), the one after rebinds."""
        sweep = [vqc(self.N, seed=s) for s in range(3)]
        with Session(
            machine, backend=backend, planner="fast", faults="compile:transient:1"
        ) as session:
            results = [session.run(circuit).result() for circuit in sweep]
            stats = session.stats
            assert (stats.schedule_cache_misses, stats.schedule_cache_hits) == (2, 1)
            assert (stats.fallbacks, stats.faults_injected) == (1, 1)
        assert [r.execution_stats.fallbacks for r in results] == [1, 0, 0]
        assert [r.recovery for r in results] == [
            {"fallbacks": 1, "faults_injected": 1}, None, None
        ]
        for circuit, result in zip(sweep, results):
            assert np.array_equal(
                result.state.data, self.cold_state(machine, backend, circuit)
            )
