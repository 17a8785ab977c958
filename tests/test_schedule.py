"""A shard schedule is a program (`runtime/offload.py::build_schedule`).

The contract under test: a sharded plan lowers to a :class:`Schedule` whose
stages — one shard pass each — are bound through the plan compiler's
slots; rebinding an earlier schedule of the same structure (``reuse=``)
equals a cold build — entry for entry, and bit for bit on the sequential
executor and on the parallel one at every worker count; what does not fit
the structure is built cold; a plan with a gate that mixes amplitudes
along a non-local qubit is refused by every executor; a lowering that
fails raises and leaves nothing behind; the Session plan cache holds the
schedule next to the in-core program and is the only thing that does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MachineConfig, Session
from repro.check import verify_plan
from repro.circuits import Circuit, make_gate
from repro.circuits import gates as gates_mod
from repro.circuits.gates import GateTable
from repro.circuits.library import CIRCUIT_FAMILIES, qft, vqc
from repro.core import KernelizeConfig, partition
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.errors import KernelError, PlanValidationError, TransientError
from repro.runtime import ParallelRuntime, compile as compile_mod, compile_plan, execute_plan_offloaded
from repro.runtime import offload as offload_mod, sharding as sharding_mod
from repro.runtime.offload import Schedule, build_schedule
from repro.runtime.sharding import nonlocal_axes
from repro.session.backends import BACKENDS, ParallelBackend, register_backend
from repro.session import session as session_mod
from repro.session.cache import rebind_plan
from repro.sim import StateVector, simulate_reference
from repro.sim import apply as apply_mod, program as program_mod
from repro.sim.program import CompiledProgram

from test_property_based import SETTINGS, _chunked_plan, rebind_cases

WORKERS = (1, 2, 4)


def op_entry(op):
    return None if op is None else (op.kind, op.qubits, op.gates, op.items)


def entries(schedule):
    """What a schedule executes, comparable with ``==``: per stage the
    layout and its pass's store flag, layout moves, recorded write map and
    compiled entries — a kernel on non-local qubits as its op per variant
    (``None``: no op on those shards) — or ``None`` for a stage without a
    pass."""
    return [
        (l2p, None if seg is None else (
            seg.in_place, seg.load_from, seg.store_to, seg.ops.write_map, [
                [op_entry(op) for op in entry] if isinstance(entry, tuple) else op_entry(entry)
                for entry in seg.ops
            ],
        ))
        for l2p, seg in schedule.stages
    ]


def _drops_nothing(gate):
    """Whether *gate*'s matrix has no entry a shard drops: none that is
    non-zero yet within the key pattern's 1e-12 (``rx(pi)``'s cos term
    is one) — a shard keeps its ``bit_in -> bit_out`` block of a gate on a
    non-local qubit, and the in-core pass adds the dropped entry's term."""
    if not gate.params:
        return True
    key, exact = gate.pattern()
    count = 4 ** len(gate.qubits)
    loose = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count).astype(bool)
    return np.array_equal(loose, np.frombuffer(exact, dtype=bool, count=count))


def bit_equal_in_core(schedule, local):
    """Whether *schedule* must equal the in-core program bit for bit: every
    kernel runs as the in-core pass runs it, its non-local bits resolved
    per shard, so it must unless a gate on a non-local qubit drops an
    entry there."""
    return all(
        _drops_nothing(gate)
        for l2p, seg in schedule.stages if seg is not None
        for gate in seg.payload if any(l2p[q] >= local for q in gate.qubits)
    )


def breaks_invariant(plan, local):
    """Whether a gate of *plan* mixes amplitudes along a non-local qubit —
    the plan every executor refuses."""
    return any(
        kind == "mixing"
        for stage in plan.stages
        for gate in stage.gates
        for _q, _shift, kind in nonlocal_axes(gate, stage.partition.logical_to_physical(), local)
    )


def assert_refused_everywhere(plan, machine, base):
    """*plan* raises :class:`PlanValidationError` in core (with the
    locality check), on the sequential executor — built cold or rebound
    from *base* — and on the parallel one at every worker count."""
    local = machine.local_qubits
    with pytest.raises(PlanValidationError):
        compile_plan(plan, check_locality=True)
    with pytest.raises(PlanValidationError):
        build_schedule(plan, local, reuse=base)
    with pytest.raises(PlanValidationError):
        execute_plan_offloaded(plan, machine)
    for workers in WORKERS:
        with ParallelRuntime(machine, num_workers=workers) as runtime:
            with pytest.raises(PlanValidationError):
                runtime.execute(plan)


def assert_rebind_equals_cold(base_plan, plan, machine, seed):
    """``build_schedule(plan, reuse=base)`` against ``build_schedule(plan)``
    on every executor, from |0...0> and from a random state; the base
    schedule still computes what it computed.  A plan that breaks the
    staging invariant is refused everywhere instead (``None``); a base
    that breaks it has no schedule to rebind from."""
    local, n = machine.local_qubits, plan.num_qubits
    base = None
    if not breaks_invariant(base_plan, local):
        base = build_schedule(base_plan, local)
        base_before = execute_plan_offloaded(base_plan, machine, schedule=base)[0].data.copy()
    if breaks_invariant(plan, local):
        assert_refused_everywhere(plan, machine, base)
        return None
    warm = build_schedule(plan, local, reuse=base)
    cold = build_schedule(plan, local)
    assert not cold.rebound and (base is None or not base.rebound)
    assert entries(warm) == entries(cold)
    assert (base is not None and warm.structure is base.structure) == warm.rebound
    for init in (None, StateVector.random_state(n, seed=seed)):
        want = execute_plan_offloaded(plan, machine, init, schedule=cold)[0].data
        if bit_equal_in_core(cold, local):
            # (A hand-built plan need not keep the staging invariant.)
            incore = compile_plan(plan, check_locality=False).run(init).data
            assert np.array_equal(incore, want)
        assert np.array_equal(execute_plan_offloaded(plan, machine, init)[0].data, want)
        assert np.array_equal(
            execute_plan_offloaded(plan, machine, init, schedule=warm)[0].data, want
        )
        for workers in WORKERS:
            with ParallelRuntime(machine, num_workers=workers) as runtime:
                for schedule in (warm, cold, None):
                    got, _ = runtime.execute(plan, init, schedule=schedule)
                    assert np.array_equal(got.data, want), workers
    if base is not None:
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
        gates on non-local qubits are resolved per shard, relabel shards or
        mix amplitudes across them, and redrawn angles — degenerate ones
        included — move gates between those classes, so some schedules
        rebind and some cannot.  A plan with a mixing gate there (``rx(0.3)``
        on a non-local qubit) breaks the staging invariant and is refused
        by every executor; every other plan runs bit for bit alike on all
        of them."""
        n, gates, rebound_gates, sets, chunks, kernelized = case
        machine = MachineConfig.for_circuit(n, local_qubits=len(sets[0]))
        base_plan = _chunked_plan(n, gates, sets, chunks, kernelized)
        plan = _chunked_plan(n, rebound_gates, sets, chunks, kernelized)
        if assert_rebind_equals_cold(base_plan, plan, machine, seed) is not None:
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
        """A job that moves two of vqc's angles, one per stage: the kernels
        that hold neither — a kernel's op, or its variant ops when it
        touches non-local qubits — are taken verbatim, the ones that hold
        one are refilled."""
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=5)
        circuit = vqc(8, seed=0)
        base_plan, _ = partition(circuit, machine)
        gates = list(circuit.gates)
        for stage in (base_plan.stages[0], base_plan.stages[-1]):
            at = next(i for i in stage.gate_indices if gates[i].params)
            gates[at] = make_gate(gates[at].name, gates[at].qubits, [p + 0.5 for p in gates[at].params])
        base = build_schedule(base_plan, machine.local_qubits)
        warm = build_schedule(
            rebind_plan(base_plan, Circuit(8, gates)), machine.local_qubits, reuse=base
        )
        assert warm.rebound

        def gates_of(entry):
            if isinstance(entry, tuple):
                entry = next(op for op in entry if op is not None)
            return entry.gates

        kept, refilled = {False: 0, True: 0}, {False: 0, True: 0}
        for (_l2p, new), (_l2p_old, old) in zip(warm.stages, base.stages):
            for op, was in zip(new.ops, old.ops):
                assert (op is was) == (gates_of(op) == gates_of(was))
                (kept if op is was else refilled)[isinstance(op, tuple)] += 1
        assert kept[False] and kept[True] and sum(refilled.values()) >= 2

    def test_a_rebind_of_new_angles_misses_no_axes_of(self, monkeypatch):
        """A warm schedule is a bind: a job of new angles admitted whole
        against the cached structure builds no stage structure, no gate table
        (it reads its circuit's, which the plan carries) and classifies no
        axis — the non-local axis memos see no new miss."""
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        base_plan, _ = partition(vqc(8, seed=0), machine)
        plan = rebind_plan(base_plan, vqc(8, seed=1))
        calls = {"SegmentStructure": 0, "GateTable": 0}

        def counted(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(offload_mod, "SegmentStructure", "SegmentStructure")
        counted(GateTable, "__init__", "GateTable")
        base = build_schedule(base_plan, machine.local_qubits)
        assert calls == {"SegmentStructure": len(base_plan.stages), "GateTable": 0}
        calls.update(SegmentStructure=0)
        memos = (gates_mod.axes_of, sharding_mod._axis_table)
        before = [memo.cache_info().misses for memo in memos]
        warm = build_schedule(plan, machine.local_qubits, reuse=base)
        assert warm.rebound
        assert calls == {"SegmentStructure": 0, "GateTable": 0}
        assert [memo.cache_info().misses for memo in memos] == before

    def test_a_warm_shard_pass_binds_nothing(self, monkeypatch):
        """Every op a shard pass runs is bound with its schedule: running a
        rebound schedule classifies no matrix, builds no template and binds
        none on any executor — the kernels on non-local qubits included
        (qft-8 here has 15 gates there, each one op per shard variant of
        its kernel)."""
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=5)
        rng = np.random.default_rng(5)
        base_plan, _ = partition(redrawn(qft(8), rng), machine)
        plan = rebind_plan(base_plan, redrawn(qft(8), rng))
        local = machine.local_qubits
        warm = build_schedule(plan, local, reuse=build_schedule(base_plan, local))
        assert warm.rebound
        assert any(
            isinstance(entry, tuple)
            for _l2p, seg in warm.stages for entry in seg.ops
        )
        calls = []
        for module, name in (
            (apply_mod, "_unitary_op"), (apply_mod, "unitary_template"),
            (program_mod, "unitary_template"), (apply_mod, "kernel_template"),
            (compile_mod, "kernel_template"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *args, _real=real, _name=name, **kwargs:
                    calls.append(_name) or _real(*args, **kwargs),
            )
        want = execute_plan_offloaded(plan, machine, schedule=warm)[0].data
        for workers in (1, 2):
            with ParallelRuntime(machine, num_workers=workers) as runtime:
                assert np.array_equal(runtime.execute(plan, schedule=warm)[0].data, want)
        assert calls == []

    def test_a_rebind_across_the_pattern_boundary_equals_the_cold_build(self):
        """rx(pi) on a non-local qubit relabels shards, rx(1e-13) does not
        and rx(0.3) mixes them, yet all three share an exact signature: each
        gate's axis table is part of the schedule's structure, so a rebind
        from one to another is built cold — write map, store flag and ops —
        and runs bit for bit, and the mixing one breaks the staging
        invariant: every executor refuses it, cold or rebound."""
        n, local = 6, 4
        machine = MachineConfig.for_circuit(n, local_qubits=local)

        def plan(angle):
            gates = [
                make_gate("h", [0]), make_gate("cx", [0, 1]),
                make_gate("rx", [5], [angle]), make_gate("cp", [1, 4], [0.3]),
                make_gate("ry", [2], [0.4]),
            ]
            sets = (range(local), [4], [5])
            return _chunked_plan(n, gates, sets, [(0, len(gates))], True)

        relabel, phase = build_schedule(plan(np.pi), local), build_schedule(plan(1e-13), local)
        ((_l2p, relabels),), ((_l2p2, stays),) = relabel.stages, phase.stages
        assert not relabels.in_place and relabels.ops.write_map == [2, 3, 0, 1]
        assert stays.in_place and stays.ops.write_map == [0, 1, 2, 3]
        assert breaks_invariant(plan(0.3), local)
        assert not any(breaks_invariant(plan(angle), local) for angle in (np.pi, 1e-13))
        for base, angle in ((1e-13, np.pi), (np.pi, 1e-13), (0.3, 1e-13)):
            warm = assert_rebind_equals_cold(plan(base), plan(angle), machine, seed=4)
            assert not warm.rebound
        assert assert_rebind_equals_cold(plan(1e-13), plan(0.3), machine, seed=4) is None

    def test_a_failed_segment_compile_raises_and_leaves_nothing_behind(self):
        """A segment that does not lower fails the build with its typed
        error; the next build of the plan, or a rebind onto the last good
        schedule, is a whole schedule again."""
        from repro.runtime import faults
        from repro.runtime.faults import FaultInjector

        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        plan, _ = partition(vqc(8, seed=0), machine)
        base = build_schedule(plan, machine.local_qubits)
        for flavor, error in (("permanent", KernelError), ("transient", TransientError)):
            injector = FaultInjector(f"compile:{flavor}:1")
            faults.activate(injector)
            try:
                with pytest.raises(error):
                    build_schedule(plan, machine.local_qubits, reuse=base)
            finally:
                faults.deactivate(injector)
            assert injector.total_fired == 1
        healed = build_schedule(plan, machine.local_qubits, reuse=base)
        assert healed.rebound and entries(healed) == entries(base)
        assert np.array_equal(
            execute_plan_offloaded(plan, machine, schedule=healed)[0].data,
            execute_plan_offloaded(plan, machine)[0].data,
        )


SHARDED = ("offload", "parallel")


def _one_stage_plan(gates, n=4, local=(0, 1)):
    """One hand-built stage of *gates* whose local set is *local*."""
    stage = Stage(
        gates=list(gates),
        partition=QubitPartition.from_sets(set(local), set(range(n)) - set(local), set()),
        gate_indices=list(range(len(gates))),
    )
    return ExecutionPlan(num_qubits=n, stages=[stage])


class TestOneInsularityRule:
    """Insularity is decided once (``repro.circuits.gates.axes_of``), so the
    stager, the in-core locality check and the shard executors agree on
    which gates may sit on a non-local qubit: ``rxx`` / ``ryy`` at angles
    where they mix no axis run everywhere, and a gate that mixes is
    refused everywhere with one message."""

    MACHINE = MachineConfig.for_circuit(4, num_shards=4, local_qubits=2)

    def _run_everywhere(self, gate):
        """``(in-core, offload, parallel per worker count, reference)`` of
        a 4-qubit stage holding *gate* on qubits (0, 3) at ``L = 2``."""
        gates = [make_gate("h", [0]), make_gate("h", [1]), gate, make_gate("h", [0])]
        plan = _one_stage_plan(gates)
        init = StateVector.random_state(4, seed=2)
        incore = compile_plan(plan, machine=self.MACHINE, check_locality=True).run(init).data
        offload = execute_plan_offloaded(plan, self.MACHINE, init)[0].data
        parallel = []
        for workers in WORKERS:
            with ParallelRuntime(self.MACHINE, num_workers=workers) as runtime:
                parallel.append(runtime.execute(plan, init)[0].data)
        return incore, offload, parallel, simulate_reference(Circuit(4, gates), init).data

    @pytest.mark.parametrize("name, angle", [("rxx", 0.0), ("ryy", 0.0)])
    def test_an_identity_on_a_nonlocal_qubit_runs_bit_for_bit_everywhere(self, name, angle):
        incore, offload, parallel, want = self._run_everywhere(make_gate(name, [0, 3], [angle]))
        assert np.array_equal(incore, offload)
        assert all(np.array_equal(got, offload) for got in parallel)
        assert np.allclose(offload, want, atol=1e-12)

    def test_rxx_pi_on_a_nonlocal_qubit_runs_everywhere(self):
        """``rxx(pi)`` is ``-i X(x)X`` up to its ``cos(pi/2)`` terms, which
        are under the key pattern's ``1e-12``: a shard drops them and the
        in-core pass adds them (``_drops_nothing``), so the shard executors
        agree bit for bit and in core agrees to ``1e-12``."""
        gate = make_gate("rxx", [0, 3], [math.pi])
        assert not _drops_nothing(gate)
        incore, offload, parallel, want = self._run_everywhere(gate)
        assert all(np.array_equal(got, offload) for got in parallel)
        assert np.allclose(incore, offload, rtol=0, atol=1e-12)
        assert np.allclose(offload, want, atol=1e-12)

    def test_a_mixing_gate_is_refused_everywhere_with_one_message(self):
        plan = _one_stage_plan([make_gate("h", [0]), make_gate("rx", [3], [0.3])])
        local = self.MACHINE.local_qubits
        messages = set()
        attempts = [
            lambda: compile_plan(plan, machine=self.MACHINE, check_locality=True),
            lambda: build_schedule(plan, local),
            lambda: execute_plan_offloaded(plan, self.MACHINE),
        ]
        for attempt in attempts:
            with pytest.raises(PlanValidationError) as refused:
                attempt()
            messages.add(str(refused.value))
        for workers in WORKERS:
            with ParallelRuntime(self.MACHINE, num_workers=workers) as runtime:
                with pytest.raises(PlanValidationError) as refused:
                    runtime.execute(plan)
                messages.add(str(refused.value))
        assert messages == {
            "staging invariant violated: non-insular qubit 3 of gate rx(0.3) [3] "
            "is mapped to non-local physical position 3 (L=2)"
        }

    def test_a_planned_circuit_with_them_validates_and_matches_the_reference(self):
        """The stager may leave these gates' qubits non-local; the plan
        validates and every executor runs it."""
        circuit = Circuit(6, [
            *[make_gate("h", [q]) for q in range(6)],
            make_gate("rxx", [0, 5], [0.0]), make_gate("ryy", [1, 4], [math.pi]),
            make_gate("rxx", [2, 5], [math.pi]), make_gate("ryy", [3, 5], [0.0]),
            make_gate("cx", [0, 1]), make_gate("rxx", [2, 3], [0.4]),
            make_gate("rxx", [4, 5], [-math.pi]), make_gate("h", [5]),
        ])
        machine = MachineConfig.for_circuit(6, num_shards=4, local_qubits=4)
        plan, _ = partition(circuit, machine)
        assert any(
            stage.partition.logical_to_physical()[q] >= machine.local_qubits
            for stage in plan.stages for g in stage.gates if g.name in ("rxx", "ryy")
            for q in g.qubits
        )
        plan.validate(circuit)
        assert verify_plan(plan, machine, circuit).ok
        want = simulate_reference(circuit)
        offload = execute_plan_offloaded(plan, machine)[0]
        assert want.allclose(offload)
        assert want.allclose(compile_plan(plan, machine=machine, check_locality=True).run())
        with ParallelRuntime(machine, num_workers=2) as runtime:
            assert np.array_equal(runtime.execute(plan)[0].data, offload.data)


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
        with Session(machine, backend=backend, planner="balanced") as solo:
            return solo.run(circuit).result().state.data

    @pytest.mark.parametrize("backend", SHARDED)
    def test_degenerate_angles_inside_a_sweep_take_the_cold_path(self, machine, backend):
        """rx(0) and ry(pi) change the structural key (their own plan and
        schedule), and rx(1e-13) against rx(0) keeps the key and fails the
        rebind: each is a counted miss, leaves the cached schedule as it
        was, and is bit-exact with a cold session.  rx(a)·rx(-a) — a fold
        whose 2x2 product cancels to a diagonal — binds warm: no op is
        built for a product, so its zeros choose nothing."""
        walk = [
            ("generic", self.circuit(0.4, 1.1, 0.9), (0, 1)),
            ("generic-again", self.circuit(0.7, 0.3, 2.2, seed=1), (1, 1)),
            ("rx(0)", self.circuit(0.0, 1.1, 0.9, seed=2), (1, 2)),
            ("ry(pi)", self.circuit(0.4, 1.1, np.pi, seed=3), (1, 3)),
            ("fold", self.circuit(0.4, -0.4, 0.9, seed=4), (2, 3)),
            ("generic-after", self.circuit(1.9, 0.2, 0.5, seed=5), (3, 3)),
            ("rx(1e-13)-on-rx(0)", self.circuit(1e-13, 1.1, 0.9, seed=6), (3, 4)),
            ("rx(0)-again", self.circuit(0.0, 2.1, 0.3, seed=7), (4, 4)),
        ]
        with Session(machine, backend=backend, planner="balanced") as session:
            for name, circuit, counts in walk:
                state = session.run(circuit).result().state.data
                stats = session.stats
                assert (stats.schedule_cache_hits, stats.schedule_cache_misses) == counts, name
                assert state.tobytes() == self.cold_state(machine, backend, circuit).tobytes(), name
            assert stats.programs_compiled == stats.programs_rebound == 0
            assert stats.fallbacks == 0

    def test_every_kind_compiles_once_on_one_structure(self, machine):
        """incore -> parallel -> offload -> incore: the plan-cache entry
        keeps a program and a schedule, neither evicts the other, and the
        two sharded backends share the schedule."""
        sweep = [vqc(self.N, seed=s) for s in range(4)]
        with Session(machine, planner="balanced") as session:
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
            with Session(machine, planner="balanced") as session:
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
        """The job whose schedule fails to lower raises, and caches
        nothing: the next job of the structure builds cold (and is the one
        that is cached), the one after rebinds."""
        sweep = [vqc(self.N, seed=s) for s in range(3)]
        with Session(
            machine, backend=backend, planner="balanced", faults="compile:transient:1"
        ) as session:
            with pytest.raises(TransientError):
                session.run(sweep[0])
            results = [session.run(circuit).result() for circuit in sweep]
            stats = session.stats
            assert (stats.schedule_cache_misses, stats.schedule_cache_hits) == (1, 2)
            assert (stats.fallbacks, stats.faults_injected) == (0, 1)
        assert [r.recovery for r in results] == [None, None, None]
        for circuit, result in zip(sweep, results):
            assert np.array_equal(
                result.state.data, self.cold_state(machine, backend, circuit)
            )

    @pytest.mark.parametrize("backend", SHARDED)
    def test_a_fan_out_runs_one_schedule(self, machine, backend, monkeypatch):
        """One circuit over many initial states builds one schedule, which
        every item runs; the runtime keeps none of it."""
        builds = []
        real = session_mod.build_schedule
        monkeypatch.setattr(
            session_mod, "build_schedule",
            lambda *args, **kwargs: builds.append(1) or real(*args, **kwargs),
        )
        circuit = vqc(self.N, seed=0)
        inits = [StateVector.random_state(self.N, seed=s) for s in range(3)]
        with Session(machine, backend=backend, planner="balanced") as session:
            job = session.run(circuit, initial_states=inits)
            assert len(builds) == 1 and session.stats.schedule_cache_misses == 1
            plan = job[0].plan
            for runtime in getattr(session.backend_instance(backend), "_runtimes", {}).values():
                assert not any(isinstance(v, Schedule) for v in vars(runtime).values())
        for init, result in zip(inits, job):
            assert np.array_equal(
                result.state.data, execute_plan_offloaded(plan, machine, init)[0].data
            )
