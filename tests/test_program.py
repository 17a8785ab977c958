"""Tests for compiled plan programs (`sim/program.py` + `runtime/compile.py`).

The contract under test: lowering a plan to a :class:`CompiledProgram` and
executing the op stream is **bit-exact** with the gate-at-a-time
interpreter (`execute_plan(compiled=False)`) on staged and hand-built
plans; batched ``(B, 2^n)`` execution matches B looped single-state runs
to tight tolerance (the B-wide gemm fold can change BLAS summation order,
so exact bit equality is not guaranteed there); rebound (plan-cache-hit)
programs execute the new circuit's angles while reusing every
constant-structure op; and the offload/parallel runtimes, now replaying
compiled segment ops, keep their bit-exactness guarantees.
"""

import numpy as np
import pytest

from repro.circuits import Circuit, make_gate
from repro.circuits.library import (
    CIRCUIT_FAMILIES,
    ghz,
    ising,
    qft,
    random_circuit,
    su2random,
    vqc,
)
from repro.cluster import MachineConfig
from repro.core import KernelizeConfig, partition
from repro.core.kernel import Kernel, KernelSequence, KernelType
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.runtime import (
    ParallelRuntime,
    compile_plan,
    compiled_program_for,
    execute_plan,
    execute_plan_offloaded,
)
from repro.errors import PlanValidationError
from repro.planner import legacy_pipeline
from repro.runtime.offload import compile_segment_ops, run_segment_ops, run_groups_on_shard, split_stage_segments
from repro.sim import StateVector, simulate_reference
from repro.sim import apply as apply_mod
from repro.sim import fusion as fusion_mod
from repro.sim import native
from repro.sim.fusion import (
    configure_fusion_cache,
    fusion_cache_stats,
    lower_kernel_gates,
)
from repro.session import Session
from repro.session.cache import rebind_plan

FAST_CONFIG = KernelizeConfig(pruning_threshold=16)


def _staged_plan(circuit, machine):
    plan, _ = partition(circuit, machine, kernelize_config=FAST_CONFIG)
    return plan


def _machine(n, local_offset=2):
    return MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - local_offset)


CIRCUITS = [
    ("qft-10", lambda: qft(10)),
    ("vqc-10", lambda: vqc(10, seed=3)),
    ("ghz-9", lambda: ghz(9)),
    ("random-8", lambda: random_circuit(8, 80, seed=11)),
]


class TestCompiledVsInterpreted:
    @pytest.mark.parametrize("name,factory", CIRCUITS)
    def test_bit_exact_on_staged_plans(self, name, factory):
        circuit = factory()
        machine = _machine(circuit.num_qubits)
        plan = _staged_plan(circuit, machine)
        compiled_state, compiled_trace = execute_plan(plan, machine=machine)
        interp_state, interp_trace = execute_plan(
            plan, machine=machine, compiled=False
        )
        assert np.array_equal(compiled_state.data, interp_state.data)
        assert simulate_reference(circuit).allclose(compiled_state)
        # The compile-time trace metadata matches what the interpreter
        # counts while executing.
        assert compiled_trace.num_stages == interp_trace.num_stages
        assert compiled_trace.num_kernels == interp_trace.num_kernels
        assert compiled_trace.num_permutations == interp_trace.num_permutations
        assert compiled_trace.kernels_per_stage == interp_trace.kernels_per_stage

    @pytest.mark.parametrize("name,factory", CIRCUITS)
    def test_bit_exact_from_random_initial_state(self, name, factory):
        circuit = factory()
        n = circuit.num_qubits
        machine = _machine(n)
        plan = _staged_plan(circuit, machine)
        init = StateVector.random_state(n, seed=7)
        a, _ = execute_plan(plan, initial_state=init, machine=machine)
        b, _ = execute_plan(plan, initial_state=init, machine=machine, compiled=False)
        assert np.array_equal(a.data, b.data)

    def test_the_interpreter_compiles_nothing(self, monkeypatch):
        """`compiled=False` is the plumbing oracle: it walks plan -> stage
        -> kernel -> item itself.  It never enters the plan compiler, builds
        no program or structure and consults no program memo — what it
        shares with the compiled path is the per-op templates, nothing of
        the layout walk, slots, bind or reuse it is there to check."""
        import repro.runtime.compile as compile_mod
        import repro.runtime.executor as executor_mod
        from repro.sim.program import CompiledProgram

        def forbidden(*args, **kwargs):
            raise AssertionError("the interpreter entered the plan compiler")

        circuit = vqc(8, seed=2)
        machine = _machine(8)
        plan = _staged_plan(circuit, machine)
        want, _ = execute_plan(plan, machine=machine)
        monkeypatch.setattr(compile_mod, "compile_plan", forbidden)
        monkeypatch.setattr(executor_mod, "compiled_program_for", forbidden)
        monkeypatch.setattr(compile_mod.ProgramStructure, "__init__", forbidden)
        monkeypatch.setattr(CompiledProgram, "__init__", forbidden)
        got, trace = execute_plan(plan, machine=machine, compiled=False)
        assert np.array_equal(got.data, want.data)
        assert trace.op_counts == {} and trace.num_ops > 0

    def test_unkernelized_stage_plan(self):
        """Plans whose stages carry raw gates (kernels=None) compile too."""
        circuit = Circuit(5).h(0).cx(0, 1).rz(0.4, 1).cx(1, 2).h(3).cp(0.3, 3, 4)
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1, 2, 3, 4}, set(), set()),
            gate_indices=list(range(len(circuit.gates))),
        )
        plan = ExecutionPlan(num_qubits=5, stages=[stage])
        a, _ = execute_plan(plan)
        b, _ = execute_plan(plan, compiled=False)
        assert np.array_equal(a.data, b.data)
        assert simulate_reference(circuit).allclose(a)

    def test_locality_check_happens_at_compile_time(self):
        circuit = Circuit(4).h(3)
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1}, {2, 3}, set()),
            gate_indices=[0],
        )
        plan = ExecutionPlan(num_qubits=4, stages=[stage])
        with pytest.raises(ValueError, match="staging invariant"):
            compile_plan(plan)
        # Disabling the check compiles and runs.
        program = compile_plan(plan, check_locality=False)
        assert simulate_reference(circuit).allclose(program.run())

    def test_concurrent_execute_plan_is_safe(self):
        """Concurrent execute_plan calls on one plan share the memoized op
        stream but each thread runs on its own workspace — results must
        stay bit-exact under contention (regression: a shared ping-pong
        pair silently corrupted states)."""
        from concurrent.futures import ThreadPoolExecutor

        circuit = qft(10)
        machine = _machine(10)
        plan = _staged_plan(circuit, machine)
        want, _ = execute_plan(plan, machine=machine, compiled=False)

        def work(seed):
            state, _ = execute_plan(plan, machine=machine)
            return bool(np.array_equal(state.data, want.data))

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(24)))
        assert all(results), f"{results.count(False)}/24 corrupted states"

    def test_program_memo_reuses_compilation(self):
        circuit = qft(8)
        machine = _machine(8)
        plan = _staged_plan(circuit, machine)
        p1 = compiled_program_for(plan, machine)
        p2 = compiled_program_for(plan, machine)
        assert p1 is p2
        # A different plan object (even if equal) compiles separately.
        plan2 = _staged_plan(circuit, machine)
        assert compiled_program_for(plan2, machine) is not p1


class TestBatchedExecution:
    # A tolerance far below any circuit-level error; the exact guarantee
    # (a stacked row equals the flat run bit for bit) is pinned by
    # test_batched_blocks_bit_exact_with_looped_runs and the property tests.
    ATOL = 1e-12

    @pytest.mark.parametrize("batch", [2, 7, 16])
    def test_batched_matches_looped(self, batch):
        circuit = vqc(9, seed=1)
        machine = _machine(9)
        program = compile_plan(_staged_plan(circuit, machine), machine)
        states = [StateVector.random_state(9, seed=s) for s in range(batch)]
        batched = program.run_batched(states)
        looped = [program.run(s) for s in states]
        assert len(batched) == batch
        for got, want in zip(batched, looped):
            assert np.max(np.abs(got.data - want.data)) <= self.ATOL

    def test_batched_tensordot_fallback_is_one_contraction(self):
        # A scattered wide kernel (no gemm plan) contracts the whole stack
        # at once: one allocation of B states, not B of one.
        from repro.sim.program import Workspace, compile_unitary_op

        n, qubits, batch = 9, (7, 0, 4, 2), 5
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        op = compile_unitary_op(np.linalg.qr(raw)[0], qubits, n)
        assert op.kind == "big"
        ws = Workspace()
        states = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
        looped = [op.run(row.copy(), np.empty_like(row), ws)[0].copy() for row in states]
        apply_mod.reset_allocation_log()
        got, _ = op.run(states, np.empty_like(states), ws)
        assert apply_mod.allocation_log() == [batch << n]
        # The one op whose stacked pass is not the flat one by construction
        # (tensordot's gemm spans the whole stack): its documented bound.
        for row, want in zip(got, looped):
            bound = (1 << len(qubits)) * np.spacing(np.max(np.abs(want)))
            assert np.max(np.abs(row - want)) <= bound

    def test_batched_default_initial_states(self):
        circuit = qft(8)
        machine = _machine(8)
        program = compile_plan(_staged_plan(circuit, machine), machine)
        batched = program.run_batched([None, None, None])
        single = program.run()
        for got in batched:
            assert np.max(np.abs(got.data - single.data)) <= self.ATOL

    def test_batched_results_do_not_alias_program_buffers(self):
        program = compile_plan(_staged_plan(qft(6), _machine(6)))
        states = [StateVector.random_state(6, seed=s) for s in range(3)]
        first = program.run_batched(states)
        snapshot = [r.data.copy() for r in first]
        program.run_batched([StateVector.random_state(6, seed=9)] * 3)
        for result, snap in zip(first, snapshot):
            assert np.array_equal(result.data, snap)

    def test_session_fans_one_circuit_into_one_batched_pass(self):
        n = 8
        machine = _machine(n)
        circuit = qft(n)
        states = [StateVector.random_state(n, seed=s) for s in range(4)]
        with Session(machine, backend="incore", planner=legacy_pipeline(kernelize_config=FAST_CONFIG)) as s:
            job = s.run(circuit, initial_states=states)
            singles = [
                s.run(circuit, initial_state=state).results()[0] for state in states
            ]
        for fanned, single in zip(job.results(), singles):
            assert (
                np.max(np.abs(fanned.state.data - single.state.data)) <= self.ATOL
            )


class TestRebind:
    def test_rebound_program_uses_new_angles_and_reuses_constant_ops(self):
        machine = _machine(10)
        base, other = vqc(10, seed=0), vqc(10, seed=1)
        assert base.structural_key() == other.structural_key()
        base_plan = _staged_plan(base, machine)
        base_program = compile_plan(base_plan, machine)
        rebound_plan = rebind_plan(base_plan, other)
        rebound = compile_plan(rebound_plan, machine, reuse=base_program)
        # The unit of reuse is the kernel (it was the item before a
        # shared-memory kernel became one op — the unit changed, not the
        # behaviour): a kernel whose gates all compare equal is taken
        # verbatim, one holding a redrawn angle is refilled.  Every kernel
        # of vqc-10 holds a rotation, so all are refilled; the CX layers
        # inside them are structural and cost the refill nothing.
        gate_ops = [op for op in rebound.ops if op.gates]
        assert (rebound.ops_reused, rebound.ops_rebound) == (0, len(gate_ops))
        assert all(new is not old for new, old in zip(rebound.ops, base_program.ops) if new.gates)
        again = compile_plan(rebound_plan, machine, reuse=rebound)
        assert (again.ops_reused, again.ops_rebound) == (len(gate_ops), 0)
        assert simulate_reference(other).allclose(rebound.run())
        # The base program is untouched and still computes the base circuit.
        assert simulate_reference(base).allclose(base_program.run())
        # Rebinding shares the base workspace (one buffer pair per family).
        assert rebound.workspace is base_program.workspace

    def test_session_cache_hit_runs_rebound_program(self):
        machine = _machine(10)
        sweep = [vqc(10, seed=s) for s in range(6)]
        with Session(machine, backend="incore", planner=legacy_pipeline(kernelize_config=FAST_CONFIG)) as s:
            job = s.run(sweep)
            stats = s.stats
        assert stats.programs_compiled == 1
        assert stats.programs_rebound == len(sweep) - 1
        # Counted in kernels (items before): each of vqc-10's holds a
        # rotation, so every rebind refills them all.
        assert stats.program_ops_reused == 0 and stats.program_ops_rebound > 0
        for circuit, result in zip(sweep, job.results()):
            assert simulate_reference(circuit).allclose(result.state)

    def test_program_backfilled_when_entry_was_cached_by_other_backend(self):
        """The Atlas-pipeline backends share one plan-cache key; an entry
        first populated by a non-program backend (offload) must be upgraded
        with a compiled program when a program-running backend (incore)
        hits it — and vice versa a non-program backend must not pay for
        rebind compiles."""
        machine = _machine(8)
        sweep = [vqc(8, seed=s) for s in range(3)]
        with Session(machine, planner=legacy_pipeline(kernelize_config=FAST_CONFIG)) as s:
            s.run(sweep[0], backend="offload")
            assert s.stats.programs_compiled == 0
            job = s.run(sweep, backend="incore")
            # One backfill compile on the first hit — of that job's own plan,
            # which it then runs as is — then rebinds only.
            assert s.stats.programs_compiled == 1
            assert s.stats.programs_rebound == len(sweep) - 1
            for circuit, result in zip(sweep, job.results()):
                assert simulate_reference(circuit).allclose(result.state)
            s.run(sweep[1], backend="offload")
            assert s.stats.programs_rebound == len(sweep) - 1  # unchanged

    def test_rebound_cache_hit_is_bit_exact_with_cold_compile(self):
        machine = _machine(9)
        base, other = vqc(9, seed=4), vqc(9, seed=5)
        base_plan = _staged_plan(base, machine)
        base_program = compile_plan(base_plan, machine)
        rebound_plan = rebind_plan(base_plan, other)
        warm = compile_plan(rebound_plan, machine, reuse=base_program)
        cold = compile_plan(rebound_plan, machine)
        assert np.array_equal(warm.run().data, cold.run().data)

    # -- rebind = numeric fill over the cached program's structure ---------

    #: Angles a rebind can meet: generic, and the degenerate ones where a
    #: rotation's matrix changes class — exactly (0, pi, 2 pi: the plan no
    #: longer has the base's structure and must be compiled from scratch)
    #: or only within :meth:`Circuit.structural_key`'s tolerance (1e-13).
    REBIND_ANGLES = [0.7, 0.0, np.pi / 2, np.pi, 2 * np.pi, 1e-13]

    @staticmethod
    def _redrawn(circuit, rng, angle=None):
        """*circuit* with fresh generic angles; *angle* replaces about half
        of them (all of them would make every family trivially regular)."""
        gates = []
        for g in circuit.gates:
            params = rng.uniform(0.1, 6.0, len(g.params))
            if angle is not None:
                params = np.where(rng.random(len(params)) < 0.5, angle, params)
            gates.append(make_gate(g.name, g.qubits, params))
        return Circuit(circuit.num_qubits, gates, name=circuit.name)

    @staticmethod
    def _assert_same_program(warm, cold, plan, machine, seed=0):
        n = plan.num_qubits
        assert [(op.kind, op.qubits, op.gates, op.source) for op in warm.ops] == [
            (op.kind, op.qubits, op.gates, op.source) for op in cold.ops
        ]
        init = StateVector.random_state(n, seed=seed)
        want = cold.run(init).data
        assert np.array_equal(warm.run(init).data, want)
        states = [init, StateVector.random_state(n, seed=seed + 1)]
        for got, ref in zip(warm.run_batched(states), cold.run_batched(states)):
            assert np.array_equal(got.data, ref.data)
        # ... and a stacked row is the flat run: bit for bit (0 ulp) unless
        # the program holds a `big` op.
        for got, state in zip(cold.run_batched(states), states):
            flat = cold.run(state).data
            bound = cold.stack_ulps() * np.spacing(np.max(np.abs(flat)))
            assert np.max(np.abs(got.data - flat)) <= bound
        interpreted, _ = execute_plan(plan, init, machine=machine, compiled=False)
        assert np.array_equal(interpreted.data, want)

    @pytest.mark.parametrize("family", sorted(CIRCUIT_FAMILIES))
    def test_rebind_equals_cold_compile_and_interpreter(self, family):
        """Every library family x every angle class, in the layouts the
        partitioner picks: ``compile_plan(rebound, reuse=base)`` equals
        ``compile_plan(rebound)`` op for op and bit for bit (single and
        batched runs) and equals the interpreter."""
        rng = np.random.default_rng(7)
        template = CIRCUIT_FAMILIES[family](7)
        machine = _machine(7)
        base_circuit = self._redrawn(template, rng)
        base_plan = _staged_plan(base_circuit, machine)
        base = compile_plan(base_plan, machine)
        assert (base.ops_reused, base.ops_rebound, base.ops_recompiled) == (0, 0, 0)
        gate_ops = sum(op.gates is not None for op in base.ops)
        parameterized = any(g.params for g in template.gates)
        for angle in self.REBIND_ANGLES:
            plan = rebind_plan(base_plan, self._redrawn(template, rng, angle))
            warm = compile_plan(plan, machine, reuse=base)
            self._assert_same_program(warm, compile_plan(plan, machine), plan, machine)
            if warm.ops_recompiled:  # the guard sent it to a structural compile
                assert (warm.ops_reused, warm.ops_rebound) == (0, 0)
                assert warm.structure is not base.structure
            else:
                assert warm.structure is base.structure
                assert warm.ops_reused + warm.ops_rebound == gate_ops
            if angle == 0.7 or not parameterized:
                assert warm.ops_recompiled == 0
                assert (warm.ops_rebound > 0) == parameterized

    def test_tolerance_only_degeneracy_takes_the_fallback(self):
        """rx(1e-13) shares rx(0)'s structural key (``> 1e-12`` pattern) but
        not its exact zero pattern: the session hit must not bind it onto
        rx(0)'s diagonal block — it recompiles, and says so."""
        machine = MachineConfig.for_circuit(5)

        def circuit(theta):
            return Circuit(5).h(0).cx(0, 1).rx(theta, 1).cz(1, 2).ry(0.4, 3).cx(3, 4)

        exact, tiny = circuit(0.0), circuit(1e-13)
        assert exact.structural_key() == tiny.structural_key()
        with Session(machine, backend="incore", planner=legacy_pipeline(kernelize_config=FAST_CONFIG)) as s:
            results = s.run([exact, tiny, circuit(0.0)]).results()
            stats = s.stats.as_dict()
        assert stats["programs_rebound"] == 2
        assert stats["program_rebind_fallbacks"] == 1
        assert stats["program_ops_rebound"] == 0  # the third circuit reuses every op
        assert stats["program_rebind_seconds"] > 0
        assert results[1].summary()["ops_recompiled"] > 0
        assert results[2].summary()["ops_recompiled"] == 0
        assert results[2].summary()["ops_reused"] > 0
        for c, result in zip([exact, tiny, exact], results):
            assert simulate_reference(c).allclose(result.state)

    def test_fused_matrix_changing_class_takes_the_fallback(self):
        """rz(0) has rz's zero pattern, so every gate passes the guard —
        but in front of a crx on the same qubit it turns the fused matrix
        from dense into controlled (the control-0 rows become the
        identity).  The kernel's op template no longer fits, and the plan
        recompiles instead of binding the wrong op."""

        def plan(theta):
            gates = [
                make_gate("rz", [1], [theta]), make_gate("crx", [0, 1], [0.3]),
                make_gate("h", [2]),
            ]
            kernel = Kernel(
                gates=tuple(gates[:2]), qubits=(0, 1), kernel_type=KernelType.FUSION,
                cost=1.0, gate_indices=(0, 1),
            )
            rest = Kernel(
                gates=(gates[2],), qubits=(2,), kernel_type=KernelType.SHM,
                cost=1.0, gate_indices=(2,),
            )
            stage = Stage(
                gates=gates, partition=QubitPartition.from_sets({0, 1, 2}, set(), set()),
                gate_indices=[0, 1, 2], kernels=KernelSequence([kernel, rest]),
            )
            return ExecutionPlan(num_qubits=3, stages=[stage])

        base = compile_plan(plan(0.4))
        generic = compile_plan(plan(0.6), reuse=base)
        assert (generic.ops_reused, generic.ops_rebound, generic.ops_recompiled) == (1, 1, 0)
        degenerate = plan(0.0)
        assert degenerate.stages[0].gates[0].pattern()[1] == base.ops[0].gates[0].pattern()[1]
        warm, cold = compile_plan(degenerate, reuse=base), compile_plan(degenerate)
        assert (warm.ops_reused, warm.ops_rebound, warm.ops_recompiled) == (0, 0, 2)
        assert warm.structure is not base.structure
        self._assert_same_program(warm, cold, degenerate, None)
        assert simulate_reference(Circuit(3, degenerate.stages[0].gates)).allclose(warm.run())

    def test_chain_of_50_rebinds_stays_bit_equal_to_cold(self):
        rng = np.random.default_rng(3)
        template = ising(8)
        machine = _machine(8)
        base_plan = _staged_plan(self._redrawn(template, rng), machine)
        program = compile_plan(base_plan, machine)
        structure, workspace = program.structure, program.workspace
        init = StateVector.random_state(8, seed=1)
        for _ in range(50):
            plan = rebind_plan(base_plan, self._redrawn(template, rng))
            program = compile_plan(plan, machine, reuse=program)
            assert program.structure is structure and program.workspace is workspace
            assert program.ops_recompiled == 0 and program.ops_rebound > 0
            cold = compile_plan(plan, machine)
            assert np.array_equal(program.run(init).data, cold.run(init).data)

    @pytest.mark.parametrize("base_angle", [0.0, np.pi, 1e-13])
    def test_rebind_still_proves_locality(self, base_angle):
        """rx(0) is diagonal; rx(pi) is anti-diagonal and rx(1e-13) diagonal
        only within tolerance (cos(pi/2) is 6e-17, not 0).  All three are
        insular and may sit on a non-local qubit.  Rebinding rx(0.3) there
        violates the staging invariant — whether the guard rejects the plan
        (0: another exact zero pattern, structural compile) or admits it
        (pi, 1e-13: same exact pattern, so only the recorded non-local
        gates stand between the rebind and a wrong layout)."""

        def plan(theta):
            gates = [make_gate("h", [0]), make_gate("rx", [3], [theta]), make_gate("cx", [0, 1])]
            stage = Stage(
                gates=gates,
                partition=QubitPartition.from_sets({0, 1}, {2, 3}, set()),
                gate_indices=[0, 1, 2],
            )
            return ExecutionPlan(num_qubits=4, stages=[stage])

        base = compile_plan(plan(base_angle))
        assert simulate_reference(Circuit(4, plan(base_angle).stages[0].gates)).allclose(base.run())
        with pytest.raises(PlanValidationError, match="staging invariant"):
            compile_plan(plan(0.3))
        with pytest.raises(PlanValidationError, match="staging invariant"):
            compile_plan(plan(0.3), reuse=base)
        # With the check off the same rebind compiles, and is a pure fill
        # exactly when the exact patterns agree.
        unchecked = compile_plan(plan(0.3), reuse=base, check_locality=False)
        assert bool(unchecked.ops_recompiled) == (base_angle == 0.0)

    def test_base_program_is_untouched_by_100_binds(self):
        rng = np.random.default_rng(5)
        template = vqc(8, ansatz_reps=1)
        machine = _machine(8)
        base_plan = _staged_plan(self._redrawn(template, rng), machine)
        base = compile_plan(base_plan, machine)
        init = StateVector.random_state(8, seed=2)
        before = base.run(init).data.copy()
        ops, gates = list(base.ops), [op.gates for op in base.ops]
        items = [
            fusion_mod.lower_kernel_gates(k.gates)
            for stage in base_plan.stages for k in stage.kernels
            if k.kernel_type is not KernelType.FUSION
        ]
        arrays = [
            (a, a.copy()) for lowered in items for item in lowered
            for a in (item.perm, item.phases, item.matrix) if a is not None
        ]
        for _ in range(100):
            plan = rebind_plan(base_plan, self._redrawn(template, rng))
            bound = compile_plan(plan, machine, reuse=base)
            assert bound.ops_recompiled == 0
            bound.run_view(init)  # shares the base's workspace
        assert all(a is b for a, b in zip(base.ops, ops)) and len(base.ops) == len(ops)
        assert [op.gates for op in base.ops] == gates
        assert all(np.array_equal(a, copy) and not a.flags.writeable for a, copy in arrays)
        assert np.array_equal(base.run(init).data, before)

    def test_rebinds_leave_the_kernel_memos_alone(self):
        """A warm job carries its kernels' lowering in the program: 200
        rebinds insert nothing into the fused-unitary or lowering memos
        (they used to store 3-8 never-hit angle-keyed entries each, turning
        the 256-entry lowering memo over every ~40 jobs)."""
        rng = np.random.default_rng(9)
        machine = _machine(8)
        for template in (vqc(8, ansatz_reps=1), ising(8)):
            base_plan = _staged_plan(self._redrawn(template, rng), machine)
            base = compile_plan(base_plan, machine)
            before = fusion_cache_stats()
            lowered = len(fusion_mod._LOWERING_CACHE)
            for _ in range(200):
                plan = rebind_plan(base_plan, self._redrawn(template, rng))
                assert compile_plan(plan, machine, reuse=base).ops_rebound > 0
            after = fusion_cache_stats()
            assert (after["size"], after["evictions"], after["misses"]) == (
                before["size"], before["evictions"], before["misses"],
            )
            assert len(fusion_mod._LOWERING_CACHE) == lowered

    def test_rebound_plans_agree_across_sharded_executors(self):
        """Fresh and degenerate angles through the restructured lowering:
        offload == parallel (W = 1, 2, 4) bit for bit, == in-core to 1e-10."""
        rng = np.random.default_rng(11)
        template = su2random(9, reps=1)
        machine = MachineConfig.for_circuit(9, num_shards=4, local_qubits=6)
        base_plan = _staged_plan(self._redrawn(template, rng), machine)
        base = compile_plan(base_plan, machine)
        for angle in (None, 0.0, np.pi):
            plan = rebind_plan(base_plan, self._redrawn(template, rng, angle))
            offloaded, _ = execute_plan_offloaded(plan, machine)
            for workers in (1, 2, 4):
                with ParallelRuntime(machine, num_workers=workers) as runtime:
                    parallel, _ = runtime.execute(plan)
                assert np.array_equal(offloaded.data, parallel.data), (angle, workers)
            incore = compile_plan(plan, machine, reuse=base).run()
            assert incore.allclose(offloaded, atol=1e-10)


class TestOffloadAndParallelPaths:
    @pytest.mark.parametrize("name,factory", CIRCUITS)
    def test_offloaded_matches_compiled_incore(self, name, factory):
        circuit = factory()
        n = circuit.num_qubits
        machine = _machine(n)
        plan = _staged_plan(circuit, machine)
        incore, _ = execute_plan(plan, machine=machine)
        offloaded, _ = execute_plan_offloaded(plan, machine)
        assert incore.allclose(offloaded, atol=1e-10)
        assert simulate_reference(circuit).allclose(offloaded)

    def test_compiled_segment_ops_bit_exact_with_dynamic_groups(self):
        """`run_segment_ops` (compiled) and `run_groups_on_shard` (dynamic)
        must agree bit for bit on every shard, including non-local
        resolution paths and shard relabels."""
        circuit = (
            Circuit(6).h(0).h(1).x(4).y(5).cp(0.7, 3, 4).crz(0.5, 1, 5).cx(0, 1)
        )
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1, 2}, {3, 4}, {5}),
            gate_indices=list(range(len(circuit.gates))),
        )
        logical_to_physical = stage.partition.logical_to_physical()
        local = 3
        segments = split_stage_segments(stage, logical_to_physical, local)
        rng = np.random.default_rng(0)
        for kind, groups in segments:
            assert kind == "shards"
            ops = compile_segment_ops(groups, logical_to_physical, local)
            for shard_index in range(8):
                shard = rng.normal(size=8) + 1j * rng.normal(size=8)
                a, b = shard.copy(), np.empty(8, dtype=complex)
                c, d = shard.copy(), np.empty(8, dtype=complex)
                a, b, idx_compiled = run_segment_ops(
                    a, b, ops, logical_to_physical, local, shard_index
                )
                c, d, idx_dynamic = run_groups_on_shard(
                    c, d, groups, logical_to_physical, local, shard_index
                )
                assert idx_compiled == idx_dynamic
                assert np.array_equal(a, c)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_bit_exact_with_offloaded(self, workers):
        circuit = qft(8)
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=4)
        plan = _staged_plan(circuit, machine)
        sequential, _ = execute_plan_offloaded(plan, machine)
        with ParallelRuntime(machine, num_workers=workers) as runtime:
            parallel, _ = runtime.execute(plan)
            again, _ = runtime.execute(plan)  # warm schedule cache
        assert np.array_equal(sequential.data, parallel.data)
        assert np.array_equal(sequential.data, again.data)


# ---------------------------------------------------------------------------
# Shared-memory kernels: one op per monomial run
# ---------------------------------------------------------------------------

#: Sizes today's other pins (8-10 qubits) never reach: above 16 qubits a
#: block touching the top qubits runs as slice moves instead of a gather.
LARGE_CIRCUITS = [
    ("qft-14", lambda: qft(14)),
    ("su2random-14", lambda: su2random(14, reps=1)),
    ("ising-15", lambda: ising(15)),
    ("random-16", lambda: random_circuit(16, 200, seed=5)),
    ("su2random-17", lambda: su2random(17, reps=1)),
]


def _shm_plan(gates, n):
    """*gates* as a one-stage plan holding one shared-memory kernel."""
    gates = list(gates)
    kernel = Kernel(
        gates=tuple(gates), qubits=tuple(range(n)), kernel_type=KernelType.SHM,
        cost=1.0, gate_indices=tuple(range(len(gates))),
    )
    stage = Stage(
        gates=gates,
        partition=QubitPartition.from_sets(set(range(n)), set(), set()),
        gate_indices=list(range(len(gates))),
        kernels=KernelSequence([kernel]),
    )
    return ExecutionPlan(num_qubits=n, stages=[stage])


class TestLoweredKernels:
    @pytest.mark.parametrize("name,factory", LARGE_CIRCUITS)
    def test_compiled_bit_exact_with_interpreter_at_14_to_17_qubits(self, name, factory):
        circuit = factory()
        machine = MachineConfig.for_circuit(circuit.num_qubits)
        plan = _staged_plan(circuit, machine)
        init = StateVector.random_state(circuit.num_qubits, seed=2)
        compiled, compiled_trace = execute_plan(plan, init, machine=machine)
        interpreted, interp_trace = execute_plan(
            plan, init, machine=machine, compiled=False
        )
        assert np.array_equal(compiled.data, interpreted.data)
        assert simulate_reference(circuit, init).allclose(compiled)
        # Both paths executed the same lowered items: fewer ops than gates.
        assert compiled_trace.num_gates == interp_trace.num_gates == len(circuit)
        assert compiled_trace.num_ops == interp_trace.num_ops < len(circuit)

    @pytest.mark.parametrize("name,factory", LARGE_CIRCUITS)
    def test_sharded_paths_bit_exact_at_14_to_17_qubits(self, name, factory):
        circuit = factory()
        n = circuit.num_qubits
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 3)
        plan = _staged_plan(circuit, machine)
        offloaded, _ = execute_plan_offloaded(plan, machine)
        assert simulate_reference(circuit).allclose(offloaded)
        for workers in (1, 2, 4):
            with ParallelRuntime(machine, num_workers=workers) as runtime:
                parallel, _ = runtime.execute(plan)
            assert np.array_equal(offloaded.data, parallel.data), workers
        # Compiled segments against the dynamic per-group path, shard by shard.
        local = machine.local_qubits
        rng = np.random.default_rng(1)
        for stage in plan.stages:
            l2p = stage.partition.logical_to_physical()
            for kind, groups in split_stage_segments(stage, l2p, local):
                assert kind == "shards"
                ops = compile_segment_ops(groups, l2p, local)
                assert len(ops) <= sum(len(gates) for gates, _ in groups)
                for shard_index in (0, 5):
                    shard = rng.normal(size=1 << local) + 1j * rng.normal(size=1 << local)
                    a, b = shard.copy(), np.empty_like(shard)
                    c, d = shard.copy(), np.empty_like(shard)
                    a, b, i = run_segment_ops(a, b, ops, l2p, local, shard_index)
                    c, d, j = run_groups_on_shard(c, d, groups, l2p, local, shard_index)
                    assert i == j and np.array_equal(a, c)

    def test_degenerate_angles_rebuild_the_block_on_rebind(self):
        """rx(0) is the identity (a diagonal), ry(pi) a permutation: a
        rebind onto such angles changes which gates fold together, and
        must rebuild from the new lowering, never reuse the cached op."""
        n = 5

        def gates(rx, rz, p, ry):
            return [
                make_gate("cx", [0, 1]), make_gate("rx", [1], [rx]),
                make_gate("cz", [1, 2]), make_gate("rz", [2], [rz]),
                make_gate("p", [3], [p]), make_gate("ry", [3], [ry]),
                make_gate("cx", [3, 4]), make_gate("h", [0]),
            ]

        generic = gates(0.3, 0.4, 0.5, 0.6)
        base = compile_plan(_shm_plan(generic, n))
        # One op for the kernel (six before: the unit changed from item to
        # kernel, not the lowering), listing the same six items.
        (kernel,) = base.ops
        assert [len(gates_) for _kind, _qubits, gates_ in kernel.items] == [1, 1, 3, 1, 1, 1]
        for angles in [(0.0, 0.4, 0.5, 0.6), (0.3, 0.0, np.pi, 0.6),
                       (0.3, 0.4, 0.5, np.pi), (0.0, 0.0, np.pi, np.pi)]:
            degenerate = gates(*angles)
            plan = _shm_plan(degenerate, n)
            warm = compile_plan(plan, reuse=base)
            cold = compile_plan(plan)
            assert [op.items for op in warm.ops] == [op.items for op in cold.ops]
            init = StateVector.random_state(n, seed=4)
            assert np.array_equal(warm.run(init).data, cold.run(init).data)
            assert simulate_reference(Circuit(n, degenerate), init).allclose(warm.run(init))
            for op in warm.ops:  # a reused op binds exactly the gates it was built from
                if any(op is old for old in base.ops):
                    assert op.gates == next(o for o in base.ops if o is op).gates
        # rx(0) folds into its neighbours: the all-dense split is gone.
        folded = compile_plan(_shm_plan(gates(0.0, 0.4, 0.5, 0.6), n), reuse=base)
        assert len(folded.ops[0].items) < len(kernel.items)

    def test_all_cx_block_is_reused_on_rebind(self):
        # 14 qubits: su2random-12 (used while an item was the unit) stages
        # no kernel that is CX only.
        machine = MachineConfig.for_circuit(14)
        base, other = su2random(14, reps=1, seed=0), su2random(14, reps=1, seed=1)
        base_plan = _staged_plan(base, machine)
        base_program = compile_plan(base_plan, machine)
        rebound = compile_plan(rebind_plan(base_plan, other), machine, reuse=base_program)
        reused = [op for op in rebound.ops if any(op is old for old in base_program.ops)]
        # Kernels are reused whole (items were, before): the kernels that
        # hold nothing but the CX ladder are taken verbatim.
        assert rebound.ops_reused == len(reused) > 0
        assert all(g.name == "cx" for op in reused for g in op.gates)
        assert any(len(op.gates) > 1 for op in reused), [len(op.gates) for op in reused]
        assert simulate_reference(other).allclose(rebound.run())

    @pytest.mark.parametrize("n", [9, 17])
    def test_batched_blocks_bit_exact_with_looped_runs(self, n):
        """An op has one body: the stacked pass equals looped runs bit for
        bit at every width, a stack of one included — blocks (broadcast and
        copy ops), gemms (the stack is a looped matmul axis) and layout
        transposes alike.  At 17 qubits the block reaching qubit 16 runs as
        slice moves, the low one as a gather."""
        top = n - 1
        gates = [
            make_gate("cx", [0, 1]), make_gate("rz", [1], [0.3]), make_gate("cx", [1, 2]),
            make_gate("y", [2]), make_gate("cp", [0, 3], [0.9]),
            make_gate("h", [0]), make_gate("h", [1]), make_gate("h", [2]), make_gate("h", [3]),
            make_gate("rzz", [0, top], [0.4]), make_gate("p", [top], [1.1]),
            make_gate("h", [top]),
            make_gate("swap", [4, top]), make_gate("t", [4]), make_gate("ccx", [4, 5, top]),
        ]
        program = compile_plan(_shm_plan(gates, n))
        # One kernel op (five item ops before the kernel became the unit)
        # of five items: the h on qubits 0-3 fold into one, the h on the
        # top qubit stays alone.
        assert program.op_counts() == {"sm": 1}
        assert [kind for kind, _qubits, _gates in program.ops[0].items] == [
            "block", "fold", "block", "gate", "block",
        ]
        states = [StateVector.random_state(n, seed=s) for s in range(5)]
        looped = [program.run(state).data.copy() for state in states]
        for batch in (1, 2, 5):
            for got, want in zip(program.run_batched(states[:batch]), looped):
                assert np.array_equal(got.data, want)
        assert simulate_reference(Circuit(n, gates), states[0]).allclose(
            StateVector(n, looped[0])
        )
        # Op by op, a stage-boundary transpose included: flat, (1, 2^n)
        # and (B, 2^n) buffers through the one closure.
        from repro.sim.program import Workspace, compile_layout_op

        layout = compile_layout_op(np.random.default_rng(n).permutation(n), n)
        stack = np.stack([state.data for state in states])
        ws = Workspace()
        for op in [*program.ops, layout]:
            flat = [op.run(row.copy(), np.empty_like(row), ws)[0].copy() for row in stack]
            for batch in (1, 2, 5):
                rows = stack[:batch].copy()
                got, _ = op.run(rows, np.empty_like(rows), ws)
                assert got.shape == (batch, 1 << n)
                for row, want in zip(got, flat):
                    assert np.array_equal(row, want), (op.kind, batch)

    @pytest.mark.parametrize("gather_bits", [apply_mod._MONOMIAL_GATHER_BITS, 0])
    def test_view_memo_is_bounded_over_200_rebinds(self, monkeypatch, gather_bits):
        """Angle-carrying blocks are rebuilt on every rebind.  The view memo
        is keyed by what the views are, not by which op asked, so a rebound
        block finds its predecessor's views: 200 rebinds of su2random-14
        neither grow the memo nor allocate (``gather_bits=0`` forces every
        permuting block onto the slice-view path)."""
        monkeypatch.setattr(apply_mod, "_MONOMIAL_GATHER_BITS", gather_bits)
        machine = MachineConfig.for_circuit(14)
        template = su2random(14, reps=1)
        plan = _staged_plan(template, machine)
        program = compile_plan(plan, machine)
        workspace = program.workspace
        rng = np.random.default_rng(0)
        allocated = []

        def rebind():
            nonlocal program
            gates = [
                make_gate(g.name, g.qubits, rng.uniform(0.1, 6.0, len(g.params)))
                for g in template.gates
            ]
            rebound = rebind_plan(plan, Circuit(14, gates))
            program = compile_plan(rebound, machine, reuse=program)
            assert program.workspace is workspace
            apply_mod.reset_allocation_log()  # compiling may fuse; running must not allocate
            final = program.run_view()
            allocated.extend(apply_mod.allocation_log())
            return final

        rebind(), rebind()  # warm: both ping-pong buffers have met every op
        held, entries = workspace._views_held, len(workspace._views)
        if gather_bits == 0 and native.engine() == "numpy":
            assert held > 0  # the native kernel body borrows no views
        assert held <= workspace._MAX_VIEWS
        allocated.clear()
        for _ in range(200):
            final = rebind()
        # Only a scattered wide fusion kernel's tensordot may allocate per run.
        assert allocated == [1 << 14] * (200 * program.op_counts().get("big", 0))
        assert (workspace._views_held, len(workspace._views)) == (held, entries)
        assert abs(np.vdot(final, final).real - 1.0) < 1e-9

    def test_view_memo_evicts_by_total_views(self):
        from repro.sim.program import Workspace

        ws = Workspace()
        bufs = [np.zeros(1 << 12, dtype=complex) for _ in range(40)]
        for buf in bufs:  # 40 entries of 2^10 views: past the 2^15 bound
            assert len(ws.views(buf, 12, tuple(range(10)))) == 1 << 10
        assert ws._views_held <= ws._MAX_VIEWS
        assert ws._views_held == sum(len(v) for _b, v in ws._views.values())
        # The survivors are the most recent buffers, still served from memo.
        views = ws.views(bufs[-1], 12, tuple(range(10)))
        assert views is ws.views(bufs[-1], 12, tuple(range(10)))

    def test_lowering_is_memoized_and_read_only(self):
        gates = tuple(su2random(6, reps=1).gates)
        items = lower_kernel_gates(gates)
        assert lower_kernel_gates(list(gates)) is items
        block = next(item for item in items if item.matrix is None)
        with pytest.raises(ValueError):
            block.phases[0] = 2.0
        assert sum(len(item.gates) for item in items) == len(gates)


class TestMemoryControls:
    def test_execute_false_jobs_compile_no_programs(self):
        machine = _machine(10)
        with Session(machine, backend="incore", planner=legacy_pipeline(kernelize_config=FAST_CONFIG)) as s:
            job = s.run([vqc(10, seed=i) for i in range(3)], execute=False)
            assert s.stats.programs_compiled == 0
            assert s.stats.programs_rebound == 0
            assert all(r.state is None for r in job.modelled_results())
            # A later executing run on the same structure backfills the
            # program and still produces correct states.
            res = s.run(vqc(10, seed=9)).results()[0]
            assert s.stats.programs_compiled == 1
            assert simulate_reference(vqc(10, seed=9)).allclose(res.state)

    def test_release_apis_drop_compiled_buffers(self):
        from repro.runtime import clear_program_cache
        from repro.sim import release_thread_workspace
        from repro.sim.program import thread_workspace

        plan = _staged_plan(qft(8), _machine(8))
        execute_plan(plan)
        ws = thread_workspace()
        assert ws._pairs  # the compiled path parked its ping-pong pair
        release_thread_workspace()
        clear_program_cache()
        assert not getattr(thread_workspace(), "_pairs")
        # The compiled path still works afterwards (recompiles/reallocates).
        state, _ = execute_plan(plan)
        assert simulate_reference(qft(8)).allclose(state)

    def test_workspace_view_memo_survives_many_buffers(self):
        """A workspace view memo entry is per (op, buffer); cycling more
        buffers than any fixed per-op bound must neither error nor corrupt
        results (regression: a shared 32-entry cache thrashed and could
        KeyError under concurrent eviction)."""
        program = compile_plan(_staged_plan(vqc(8, seed=0), _machine(8)))
        from repro.sim.program import Workspace

        want = program.run().data.copy()
        for _ in range(3):
            # Fresh workspaces simulate many workers' distinct buffers.
            got = program.run(workspace=Workspace())
            assert np.array_equal(got.data, want)


    def test_entry_points_do_not_retain_caller_buffers(self):
        """The entry points run the compiler's bound ops on the thread
        workspace, whose view memo is keyed by buffer identity and holds
        its base alive — so they must not feed it buffers nobody owns: a
        buffer pair that is dropped after a permutation, a controlled and a
        dense gate went over it is really gone."""
        import gc
        import weakref

        from repro.circuits.gates import gate_matrix
        from repro.sim.apply import apply_gate_buffered, apply_matrix

        n = 12
        cases = [("cx", [4, 9]), ("ch", [9, 3]), ("ch", [3, 9]), ("h", [6])]
        state = StateVector.random_state(n, seed=1).data.copy()
        scratch = np.empty_like(state)
        refs = [weakref.ref(state), weakref.ref(scratch)]
        for name, qubits in cases:
            state, scratch = apply_gate_buffered(state, scratch, gate_matrix(name), qubits)
            apply_matrix(state, gate_matrix(name), qubits, out=state)
            out = apply_matrix(state, gate_matrix(name), qubits, out=scratch)
            assert out is scratch
        del state, scratch, out
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_a_dropped_workspace_goes_without_the_cycle_collector(self):
        """A program's workspace dies with the program by reference count
        (a fresh Session per job must not leave state-sized buffers waiting
        for a gen-2 collection: +5 % peak RSS on `cold-plan-16q` when the
        workspace kept its caller-buffers face on itself)."""
        import gc
        import weakref

        from repro.sim.program import Workspace

        gc.disable()
        try:
            ws = Workspace()
            ws.for_caller_buffers().tmp(1 << 8)
            ref = weakref.ref(ws.pair(1 << 10)[0])
            del ws
            assert ref() is None
        finally:
            gc.enable()

    def test_reference_backend_loop_leaves_the_thread_workspace_flat(self):
        """200 fresh 14-qubit states through the reference backend (the
        entry points, gate by gate): the thread workspace ends up holding
        O(1) state-sized arrays and no view of any of them."""
        from repro.sim.program import thread_workspace

        n = 14
        circuit = random_circuit(n, 12, seed=5)
        ws = thread_workspace()
        views_before = ws._views_held
        with Session(_machine(n), backend="reference") as session:
            for seed in range(200):
                session.run(circuit, initial_state=StateVector.basis_state(n, seed))
        assert ws._views_held == views_before
        state_sized = [size for size, _slot in ws._tmps if size >= 1 << n]
        assert len(state_sized) <= 2 and len(ws._pairs) <= ws._MAX_PAIRS


class TestBoundedFusionCache:
    def test_eviction_and_counters(self):
        stats0 = fusion_cache_stats()
        assert stats0["maxsize"] >= 1
        configure_fusion_cache(maxsize=4, clear=True)
        try:
            machine = _machine(6)
            # Distinct kernels from distinct angles: more structures than
            # the bound, so the cache must evict instead of growing.
            for seed in range(8):
                circuit = random_circuit(6, 30, seed=seed)
                plan = _staged_plan(circuit, machine)
                execute_plan(plan, machine=machine)
            stats = fusion_cache_stats()
            assert stats["size"] <= 4
            assert stats["evictions"] > 0
            assert stats["misses"] > 0
        finally:
            configure_fusion_cache(maxsize=stats0["maxsize"], clear=True)

    def test_session_surfaces_fusion_counters(self):
        machine = _machine(8)
        sweep = [vqc(8, seed=s) for s in range(3)]
        with Session(machine, backend="incore", planner=legacy_pipeline(kernelize_config=FAST_CONFIG)) as s:
            s.run(sweep)
            stats = s.stats.as_dict()
        assert stats["fusion_cache_misses"] > 0
        assert stats["fusion_cache_hits"] >= 0
        assert "fusion_cache_evictions" in stats


class TestWideGemmRouting:
    """Satellite: k>=3 fused matrices route through single-GEMM dense plans."""

    @pytest.mark.parametrize(
        "qubits",
        [
            (0, 1, 2),        # low window (exact, gemm_right)
            (0, 2, 3),        # low window with a hole
            (4, 5, 6),        # contiguous mid run (stacked)
            (2, 1, 3),        # contiguous, scrambled order
            (7, 8, 9),        # high window (gemm_left / stacked)
            (6, 8, 9),        # high window with a hole
            (0, 4, 8),        # scattered: tensordot fallback
            (3, 4, 5, 6),     # contiguous 4q
            (9, 8, 7, 6),     # descending order, high run
        ],
    )
    def test_wide_apply_matches_reference(self, qubits):
        from repro.sim.apply import apply_matrix, apply_matrix_reference

        n = 10
        rng = np.random.default_rng(sum(qubits))
        raw = rng.normal(size=(1 << len(qubits),) * 2) + 1j * rng.normal(
            size=(1 << len(qubits),) * 2
        )
        matrix, _ = np.linalg.qr(raw)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        want = apply_matrix_reference(state, matrix, list(qubits))
        got_pure = apply_matrix(state, matrix, list(qubits))
        out = np.empty_like(state)
        got_out = apply_matrix(state, matrix, list(qubits), out=out)
        inplace = state.copy()
        apply_matrix(inplace, matrix, list(qubits), out=inplace)
        assert np.allclose(want, got_pure, atol=1e-12)
        assert np.allclose(want, got_out, atol=1e-12)
        assert np.allclose(want, inplace, atol=1e-12)

    def test_contiguous_wide_run_is_gemm_planned(self):
        from repro.sim.apply import _single_gemm_plannable

        assert _single_gemm_plannable((4, 5, 6), 10)
        assert _single_gemm_plannable((0, 1, 2, 3), 10)
        assert not _single_gemm_plannable((0, 4, 8), 10)
        # Very wide contiguous runs stay on tensordot (measured slower as
        # stacked gemm), except at the register edges.
        assert not _single_gemm_plannable(tuple(range(5, 15)), 20)
        assert _single_gemm_plannable(tuple(range(10, 20)), 20)
        assert _single_gemm_plannable(tuple(range(0, 10)), 20)
