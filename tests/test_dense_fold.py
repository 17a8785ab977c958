"""The dense planner's position table and the dense-run fold.

Two contracts.  The planner (`sim/apply.py::_gemm_strategy`) is the one
place that decides which single-matmul strategy a dense gate gets, and
`_single_gemm_plannable` / `_dense_plan_impl` read it.  The shared-memory
lowering (`sim/fusion.py::kernel_lowering`) folds commuting 1q dense gates
on physically adjacent positions into one item — for every consumer alike
(compiler, interpreter, both shard executors, the verifier's expected
stream), never into an item that plans to a split or tensordot path, and
as a numeric fill on rebinds.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import expected_op_stream, verify_program
from repro.circuits import Circuit, make_gate
from repro.circuits.library import ising, su2random, vqc
from repro.cluster import MachineConfig
from repro.core import KernelizeConfig, partition
from repro.core.kernel import Kernel, KernelSequence, KernelType
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.errors import KernelError
from repro.runtime import (
    ParallelRuntime,
    compile_plan,
    execute_plan,
    execute_plan_offloaded,
)
from repro.session.cache import rebind_plan
from repro.sim import StateVector, simulate_reference
from repro.sim import apply as apply_mod
from repro.sim.apply import (
    _dense_plan_impl,
    _gemm_strategy,
    _single_gemm_plannable,
    apply_matrix_reference,
    run_dense_plan,
)
from repro.sim.fusion import _fold_positions, kernel_lowering, lower_kernel_gates

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SINGLE_GEMM = {"gemm_right", "gemm_left", "stacked"}


def _unitary(k, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(1 << k,) * 2) + 1j * rng.normal(size=(1 << k,) * 2)
    return np.linalg.qr(raw)[0]


# ---------------------------------------------------------------------------
# One position table
# ---------------------------------------------------------------------------


class TestPositionTable:
    @pytest.mark.parametrize("n", [6, 12, 17, 20])
    def test_plannable_iff_the_planner_returns_a_single_gemm(self, n):
        """Over every qubit tuple of width <= 3: `_single_gemm_plannable`
        holds exactly when `_dense_plan_impl` returns a one-matmul plan (a
        2q gate otherwise gets a split plan, a 3q gate none at all)."""
        matrices = {k: _unitary(k, k) for k in (1, 2, 3)}
        for k in (1, 2, 3):
            for qubits in itertools.permutations(range(n), k):
                if k == 3 and n > 12 and qubits[0] % 5:
                    continue  # thin the 3q sweep on the big registers
                try:
                    kind = _dense_plan_impl(matrices[k], n, qubits)[0]
                except KernelError:
                    kind = None
                assert _single_gemm_plannable(qubits, n) == (kind in SINGLE_GEMM), qubits
                if kind not in SINGLE_GEMM:
                    assert kind in (("split_stacked", "split_gemm") if k == 2 else (None,))

    @pytest.mark.parametrize("n", [6, 9])
    def test_every_plan_computes_the_gate(self, n):
        rng = np.random.default_rng(n)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for k in (1, 2, 3):
            matrix = _unitary(k, 10 + k)
            for qubits in itertools.permutations(range(n), k):
                if not (k == 2 or _single_gemm_plannable(qubits, n)):
                    continue
                out = np.empty_like(state)
                run_dense_plan(_dense_plan_impl(matrix, n, qubits), state, out)
                want = apply_matrix_reference(state, matrix, list(qubits))
                assert np.allclose(out, want, atol=1e-12), qubits

    @pytest.mark.parametrize("qubits,n,strategy", [
        ((4,), 20, "gemm_right"), ((5,), 20, "stacked"), ((19,), 20, "stacked"),
        ((3, 4), 20, "gemm_right"), ((4, 5), 20, "stacked"),    # was a 64-column right gemm
        ((14, 15), 20, "stacked"), ((11, 12), 17, "stacked"),   # were 64x-inflated left gemms
        ((18, 19), 20, "stacked"),
        ((1, 2, 3), 20, "gemm_right"), ((2, 3, 4), 17, "gemm_right"),  # were post-2/4 stacked
        ((3, 4, 5), 20, "stacked"), ((1, 2, 3, 4, 5), 16, "gemm_right"),
        ((2, 3, 4, 5, 6), 16, "stacked"),
        ((0, 5), 20, "gemm_right"), ((14, 19), 20, "gemm_left"), ((0, 6), 20, None),
        ((0, 1, 3), 20, "gemm_right"), ((16, 18, 19), 20, "gemm_left"), ((0, 2, 4), 20, None),
    ])
    def test_the_re_measured_table(self, qubits, n, strategy):
        assert _gemm_strategy(qubits, n) == strategy


# ---------------------------------------------------------------------------
# The fold rule
# ---------------------------------------------------------------------------


class TestFoldRule:
    def test_groups_are_contiguous_runs(self):
        assert _fold_positions([0, 1, 2, 3, 4, 5, 6, 7, 8]) == [
            [0, 1, 2, 3, 4], [5, 6], [7, 8],
        ]
        assert _fold_positions([0, 2, 4, 5, 8, 10, 11, 12, 13, 14]) == [
            [0], [2], [4, 5], [8], [10, 11], [12, 13], [14],
        ]
        assert _fold_positions([3, 4, 5, 6]) == [[3, 4], [5, 6]]
        assert _fold_positions([]) == []

    def test_the_fold_sees_the_layout(self):
        """Logically adjacent qubits that sit apart do not share an item;
        logically distant ones on neighbouring positions do."""
        gates = [make_gate("rx", [q], [0.1 * (q + 1)]) for q in range(4)]
        together = kernel_lowering(gates, {0: 8, 1: 9, 2: 12, 3: 13})
        assert [item.qubits for item in together] == [(0, 1), (2, 3)]
        apart = kernel_lowering(gates, {0: 8, 1: 12, 2: 9, 3: 14})
        assert [item.qubits for item in apart] == [(0, 2), (1,), (3,)]
        assert [item.qubits for item in kernel_lowering(gates)] == [(0, 1, 2, 3)]

    def test_same_qubit_gates_multiply_in_circuit_order(self):
        gates = [
            make_gate("rx", [0], [0.3]), make_gate("h", [1]), make_gate("ry", [0], [0.8]),
            make_gate("cx", [2, 3]), make_gate("u3", [1], [0.1, 0.2, 0.3]),
        ]
        (fold, block) = lower_kernel_gates(gates, {q: q + 6 for q in range(4)})
        assert fold.gates == (gates[0], gates[1], gates[2], gates[4])
        want = np.kron(
            gates[4].matrix() @ gates[1].matrix(), gates[2].matrix() @ gates[0].matrix()
        )
        assert np.allclose(fold.matrix, want, atol=1e-15)
        assert block.gates == (gates[3],)

    def test_wider_dense_gates_stay_alone_and_order_is_kept(self):
        gates = [
            make_gate("h", [0]), make_gate("rxx", [0, 1], [0.4]), make_gate("h", [1]),
            make_gate("crx", [1, 2], [0.2]), make_gate("h", [2]),
        ]
        items = lower_kernel_gates(gates)
        assert [item.gates for item in items] == [(g,) for g in gates]


# ---------------------------------------------------------------------------
# Planner-memo hygiene
# ---------------------------------------------------------------------------


def _redrawn(template, rng):
    return Circuit(template.num_qubits, [
        make_gate(g.name, g.qubits, rng.uniform(0.1, 6.1, len(g.params))) if g.params else g
        for g in template.gates
    ])


def _ising_plan(rng):
    machine = MachineConfig.for_circuit(12, num_shards=4)
    template = ising(12)
    plan, _ = partition(_redrawn(template, rng), machine,
                        kernelize_config=KernelizeConfig(pruning_threshold=16))
    return machine, template, plan


def test_rebinds_leave_the_dense_plan_memo_alone():
    """A template's bind fills without memoizing: 200 rebinds of ising-12
    leave `_BOUND_OPS` (the entry points' memo, where gemm plans live
    now) where the cold compile left it (50 rebinds used to grow its
    predecessor 49 -> 1899 entries, each pinning a dead matrix and its
    expanded copy, until the wipe at 4096 dropped the live ones)."""
    rng = np.random.default_rng(3)
    machine, template, base_plan = _ising_plan(rng)
    base = compile_plan(base_plan, machine)
    base.run()
    size = len(apply_mod._BOUND_OPS)
    for _ in range(200):
        plan = rebind_plan(base_plan, _redrawn(template, rng))
        program = compile_plan(plan, machine, reuse=base)
        assert program.ops_rebound > 0 and program.ops_recompiled == 0
    assert len(apply_mod._BOUND_OPS) == size


def test_an_interpreted_sweep_stays_within_the_memo_bound(monkeypatch):
    """The interpreter does memoize — one entry per item *object* it
    applies.  Over a 50-job angle sweep of ising-12 the angle-carrying
    items add a constant number of entries a job, the parameter-free ones
    hit theirs, and below the bound nothing is wiped (the old gemm-plan
    memo wiped at the same 4096 and nowhere else); at the bound the memo
    restarts and results do not change."""
    rng = np.random.default_rng(4)
    machine, template, base_plan = _ising_plan(rng)
    apply_mod._BOUND_OPS.clear()
    sizes, first = [], None
    for _ in range(50):
        plan = rebind_plan(base_plan, _redrawn(template, rng))
        execute_plan(plan, machine=machine, compiled=False)
        sizes.append(len(apply_mod._BOUND_OPS))
        first = first or set(apply_mod._BOUND_OPS)
    per_job = sizes[1] - sizes[0]
    assert 0 < per_job < sizes[0]  # some of the first job's entries recur
    assert sizes == [sizes[0] + job * per_job for job in range(50)]
    assert sizes[-1] < apply_mod._BOUND_OPS_MAX
    assert first <= set(apply_mod._BOUND_OPS)

    monkeypatch.setattr(apply_mod, "_BOUND_OPS_MAX", 2 * per_job)
    for _ in range(5):
        plan = rebind_plan(base_plan, _redrawn(template, rng))
        interpreted, _ = execute_plan(plan, machine=machine, compiled=False)
        assert len(apply_mod._BOUND_OPS) <= 2 * per_job
        assert np.array_equal(interpreted.data, compile_plan(plan, machine).run().data)


# ---------------------------------------------------------------------------
# Differential: one fold for every consumer
# ---------------------------------------------------------------------------

_DENSE_1Q = ["h", "sx", "rx", "ry", "u2", "u3"]
_LOCAL_ONLY = _DENSE_1Q * 3 + ["x", "y", "cx", "swap", "rxx", "ryy", "crx", "ch"]
_ANYWHERE = ["rz", "p", "t", "cp", "cz", "rzz"]


@st.composite
def folded_kernel_cases(draw, min_qubits=4, max_qubits=8):
    """``(n, gates, sets, chunks)``: a random layout with the top two
    positions non-local, and a gate sequence heavy in 1q dense gates
    (repeated qubits included) with diagonal, permutation and 2q dense
    gates between them; only diagonal gates touch the non-local qubits, as
    staging guarantees.  ``chunks`` cuts the sequence into shared-memory
    kernels."""
    from repro.circuits.gates import GATE_SPECS

    n = draw(st.integers(min_qubits, max_qubits))
    order = draw(st.permutations(range(n)))  # order[p] = logical qubit at position p
    local = list(order[: n - 2])
    gates = []
    for _ in range(draw(st.integers(2, 28))):
        anywhere = draw(st.integers(0, 4)) == 0
        spec = GATE_SPECS[draw(st.sampled_from(_ANYWHERE if anywhere else _LOCAL_ONLY))]
        qubits = draw(st.lists(
            st.sampled_from(list(order) if anywhere else local),
            min_size=spec.num_qubits, max_size=spec.num_qubits, unique=True,
        ))
        params = [draw(st.floats(0.05, 6.2)) for _ in range(spec.num_params)]
        gates.append(make_gate(spec.name, qubits, params))
    chunks, start = [], 0
    while start < len(gates):
        size = draw(st.integers(1, 12))
        chunks.append((start, min(start + size, len(gates))))
        start += size
    return n, gates, (tuple(local), tuple(order[n - 2: n - 1]), tuple(order[n - 1:])), chunks


def _shm_kernels_plan(n, gates, sets, chunks):
    kernels = KernelSequence([
        Kernel(
            gates=tuple(gates[a:b]),
            qubits=tuple(sorted({q for g in gates[a:b] for q in g.qubits})),
            kernel_type=KernelType.SHM, cost=1.0, gate_indices=tuple(range(a, b)),
        )
        for a, b in chunks
    ])
    stage = Stage(
        # Built directly: from_sets would sort each set and lose the layout.
        gates=list(gates), partition=QubitPartition(*sets),
        gate_indices=list(range(len(gates))), kernels=kernels,
    )
    return ExecutionPlan(num_qubits=n, stages=[stage])


def _folded_items(program):
    """The ``(positions, gates)`` of every dense fold inside the program's
    shared-memory kernel ops (a fold was an op of its own while an item
    was the unit of the stream; the unit changed, not the fold)."""
    return [
        (positions, gates)
        for op in program.ops if op.kind == "sm"
        for kind, positions, gates in op.items if kind == "fold"
    ]


class TestDenseFoldDifferential:
    @given(folded_kernel_cases(), st.integers(0, 999))
    @settings(**SETTINGS)
    def test_every_executor_runs_the_same_fold(self, case, seed):
        n, gates, sets, chunks = case
        plan = _shm_kernels_plan(n, gates, sets, chunks)
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        init = StateVector.random_state(n, seed=seed)
        program = compile_plan(plan, machine)
        compiled = program.run(init)
        interpreted, trace = execute_plan(plan, init, machine=machine, compiled=False)
        assert np.array_equal(compiled.data, interpreted.data)
        assert trace.num_ops == len(program.ops)
        # The verifier reads the same lowering: same sources, gates, items.
        assert [(op.source, op.gates, op.items) for op in program.ops] == (
            expected_op_stream(plan, machine)
        )
        assert verify_program(program, plan=plan, machine=machine).ok
        offloaded, _ = execute_plan_offloaded(plan, machine, init)
        with ParallelRuntime(machine, num_workers=2) as runtime:
            parallel, _ = runtime.execute(plan, init)
        assert np.array_equal(offloaded.data, parallel.data)
        assert offloaded.allclose(compiled, atol=1e-10)
        assert simulate_reference(Circuit(n, gates), init).allclose(compiled)
        # No fold plans to a split gemm or the tensordot path in the item loop.
        for positions, _gates in _folded_items(program):
            assert max(positions) - min(positions) + 1 == len(positions)
            assert _gemm_strategy(positions, n) in SINGLE_GEMM

    @given(folded_kernel_cases(), st.integers(0, 999))
    @settings(**SETTINGS)
    def test_a_rebound_fold_equals_a_cold_compile(self, case, seed):
        n, gates, sets, chunks = case
        rng = np.random.default_rng(seed)
        rebound = [
            make_gate(g.name, g.qubits, rng.uniform(0.05, 6.2, len(g.params)))
            if g.params else g
            for g in gates
        ]
        base = compile_plan(_shm_kernels_plan(n, gates, sets, chunks), check_locality=False)
        plan = _shm_kernels_plan(n, rebound, sets, chunks)
        warm = compile_plan(plan, check_locality=False, reuse=base)
        cold = compile_plan(plan, check_locality=False)
        assert warm.ops_recompiled == 0
        assert [(op.kind, op.qubits, op.gates, op.items) for op in warm.ops] == [
            (op.kind, op.qubits, op.gates, op.items) for op in cold.ops
        ]
        init = StateVector.random_state(n, seed=seed)
        assert np.array_equal(warm.run(init).data, cold.run(init).data)
        states = [init, StateVector.random_state(n, seed=seed + 1)]
        for got, want in zip(warm.run_batched(states), cold.run_batched(states)):
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("name", ["ry", "rx"])
    def test_a_member_that_changes_signature_takes_the_counted_fallback(self, name):
        """ry(0) / rx(0) are exact identities: the member's own signature
        moves, so the structure guard turns the plan away.  (rx(pi) keeps
        rx's exact pattern in floating point - cos(pi/2) is 6e-17 - and
        rebinds like any other angle; the property test above covers it.)"""
        def plan_for(theta):
            gates = [
                make_gate("rx", [0], [0.4]), make_gate(name, [1], [theta]),
                make_gate("ry", [2], [0.9]), make_gate("cx", [0, 3]),
            ]
            return _shm_kernels_plan(
                4, gates, ((0, 1, 2, 3), (), ()), [(0, 4)]
            ), gates

        base_plan, _ = plan_for(0.7)
        base = compile_plan(base_plan)
        # One kernel op of two items (two ops before the kernel was the unit).
        assert [[len(g) for _k, _q, g in op.items] for op in base.ops] == [[3, 1]]
        plan, gates = plan_for(0.0)
        warm = compile_plan(plan, reuse=base)
        assert warm.ops_rebound == 0 and warm.ops_recompiled == len(warm.ops)
        cold = compile_plan(plan)
        assert np.array_equal(warm.run().data, cold.run().data)
        assert simulate_reference(Circuit(4, gates)).allclose(warm.run())

    def test_a_product_that_changes_signature_takes_the_counted_fallback(self, monkeypatch):
        """A fold's template is guarded by its product's exact signature,
        like a fused kernel's.  No member's pattern has to move for the
        product's to: without fused multiply-add, rx(a) then rx(-a) on one
        qubit cancel to an exact diagonal (with it, as on this host, a
        1e-17 residue survives) - so the cancellation is staged here."""
        from repro.runtime import compile as compile_mod

        def plan_for(second):
            gates = [
                make_gate("rx", [0], [0.4]), make_gate("ry", [1], [0.9]),
                make_gate("rx", [0], [second]),
            ]
            return _shm_kernels_plan(2, gates, ((0, 1), (), ()), [(0, 3)]), gates

        base = compile_plan(plan_for(1.3)[0])
        assert [[len(g) for _k, _q, g in op.items] for op in base.ops] == [[3]]
        generic = compile_plan(plan_for(2.1)[0], reuse=base)
        assert (generic.ops_rebound, generic.ops_recompiled) == (1, 0)
        plan, gates = plan_for(-0.4)
        monkeypatch.setattr(compile_mod, "matrix_signature", lambda matrix: b"diagonal")
        warm = compile_plan(plan, reuse=base)
        assert (warm.ops_rebound, warm.ops_recompiled) == (0, 1)
        assert warm.structure is not base.structure
        assert np.array_equal(warm.run().data, compile_plan(plan).run().data)
        assert simulate_reference(Circuit(2, gates)).allclose(warm.run())

    @pytest.mark.parametrize("template", [ising(12), su2random(12, reps=1), vqc(10, ansatz_reps=1)],
                             ids=["ising-12", "su2random-12", "vqc-10"])
    def test_staged_library_plans_fold_and_verify(self, template):
        """On planner-made plans (several stages, permuted layouts) the
        fold shares ops, the static verifier accepts the stream and both
        shard executors agree bit for bit."""
        n = template.num_qubits
        machine = MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)
        plan, _ = partition(template, machine,
                            kernelize_config=KernelizeConfig(pruning_threshold=16))
        program = compile_plan(plan, machine)
        assert _folded_items(program)
        assert verify_program(program, plan=plan, machine=machine).ok
        interpreted, _ = execute_plan(plan, machine=machine, compiled=False)
        assert np.array_equal(program.run().data, interpreted.data)
        offloaded, _ = execute_plan_offloaded(plan, machine)
        with ParallelRuntime(machine, num_workers=2) as runtime:
            parallel, _ = runtime.execute(plan)
        assert np.array_equal(offloaded.data, parallel.data)
        assert simulate_reference(template).allclose(offloaded)
