"""The kernel op's two bodies: the native tile pass against its fallback.

A kernel — shared-memory or fusion — is one op
(`repro.sim.apply.kernel_template`) with two bodies and no switch: the C
tile pass of `repro.sim.native` when the host can build and load it,
otherwise the item loop, which computes the C body's float expressions in
NumPy.  The item loop is the native body's oracle here, byte for byte —
generated kernels over every lowered item kind, lowest position, state
size, buffer shape and layout, hand-built dense items, every kernel of the
library plans, the scalar build; both are held to the seed contraction
(`apply_matrix_reference`) within a tolerance; on either body every
executor runs the compiler's op bit for bit, and the same pinned digests
hold with and without the library; the loader's cache, races and failure
modes are exercised on private cache directories; and the engine,
program, schedule and session test modules are run, unedited, with the
loader reporting "unavailable" (`conftest.py` starts those runs at
collection).
"""

import hashlib
import os
import stat
import subprocess
import sys
import threading
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.circuits import make_gate
from repro.circuits.library import ae, ising, qft, qpeexact, qsvm, su2random, vqc
from repro.cluster import MachineConfig
from repro.core import partition
from repro.core.kernel import KernelType
from repro.runtime import (
    ParallelRuntime,
    clear_program_cache,
    compile_plan,
    execute_plan,
    execute_plan_offloaded,
    faults,
)
from repro.errors import KernelError
from repro.runtime.faults import FaultInjector
from repro.sim import StateVector, native
from repro.session import Session
from repro.sim.apply import Workspace, _tile_program, apply_matrix_reference, kernel_template
from repro.sim.fusion import LoweredItem, kernel_items, lower_kernel_gates

from test_property_based import segment_ops

REPO = Path(__file__).resolve().parent.parent
needs_native = pytest.mark.skipif(
    not native.status()["available"], reason=f"no native body: {native.status()['reason']}"
)


# ---------------------------------------------------------------------------
# Generated kernels: native body vs the item-loop oracle
# ---------------------------------------------------------------------------

#: One generator per lowered item kind, given the kernel's logical qubits
#: (lowest first — the layout decides where "lowest" sits) and draws.
ITEM_KINDS = {
    "diagonal block": lambda q, a: [
        make_gate("rz", [q[0]], [a[0]]), make_gate("cp", [q[0], q[1]], [a[1]]),
        make_gate("rzz", [q[1], q[2]], [a[2]]), make_gate("t", [q[2]]),
    ],
    "permuting block": lambda q, a: [
        make_gate("cx", [q[0], q[1]]), make_gate("p", [q[1]], [a[0]]),
        make_gate("swap", [q[1], q[2]]), make_gate("x", [q[0]]), make_gate("ccx", [q[2], q[0], q[1]]),
    ],
    "1q dense": lambda q, a: [make_gate("u3", [q[0]], a[:3])],
    "1q dense, real": lambda q, a: [make_gate("h", [q[0]]), make_gate("ry", [q[1]], [a[0]])],
    "fold": lambda q, a: [
        make_gate("rx", [q[0]], [a[0]]), make_gate("ry", [q[1]], [a[1]]),
        make_gate("u3", [q[2]], a[:3]), make_gate("rx", [q[0]], [a[2]]),
    ],
    "2q dense": lambda q, a: [make_gate("rxx", [q[0], q[1]], [a[0]]), make_gate("ryy", [q[2], q[0]], [a[1]])],
    "controlled": lambda q, a: [make_gate("crx", [q[1], q[0]], [a[0]]), make_gate("ch", [q[0], q[2]])],
}


@st.composite
def kernel_cases(draw):
    """`(n, gates, layout)`: two or three item kinds in a row on three
    logical qubits whose lowest physical position is drawn from {0, 1, 2,
    3, mid, top} of an `n`-qubit state, neighbours above it where they fit
    (so folds fold) and scattered otherwise."""
    n = draw(st.integers(4, 14))
    lowest = draw(st.sampled_from([0, 1, 2, 3, n // 2, n - 1]))
    lowest = min(lowest, n - 1)
    others = [p for p in range(n) if p != lowest]
    if draw(st.booleans()) and lowest + 2 < n:
        positions = [lowest, lowest + 1, lowest + 2]
    else:
        positions = [lowest] + draw(
            st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True)
        )
    kinds = draw(st.lists(st.sampled_from(sorted(ITEM_KINDS)), min_size=1, max_size=3))
    gates = []
    for kind in kinds:
        angles = [draw(st.floats(0.05, 6.2)) for _ in range(3)]
        gates += ITEM_KINDS[kind]([0, 1, 2], angles)
    return n, tuple(gates), dict(enumerate(positions))


def _random_states(n, count, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(count, 1 << n)) + 1j * rng.normal(size=(count, 1 << n))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _apply(run, states):
    """*run* on a caller-owned copy of *states* (any leading shape)."""
    buffer = states.copy()
    out, _scratch = run(buffer, np.empty_like(buffer), Workspace())
    assert out is buffer  # an "sm" op is in place in either body
    return out


@needs_native
class TestNativeAgainstTheItemLoop:
    @given(kernel_cases(), st.integers(0, 999))
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_kernels(self, case, seed):
        n, gates, l2p = case
        items = lower_kernel_gates(gates, l2p)
        template = kernel_template(kernel_items(items, l2p), n)
        assert template.native
        run, oracle = template.bind(items), template.item_loop(items)
        states = _random_states(n, 3, seed)

        flat = [_apply(run, row) for row in states]
        # Native vs the item loop: the same bytes, exact zeros included.
        zeros = states.copy()
        zeros[np.random.default_rng(seed).random(zeros.shape) < 0.3] = 0.0
        assert _apply(run, zeros).tobytes() == _apply(oracle, zeros).tobytes()
        for row, got in zip(states, flat):
            assert got.tobytes() == _apply(oracle, row).tobytes()
        # ... and the seed contraction, gate by gate.
        reference = states[0]
        for gate in gates:
            reference = apply_matrix_reference(
                reference, gate.matrix(), [l2p[q] for q in gate.qubits]
            )
        assert np.allclose(flat[0], reference, rtol=0.0, atol=1e-12)
        # A stack is the same call looped over rows: bit for bit.
        assert np.array_equal(_apply(run, states[:1])[0], flat[0])
        for row, want in zip(_apply(run, states), flat):
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("kind", sorted(ITEM_KINDS))
    @pytest.mark.parametrize("lowest", [0, 1, 2, 3, 6, 11])
    def test_every_item_kind_at_every_lowest_position(self, kind, lowest):
        """The matrix hypothesis samples from, walked in full at 12 qubits
        in a non-identity layout."""
        n = 12
        l2p = {0: lowest, 1: (lowest + 5) % n, 2: (lowest + 9) % n}
        gates = tuple(ITEM_KINDS[kind]([0, 1, 2], [0.3, 1.1, 2.5]))
        items = lower_kernel_gates(gates, l2p)
        template = kernel_template(kernel_items(items, l2p), n)
        (state,) = _random_states(n, 1, lowest)
        got = _apply(template.bind(items), state)
        assert got.tobytes() == _apply(template.item_loop(items), state).tobytes()

    @pytest.mark.parametrize("width", [2, 3, 4])
    @pytest.mark.parametrize("lowest", [0, 2, 3, 7])
    def test_wide_dense_items(self, width, lowest):
        """A dense 2q / 3q / 4q matrix built by hand (every entry non-zero;
        no library gate is a dense 3q or 4q one): the generic
        gather-matvec-scatter, across the vector and clear of it — the item
        loop's bytes, and the seed contraction's values."""
        n = 11
        rng = np.random.default_rng(width * 16 + lowest)
        dim = 1 << width
        unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        positions = tuple((lowest + 3 * j) % n for j in range(width))
        items = (LoweredItem(positions, (), matrix=np.ascontiguousarray(unitary)),)
        template = kernel_template(kernel_items(items), n)
        assert template.native
        (state,) = _random_states(n, 1, lowest)
        got = _apply(template.bind(items), state)
        assert got.tobytes() == _apply(template.item_loop(items), state).tobytes()
        want = apply_matrix_reference(state, unitary, positions)
        assert np.abs(got - want).max() <= dim * np.spacing(np.abs(state).max())

    def test_the_scalar_build_computes_the_same_bytes(self, tmp_path, monkeypatch):
        """`-DSM_SCALAR` — no vector extensions: every dense item the plain
        gather–matvec–scatter, no lane permutes — against this host's
        vector build and the item loop, byte for byte on states with exact
        zeros: an amplitude's bits follow from the source and the payload,
        not from the vector width or the lane it sat in."""
        scalar = tmp_path / "scalar.so"
        subprocess.run(
            [native.status()["compiler"], *native.FLAGS, "-DSM_SCALAR", "-o", str(scalar),
             *map(str, native.SOURCES)], check=True, capture_output=True, timeout=120,
        )
        builds = (native.library(), native._load(scalar))
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(4, 13))
            l2p = dict(enumerate(rng.choice(n, size=3, replace=False).tolist()))
            gates = tuple(
                gate for kind in rng.choice(sorted(ITEM_KINDS), size=int(rng.integers(1, 4)))
                for gate in ITEM_KINDS[kind]([0, 1, 2], rng.uniform(0.05, 6.2, 3).tolist())
            )
            items = lower_kernel_gates(gates, l2p)
            (state,) = _random_states(n, 1, int(rng.integers(1000)))
            state[rng.random(1 << n) < 0.3] = 0.0
            outs = []
            for lib in builds:
                monkeypatch.setitem(native._STATE, "library", lib)
                template = kernel_template(kernel_items(items, l2p), n)
                assert template.native
                outs.append(_apply(template.bind(items), state).tobytes())
            outs.append(_apply(template.item_loop(items), state).tobytes())
            assert outs[0] == outs[1] == outs[2], (n, l2p, [g.name for g in gates])

    def test_a_buffer_the_c_body_cannot_walk_takes_the_item_loop(self):
        """Facts of the input pick the body: a strided view runs the item
        loop (and is still updated in place)."""
        n, l2p = 6, {0: 1, 1: 4, 2: 2}
        gates = tuple(ITEM_KINDS["fold"]([0, 1, 2], [0.4, 0.9, 1.7]))
        items = lower_kernel_gates(gates, l2p)
        template = kernel_template(kernel_items(items, l2p), n)
        (state,) = _random_states(n, 1, 5)
        wide = np.zeros(2 << n, dtype=np.complex128)
        strided = wide[::2]
        strided[:] = state
        out, _ = template.bind(items)(strided, np.empty(1 << n, dtype=np.complex128), Workspace())
        assert out is strided
        assert np.array_equal(strided, _apply(template.item_loop(items), state))

    def test_kernels_that_do_not_fit_a_tile_keep_the_item_loop(self):
        """Fourteen positions are more than a tile holds; two qubits are
        too few for one."""
        gates = tuple(make_gate("h", [q]) for q in range(0, 28, 2))
        wide = kernel_template(kernel_items(lower_kernel_gates(gates)), 28)
        assert not wide.native
        tiny = kernel_template(kernel_items(lower_kernel_gates(gates[:2], {0: 0, 2: 1}), {0: 0, 2: 1}), 3)
        assert not tiny.native

    def test_pool_threads_run_kernels_concurrently(self):
        """The foreign call releases the GIL and tile buffers are
        thread-local: eight threads on two cores, each sweeping its own
        state again and again, reproduce the sequential results."""
        n, l2p = 13, {0: 0, 1: 7, 2: 12}
        gates = tuple(
            g for kind in ("fold", "permuting block", "diagonal block")
            for g in ITEM_KINDS[kind]([0, 1, 2], [0.7, 1.9, 2.3])
        )
        items = lower_kernel_gates(gates, l2p)
        run = kernel_template(kernel_items(items, l2p), n).bind(items)
        states = _random_states(n, 8, 11)
        sweeps = 20

        def sweep(row):
            buffer, spare, ws = row.copy(), np.empty_like(row), Workspace()
            for _ in range(sweeps):
                run(buffer, spare, ws)
            return buffer

        want = [sweep(row) for row in states]
        got: list = [None] * len(states)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda i=i: got.__setitem__(i, sweep(states[i])))
                for i in range(len(states))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Fusion kernels and whole plans: the same op, on either body
# ---------------------------------------------------------------------------

FUSION_FAMILIES = {
    "qft": qft, "ising": ising, "qsvm": qsvm, "vqc": vqc, "ae": ae,
    "qpeexact": qpeexact, "su2random": su2random,
}
#: The three structures of the repo benchmark's service workload.
SERVICE_STRUCTURES = {"qsvm": qsvm, "ising": ising, "vqc": lambda n: vqc(n, ansatz_reps=1)}
UNAVAILABLE = dict(
    available=False, reason="disabled for this test", path=None, compiler=None,
    flags=[], build_seconds=0.0, library=None,
)
#: The executor cases: the service structures on the service machine, and
#: ising-20 on the shard-stream machine (8 shards of 2^17).
EXECUTOR_CASES = (*sorted(SERVICE_STRUCTURES), "ising-20")


@lru_cache(maxsize=None)
def _executor_case(case: str) -> tuple:
    """``(plan, machine)`` of an :data:`EXECUTOR_CASES` entry."""
    if case == "ising-20":
        machine = MachineConfig.for_circuit(20, num_shards=2, local_qubits=17)
        return partition(ising(20), machine)[0], machine
    machine = MachineConfig.for_circuit(12, num_shards=4)
    return partition(SERVICE_STRUCTURES[case](12), machine)[0], machine


@pytest.fixture(params=["native", "numpy"])
def engine(request, monkeypatch):
    """Each body in turn: the host's native one, and the loader forced
    "unavailable" — the item loop."""
    if request.param == "native" and not native.status()["available"]:
        pytest.skip(f"no native body: {native.status()['reason']}")
    if request.param == "numpy":
        monkeypatch.setattr(native, "_STATE", UNAVAILABLE)
    clear_program_cache()  # programs bound under the other body
    yield request.param
    clear_program_cache()


def _segment_op(gates, l2p, n, fused):
    """The op of the kernel *gates* in a segment over all *n* positions —
    what a full-state segment of a shard schedule is built by."""
    ktype = KernelType.FUSION if fused else None
    ((_kind, op),) = segment_ops(gates, l2p, n, ktype)
    return op


@lru_cache(maxsize=None)
def _fusion_kernels(family: str, n: int) -> tuple:
    """The gate tuples of the fusion kernels the planner emits for *family*
    on an in-core ``n``-qubit machine."""
    plan, _ = partition(FUSION_FAMILIES[family](n), MachineConfig.for_circuit(n))
    return tuple(
        tuple(kernel.gates) for stage in plan.stages for kernel in stage.kernels or ()
        if kernel.kernel_type is KernelType.FUSION
    )


@st.composite
def fusion_cases(draw):
    """`(n, gates, layout)`: one planner fusion kernel of the seven families
    at 4–14 qubits, in a random stage layout."""
    family = draw(st.sampled_from(sorted(FUSION_FAMILIES)))
    n = draw(st.integers(4, 14))
    kernels = _fusion_kernels(family, n)
    assume(kernels)
    gates = draw(st.sampled_from(kernels))
    return n, gates, dict(enumerate(draw(st.permutations(range(n)))))


def _run_op(op, state):
    out, _ = op.run(state.copy(), np.empty_like(state), Workspace())
    return out


def _unavailable_state(monkeypatch, compute):
    """*compute()* with the loader "unavailable": every kernel on the item
    loop."""
    with monkeypatch.context() as patch:
        patch.setattr(native, "_STATE", UNAVAILABLE)
        clear_program_cache()  # ops bound under the native body
        try:
            return compute()
        finally:
            clear_program_cache()


class TestFusionKernels:
    """A fusion kernel is the kernel op: its lowered items in one pass —
    the native tile pass where the host has the body, the item loop
    otherwise, the same bits — so every executor agrees bit for bit on any
    host."""

    @needs_native
    @given(fusion_cases(), st.integers(0, 999))
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_planner_kernels_against_the_item_loop(self, case, seed):
        n, gates, l2p = case
        self._check_against_the_item_loop(n, gates, l2p, seed)

    @needs_native
    def test_ae_12_dense_items_in_the_vector(self):
        """ae-12's first fusion kernel holds three controlled-ry items on
        index bits 0/1 — inside the vector, where the C body once ran a
        scalar gather–matvec–scatter and lost to the fused gemm by 2x; the
        per-lane variant (`dense_lane`) computes the same sums."""
        (gates, *_), n = _fusion_kernels("ae", 12), 12
        l2p = {q: q for q in range(n)}
        inside = [
            item for item in lower_kernel_gates(gates, l2p)
            if item.matrix is not None and item.factors is None
            and len(item.qubits) > 1 and min(item.qubits) < 3
        ]
        assert len(inside) == 3 and all(g.name == "cry" for item in inside for g in item.gates)
        for seed in range(3):
            self._check_against_the_item_loop(n, gates, l2p, seed)

    @staticmethod
    def _check_against_the_item_loop(n, gates, l2p, seed):
        """Native is the item loop byte for byte and the seed contraction
        within a tolerance; a `(1, 2^n)` and a `(B, 2^n)` stack are the flat
        runs bit for bit."""
        op = _segment_op(gates, l2p, n, True)
        assert op.kind == "sm"
        items = lower_kernel_gates(gates, l2p)
        oracle = kernel_template(kernel_items(items, l2p), n).item_loop(items)
        states = _random_states(n, 3, seed)
        flat = [_apply(op.run, row) for row in states]
        for row, got in zip(states, flat):
            assert got.tobytes() == _apply(oracle, row).tobytes()
        reference = states[0]
        for gate in gates:
            reference = apply_matrix_reference(
                reference, gate.matrix(), [l2p[q] for q in gate.qubits]
            )
        assert np.allclose(flat[0], reference, rtol=0.0, atol=1e-12)
        assert np.array_equal(_apply(op.run, states[:1])[0], flat[0])
        for row, want in zip(_apply(op.run, states), flat):
            assert np.array_equal(row, want)

    @needs_native
    def test_without_the_library_fusion_kernels_run_the_item_loop(self, monkeypatch):
        """The loader "unavailable": every fusion kernel of the service
        structures is an `sm` op, and each program's final state is the one
        computed in this process with the library, byte for byte."""
        machine = MachineConfig.for_circuit(12, num_shards=4)
        (state,) = _random_states(12, 1, 7)
        for family, build in SERVICE_STRUCTURES.items():
            plan, _ = partition(build(12), machine)
            want = compile_plan(plan, machine).run(state).data.tobytes()

            def compute():
                program = compile_plan(plan, machine)
                fused = [op for op in program.ops if op.source[0] == "kernel"]
                assert fused and all(op.kind == "sm" for op in fused), family
                return program.run(state).data.tobytes()

            assert _unavailable_state(monkeypatch, compute) == want, family

    @pytest.mark.parametrize("family", sorted(SERVICE_STRUCTURES))
    def test_no_fused_op_is_left_on_the_service_structures(self, engine, family):
        """Every kernel is an `sm` op on either body, so a stack is the flat
        run bit for bit."""
        plan, machine = _executor_case(family)
        program = compile_plan(plan, machine)
        assert all(op.kind == "sm" for op in program.ops if op.source[0] != "layout")
        states = [StateVector.random_state(plan.num_qubits, seed=s) for s in range(2)]
        for got, state in zip(program.run_batched(states), states):
            assert got.data.tobytes() == program.run(state).data.tobytes()

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_a_segment_op_is_the_compiled_op(self, engine, case):
        """Every kernel, on either body: the op a segment over all n
        positions builds for it (a shard schedule's full-state segment) is
        the compiled program's at that source — kind, positions, items —
        and writes the same bits."""
        plan, machine = _executor_case(case)
        n = plan.num_qubits
        program = compile_plan(plan, machine)
        layouts = [stage.partition.logical_to_physical() for stage in plan.stages]
        (state,) = _random_states(n, 1, 5)
        kernels = [op for op in program.ops if op.source[0] != "layout"]
        assert len(kernels) == program.num_kernels
        assert any(op.source[0] == "kernel" for op in kernels)
        for op in kernels:
            again = _segment_op(op.gates, layouts[op.source[1]], n, op.source[0] == "kernel")
            assert (again.kind, again.qubits, again.items) == (op.kind, op.qubits, op.items)
            assert op.kind == "sm", op.source
            assert np.array_equal(_run_op(again, state), _run_op(op, state)), op.source

    @pytest.mark.parametrize("case", EXECUTOR_CASES)
    def test_executors_agree(self, engine, case):
        """Compiled, offload and parallel W ∈ {1, 2, 4}, on either body:
        bit for bit.  Each first has its compile fail, which raises the
        `KernelError` and leaves the next run the same bits."""
        plan, machine = _executor_case(case)
        init = StateVector.random_state(plan.num_qubits, seed=3)
        want = compile_plan(plan, machine).run(init).data

        def run(execute):
            clear_program_cache()  # so the in-core run compiles
            injector = FaultInjector("compile:KernelError:1")
            faults.activate(injector)
            try:
                with pytest.raises(KernelError):
                    execute()
            finally:
                faults.deactivate(injector)
            assert injector.total_fired == 1
            state, _ = execute()
            return state.data

        assert np.array_equal(run(lambda: execute_plan(plan, init, machine=machine)), want)
        assert np.array_equal(run(lambda: execute_plan_offloaded(plan, machine, init)), want)
        for workers in (1, 2, 4):
            with ParallelRuntime(machine, num_workers=workers) as runtime:
                parallel = run(lambda: runtime.execute(plan, init))
            assert np.array_equal(parallel, want), workers


@needs_native
@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("family", sorted(FUSION_FAMILIES))
def test_library_plans_kernel_by_kernel(family, n):
    """Every shared-memory and fusion kernel of the seven library families'
    plans on four shards (134 kernels over the 14 cells), in its stage's
    layout over all n positions: the native body is the item loop, byte
    for byte."""
    plan, _ = partition(FUSION_FAMILIES[family](n), MachineConfig.for_circuit(n, num_shards=4))
    (state,) = _random_states(n, 1, n)
    checked = 0
    for stage in plan.stages:
        l2p = stage.partition.logical_to_physical()
        for kernel in stage.kernels or ():
            items = lower_kernel_gates(kernel.gates, l2p)
            template = kernel_template(kernel_items(items, l2p), n)
            assert template.native
            got = _apply(template.bind(items), state)
            assert got.tobytes() == _apply(template.item_loop(items), state).tobytes()
            checked += 1
    assert checked


# ---------------------------------------------------------------------------
# Pinned digests: one set of bits for both bodies
# ---------------------------------------------------------------------------

#: Per family at 10 qubits on four shards, the SHA-256 of the final state
#: in core and through both shard executors.  These apply a diagonal gate
#: on a non-local qubit per shard, as an op of its own, where the in-core
#: run folds it into a block's phases: ae, qft and qpeexact end a last bit
#: apart.
PINNED_DIGESTS = {
    "ae": (
        "55dc4bcb536e98696a782369d8717584a96239fb92eb9a6360e9df8c83c253ce",
        "4f970e5019e29b389c3c804dd5531dd134e76af523a9fcfbddbca75c9aabefb9",
    ),
    "ising": (
        "70439f8bd588b1c53a7abae51cd19fc3d6233d54a611805afc25628a50cecc6c",
        "70439f8bd588b1c53a7abae51cd19fc3d6233d54a611805afc25628a50cecc6c",
    ),
    "qft": (
        "00ad2b5cb53babd240489def30cb523136c73bc26e8ce6e5495f3a98fd80913e",
        "8be0bc6ee23ba55c3f6fb84a7f01afe312d7fddf383a2064a35c160f35f8abbb",
    ),
    "qpeexact": (
        "c1db25fd23a186acb3fc49d3da282925e78b4d7ebaa2df4de3a78a465c852720",
        "64fbf6e2d82729bf434030d183cf36e19658c2257e86d11f5f2a3517ae632ecd",
    ),
    "qsvm": (
        "a68a47157d8a788fde33a891d792a1d779f4c87b027b0712055045eabd201109",
        "a68a47157d8a788fde33a891d792a1d779f4c87b027b0712055045eabd201109",
    ),
    "su2random": (
        "683cd14a26ff4c95fe53843f210c4dd5a663b4264ea1860461a45a28fdb006be",
        "683cd14a26ff4c95fe53843f210c4dd5a663b4264ea1860461a45a28fdb006be",
    ),
    "vqc": (
        "f576c98cc97da9b1379d9ebd586e63029d9ef3190b654bbc64abef004a45b16c",
        "f576c98cc97da9b1379d9ebd586e63029d9ef3190b654bbc64abef004a45b16c",
    ),
}


@lru_cache(maxsize=None)
def _pinned_plan(family: str) -> tuple:
    machine = MachineConfig.for_circuit(10, num_shards=4)
    return partition(FUSION_FAMILIES[family](10), machine)[0], machine


def _pinned_digests(family: str) -> list:
    """The final state's SHA-256 of *family* at 10 qubits through the
    in-core, offload and parallel (W=2) executors."""
    plan, machine = _pinned_plan(family)
    init = StateVector(10, _random_states(10, 1, 2024)[0])
    clear_program_cache()
    with ParallelRuntime(machine, num_workers=2) as runtime:
        states = [
            execute_plan(plan, init, machine=machine)[0],
            execute_plan_offloaded(plan, machine, init)[0],
            runtime.execute(plan, init)[0],
        ]
    return [hashlib.sha256(state.data.tobytes()).hexdigest() for state in states]


@pytest.mark.parametrize("family", sorted(FUSION_FAMILIES))
def test_pinned_digest_of_a_fixed_circuit(family):
    """The seven families at 10 qubits through the in-core, offload and
    parallel (W=2) executors, bit for bit on whichever body the host has:
    a flag, compiler or source change that moves a bit shows here, and so
    does an item loop that leaves the C body's float expressions — the
    same pins hold with and without a compiler.  (The payload comes from
    libm's sin/cos and NumPy's complex products; the pins are for x86-64
    glibc hosts, where both are stable.)"""
    incore, sharded = PINNED_DIGESTS[family]
    assert _pinned_digests(family) == [incore, sharded, sharded]


# ---------------------------------------------------------------------------
# One pass cut across threads: the same bytes for any cut
# ---------------------------------------------------------------------------


@pytest.fixture()
def helper_calls(monkeypatch):
    """The names of the threads that handed ranges to the helper threads,
    one entry per cut pass."""
    calls: list = []
    real = native._helpers

    def spy():
        calls.append(threading.current_thread().name)
        return real()

    monkeypatch.setattr(native, "_helpers", spy)
    return calls


@pytest.fixture(params=[1, 2, 4])
def forced_threads(request, monkeypatch, helper_calls):
    """Every pass, however small, cut into W ranges."""
    monkeypatch.setattr(native, "TILE_THREADS", request.param)
    monkeypatch.setattr(native, "SPLIT_MIN_AMPLITUDES", 0)
    return request.param


class _FailingOnHelpers:
    """The library, except that a range run on a helper thread returns
    *code* without touching the state."""

    def __init__(self, real, code):
        self.real, self.code, self.returned = real, code, []

    def __getattr__(self, name):
        return getattr(self.real, name)

    def sm_apply(self, *args):
        if threading.current_thread().name.startswith("repro-tiles"):
            self.returned.append(self.code)
            return self.code
        return self.real.sm_apply(*args)


@needs_native
class TestSplitPass:
    @pytest.mark.parametrize("family", sorted(FUSION_FAMILIES))
    def test_pinned_digests_hold_for_any_cut(self, family, forced_threads, helper_calls):
        """In core and offload cut every pass into W ranges; the parallel
        runtime's shard workers never cut theirs."""
        incore, sharded = PINNED_DIGESTS[family]
        assert _pinned_digests(family) == [incore, sharded, sharded]
        assert bool(helper_calls) == (forced_threads > 1)
        assert not [name for name in helper_calls if name.startswith("repro-shard")]

    def test_a_stack_cut_across_rows(self, forced_threads, helper_calls):
        """Three rows of two tiles each: W=4 cuts [0, 1, 3, 4, 6), so ranges
        cross row boundaries and the count does not divide the tiles; every
        row is still the flat run of its state, bit for bit."""
        n, l2p = 14, {0: 1, 1: 13, 2: 6}
        gates = tuple(
            g for kind in ("fold", "permuting block", "2q dense", "diagonal block")
            for g in ITEM_KINDS[kind]([0, 1, 2], [0.7, 1.9, 2.3])
        )
        items = lower_kernel_gates(gates, l2p)
        template = kernel_template(kernel_items(items, l2p), n)
        assert template.native
        states = _random_states(n, 3, 23)
        got = _apply(template.bind(items), states)
        for row, state in zip(got, states):
            assert np.array_equal(row, _apply(template.item_loop(items), state))
        assert len(helper_calls) == (forced_threads > 1)

    def test_a_code_on_a_helper_thread_is_one_kernel_error(self, monkeypatch, helper_calls):
        """A range that fails on a helper thread fails the pass once, on the
        caller, after every range has returned; the session's next run is a
        fresh session's bits."""
        monkeypatch.setattr(native, "TILE_THREADS", 2)
        monkeypatch.setattr(native, "SPLIT_MIN_AMPLITUDES", 0)
        circuit = ising(10)
        machine = MachineConfig.for_circuit(10)
        real = native.library()
        failing = _FailingOnHelpers(real, 9)
        clear_program_cache()
        with Session(machine, backend="incore") as session:
            monkeypatch.setitem(native._STATE, "library", failing)
            with pytest.raises(KernelError, match=r"\(code 9\)"):
                session.run(circuit)
            assert failing.returned == [9] and helper_calls
            monkeypatch.setitem(native._STATE, "library", real)
            got = session.run(circuit).result().state.data
        clear_program_cache()
        with Session(machine, backend="incore") as fresh:
            want = fresh.run(circuit).result().state.data
        assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # a fork beside live threads
    def test_a_forked_child_starts_its_own_helpers(self, monkeypatch):
        """A child forked after a cut pass has none of its parent's helper
        threads: its own cut passes start new ones instead of waiting on
        threads that do not exist there."""
        monkeypatch.setattr(native, "TILE_THREADS", 2)
        monkeypatch.setattr(native, "SPLIT_MIN_AMPLITUDES", 0)
        n, l2p = 10, {0: 0, 1: 4, 2: 9}
        items = lower_kernel_gates(tuple(ITEM_KINDS["fold"]([0, 1, 2], [0.3, 0.8, 1.3])), l2p)
        run = kernel_template(kernel_items(items, l2p), n).bind(items)
        (state,) = _random_states(n, 1, 3)
        want = _apply(run, state)
        pid = os.fork()
        if pid == 0:  # the child: report through the exit code only
            code = 2
            try:
                code = 0 if np.array_equal(_apply(run, state), want) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's helper threads")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_who_cuts(self, helper_calls):
        """This host's CPUs set W; a pass below the cut-off, and any pass on
        a one-CPU affinity, stays on the caller."""
        assert native.TILE_THREADS == len(os.sched_getaffinity(0))
        status = native.status()
        assert (status["tile_threads"], status["split_min_amplitudes"]) == (
            native.TILE_THREADS, native.SPLIT_MIN_AMPLITUDES
        )
        cuts = native.TILE_THREADS > 1
        for n, cut in ((16, False), (17, cuts)):
            l2p = {0: 0, 1: 5, 2: n - 1}
            items = lower_kernel_gates(tuple(ITEM_KINDS["fold"]([0, 1, 2], [0.3, 0.8, 1.3])), l2p)
            template = kernel_template(kernel_items(items, l2p), n)
            (state,) = _random_states(n, 1, n)
            helper_calls.clear()
            got = _apply(template.bind(items), state)
            assert bool(helper_calls) == cut
            assert np.array_equal(got, _apply(template.item_loop(items), state))

    def test_the_program_check_rejects_before_touching_the_state(self):
        """Corrupted copies of a real program, and ranges outside its tiles:
        each its own code, and the buffer byte for byte as it was."""
        n, l2p = 15, {0: 0, 1: 9, 2: 4}
        gates = tuple(
            g for kind in ("fold", "2q dense") for g in ITEM_KINDS[kind]([0, 1, 2], [0.4, 1.1, 2.9])
        )
        items = lower_kernel_gates(gates, l2p)
        lib = native.library()
        prog, tabs, _fills, _size = _tile_program(kernel_items(items, l2p), n, lib.sm_lane_bits())
        numbers = kernel_template(kernel_items(items, l2p), n).pack(items)
        rows, row = 2, 1 << n
        tiles = rows << int(prog[2])
        assert tiles == rows * row >> int(prog[0]) > 2

        def call(program, rows=rows, row=row, lo=0, hi=tiles):
            states = _random_states(n, 2, 31)
            before = states.tobytes()
            code = lib.sm_apply(
                states.ctypes.data, rows, row, lo, hi, program.ctypes.data,
                tabs.ctypes.data, numbers.ctypes.data,
            )
            return code, states.tobytes() == before

        def corrupt(word, value):
            program = prog.copy()
            program[word] = value
            return program

        assert call(prog) == (0, False)
        cases = [
            (1, corrupt(0, 14), {}),  # tile bits past a tile
            (2, prog, {"row": row // 2}),  # rows of another size
            (3, corrupt(4 + int(prog[2]) + (1 << int(prog[0] - prog[1])), 7), {}),  # item kind
            (4, corrupt(2, -1), {}),  # outer bits below zero
            (5, corrupt(2, 63 - int(prog[0])), {}),  # a row past 2^62
            (5, corrupt(2, 1 << 40), {}),
            (6, prog, {"rows": -1, "hi": 0}),
            (7, prog, {"lo": -1}),
            (7, prog, {"lo": 2, "hi": 1}),
            (7, prog, {"hi": tiles + 1}),
            (7, prog, {"rows": 1}),
        ]
        for code, program, changes in cases:
            assert call(program, **changes) == (code, True), (code, changes)
        # Empty and partial ranges are in range.
        assert call(prog, lo=tiles, hi=tiles) == (0, True)
        assert call(prog, lo=1, hi=tiles - 1) == (0, False)


# ---------------------------------------------------------------------------
# The loader: cache, races, failure modes
# ---------------------------------------------------------------------------


@pytest.fixture()
def fresh_loader(monkeypatch, tmp_path):
    """`native` with no attempt made yet and a private, empty cache."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(native, "_STATE", None)
    monkeypatch.setattr(native, "_cache_dir", lambda: cache)
    return cache


def _small_kernel_digest() -> str:
    """Build, bind and run one kernel through whatever body the loader
    yields; the digest of the result."""
    n, l2p = 8, {0: 2, 1: 5, 2: 0}
    gates = tuple(ITEM_KINDS["fold"]([0, 1, 2], [0.3, 0.8, 1.3]))
    items = lower_kernel_gates(gates, l2p)
    template = kernel_template(kernel_items(items, l2p), n)
    state = np.arange(1 << n, dtype=np.complex128) / (1 << n)
    template.bind(items)(state, np.empty_like(state), Workspace())
    return hashlib.sha256(state.tobytes()).hexdigest()


needs_compiler = pytest.mark.skipif(
    native.status()["compiler"] is None, reason="no compiler on PATH"
)


class TestLoader:
    def test_status_names_the_build(self):
        status = native.status()
        assert set(status) == {
            "available", "reason", "path", "compiler", "flags", "build_seconds",
            "tile_threads", "split_min_amplitudes",
        }
        assert native.engine() == ("native" if status["available"] else "numpy")
        assert "-ffp-contract=off" in native.FLAGS and "-ffast-math" not in native.FLAGS

    def test_module_entry_point_prints_the_status(self):
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "repro.sim.native"], capture_output=True,
            text=True, cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=120,
        )
        assert done.returncode == 0 and '"available"' in done.stdout

    @needs_compiler
    def test_two_threads_at_first_use_end_with_one_library(self, fresh_loader):
        libs: list = []
        threads = [threading.Thread(target=lambda: libs.append(native.library())) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert libs[0] is not None and libs[0] is libs[1]
        assert [p.suffix for p in fresh_loader.iterdir()] == [".so"]
        assert native.status()["reason"] == "built" and native.status()["build_seconds"] > 0
        # A second process generation finds it cached.
        native._STATE = None
        assert native.status()["reason"] == "cached" and native.status()["build_seconds"] == 0.0

    @needs_compiler
    def test_two_processes_racing_a_cold_cache_agree(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        code = (
            "import hashlib, pathlib; import numpy as np; "
            "from repro.circuits import make_gate; from repro.sim import native; "
            "from repro.sim.apply import Workspace, kernel_template; "
            "from repro.sim.fusion import kernel_items, lower_kernel_gates; "
            f"native._cache_dir = lambda: pathlib.Path({str(cache)!r}); "
            "gates = (make_gate('rx', [0], [0.3]), make_gate('ry', [1], [0.8]), make_gate('cx', [0, 2])); "
            "l2p = {0: 2, 1: 5, 2: 0}; items = lower_kernel_gates(gates, l2p); "
            "state = np.arange(256, dtype=np.complex128) / 256; "
            "kernel_template(kernel_items(items, l2p), 8).bind(items)(state, np.empty_like(state), Workspace()); "
            "print(native.status()['available'], hashlib.sha256(state.tobytes()).hexdigest())"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        racers = [
            subprocess.Popen([sys.executable, "-c", code], cwd=REPO, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        outputs = [racer.communicate(timeout=180) for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0], outputs
        lines = [out.strip().splitlines()[-1] for out, _err in outputs]
        assert lines[0] == lines[1] and lines[0].startswith("True ")
        assert [p.suffix for p in cache.iterdir()] == [".so"]  # one library, no leftovers

    def test_no_compiler_degrades_to_the_item_loop(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        assert native.library() is None
        assert native.status()["reason"].startswith("no compiler")
        assert native.engine() == "numpy"
        oracle = _small_kernel_digest()  # runs, through the item loop
        assert len(oracle) == 64

    @needs_compiler
    def test_a_failing_compile_degrades_and_is_recorded_once(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-flag-exists"))
        calls = []
        real_run = subprocess.run
        monkeypatch.setattr(
            native.subprocess, "run", lambda *a, **k: calls.append(a) or real_run(*a, **k)
        )
        assert native.library() is None and native.library() is None
        assert native.status()["reason"].startswith("compile failed")
        assert len(calls) == 2  # --version and one build: the failure is not retried
        assert list(fresh_loader.iterdir()) == []  # no partial file left behind
        _small_kernel_digest()

    @needs_compiler
    def test_an_unwritable_cache_degrades(self, fresh_loader, monkeypatch):
        def refuse():
            raise PermissionError("cache directory /nowhere is not private to this user")

        monkeypatch.setattr(native, "_cache_dir", refuse)
        assert native.library() is None
        assert "not private" in native.status()["reason"]
        _small_kernel_digest()

    @needs_compiler
    def test_a_corrupt_cached_file_degrades(self, fresh_loader, monkeypatch, tmp_path):
        native.library()
        (built,) = fresh_loader.iterdir()
        # The same cache entry, corrupt, in a second directory (by its first
        # path the loader would be handed the library it already maps).
        damaged = tmp_path / "damaged"
        damaged.mkdir()
        (damaged / built.name).write_bytes(b"not a shared object")
        monkeypatch.setattr(native, "_cache_dir", lambda: damaged)
        native._STATE = None
        assert native.library() is None
        assert native.status()["reason"].startswith("cached library does not load")
        _small_kernel_digest()

    def test_cache_directory_rules(self, monkeypatch, tmp_path):
        """The package's `__pycache__` when it can be written; else a
        per-user directory created 0700 and refused when it is open to
        others, someone else's, or a symlink."""
        monkeypatch.setattr(native, "PACKAGE_CACHE", tmp_path / "pkg" / "__pycache__")
        (tmp_path / "pkg").mkdir()
        assert native._cache_dir() == tmp_path / "pkg" / "__pycache__"
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(native, "PACKAGE_CACHE", blocker / "__pycache__")  # cannot exist
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
        private = native._cache_dir()
        assert private.parent == tmp_path and str(os.getuid()) in private.name
        assert stat.S_IMODE(private.stat().st_mode) == 0o700
        private.chmod(0o755)
        with pytest.raises(PermissionError):
            native._cache_dir()
        private.chmod(0o700)
        monkeypatch.setattr(native.os, "getuid", lambda: private.stat().st_uid + 1)
        # (the name changes with the uid: plant the directory it will look for)
        other = tmp_path / f"repro-native-{private.stat().st_uid + 1}"
        other.mkdir(mode=0o700)
        with pytest.raises(PermissionError):
            native._cache_dir()
        other.rmdir()
        other.symlink_to(private)
        with pytest.raises(PermissionError):
            native._cache_dir()


# ---------------------------------------------------------------------------
# The fallback, exercised: four modules, unedited, on the item loop
# ---------------------------------------------------------------------------


def test_modules_pass_on_the_item_loop(fallback_runs):
    """Engine, program, schedule and session test modules with the loader
    reporting "unavailable" (`conftest.py` started the runs at collection)."""
    assert fallback_runs
    for modules, run in fallback_runs:
        output, _ = run.communicate(timeout=300)
        assert run.returncode == 0, f"{modules}:\n{output[-3000:]}"
        assert " passed" in output and "failed" not in output
