"""The kernel op's two bodies: the native tile pass against the item loop.

A shared-memory kernel is one op (`repro.sim.apply.kernel_template`) with
two bodies and no switch: the C tile pass of `repro.sim.native` when the
host can build and load it, the loop over the items' own NumPy ops
otherwise.  The item loop is the native body's oracle here — generated
kernels over every lowered item kind, lowest position, state size, buffer
shape and layout — within the documented bound `KernelTemplate.ulps()`; the
loader's cache, races and failure modes are exercised on private cache
directories; and the engine, program, schedule and session test modules are
run, unedited, with the loader reporting "unavailable" (`conftest.py` starts
those runs at collection).
"""

import hashlib
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import make_gate
from repro.circuits.library import qft
from repro.cluster import MachineConfig
from repro.core import partition
from repro.runtime import compile_plan
from repro.sim import native
from repro.sim.apply import Workspace, apply_matrix_reference, kernel_template
from repro.sim.fusion import LoweredItem, kernel_items, lower_kernel_gates

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
        # Native vs the item loop: within the documented bound.
        for row, got in zip(states, flat):
            want = _apply(oracle, row)
            bound = template.ulps() * np.spacing(np.abs(row).max())
            assert np.abs(got.real - want.real).max() <= bound
            assert np.abs(got.imag - want.imag).max() <= bound
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
        want = _apply(template.item_loop(items), state)
        assert np.abs(got - want).max() <= template.ulps() * np.spacing(np.abs(state).max())

    @pytest.mark.parametrize("width", [3, 4])
    @pytest.mark.parametrize("lowest", [0, 2, 3, 7])
    def test_wide_dense_items(self, width, lowest):
        """A 3q / 4q dense matrix (no library gate is one; built by hand):
        the generic gather-matvec-scatter, across the vector and clear of
        it."""
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
        want = apply_matrix_reference(state, unitary, positions)
        assert np.abs(got - want).max() <= dim * np.spacing(np.abs(state).max())

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

    def test_pinned_digest_of_a_fixed_circuit(self):
        """qft-10 through the native body, bit for bit: a flag, compiler or
        source change that moves a bit shows here.  (The payload comes from
        libm's sin/cos and NumPy's complex products; the pin is for
        x86-64 glibc hosts, where both are stable.)"""
        circuit = qft(10)
        plan, _ = partition(circuit, MachineConfig.for_circuit(10))
        program = compile_plan(plan)
        assert program.op_counts().get("sm", 0) > 0
        init = _random_states(10, 1, 2024)[0]
        digest = hashlib.sha256(program.run(init).data.tobytes()).hexdigest()
        assert digest == PINNED_QFT10_DIGEST

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


PINNED_QFT10_DIGEST = "00ad2b5cb53babd240489def30cb523136c73bc26e8ce6e5495f3a98fd80913e"


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
        assert set(status) == {"available", "reason", "path", "compiler", "flags", "build_seconds"}
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
