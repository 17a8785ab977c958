"""The native library: build, cache and load ``smkernel.c`` and ``beam.c``.

The one module that talks to a compiler and to ``ctypes``.  The library
holds two bodies: the shared-memory kernel's tile pass (``sm_apply``,
:func:`repro.sim.apply.kernel_template`) and the kernelizer's beam DP
(``beam_kernelize``, :func:`repro.core.fast_kernelize`).  :func:`library`
returns the loaded library or ``None``; it is built on first use, never at
import, and nothing selects it — no parameter, no configuration: each caller
takes the native body when this host can build and load it, its Python
fallback otherwise (the item loop; the beam's Python loop).  :func:`status`
says which and why; :func:`engine` is the one word ``Result.summary()`` and
``service.stats()`` carry.

:func:`apply_tiles` is the one caller of the tile pass, and it splits a pass
across this process's cores: a pass of at least
:data:`SPLIT_MIN_AMPLITUDES` amplitudes is cut into :data:`TILE_THREADS`
contiguous tile ranges (the CPUs this process may run on), all but the last
run on a process-wide set of helper threads and the last on the caller.  Each
tile reads and writes only its own amplitudes, and an amplitude's bits follow
from the source and the payload alone, so a pass computes the same bytes
whatever it is cut into.  Three kinds of pass stay on the calling thread:
one below the cut-off (the thread handoff costs more than the cut saves),
every pass of a process allowed one CPU, and every pass a
:func:`one_tile_thread` thread makes — the parallel runtime's shard
workers, which already keep the cores busy with one shard each.

The library is cached under this package's ``__pycache__/`` — or, when that
is not writable, a per-user ``0700`` directory whose ownership is checked
before anything is loaded from it — keyed by the sources, the compiler's
version and the CPU's flags (``-march=native`` ties a build to its host), and
written by atomic rename, so racing processes and threads end with one file.
A failed build or load is recorded once and never raises.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

__all__ = [
    "FLAGS", "SPLIT_MIN_AMPLITUDES", "TILE_THREADS", "apply_tiles", "engine", "library",
    "one_tile_thread", "status",
]

#: Compiled together into one library, under one cache key.
SOURCES = (Path(__file__).with_name("smkernel.c"), Path(__file__).with_name("beam.c"))
PACKAGE_CACHE = SOURCES[0].parent / "__pycache__"
#: No -ffast-math and no contraction: nothing reassociates or fuses, so the
#: bits are a function of the source, not of the vector width.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
COMPILERS = ("cc", "gcc", "clang")
#: How many tile ranges a pass is cut into: the CPUs this process may run on
#: (one where the platform cannot say).
TILE_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
#: A smaller pass stays on the calling thread.  Measured on a 2-vCPU host
#: (``docs/performance.md``, "A kernel pass on every core"): two ranges gain
#: 1.5x at 2^17 amplitudes, 1.1-1.4x with a wide spread at 2^16, and lose
#: at 2^14 and below, where the ~90 us handoff outweighs the pass.
SPLIT_MIN_AMPLITUDES = 1 << 17


class _Unavailable(Exception):
    """Why this host gets the fallbacks; its text is ``status()["reason"]``."""


_LOCK = threading.Lock()
_STATE: dict | None = None  # the one attempt's outcome, library included


def _cpu_flags() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                return line
    except OSError:
        pass
    return ""


def _cache_dir() -> Path:
    """The package's ``__pycache__`` when writable, else a private per-user
    directory (created ``0700``; refused when someone else owns it or it is
    open to others — a library is code)."""
    try:
        PACKAGE_CACHE.mkdir(exist_ok=True)
        if os.access(PACKAGE_CACHE, os.W_OK | os.X_OK):
            return PACKAGE_CACHE
    except OSError:
        pass
    private = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    info = private.lstat()
    if private.is_symlink() or info.st_uid != os.getuid() or info.st_mode & 0o077:
        raise PermissionError(f"cache directory {private} is not private to this user")
    return private


def _build(compiler: str, target: Path) -> None:
    """Compile into a temporary beside *target*, then rename over it."""
    partial = target.with_name(f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", str(partial), *map(str, SOURCES)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise _Unavailable(f"compile failed: {done.stderr.strip()[-300:]}")
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _load(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.sm_lane_bits.restype = ctypes.c_int64
    lib.sm_lane_bits.argtypes = ()
    lib.sm_apply.restype = ctypes.c_int64
    lib.sm_apply.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.beam_kernelize.restype = ctypes.c_int64
    lib.beam_kernelize.argtypes = (
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
    )
    return lib


def _attempt() -> dict:
    state = {
        "available": False, "reason": "", "path": None, "compiler": None,
        "flags": list(FLAGS), "build_seconds": 0.0, "library": None,
    }
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    try:
        if compiler is None:
            raise _Unavailable("no compiler: none of cc, gcc, clang is on PATH")
        state["compiler"] = compiler
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
        key = hashlib.sha256(
            b"\0".join([*(source.read_bytes() for source in SOURCES), version.encode(),
                        _cpu_flags().encode(), " ".join(FLAGS).encode()])
        ).hexdigest()[:16]
        path = _cache_dir() / f"smkernel-{key}.so"
        state["path"] = str(path)
        if not path.exists():
            start = time.perf_counter()
            _build(compiler, path)
            state["build_seconds"] = time.perf_counter() - start
        try:
            state["library"] = _load(path)
        except (OSError, AttributeError) as exc:
            raise _Unavailable(f"cached library does not load: {exc}") from exc
        state["available"] = True
        state["reason"] = "built" if state["build_seconds"] else "cached"
    except (_Unavailable, OSError, subprocess.SubprocessError) as exc:
        state["reason"] = str(exc)
    return state


def _state() -> dict:
    global _STATE
    if _STATE is None:
        with _LOCK:
            if _STATE is None:
                _STATE = _attempt()
    return _STATE


def library() -> ctypes.CDLL | None:
    """The loaded native library, built on first use; ``None`` when this
    host cannot build or load it (:func:`status` says why)."""
    return _state()["library"]


def status() -> dict:
    """``{available, reason, path, compiler, flags, build_seconds}`` of the
    one build-and-load attempt this process makes (made now if not yet),
    with ``tile_threads`` — how many ranges a pass of at least
    ``split_min_amplitudes`` is cut into."""
    state = {key: value for key, value in _state().items() if key != "library"}
    return {**state, "tile_threads": TILE_THREADS, "split_min_amplitudes": SPLIT_MIN_AMPLITUDES}


def engine() -> str:
    """``"native"`` when shared-memory kernels run the C body in this
    process, else ``"numpy"`` (the item loop).  Never triggers a build."""
    return "native" if _STATE is not None and _STATE["available"] else "numpy"


_HELPERS: ThreadPoolExecutor | None = None
#: The threads :func:`one_tile_thread` marked.
_ONE_THREAD: "weakref.WeakSet[threading.Thread]" = weakref.WeakSet()


def _forget_helpers() -> None:
    """A forked child has none of its parent's threads: start over."""
    global _HELPERS
    _HELPERS = None


os.register_at_fork(after_in_child=_forget_helpers)


def _helpers() -> ThreadPoolExecutor:
    """The process-wide helper threads, started on the first cut pass."""
    global _HELPERS
    if _HELPERS is None:
        with _LOCK:
            if _HELPERS is None:
                _HELPERS = ThreadPoolExecutor(
                    max_workers=max(TILE_THREADS - 1, 1), thread_name_prefix="repro-tiles"
                )
    return _HELPERS


def one_tile_thread() -> None:
    """Keep every pass the calling thread makes on that thread (a thread
    pool's ``initializer``: its threads already share the cores)."""
    _ONE_THREAD.add(threading.current_thread())


def apply_tiles(
    state: int, rows: int, row: int, tiles: int, prog: int, tabs: int, payload: int
) -> int:
    """Run the tile pass ``prog`` / ``tabs`` / ``payload`` (addresses) over
    tiles ``[0, tiles)`` of the ``(rows, row)`` complex128 buffer at
    *state*; the pass's code — 0, or the first non-zero code of any range,
    once every range has returned."""
    apply = _state()["library"].sm_apply
    threads = TILE_THREADS
    if (
        threads < 2 or rows * row < SPLIT_MIN_AMPLITUDES
        or threading.current_thread() in _ONE_THREAD
    ):
        return apply(state, rows, row, 0, tiles, prog, tabs, payload)
    cuts = [tiles * part // threads for part in range(threads + 1)]
    pool = _helpers()
    helped = [
        pool.submit(apply, state, rows, row, lo, hi, prog, tabs, payload)
        for lo, hi in zip(cuts[:-2], cuts[1:-1])
    ]
    codes = [apply(state, rows, row, cuts[-2], cuts[-1], prog, tabs, payload)]
    codes += [future.result() for future in helped]
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    # ``python -m repro.sim.native``: report through the imported module, so
    # the process makes one attempt.
    from repro.sim import native as _imported

    print(json.dumps(_imported.status(), indent=2))
