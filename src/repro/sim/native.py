"""The native shared-memory kernel body: build, cache and load ``smkernel.c``.

The one module that talks to a compiler and to ``ctypes``.  :func:`library`
returns the loaded library or ``None``; it is built on first use, never at
import, and nothing selects it — no parameter, no configuration: the engine
takes the native body when this host can build and load it, the item loop
otherwise (:func:`repro.sim.apply.kernel_template`).  :func:`status`
says which and why; :func:`engine` is the one word ``Result.summary()`` and
``service.stats()`` carry.

The library is cached under this package's ``__pycache__/`` — or, when that
is not writable, a per-user ``0700`` directory whose ownership is checked
before anything is loaded from it — keyed by the source, the compiler's
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
from pathlib import Path

__all__ = ["FLAGS", "engine", "library", "status"]

SOURCE = Path(__file__).with_name("smkernel.c")
PACKAGE_CACHE = SOURCE.parent / "__pycache__"
#: No -ffast-math and no contraction: nothing reassociates or fuses, so the
#: bits are a function of the source, not of the vector width.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
COMPILERS = ("cc", "gcc", "clang")


class _Unavailable(Exception):
    """Why this host gets the item loop; its text is ``status()["reason"]``."""


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
            [compiler, *FLAGS, "-o", str(partial), str(SOURCE)],
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
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
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
            b"\0".join([SOURCE.read_bytes(), version.encode(), _cpu_flags().encode(),
                        " ".join(FLAGS).encode()])
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
    """The loaded kernel library, built on first use; ``None`` when this
    host cannot build or load it (:func:`status` says why)."""
    return _state()["library"]


def status() -> dict:
    """``{available, reason, path, compiler, flags, build_seconds}`` of the
    one build-and-load attempt this process makes (made now if not yet)."""
    return {key: value for key, value in _state().items() if key != "library"}


def engine() -> str:
    """``"native"`` when shared-memory kernels run the C body in this
    process, else ``"numpy"`` (the item loop).  Never triggers a build."""
    return "native" if _STATE is not None and _STATE["available"] else "numpy"


if __name__ == "__main__":
    # ``python -m repro.sim.native``: report through the imported module, so
    # the process makes one attempt.
    from repro.sim import native as _imported

    print(json.dumps(_imported.status(), indent=2))
