"""Composite host-speed probe and host record for the repo benchmark.

The benchmark host is a small shared VM whose speed drifts in phases that
last seconds to minutes, so a median of raw wall seconds from one run does
not repeat (see README.md, "Calibrated seconds").  Every timed interval is
therefore surrounded by samples of this probe and divided by the host's
slowdown.

Two things drift, and not together: how fast the cores run cache-resident
code, and how fast the memory system serves state-sized sweeps (the L3 and
the memory controllers are shared with other guests).  The probe measures
both, each with two parts of about 3 ms, none of them calling ``repro``:

cpu group
    ``pyloop`` — a fixed pure-Python dict/int loop (interpreter speed:
    planning, the session facade, the service wrapper);
    ``l2`` — ``np.multiply`` / ``np.matmul`` on L2-resident arrays (NumPy
    dispatch + SIMD/BLAS on small operands: 12-qubit kernels, shards).
memory group
    ``copy`` — ``np.copyto`` of a 2^20-amplitude ``complex128`` array, the
    size of a 20-qubit state (streaming);
    ``sweep`` — what a gate application does to such a state: a strided
    half-state multiply and a small-matrix gemm across the whole array.

A workload declares the share of its job time that is state-sized sweeps
beyond L2 (``memory_share``, read off its traced run and a regression of
run-level slowdowns on the two groups); the slowdown of an interval is the
two groups' slowdowns mixed in that proportion.  Each part is timed as the
median of three sub-samples so that one interrupt does not skew a sample.

NumPy is imported inside :class:`Probe`, not at module level, so that
``run.py`` can import this module, call :func:`pin_threads`, and only then
let NumPy size its BLAS thread pools.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import NamedTuple

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread (call before NumPy loads).

    The parallel runtime's own worker threads are the only parallelism a
    workload should see; a BLAS pool on a 2-core host would fight them.

    NumPy's ``madvise(MADV_HUGEPAGE)`` on large arrays is switched off too:
    in this guest a first touch of a huge page stalls for as long as the
    host takes to back it (the first 20-qubit job of a process took
    0.4-2.4 s with it, 0.43-0.54 s without; warm jobs are the same either
    way), and no probe can see a stall that only fresh huge pages suffer.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


#: Group seconds on the builder host while it was quiet, measured in-run
#: (between jobs, caches as the workload leaves them), so calibrated ~=
#: raw there.  Changing either rescales every timing metric: re-baseline
#: when you do.
REF_CPU_S = 0.0176
REF_MEM_S = 0.0289

#: ``memory_share`` of work that is interpreter, solver and small-array
#: code: planning, the session facade, the service wrapper, imports.
INTERPRETER_SHARE = 0.25

_SUBSAMPLES = 3
_PYLOOP_ITERS = 20000
_STATE_AMPLITUDES = 1 << 20
_L2_AMPLITUDES = 1 << 12
_L2_MULTIPLIES = 100
_L2_MATMULS = 14
_SWEEP_GEMM = 16


class ProbeSample(NamedTuple):
    """Seconds of each probe part."""

    pyloop: float
    l2: float
    copy: float
    sweep: float


class Probe:
    """The composite probe for one workload, buffers allocated once."""

    def __init__(self, memory_share: float, quick: bool = False) -> None:
        import numpy as np  # deliberately late: see the module docstring

        if not 0.0 <= memory_share <= 1.0:
            raise ValueError("memory_share must be within [0, 1]")
        self.memory_share = memory_share
        #: Timings of each part per sample; *quick* is for runs that report
        #: nothing (the smoke test).
        self.subsamples = 1 if quick else _SUBSAMPLES
        self._np = np
        self._a = np.full(_L2_AMPLITUDES, 1.0 + 0.5j, dtype=np.complex128)
        self._b = np.full(_L2_AMPLITUDES, 1.0001 - 0.25j, dtype=np.complex128)
        self._c = np.empty_like(self._a)
        self._m = np.full((64, 64), 0.01 + 0.02j, dtype=np.complex128)
        self._v = np.full((64, 256), 1.0 + 1.0j, dtype=np.complex128)
        self._o = np.empty((64, 256), dtype=np.complex128)
        self._src = np.full(_STATE_AMPLITUDES, 0.5 + 0.5j, dtype=np.complex128)
        self._dst = np.empty_like(self._src)
        self._g = np.full((_SWEEP_GEMM, _SWEEP_GEMM), 0.05 + 0.01j, dtype=np.complex128)
        # Touch every page once so the first bracket is not a page-fault test.
        self.sample()

    @staticmethod
    def _pyloop() -> int:
        table: dict[int, int] = {}
        acc = 0
        for i in range(_PYLOOP_ITERS):
            key = (i * 7919) & 1023
            acc += table.get(key, 0) ^ i
            table[key] = acc & 0xFFFF
        return acc

    def _l2(self) -> None:
        np = self._np
        a, b, c = self._a, self._b, self._c
        for _ in range(_L2_MULTIPLIES):
            np.multiply(a, b, out=c)
        m, v, o = self._m, self._v, self._o
        for _ in range(_L2_MATMULS):
            np.matmul(m, v, out=o)

    def _copy(self) -> None:
        self._np.copyto(self._dst, self._src)

    def _sweep(self) -> None:
        np = self._np
        src = self._src.reshape(1024, 2, 512)  # a gate on qubit 9 of 20
        dst = self._dst.reshape(1024, 2, 512)
        np.multiply(src[:, 0, :], 0.5, out=dst[:, 0, :])
        np.matmul(
            self._g,
            self._src.reshape(_SWEEP_GEMM, -1),
            out=self._dst.reshape(_SWEEP_GEMM, -1),
        )

    def sample(self) -> ProbeSample:
        """One composite sample (about 45 ms)."""
        clock = time.perf_counter
        parts = []
        for part in (self._pyloop, self._l2, self._copy, self._sweep):
            times = []
            for _ in range(self.subsamples):
                start = clock()
                part()
                times.append(clock() - start)
            parts.append(statistics.median(times) * _SUBSAMPLES)
        return ProbeSample(*parts)

    def factor(self, samples: list[ProbeSample], share: float | None = None) -> float:
        """Host slowdown over an interval, from the *samples* taken around
        (and within) it.

        1.0 is the reference host; 1.2 means the interval ran on a host
        20 % slower, so its raw seconds are divided by 1.2.  *share*
        overrides the workload's ``memory_share`` for an interval doing
        another kind of work (a planning step of an execution workload).
        """
        if share is None:
            share = self.memory_share
        cpu = statistics.fmean(s.pyloop + s.l2 for s in samples) / REF_CPU_S
        mem = statistics.fmean(s.copy + s.sweep for s in samples) / REF_MEM_S
        return (1.0 - share) * cpu + share * mem

    def copy_seconds(self, amplitudes: int) -> float:
        """Seconds to copy a state of *amplitudes* once, scaled from the
        probe's fixed-size copy (the in-run copy roofline)."""
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            self._copy()
            best = min(best, time.perf_counter() - start)
        return best * amplitudes / _STATE_AMPLITUDES


def host_record() -> dict:
    """What the numbers were measured on (goes into every report)."""
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = os.getloadavg()
    except OSError:
        load = (0.0, 0.0, 0.0)
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load_average": [round(x, 2) for x in load],
        "ref_cpu_s": REF_CPU_S,
        "ref_mem_s": REF_MEM_S,
    }
    try:
        import scipy

        record["scipy"] = scipy.__version__
    except ImportError:  # the ILP layer would fail first; keep the record
        record["scipy"] = None
    return record


def probe_check(seconds: float = 10.0) -> dict:
    """Sample the probe back to back and report its own spread.

    This is the floor under every calibrated metric: an interval cannot
    repeat better than the ruler it is divided by.  Run it on a new host
    before trusting (or re-pinning) the ``REF_*`` constants.
    """
    probe = Probe(memory_share=0.5)
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        samples.append(probe.sample())

    def summary(values: list[float]) -> dict:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return {
            "median_s": q2,
            "iqr_over_median": (q3 - q1) / q2,
            "min_s": min(values),
            "max_s": max(values),
        }

    return {
        "samples": len(samples),
        "ref_cpu_s": REF_CPU_S,
        "ref_mem_s": REF_MEM_S,
        "cpu_group": summary([s.pyloop + s.l2 for s in samples]),
        "memory_group": summary([s.copy + s.sweep for s in samples]),
        **{
            part: summary([getattr(s, part) for s in samples])
            for part in ProbeSample._fields
        },
        "host": host_record(),
    }
