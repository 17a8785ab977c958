"""Cost-model calibration (paper Section VII-A).

The KERNELIZE cost function contains constants that the paper obtains by
micro-benchmarking the target GPU: the execution time of fused matrices of
each width, the time to stream a micro-batch of amplitudes through shared
memory, and per-gate-type application times.  This module performs the same
calibration against whatever execution substrate is available — here the
NumPy engine — so that the cost model's *relative* shape (which width is
most cost-efficient, how much a diagonal gate saves, ...) is measured rather
than guessed.  What is timed is :func:`repro.sim.apply.apply_matrix`, which
runs the same bound op template a compiled program stores for that matrix
and position (one engine: a broadcast diagonal or a one-item kernel, the
item loop for a dense matrix wider than the native body's four qubits), so
these are the ops programs execute; with a distinct ``out`` every time
includes the state copy that precedes the in-place update.  Still missing for ROADMAP item 2(b): pricing
the *lowered* item list (blocks, folds) rather than single gates, and a
persisted per-host profile.

The calibrated :class:`repro.cluster.costmodel.CostModel` can be passed to
:func:`repro.core.partition` and to all the benchmark drivers; the default
cost model in :mod:`repro.cluster.costmodel` corresponds to an A100-like
device and is used when no calibration is run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..circuits.gates import Gate, make_gate
from ..cluster.costmodel import CostModel
from ..sim.apply import apply_matrix, tracked_empty

__all__ = ["CalibrationResult", "calibrate_cost_model", "measure_fusion_times", "measure_gate_times"]


@dataclass
class CalibrationResult:
    """Raw measurements plus the cost model fitted from them."""

    fusion_seconds_per_width: dict[int, float]
    gate_seconds: dict[str, float]
    shm_load_seconds: float
    state_qubits: int
    cost_model: CostModel = field(default=None)

    def summary(self) -> list[dict]:
        rows = [
            {"quantity": f"fusion width {w}", "seconds": s}
            for w, s in sorted(self.fusion_seconds_per_width.items())
        ]
        rows += [
            {"quantity": f"gate {name}", "seconds": s}
            for name, s in sorted(self.gate_seconds.items())
        ]
        rows.append({"quantity": "shm load", "seconds": self.shm_load_seconds})
        return rows


def _time_call(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of *fn* over *repeats* calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def measure_fusion_times(
    state_qubits: int = 16,
    widths: Sequence[int] = range(1, 8),
    repeats: int = 3,
    seed: int = 0,
) -> dict[int, float]:
    """Measure the time to apply one fused ``2^w × 2^w`` matrix to a state.

    This is the analogue of the paper's cuQuantum apply-matrix profiling:
    the time is dominated by streaming the state once plus ``O(2^w)`` work
    per amplitude, so it is flat for small widths and grows geometrically
    beyond the cache-friendly sizes.
    """
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << state_qubits) + 1j * rng.normal(size=1 << state_qubits)
    state /= np.linalg.norm(state)
    out = tracked_empty(state.size)
    timings: dict[int, float] = {}
    for width in widths:
        # A random unitary of the requested width (QR of a Gaussian matrix).
        dim = 1 << width
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        unitary, _ = np.linalg.qr(raw)
        qubits = list(range(width))
        timings[int(width)] = _time_call(
            lambda u=unitary, q=qubits: apply_matrix(state, u, q, out=out), repeats
        )
    return timings


def measure_gate_times(
    state_qubits: int = 16,
    gate_samples: Sequence[Gate] | None = None,
    repeats: int = 3,
    seed: int = 0,
) -> dict[str, float]:
    """Measure per-gate application times for representative gate classes."""
    if gate_samples is None:
        gate_samples = [
            make_gate("h", [0]),
            make_gate("rz", [1], [0.4]),
            make_gate("cx", [0, 1]),
            make_gate("cp", [2, 3], [0.7]),
            make_gate("ccx", [0, 1, 2]),
        ]
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << state_qubits) + 1j * rng.normal(size=1 << state_qubits)
    state /= np.linalg.norm(state)
    buf = tracked_empty(state.size)
    out: dict[str, float] = {}
    for gate in gate_samples:
        out[gate.name] = _time_call(
            lambda g=gate: apply_matrix(state, g.matrix(), g.qubits, out=buf), repeats
        )
    return out


def calibrate_cost_model(
    state_qubits: int = 16,
    max_fusion_qubits: int = 7,
    repeats: int = 3,
    seed: int = 0,
) -> CalibrationResult:
    """Build a :class:`CostModel` from measurements on the NumPy engine.

    The fusion-cost table is normalised so that a 1-qubit fused kernel costs
    1.0 unit (the same normalisation the default table uses), the
    shared-memory load constant is taken as the single-qubit apply time
    (one full streaming pass over the state), and per-gate costs are scaled
    relative to it.
    """
    fusion_seconds = measure_fusion_times(
        state_qubits, range(1, max_fusion_qubits + 1), repeats, seed
    )
    gate_seconds = measure_gate_times(state_qubits, None, repeats, seed)
    unit = fusion_seconds[1]
    shm_load_seconds = unit

    fusion_table = {0: 0.5}
    for width, seconds in fusion_seconds.items():
        fusion_table[width] = max(seconds / unit, 1e-6)
    gate_table = {
        "default": max(gate_seconds.get("h", unit) / unit, 1e-6) * 0.1,
        "diagonal": max(gate_seconds.get("rz", unit) / unit, 1e-6) * 0.05,
        "control": max(gate_seconds.get("cx", unit) / unit, 1e-6) * 0.07,
    }
    model = CostModel(
        fusion_cost_per_qubits=fusion_table,
        shm_load_cost=1.0,
        shm_gate_cost=gate_table,
        max_fusion_qubits=max_fusion_qubits,
        seconds_per_unit=unit * 2.0 ** (28 - state_qubits),
    )
    return CalibrationResult(
        fusion_seconds_per_width=fusion_seconds,
        gate_seconds=gate_seconds,
        shm_load_seconds=shm_load_seconds,
        state_qubits=state_qubits,
        cost_model=model,
    )
