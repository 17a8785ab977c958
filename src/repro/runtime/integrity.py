"""Runtime integrity monitoring: per-stage norm drift + state checksums.

A multi-hour shard run can go numerically bad long before it finishes —
a miscompiled kernel, a DRAM bit-flip, a buggy relabel — and nothing in
the hot path would notice: every stage happily transforms garbage into
more garbage.  The :class:`IntegrityMonitor` watches two cheap invariants
at stage boundaries:

* **Norm drift** — every gate is unitary, so ``‖state‖₂`` is conserved.
  After each stage the monitor compares the norm against the baseline
  recorded at the first check; drift beyond ``norm_tolerance`` means the
  computation itself is corrupt.
* **Inter-stage checksum** — between the end of stage ``k`` (checked in
  ``stage_complete``) and the start of stage ``k+1`` (checked in
  ``stage_begin``) the state must be *bit-identical*: nothing is allowed
  to touch it.  A blake2b digest over the raw bytes catches any torn
  write, stray mutation, or offload round-trip corruption in the gap.

Violations raise :class:`repro.errors.IntegrityError` (permanent branch —
retrying on corrupt state propagates garbage).  The monitor is optional
and opt-in (``Session(monitor=True)`` / ``monitor=`` on the executors);
the digest costs one pass over the state per boundary, which is noise
next to a stage's kernel work but not free, hence not the default.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import IntegrityError

__all__ = ["IntegrityConfig", "IntegrityMonitor"]


@dataclass(frozen=True)
class IntegrityConfig:
    """Tolerances for the runtime integrity monitor.

    ``norm_tolerance`` bounds the allowed relative drift of the state's
    2-norm from its baseline; ``checksum`` enables the inter-stage
    bit-identity digest.
    """

    norm_tolerance: float = 1e-6
    checksum: bool = True

    def __post_init__(self):
        if self.norm_tolerance <= 0:
            raise ValueError("norm_tolerance must be positive")  # lint: config-error


class IntegrityMonitor:
    """Stage-boundary invariant checks for one execution at a time.

    Not thread-safe; the stage driver
    (:func:`repro.runtime.offload.run_stages`) calls it from the single
    stage loop.  The norm baseline and digest carry state across stages of
    *one* execution only, so the driver calls :meth:`reset` at the start
    of every run: one instance may be passed to a Session and reused
    across batch items and jobs.  ``stages_checked`` / ``max_norm_drift``
    are *not* reset — on a reused instance they accumulate over its
    lifetime.
    """

    def __init__(self, config: IntegrityConfig | None = None):
        self.config = config or IntegrityConfig()
        #: Boundary checks performed (telemetry, surfaced in stats).
        self.stages_checked = 0
        #: Worst relative norm drift observed (telemetry).
        self.max_norm_drift = 0.0
        self.reset()

    def reset(self) -> None:
        """Forget the previous execution's norm baseline and digest."""
        self._baseline_norm: float | None = None
        self._last_digest: str | None = None
        self._last_stage: int | None = None

    @classmethod
    def coerce(cls, value) -> "IntegrityMonitor | None":
        """``True``/config/monitor → monitor; ``False``/``None`` → None."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, IntegrityConfig):
            return cls(value)
        if isinstance(value, cls):
            return value
        raise TypeError(  # lint: config-error
            f"monitor must be a bool, IntegrityConfig or IntegrityMonitor, "
            f"got {type(value).__name__}"
        )

    # ------------------------------------------------------------------
    # Stage hooks
    # ------------------------------------------------------------------

    def _digest(self, state: np.ndarray) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(state).view(np.uint8))
        return h.hexdigest()

    def stage_begin(self, state: np.ndarray, stage_index: int) -> None:
        """Verify the state was untouched since the previous boundary."""
        if not self.config.checksum or self._last_digest is None:
            return
        if self._digest(state) != self._last_digest:
            raise IntegrityError(
                f"state mutated between stage {self._last_stage} and stage "
                f"{stage_index}: inter-stage checksum mismatch",
                site="integrity_checksum",
                stage=stage_index,
            )

    def stage_complete(self, state: np.ndarray, stage_index: int) -> None:
        """Check norm conservation and record the boundary digest."""
        self.stages_checked += 1
        norm = float(np.linalg.norm(state))
        if self._baseline_norm is None:
            self._baseline_norm = norm
        else:
            drift = abs(norm - self._baseline_norm) / max(self._baseline_norm, 1e-300)
            self.max_norm_drift = max(self.max_norm_drift, drift)
            if drift > self.config.norm_tolerance:
                raise IntegrityError(
                    f"state norm drifted {drift:.3e} (tolerance "
                    f"{self.config.norm_tolerance:.3e}) after stage {stage_index}",
                    site="integrity_norm",
                    stage=stage_index,
                    drift=drift,
                )
        if self.config.checksum:
            self._last_digest = self._digest(state)
            self._last_stage = stage_index
