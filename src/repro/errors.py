"""Typed error taxonomy and recovery primitives for the execution layer.

Every failure the runtime can surface derives from :class:`ReproError` and
is classified on exactly one of two branches:

* :class:`TransientError` — the operation may succeed if repeated (shard
  I/O hiccups, a worker that failed to start, a corrupted cache entry that
  can be rebuilt).  The supervised runtimes retry these with bounded
  exponential backoff (:class:`RetryPolicy`) and escalate only when the
  budget is exhausted.
* :class:`PermanentError` — retrying cannot help (a kernel that computes
  garbage, an invalid plan, an over-budget allocation, a missed deadline, a
  closed session).  These propagate promptly; the recovery story, where one
  exists, is *degradation* (a different backend, a simpler planner), never
  a blind retry.

Each concrete class also inherits the builtin exception it historically
replaced (``ValueError``/``RuntimeError``/…), so code written against the
bare raises — ``except ValueError`` around plan validation, ``except
RuntimeError`` around a closed session — keeps working unchanged.

The module also provides the two recovery primitives shared by every
runtime: :class:`RetryPolicy` (deterministic bounded exponential backoff)
and :class:`Deadline` (an absolute wall-clock budget checked cooperatively
at stage and shard boundaries).

See ``docs/robustness.md`` for the full taxonomy, the retry/backoff policy
and the degradation chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = [
    "AdmissionError",
    "CacheCorruptionError",
    "Deadline",
    "DeadlineExceeded",
    "IntegrityError",
    "JobCancelledError",
    "KernelError",
    "PermanentError",
    "PlanValidationError",
    "QueueFullError",
    "ReproError",
    "RetryPolicy",
    "ServiceClosedError",
    "SessionClosedError",
    "ShardIOError",
    "SpecParseError",
    "StateValidationError",
    "StaticCheckError",
    "TenantQuotaError",
    "TransientError",
]


class ReproError(Exception):
    """Root of the typed error taxonomy.

    ``site`` names the injection/failure site when known (one of
    :data:`repro.runtime.faults.SITES` for injected faults); ``context``
    carries free-form diagnostic detail (worker index, shard index, ...).
    """

    def __init__(self, message: str = "", *, site: str | None = None, **context):
        super().__init__(message)
        self.site = site
        self.context = context

    @property
    def transient(self) -> bool:
        """Whether a retry of the same operation may succeed."""
        return isinstance(self, TransientError)


class TransientError(ReproError):
    """A failure that may not recur: retry with bounded backoff."""


class PermanentError(ReproError):
    """A failure retrying cannot fix: propagate (or degrade) promptly."""


class ShardIOError(TransientError, OSError):
    """A shard load/store failed in transit (the PCIe/DRAM path)."""


class KernelError(PermanentError, RuntimeError):
    """A kernel application failed or produced an invalid result.

    Deterministic kernels fail the same way on every retry — and every
    executor builds a kernel's op the same way — so this is permanent and
    propagates.
    """


class PlanValidationError(PermanentError, ValueError):
    """A plan (or a plan/machine/circuit combination) failed validation."""


class StateValidationError(PermanentError, ValueError):
    """An initial state failed validation (non-finite or badly
    non-normalized amplitudes; see ``Session.run(normalize=...)``)."""


class StaticCheckError(PermanentError, ValueError):
    """The static verifier (:mod:`repro.check`) rejected a plan, compiled
    program or shard schedule before execution.

    Retrying cannot help — the artifact itself violates an execution
    invariant.  ``report`` carries the full :class:`repro.check.CheckReport`
    whose violations name the rule, the op/stage/shard site and diagnostic
    context; ``site`` holds the first violation's site string.
    """

    def __init__(self, message: str = "", *, report=None, site=None, **context):
        super().__init__(message, site=site, **context)
        self.report = report


class AdmissionError(PermanentError, MemoryError):
    """The admission check rejected a job whose modelled memory footprint
    exceeds the backend's budget (degrade down the backend chain)."""


class QueueFullError(AdmissionError):
    """The service's pending-job queue is at capacity.

    On the permanent branch deliberately: the *submission* as issued cannot
    proceed and the runtimes must not blind-retry it.  The client may
    resubmit once the queue drains — ``context`` carries ``depth`` and
    ``limit`` so backpressure-aware clients can pace themselves.
    """


class TenantQuotaError(AdmissionError):
    """One tenant's pending-job quota is exhausted (other tenants may
    still submit — this is per-tenant backpressure, not global)."""


class SpecParseError(AdmissionError, ValueError):
    """A textual circuit spec (one ``submit_file``/``submit_many`` line)
    failed to parse.

    Per-job, not per-batch: the service rejects only the malformed line as
    a typed job failure and admits the rest of the batch.  Permanent — the
    same text parses the same way on every retry."""


class JobCancelledError(PermanentError, RuntimeError):
    """The job was cancelled before it produced a result; ``result()``
    re-raises this on every later call."""


class DeadlineExceeded(PermanentError, TimeoutError):
    """The job's cooperative deadline expired at a cancellation point."""


class CacheCorruptionError(TransientError, RuntimeError):
    """A cached plan entry failed its integrity check (evict and replan)."""


class IntegrityError(PermanentError, RuntimeError):
    """A runtime integrity monitor detected corruption: state norm drift
    beyond tolerance, a shard checksum mismatch between stages, or a
    tampered durable record (checkpoint/journal) that must never be
    trusted.

    Permanent by design — retrying on corrupted state would silently
    propagate garbage; the recovery story is discarding the corrupt
    artifact (evict the checkpoint, skip the journal record, rerun from a
    trusted point)."""


class SessionClosedError(PermanentError, RuntimeError):
    """The Session/runtime was used after :meth:`close`."""


class ServiceClosedError(SessionClosedError):
    """The :class:`repro.service.SimulationService` was used after
    :meth:`close` (inherits the closed-session semantics)."""


# ---------------------------------------------------------------------------
# Recovery primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded exponential backoff for transient failures.

    ``max_attempts`` counts the total tries (first attempt included);
    attempt ``k`` (1-based) sleeps ``min(base_delay * multiplier**(k-1),
    max_delay)`` before retrying.  No jitter: recovery schedules are
    reproducible, which the bit-exact fault-matrix tests rely on.
    """

    max_attempts: int = 3
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.05

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based)."""
        return min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)

    def sleep(self, attempt: int) -> None:
        delay = self.delay(attempt)
        if delay > 0:
            time.sleep(delay)


#: Default policy used by the runtimes when none is configured.
DEFAULT_RETRY_POLICY = RetryPolicy()


class Deadline:
    """An absolute wall-clock budget with cooperative cancellation checks.

    Built from a relative budget in seconds (``Deadline(2.5)``); runtimes
    call :meth:`check` at stage and shard boundaries, which raises
    :class:`DeadlineExceeded` once the budget is spent.  A ``None`` budget
    never expires (:meth:`check` is then a no-op), so call sites do not
    need to special-case the unbounded path.
    """

    __slots__ = ("seconds", "_expires")

    def __init__(self, seconds: float | None):
        if seconds is not None and seconds < 0:
            raise ValueError("deadline must be non-negative")
        self.seconds = seconds
        self._expires = None if seconds is None else time.monotonic() + seconds

    def remaining(self) -> float:
        """Seconds left (``inf`` for an unbounded deadline)."""
        if self._expires is None:
            return float("inf")
        return self._expires - time.monotonic()

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.6g}s exceeded"
                + (f" at {where}" if where else ""),
                site=where or None,
            )

    @classmethod
    def resolve(cls, deadline: "Deadline | float | None") -> "Deadline":
        """Coerce ``None`` / seconds / an existing deadline into a Deadline."""
        if isinstance(deadline, cls):
            return deadline
        return cls(deadline)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._expires is None:
            return "<Deadline unbounded>"
        return f"<Deadline {self.remaining():.3f}s remaining of {self.seconds:.3f}s>"
