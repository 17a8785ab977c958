"""Deterministic, seedable fault injection for the execution layer.

Every recovery path in the runtime — shard retry, worker quarantine,
cache eviction-and-replan — and every typed error it propagates instead
is only trustworthy if it can be *exercised on demand*.  This module plants named **injection
sites** at the failure-prone boundaries of the execution layer; a
:class:`FaultInjector` activated for a run decides, deterministically,
which site occurrences raise which typed error.

Sites (:data:`SITES`):

===============  ===========================================================
``shard_load``   a shard streaming from DRAM into a device buffer
``shard_store``  a computed shard streaming back to DRAM
``kernel_apply`` a (compiled) kernel stream applied to a shard or state
``compile``      plan → :class:`CompiledProgram` / segment-op lowering
``worker_start`` a worker thread picking up its shard assignment
``cache_rebind`` a structural-cache hit re-binding a cached plan
``checkpoint_write`` a stage-boundary checkpoint streaming to disk
``checkpoint_load``  a checkpoint read back for ``resume_from=``
``journal_append``   a service write-ahead journal record append
===============  ===========================================================

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers.  Each spec
matches one site (optionally filtered by ``worker``/``shard`` context),
skips its first ``after`` matching occurrences, then fires ``times`` times,
raising the named error class.  Occurrence counting is global per spec and
thread-safe, so a plan is deterministic for a fixed execution schedule; the
optional ``probability`` gate draws from a generator seeded per plan, so
even randomized chaos runs are reproducible.

Activation is explicit and scoped: ``Session(faults=...)`` activates its
injector for the duration of each ``run`` (via :func:`activate` /
:func:`deactivate`), and the process-wide ``REPRO_FAULTS`` environment
variable installs a baseline injector for chaos smoke runs::

    REPRO_FAULTS="shard_load:transient:2" python examples/dram_offloading.py

Spec strings are comma-separated ``site[:error[:times[:after]]]`` entries
where *error* is ``transient``, ``permanent``, or any class name from
:mod:`repro.errors` (``ShardIOError``, ``KernelError``, ...); append
``@worker=N`` / ``@shard=N`` to filter by context::

    REPRO_FAULTS="worker_start:transient:99@worker=0,compile:KernelError:1"

Sites are checked through :func:`check`, a no-op costing one global read
when no injector is active — the hot paths stay hot.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .. import errors as _errors
from ..errors import ReproError, TransientError, PermanentError

__all__ = [
    "CRASH_EXIT_CODE",
    "SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "activate",
    "active_injector",
    "check",
    "crash_after_stage",
    "deactivate",
]

#: The named injection sites planted in the execution layer.
SITES = (
    "shard_load",
    "shard_store",
    "kernel_apply",
    "compile",
    "worker_start",
    "cache_rebind",
    "checkpoint_write",
    "checkpoint_load",
    "journal_append",
)

#: Default error class raised per site when a spec just says "transient" /
#: "permanent" — the typed error that site's real failures would surface.
_SITE_TRANSIENT_DEFAULT = {
    "shard_load": _errors.ShardIOError,
    "shard_store": _errors.ShardIOError,
    "kernel_apply": TransientError,
    "compile": TransientError,
    "worker_start": TransientError,
    "cache_rebind": _errors.CacheCorruptionError,
    "checkpoint_write": _errors.ShardIOError,
    "checkpoint_load": _errors.CacheCorruptionError,
    "journal_append": _errors.ShardIOError,
}
_SITE_PERMANENT_DEFAULT = {
    "shard_load": PermanentError,
    "shard_store": PermanentError,
    "kernel_apply": _errors.KernelError,
    "compile": _errors.KernelError,
    "worker_start": PermanentError,
    "cache_rebind": _errors.CacheCorruptionError,
    "checkpoint_write": PermanentError,
    "checkpoint_load": _errors.CacheCorruptionError,
    "journal_append": _errors.IntegrityError,
}


def _resolve_error_class(site: str, name: str) -> type[ReproError]:
    """Map a spec's error name onto a taxonomy class for *site*."""
    lowered = name.lower()
    if lowered == "transient":
        return _SITE_TRANSIENT_DEFAULT[site]
    if lowered == "permanent":
        return _SITE_PERMANENT_DEFAULT[site]
    cls = getattr(_errors, name, None)
    if cls is None or not (isinstance(cls, type) and issubclass(cls, ReproError)):
        raise ValueError(  # lint: config-error
            f"unknown fault error {name!r}; use 'transient', 'permanent', or a "
            f"class name from repro.errors"
        )
    return cls


@dataclass(frozen=True)
class FaultSpec:
    """One injection trigger: where, what, and how often to fail.

    Attributes
    ----------
    site:
        Injection site name (one of :data:`SITES`).
    error:
        ``"transient"`` / ``"permanent"`` (resolved to the site's natural
        typed error) or a :mod:`repro.errors` class name.
    times:
        How many matching occurrences fire before the spec is exhausted.
    after:
        Skip this many matching occurrences first (fire on the
        ``after+1``-th).
    worker / shard:
        Optional context filters: only occurrences reporting this worker /
        shard index match.  ``None`` matches everything.
    probability:
        Fire each matching occurrence only with this probability, drawn
        from the plan's seeded generator (1.0 = always).
    """

    site: str
    error: str = "transient"
    times: int = 1
    after: int = 0
    worker: int | None = None
    shard: int | None = None
    probability: float = 1.0

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {SITES}")  # lint: config-error
        if self.times < 1:
            raise ValueError("times must be at least 1")  # lint: config-error
        if self.after < 0:
            raise ValueError("after must be non-negative")  # lint: config-error
        if not (0.0 < self.probability <= 1.0):
            raise ValueError("probability must be in (0, 1]")  # lint: config-error
        _resolve_error_class(self.site, self.error)  # validate eagerly

    def error_class(self) -> type[ReproError]:
        return _resolve_error_class(self.site, self.error)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of fault triggers plus the randomness seed."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-style spec string (see module docs)."""
        specs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            filters: dict[str, int] = {}
            if "@" in chunk:
                chunk, _, raw_filters = chunk.partition("@")
                for clause in raw_filters.split("@"):
                    key, _, value = clause.partition("=")
                    key = key.strip()
                    if key not in ("worker", "shard") or not value.strip().isdigit():
                        raise ValueError(  # lint: config-error
                            f"bad fault filter {clause!r}; expected worker=N or shard=N"
                        )
                    filters[key] = int(value)
            parts = chunk.split(":")
            if not 1 <= len(parts) <= 4:
                raise ValueError(  # lint: config-error
                    f"bad fault spec {chunk!r}; expected site[:error[:times[:after]]]"
                )
            site = parts[0].strip()
            error = parts[1].strip() if len(parts) > 1 else "transient"
            times = int(parts[2]) if len(parts) > 2 else 1
            after = int(parts[3]) if len(parts) > 3 else 0
            specs.append(FaultSpec(site, error, times, after, **filters))
        return cls(specs=tuple(specs), seed=seed)

    @classmethod
    def coerce(cls, value) -> "FaultPlan":
        """Coerce a plan/spec-string/spec-list into a :class:`FaultPlan`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, FaultSpec):
            return cls(specs=(value,))
        return cls(specs=tuple(value))


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against site occurrences, thread-safely.

    One injector carries the mutable firing state (per-spec occurrence and
    fire counters, plus the seeded RNG for probabilistic specs); create a
    fresh injector (or call :meth:`reset`) to replay a plan from the start.
    """

    def __init__(self, plan: FaultPlan | str | FaultSpec | list | tuple):
        self.plan = FaultPlan.coerce(plan)
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget all firing state; the plan replays from occurrence zero."""
        with self._lock:
            self._seen = [0] * len(self.plan.specs)
            self._fired = [0] * len(self.plan.specs)
            self._rng = np.random.default_rng(self.plan.seed)
            #: Total faults raised, by site.
            self.fired_by_site: dict[str, int] = {}

    @property
    def total_fired(self) -> int:
        return sum(self.fired_by_site.values())

    def exhausted(self) -> bool:
        """True once every spec has fired its full ``times`` budget."""
        with self._lock:
            return all(
                fired >= spec.times
                for spec, fired in zip(self.plan.specs, self._fired)
            )

    def check(self, site: str, worker: int | None = None, shard: int | None = None) -> None:
        """Raise the configured typed error if a spec fires at *site*."""
        to_raise: ReproError | None = None
        with self._lock:
            for i, spec in enumerate(self.plan.specs):
                if spec.site != site:
                    continue
                if spec.worker is not None and spec.worker != worker:
                    continue
                if spec.shard is not None and spec.shard != shard:
                    continue
                if self._fired[i] >= spec.times:
                    continue
                self._seen[i] += 1
                if self._seen[i] <= spec.after:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                self._fired[i] += 1
                self.fired_by_site[site] = self.fired_by_site.get(site, 0) + 1
                to_raise = spec.error_class()(
                    f"injected {spec.error} fault at {site}"
                    + (f" (worker={worker})" if worker is not None else "")
                    + (f" (shard={shard})" if shard is not None else ""),
                    site=site,
                    worker=worker,
                    shard=shard,
                    injected=True,
                )
                break
        if to_raise is not None:
            raise to_raise


# ---------------------------------------------------------------------------
# Activation — one process-wide slot, plus the REPRO_FAULTS baseline
# ---------------------------------------------------------------------------

_active: FaultInjector | None = None
_activation_lock = threading.Lock()
_env_injector: FaultInjector | None = None
_env_loaded = False


def _load_env_injector() -> FaultInjector | None:
    global _env_injector, _env_loaded
    if not _env_loaded:
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        _env_injector = FaultInjector(FaultPlan.parse(spec)) if spec else None
        _env_loaded = True
    return _env_injector


def activate(injector: FaultInjector) -> None:
    """Install *injector* as the process-wide active injector.

    Worker and loader threads consult the same slot, so one activation
    covers the whole execution no matter which thread hits a site.  Nested
    activation (two Sessions injecting concurrently) is rejected —
    interleaved occurrence counting would make both plans meaningless.
    """
    global _active
    with _activation_lock:
        if _active is not None and _active is not injector:
            raise RuntimeError(  # lint: config-error
                "another fault injector is already active; fault-injecting "
                "Sessions cannot run concurrently in one process"
            )
        _active = injector


def deactivate(injector: FaultInjector | None = None) -> None:
    """Remove the active injector (a no-op when none is active)."""
    global _active
    with _activation_lock:
        if injector is None or _active is injector:
            _active = None


def active_injector() -> FaultInjector | None:
    """The injector sites consult: the activated one, else ``REPRO_FAULTS``."""
    return _active if _active is not None else _load_env_injector()


def check(site: str, worker: int | None = None, shard: int | None = None) -> None:
    """Injection-site hook: raise the configured fault, if any is due.

    This is the call planted in the runtimes.  With no injector configured
    it costs one global read and a ``None`` comparison.
    """
    injector = _active if _active is not None else _load_env_injector()
    if injector is not None:
        injector.check(site, worker=worker, shard=shard)


# ---------------------------------------------------------------------------
# Crash harness — deterministic hard kill for durability tests
# ---------------------------------------------------------------------------

#: Exit status used by :func:`crash_after_stage` so a harness parent can
#: distinguish the deliberate crash from any organic failure.
CRASH_EXIT_CODE = 87

_crash_stage: int | None = None
_crash_loaded = False


def _load_crash_stage() -> int | None:
    """Parse ``REPRO_CRASH`` once (format ``after_stage:<k>``)."""
    global _crash_stage, _crash_loaded
    if not _crash_loaded:
        spec = os.environ.get("REPRO_CRASH", "").strip()
        if spec:
            kind, _, value = spec.partition(":")
            if kind.strip() != "after_stage" or not value.strip().lstrip("-").isdigit():
                raise ValueError(  # lint: config-error
                    f"bad REPRO_CRASH spec {spec!r}; expected after_stage:<k>"
                )
            _crash_stage = int(value)
        _crash_loaded = True
    return _crash_stage


def crash_after_stage(stage_index: int) -> None:
    """Hard-kill the process after completing *stage_index*, if armed.

    Unlike the fault sites above this is not a :data:`SITES` entry — it is
    a separate harness armed only through the ``REPRO_CRASH`` environment
    variable (``after_stage:<k>``), because it does not *raise*: it calls
    ``os._exit`` with :data:`CRASH_EXIT_CODE`, simulating a power loss /
    SIGKILL with no chance to run cleanup.  The stage driver calls it at each
    stage boundary *after* the checkpoint write, so a crashed run's latest
    checkpoint covers stage ``k`` exactly.  Deliberately process-global and
    single-shot semantics-free: the armed process dies at the first
    matching boundary.
    """
    if _load_crash_stage() == stage_index:
        os._exit(CRASH_EXIT_CODE)
