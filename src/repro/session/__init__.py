"""Unified Session facade: pluggable backends, structural plan cache, job API.

See :class:`Session` for the front door, :mod:`repro.session.backends` for
the backend registry and the ``"auto"`` selection rule, and
:mod:`repro.session.cache` for the structural plan cache that amortises
partitioning across parameter sweeps.
"""

from .backends import (
    BACKENDS,
    BaselineBackend,
    ExecutionBackend,
    InCoreBackend,
    OffloadBackend,
    ParallelBackend,
    ReferenceBackend,
    available_backends,
    make_backend,
    register_backend,
    select_auto_backend,
)
from .cache import (
    CacheStats,
    PlanCache,
    plan_cache_key,
    plan_fingerprint,
    plan_skeleton,
    rebind_plan,
    shared_plan_key,
    skeleton_fingerprint,
    skeleton_to_plan,
)
from .result import Job, JobStatus, Result, normalize_observable
from .session import Session, SessionStats

__all__ = [
    "Session",
    "SessionStats",
    "Job",
    "JobStatus",
    "Result",
    "normalize_observable",
    "PlanCache",
    "CacheStats",
    "plan_cache_key",
    "plan_fingerprint",
    "plan_skeleton",
    "rebind_plan",
    "shared_plan_key",
    "skeleton_fingerprint",
    "skeleton_to_plan",
    "ExecutionBackend",
    "ReferenceBackend",
    "InCoreBackend",
    "OffloadBackend",
    "ParallelBackend",
    "BaselineBackend",
    "BACKENDS",
    "register_backend",
    "make_backend",
    "available_backends",
    "select_auto_backend",
]
