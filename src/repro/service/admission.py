"""Admission control: reject work the service cannot responsibly queue.

Every ``submit`` passes through one :class:`AdmissionController` *before*
anything is enqueued, so rejection is synchronous and typed — clients get
the reason at the call site, never as a deferred failure:

* :class:`~repro.errors.QueueFullError` — the global pending queue is at
  capacity (``context`` carries ``depth``/``limit`` for backpressure).
* :class:`~repro.errors.TenantQuotaError` — this tenant's pending quota is
  exhausted; other tenants are unaffected.
* :class:`~repro.errors.AdmissionError` — the job itself is oversized:
  the session would refuse it for its memory budget, its modelled runtime
  exceeds the ceiling, or it bundles more circuits than a single job may
  carry.

The memory check is the session's own admission
(:meth:`~repro.session.Session.admission`), walked on the job's own
``backend`` and ``machine``: a job is admitted exactly when the session
would run it, on the backend its degradation chain reaches.  The budget is
the session's ``memory_budget_bytes``; the policy holds none.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AdmissionError, QueueFullError, TenantQuotaError

__all__ = ["AdmissionController", "AdmissionPolicy"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Limits one :class:`~repro.service.SimulationService` enforces.

    ``None`` disables the corresponding check.
    """

    #: Global cap on jobs queued but not yet dispatched.
    max_pending_jobs: "int | None" = 256
    #: Per-tenant cap on queued jobs (per-tenant backpressure).
    max_pending_per_tenant: "int | None" = 64
    #: Ceiling on a job's modelled wall-clock, seconds.
    max_modelled_seconds: "float | None" = None
    #: Ceiling on circuits bundled into one job.
    max_circuits_per_job: "int | None" = 1024

    def __post_init__(self):
        for name in (
            "max_pending_jobs",
            "max_pending_per_tenant",
            "max_circuits_per_job",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")  # lint: config-error
        if self.max_modelled_seconds is not None and self.max_modelled_seconds <= 0:
            raise ValueError(
                "max_modelled_seconds must be positive"
            )  # lint: config-error


class AdmissionController:
    """Applies one :class:`AdmissionPolicy` at submission time.

    Stateless between calls — queue depths are supplied by the service,
    which owns the queues; the controller owns only the policy and the
    rejection taxonomy.  Without a *session* it prices no memory.
    """

    def __init__(self, policy: AdmissionPolicy, session):
        self.policy = policy
        self._session = session

    def admit(
        self,
        circuits,
        *,
        tenant: str,
        pending_total: int,
        pending_tenant: int,
        modelled_seconds: "float | None" = None,
        backend: "str | None" = None,
        machine=None,
    ) -> None:
        """Raise a typed admission error if this submission must be
        rejected; return silently if it may be queued.  *backend* and
        *machine* are the job's run keywords (``None``: the session's)."""
        policy = self.policy
        if (
            policy.max_circuits_per_job is not None
            and len(circuits) > policy.max_circuits_per_job
        ):
            raise AdmissionError(
                f"job bundles {len(circuits)} circuits, limit is "
                f"{policy.max_circuits_per_job}",
                site="service.admit",
                tenant=tenant,
                circuits=len(circuits),
                limit=policy.max_circuits_per_job,
            )
        if (
            policy.max_pending_jobs is not None
            and pending_total >= policy.max_pending_jobs
        ):
            raise QueueFullError(
                f"service queue is full ({pending_total} pending, limit "
                f"{policy.max_pending_jobs})",
                site="service.admit",
                tenant=tenant,
                depth=pending_total,
                limit=policy.max_pending_jobs,
            )
        if (
            policy.max_pending_per_tenant is not None
            and pending_tenant >= policy.max_pending_per_tenant
        ):
            raise TenantQuotaError(
                f"tenant {tenant!r} has {pending_tenant} jobs pending, quota "
                f"is {policy.max_pending_per_tenant}",
                site="service.admit",
                tenant=tenant,
                depth=pending_tenant,
                limit=policy.max_pending_per_tenant,
            )
        if self._session is not None:
            try:
                self._session.admission(circuits, backend, machine)
            except AdmissionError as exc:
                raise AdmissionError(
                    str(exc),
                    site="service.admit",
                    tenant=tenant,
                    num_qubits=circuits[0].num_qubits,
                    budget_bytes=exc.context["budget"],
                ) from exc
        if (
            policy.max_modelled_seconds is not None
            and modelled_seconds is not None
            and modelled_seconds > policy.max_modelled_seconds
        ):
            raise AdmissionError(
                f"modelled runtime {modelled_seconds:.3g}s exceeds ceiling "
                f"{policy.max_modelled_seconds:.3g}s",
                site="service.admit",
                tenant=tenant,
                modelled_seconds=modelled_seconds,
                limit=policy.max_modelled_seconds,
            )
