"""Priority + weighted fair-share scheduling over per-tenant job queues.

The service dispatches from one :class:`FairShareScheduler`, which
implements *deficit round-robin* (DRR) across tenants:

* Each tenant owns a queue ordered by ``(-priority, sequence)`` — higher
  ``priority`` first, FIFO within a priority level.
* The scheduler cycles through active tenants in admission order.  Each
  visit credits the tenant's *deficit* with ``quantum × weight``; the
  tenant dispatches head-of-queue jobs while its deficit covers their
  cost (cost = circuit count, so a 100-circuit batch draws 100× the
  budget of a single circuit).
* A tenant whose queue empties forfeits its remaining deficit — credit
  never accumulates while idle, so a returning tenant cannot burst past
  its share.
* Jobs the service runs beside the one DRR picked — queued jobs of one
  structure, stacked into one dispatch (:meth:`FairShareScheduler.drain`)
  — are charged to their own tenants: the cost comes off each one's
  deficit, which may go negative.  A debt is never forfeited; the
  tenant's later visits repay it before it dispatches again, so stacking
  moves a job earlier but leaves every tenant's share of dispatched cost
  as it was.  A job moves earlier only past jobs of its own priority
  (never ahead of a higher-priority job of its tenant), and only while
  its tenant stays at most one visit's credit in debt: no tenant runs
  more than one visit ahead of its share.

DRR gives each tenant with weight :math:`w_i` a long-run share of
:math:`w_i / \\sum_j w_j` of dispatched cost, and — because every active
tenant is visited once per round and every visit adds at least one
quantum — a head-of-queue job waits at most one full round per
``ceil(cost / quantum×weight)`` deficits it still needs.  No tenant can
starve another, regardless of submission rate or priority values
(priorities order jobs *within* a tenant, never across tenants).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

__all__ = ["FairShareScheduler", "QueuedJob", "TenantQueue"]


@dataclass(order=True)
class QueuedJob:
    """One pending unit of work in a tenant's queue.

    Orders by ``sort_key = (-priority, seq)``: higher priority first,
    submission order within a priority level.  ``cost`` is the job's DRR
    cost (circuit count); ``payload`` is opaque to the scheduler.
    """

    sort_key: tuple = field(init=False, repr=False)
    priority: int = field(compare=False)
    seq: int = field(compare=False)
    cost: int = field(compare=False)
    payload: object = field(compare=False)

    def __post_init__(self):
        self.sort_key = (-self.priority, self.seq)


class TenantQueue:
    """One tenant's priority queue plus its DRR state."""

    def __init__(self, tenant: str, weight: float = 1.0):
        if weight <= 0:
            raise ValueError("tenant weight must be positive")  # lint: config-error
        self.tenant = tenant
        self.weight = weight
        self.deficit = 0.0
        #: Whether the current scheduler visit already credited the
        #: quantum (one credit per visit, however many jobs it funds).
        self.visit_credited = False
        self._heap: list[QueuedJob] = []
        #: Total cost ever dispatched from this queue (fairness telemetry).
        self.dispatched_cost = 0
        self.dispatched_jobs = 0

    def push(self, job: QueuedJob) -> None:
        heapq.heappush(self._heap, job)

    def peek(self) -> "QueuedJob | None":
        return self._heap[0] if self._heap else None

    def pop(self) -> QueuedJob:
        job = heapq.heappop(self._heap)
        self.dispatched_cost += job.cost
        self.dispatched_jobs += 1
        return job

    def remove(self, job: QueuedJob) -> bool:
        """Drop *job* from the queue if still pending (cancellation)."""
        try:
            self._heap.remove(job)
        except ValueError:
            return False
        heapq.heapify(self._heap)
        return True

    def __len__(self) -> int:
        return len(self._heap)


class FairShareScheduler:
    """Deficit round-robin across tenants, priority-ordered within each.

    Not itself thread-safe: the service calls it under its own condition
    lock (one scheduler thread consumes, submitters produce).

    Parameters
    ----------
    quantum:
        Cost credited per tenant visit before weighting.  The default of 1
        makes a weight-1 tenant earn one single-circuit job per round.
    """

    def __init__(self, quantum: float = 1.0):
        if quantum <= 0:
            raise ValueError("quantum must be positive")  # lint: config-error
        self.quantum = quantum
        self._queues: dict[str, TenantQueue] = {}
        #: Round-robin cursor over tenant names (admission order).
        self._cursor = 0
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def tenant_queue(self, tenant: str, weight: float = 1.0) -> TenantQueue:
        """The queue for *tenant*, created with *weight* on first use.

        The weight is fixed at first submission; later calls ignore the
        argument so one tenant cannot re-weight itself mid-stream.
        """
        queue = self._queues.get(tenant)
        if queue is None:
            queue = TenantQueue(tenant, weight)
            self._queues[tenant] = queue
        return queue

    def enqueue(
        self, tenant: str, payload: object, *, priority: int = 0,
        cost: int = 1, weight: float = 1.0,
    ) -> QueuedJob:
        job = QueuedJob(
            priority=priority, seq=next(self._seq), cost=max(1, cost),
            payload=payload,
        )
        self.tenant_queue(tenant, weight).push(job)
        return job

    def cancel(self, tenant: str, job: QueuedJob) -> bool:
        queue = self._queues.get(tenant)
        return queue.remove(job) if queue is not None else False

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def pending_for(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    def next_job(self) -> "tuple[str, QueuedJob] | None":
        """Dispatch the next job under DRR, or ``None`` if all queues are
        empty.

        Terminates: every full round credits ``quantum × weight`` to each
        non-empty queue while head costs are fixed, so some head is funded
        within ``ceil(min_i (cost_i / quantum·w_i))`` rounds.
        """
        while True:
            names = list(self._queues)
            if not any(len(q) for q in self._queues.values()):
                return None
            for _ in range(len(names)):
                self._cursor %= len(names)
                queue = self._queues[names[self._cursor]]
                head = queue.peek()
                if head is None:
                    # Idle tenants forfeit accumulated credit (not a debt).
                    queue.deficit = min(queue.deficit, 0.0)
                    queue.visit_credited = False
                    self._cursor += 1
                    continue
                # One credit per visit; the visit then drains as many head
                # jobs as the accumulated deficit funds (across successive
                # next_job calls) before the cursor moves on.
                if not queue.visit_credited:
                    queue.deficit += self.quantum * queue.weight
                    queue.visit_credited = True
                if queue.deficit >= head.cost:
                    queue.deficit -= head.cost
                    job = queue.pop()
                    nxt = queue.peek()
                    if nxt is None:
                        queue.deficit = min(queue.deficit, 0.0)
                    if nxt is None or queue.deficit < nxt.cost:
                        # Visit over: credit spent (or queue empty).
                        queue.visit_credited = False
                        self._cursor += 1
                    return queue.tenant, job
                queue.visit_credited = False
                self._cursor += 1

    def _drainable(self):
        """``(tenant, job)`` of every queued job a stack may take now: one
        that no higher-priority job of its own tenant is queued ahead of,
        and whose cost leaves its tenant at most one visit's credit
        (``quantum × weight``) in debt."""
        for tenant, queue in self._queues.items():
            head = queue.peek()
            if head is None:
                continue
            floor = queue.deficit + self.quantum * queue.weight
            for job in queue._heap:
                if job.priority == head.priority and job.cost <= floor:
                    yield tenant, job

    def drainable(self) -> "list[object]":
        """The payload of every job :meth:`drain` may take now."""
        return [job.payload for _tenant, job in self._drainable()]

    def drain(self, match, limit: int) -> "list[tuple[str, QueuedJob]]":
        """Take up to *limit* queued jobs whose payload *match* accepts,
        from any tenant, in submission order — never waiting for more —
        each charged to its own tenant: its cost comes off that tenant's
        deficit (a debt its later visits repay) and counts as dispatched.

        A job is taken only while it may run early without breaking the
        order DRR keeps: no higher-priority job of its own tenant is queued
        ahead of it, and its tenant stays at most one visit's credit in
        debt — so no tenant runs more than one visit ahead of its share.
        """
        taken: list[tuple[str, QueuedJob]] = []
        while len(taken) < limit:
            found = min(
                (
                    (job.seq, tenant, job)
                    for tenant, job in self._drainable()
                    if match(job.payload)
                ),
                default=None,
            )
            if found is None:
                break
            _seq, tenant, job = found
            queue = self._queues[tenant]
            queue.remove(job)
            queue.deficit -= job.cost
            queue.dispatched_cost += job.cost
            queue.dispatched_jobs += 1
            taken.append((tenant, job))
        return taken
