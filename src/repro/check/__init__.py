"""Static verification of execution artifacts — proofs before execution.

Three layers, all returning structured :class:`CheckReport`\\ s whose
violations reuse the PR 6 error taxonomy via
:class:`repro.errors.StaticCheckError`:

* :func:`verify_plan` — Plan-IR invariants: partition coverage and
  bounds, qubit bounds, per-stage locality, kernel/stage consistency,
  exact circuit coverage and dependency order.
* :func:`verify_program` — an abstract interpreter over compiled op
  streams: ping-pong parity, uninitialized/stale buffer reads, per-op
  qubit bounds, workspace-temporary aliasing, compiler-emission
  equivalence, per-op locality.
* :func:`verify_schedule` — shard-schedule race detection: worker
  assignment coverage, relabel-map bijectivity, per-worker DRAM
  write-slice disjointness.

Wired into :class:`repro.session.Session` via ``check="off"|"plans"|"full"``
and into the ``"quality"`` planner preset via the ``verify`` pass; see
``docs/static-analysis.md``.
"""

from .races import round_robin_assignment, verify_schedule
from .report import CheckReport, Violation
from .verify import expected_op_stream, verify_plan, verify_program

__all__ = [
    "CheckReport",
    "Violation",
    "expected_op_stream",
    "round_robin_assignment",
    "verify_plan",
    "verify_program",
    "verify_schedule",
]
