"""Integer linear programming substrate (modelling layer + solver backends)."""

from __future__ import annotations

import time

from .branch_bound import solve_with_branch_and_bound
from .model import (
    Constraint,
    ConstraintSense,
    IlpModel,
    LinExpr,
    Solution,
    SolveStatus,
    Variable,
    VarType,
    lin_sum,
)
from .scipy_backend import solve_with_scipy

__all__ = [
    "IlpModel",
    "LinExpr",
    "Variable",
    "VarType",
    "Constraint",
    "ConstraintSense",
    "Solution",
    "SolveStatus",
    "lin_sum",
    "solve",
    "solve_with_scipy",
    "solve_with_branch_and_bound",
    "BACKENDS",
]

BACKENDS = {
    "scipy": solve_with_scipy,
    "branch-and-bound": solve_with_branch_and_bound,
}


def solve(model: IlpModel, backend: str = "scipy", time_limit: float | None = None) -> Solution:
    """Solve *model* with the named backend: ``scipy`` (SciPy's HiGHS MILP) or ``branch-and-bound``.

    The returned solution carries the measured ``wall_seconds`` of this
    solve as a per-call diagnostic for callers that time individual
    solves.  (The staging loop's
    :attr:`repro.core.stage.StagingResult.solver_seconds` is measured
    separately around :func:`repro.core.stage.solve_staging` so that it
    also covers model construction and infeasible candidates.)
    """
    try:
        solver = BACKENDS[backend]
    except KeyError as exc:
        raise ValueError(f"unknown ILP backend {backend!r}; known: {sorted(BACKENDS)}") from exc
    start = time.perf_counter()
    solution = solver(model, time_limit=time_limit)
    solution.wall_seconds = time.perf_counter() - start
    return solution
