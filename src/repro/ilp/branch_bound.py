"""Pure-Python branch-and-bound ILP solver.

A fallback backend (and a cross-check for the HiGHS backend in tests):
solves the LP relaxation with :func:`scipy.optimize.linprog` and branches on
the most fractional integer variable, exploring the tree best-first with
node pruning against the incumbent.  Only intended for the modest model
sizes produced by the circuit-staging formulation of small circuits; the
HiGHS backend is the default everywhere else.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import IlpModel, Solution, SolveStatus
from .scipy_backend import lower_model

__all__ = ["solve_with_branch_and_bound"]

_INT_TOL = 1e-6


def _build_lp(model: IlpModel):
    """Lower the model to linprog form (A_ub, b_ub, A_eq, b_eq, c, bounds)."""
    c, matrix, lo, hi, integrality, lower, upper = lower_model(model)
    eq = lo == hi
    # linprog wants ``A_ub x <= b_ub``: a ``>=`` row goes in negated, and a
    # two-sided row contributes its ``>=`` half after the one-sided rows.
    le = ~eq & np.isfinite(hi)
    ge = ~eq & np.isfinite(lo)
    first = le | ge
    both = le & ge
    a_ub = None
    if first.any():
        sign = np.where(le, 1.0, -1.0)[first]
        a_ub = sparse.vstack([sparse.diags(sign) @ matrix[first], -matrix[both]], format="csr")
    b_ub = np.concatenate([np.where(le, hi, -lo)[first], -lo[both]])
    a_eq = matrix[eq] if eq.any() else None
    bounds = list(zip(lower.tolist(), upper.tolist()))
    int_vars = np.flatnonzero(integrality).tolist()
    return c, a_ub, b_ub, a_eq, hi[eq], bounds, int_vars


def _solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, bounds):
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=bounds,
        method="highs",
    )
    return result


def solve_with_branch_and_bound(
    model: IlpModel,
    time_limit: float | None = 60.0,
    max_nodes: int = 100_000,
) -> Solution:
    """Solve *model* by LP-relaxation branch and bound.

    Parameters
    ----------
    model:
        The ILP to solve.
    time_limit:
        Wall-clock limit in seconds; the best incumbent found so far is
        returned with status ``TIME_LIMIT`` if it is hit.
    max_nodes:
        Hard cap on explored branch-and-bound nodes.
    """
    c, a_ub, b_ub, a_eq, b_eq, base_bounds, int_vars = _build_lp(model)
    start = time.monotonic()
    counter = itertools.count()

    root = _solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, base_bounds)
    if root.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE)
    if root.status == 3:
        return Solution(status=SolveStatus.UNBOUNDED)
    if root.status != 0:
        return Solution(status=SolveStatus.ERROR)

    best_obj = math.inf
    best_x: np.ndarray | None = None
    # Best-first frontier keyed by the relaxation bound.
    frontier: list[tuple[float, int, list[tuple[float, float]], np.ndarray]] = []
    heapq.heappush(frontier, (root.fun, next(counter), base_bounds, root.x))
    nodes = 0
    timed_out = False

    while frontier:
        bound, _, bounds, x = heapq.heappop(frontier)
        if bound >= best_obj - 1e-9:
            continue
        nodes += 1
        if nodes > max_nodes:
            timed_out = True
            break
        if time_limit is not None and time.monotonic() - start > time_limit:
            timed_out = True
            break

        # Find the most fractional integer variable.
        frac_idx = -1
        frac_amount = _INT_TOL
        for idx in int_vars:
            frac = abs(x[idx] - round(x[idx]))
            if frac > frac_amount:
                frac_amount = frac
                frac_idx = idx
        if frac_idx < 0:
            # Integral solution.
            if bound < best_obj:
                best_obj = bound
                best_x = x.copy()
            continue

        floor_val = math.floor(x[frac_idx])
        for lo, hi in ((bounds[frac_idx][0], floor_val), (floor_val + 1, bounds[frac_idx][1])):
            if lo > hi:
                continue
            child_bounds = list(bounds)
            child_bounds[frac_idx] = (lo, hi)
            res = _solve_relaxation(c, a_ub, b_ub, a_eq, b_eq, child_bounds)
            if res.status != 0:
                continue
            if res.fun < best_obj - 1e-9:
                heapq.heappush(frontier, (res.fun, next(counter), child_bounds, res.x))

    if best_x is None:
        if timed_out:
            return Solution(status=SolveStatus.TIME_LIMIT)
        return Solution(status=SolveStatus.INFEASIBLE)

    # Round integer variables and report.
    values = {i: float(v) for i, v in enumerate(best_x)}
    for idx in int_vars:
        values[idx] = float(round(values[idx]))
    status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.OPTIMAL
    objective = float(model.objective.evaluate(values))
    return Solution(status=status, objective=objective, values=values)
