"""ILP backend based on :func:`scipy.optimize.milp` (HiGHS).

This mirrors the paper's use of the HiGHS solver through PuLP: the model is
lowered to the sparse matrix form HiGHS expects and solved as a
mixed-integer linear program.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import IlpModel, Solution, SolveStatus, VarType

__all__ = ["lower_model", "solve_with_scipy"]


def lower_model(model: IlpModel):
    """Lower an :class:`IlpModel` to (c, A, row lb, row ub, integrality, lower, upper)."""
    n = model.num_variables
    c = np.zeros(n)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff

    # The model's row store already is a CSR matrix plus row bounds.
    coefs, cols, row_ptr, row_lo, row_hi = model.rows()
    a_matrix = sparse.csr_matrix(
        (np.asarray(coefs, dtype=float), np.asarray(cols, dtype=np.int32),
         np.asarray(row_ptr, dtype=np.int32)),
        shape=(model.num_constraints, n),
    )

    integrality = np.array(
        [v.var_type in (VarType.BINARY, VarType.INTEGER) for v in model.variables], dtype=float
    )
    lower = np.array([v.lower for v in model.variables], dtype=float)
    upper = np.array([v.upper for v in model.variables], dtype=float)
    con_lb = np.array(row_lo, dtype=float)
    con_ub = np.array(row_hi, dtype=float)
    return c, a_matrix, con_lb, con_ub, integrality, lower, upper


def solve_with_scipy(model: IlpModel, time_limit: float | None = None) -> Solution:
    """Solve *model* with ``scipy.optimize.milp`` (HiGHS).

    Parameters
    ----------
    model:
        The ILP to solve.
    time_limit:
        Optional wall-clock limit in seconds passed to HiGHS.
    """
    c, a_matrix, con_lb, con_ub, integrality, lower, upper = lower_model(model)
    constraints = []
    if model.num_constraints:
        constraints.append(LinearConstraint(a_matrix, con_lb, con_ub))
    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options=options,
    )
    # scipy milp status codes: 0 optimal, 1 iteration/time limit, 2 infeasible,
    # 3 unbounded, 4 other.
    if result.status == 0:
        status = SolveStatus.OPTIMAL
    elif result.status == 1:
        status = SolveStatus.TIME_LIMIT if result.x is not None else SolveStatus.ERROR
    elif result.status == 2:
        status = SolveStatus.INFEASIBLE
    elif result.status == 3:
        status = SolveStatus.UNBOUNDED
    else:
        status = SolveStatus.ERROR

    if result.x is None or not status.is_feasible:
        return Solution(status=status)
    values = {i: float(v) for i, v in enumerate(result.x)}
    return Solution(status=status, objective=float(result.fun), values=values)
