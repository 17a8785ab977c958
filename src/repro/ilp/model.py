"""A small integer-linear-programming modelling layer.

The paper formulates circuit staging as a binary ILP and hands it to an
off-the-shelf solver (PuLP + HiGHS).  This module provides the modelling
front-end of that substrate: variables, linear expressions, linear
constraints and a minimisation objective, collected in an :class:`IlpModel`
that solver backends (:mod:`repro.ilp.scipy_backend`,
:mod:`repro.ilp.branch_bound`) translate into their native form.

The expression algebra intentionally supports only what linear programs
need: ``var * const``, ``expr + expr``, ``expr - expr``, comparisons against
expressions or constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "VarType",
    "Variable",
    "LinExpr",
    "Constraint",
    "ConstraintSense",
    "IlpModel",
    "SolveStatus",
    "Solution",
    "lin_sum",
]


class VarType(enum.Enum):
    """Kind of decision variable."""

    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    ERROR = "error"

    @property
    def is_feasible(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)


@dataclass(frozen=True)
class Variable:
    """A decision variable.  Identity is by ``index`` within its model."""

    index: int
    name: str
    var_type: VarType
    lower: float = 0.0
    upper: float = 1.0

    # -- expression algebra -------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        return LinExpr.from_term(self) + other

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return LinExpr.from_term(self) - other

    def __rsub__(self, other) -> "LinExpr":
        return (-1.0 * self) + other

    def __mul__(self, scalar: float) -> "LinExpr":
        return LinExpr({self.index: float(scalar)}, 0.0)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other) -> "Constraint":
        return LinExpr.from_term(self) <= other

    def __ge__(self, other) -> "Constraint":
        return LinExpr.from_term(self) >= other

    # Note: __eq__ is kept as identity (dataclass) so Variables stay hashable;
    # use ``expr == const`` through LinExpr via IlpModel.add_eq or build the
    # LinExpr explicitly.
    def eq(self, other) -> "Constraint":
        return LinExpr.from_term(self).eq(other)


@dataclass
class LinExpr:
    """A linear expression ``sum(coeff_i * var_i) + constant``."""

    coeffs: dict[int, float] = field(default_factory=dict)
    constant: float = 0.0

    @classmethod
    def from_term(cls, var: Variable, coeff: float = 1.0) -> "LinExpr":
        return cls({var.index: float(coeff)}, 0.0)

    @classmethod
    def constant_expr(cls, value: float) -> "LinExpr":
        return cls({}, float(value))

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant)

    def _coerce(self, other) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return LinExpr.from_term(other)
        if isinstance(other, (int, float)):
            return LinExpr.constant_expr(float(other))
        raise TypeError(f"cannot combine LinExpr with {type(other)!r}")

    def _accumulate(self, other, scale: float = 1.0) -> "LinExpr":
        """Add ``scale * other`` into this expression in place; returns self."""
        if isinstance(other, Variable):
            self.coeffs[other.index] = self.coeffs.get(other.index, 0.0) + scale
            return self
        other = self._coerce(other)
        coeffs = self.coeffs
        for idx, coeff in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + scale * coeff
        self.constant += scale * other.constant
        return self

    def __add__(self, other) -> "LinExpr":
        return self.copy()._accumulate(other)

    __radd__ = __add__

    def __sub__(self, other) -> "LinExpr":
        return self.copy()._accumulate(other, -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return self._coerce(other) - self

    def __mul__(self, scalar: float) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            raise TypeError("LinExpr can only be scaled by a constant")
        return LinExpr({i: c * scalar for i, c in self.coeffs.items()}, self.constant * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), ConstraintSense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), ConstraintSense.GE)

    def eq(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), ConstraintSense.EQ)

    def evaluate(self, values: Mapping[int, float]) -> float:
        return self.constant + sum(c * values.get(i, 0.0) for i, c in self.coeffs.items())


def lin_sum(terms: Iterable) -> LinExpr:
    """Sum variables/expressions/constants into a single :class:`LinExpr`.

    Accumulates into one expression in place, so the cost is linear in the
    number of terms (``total = total + term`` copies the running dict per
    term, which is quadratic on the cardinality rows of the staging ILP).
    """
    total = LinExpr()
    for term in terms:
        total._accumulate(term)
    return total


@dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` — the right-hand side has been folded into *expr*."""

    expr: LinExpr
    sense: ConstraintSense
    name: str = ""

    def is_satisfied(self, values: Mapping[int, float], tol: float = 1e-6) -> bool:
        value = self.expr.evaluate(values)
        if self.sense is ConstraintSense.LE:
            return value <= tol
        if self.sense is ConstraintSense.GE:
            return value >= -tol
        return abs(value) <= tol


@dataclass
class Solution:
    """Result of a solver backend."""

    status: SolveStatus
    objective: float | None = None
    values: dict[int, float] = field(default_factory=dict)
    #: Wall seconds of this solve, stamped by :func:`repro.ilp.solve` — a
    #: per-call diagnostic for callers timing individual solves.
    wall_seconds: float = 0.0

    def value(self, var: Variable) -> float:
        return self.values.get(var.index, 0.0)

    def int_value(self, var: Variable) -> int:
        return int(round(self.value(var)))


class IlpModel:
    """Container for variables, constraints and the objective.

    Constraints live in **one row store**, in CSR order: row ``r`` reads
    ``row_lo[r] <= sum(coefs[j] * x[cols[j]] for j in ptr[r]:ptr[r+1]) <=
    row_hi[r]`` (an equality has ``lo == hi``; a one-sided row has the other
    side infinite).  :meth:`add_row` appends to it directly and
    :meth:`add_constraint` appends the row of an expression-algebra
    :class:`Constraint`, so a model built either way — or both ways mixed —
    lowers to the same matrix; the solver backends read :meth:`rows`.
    """

    def __init__(self, name: str = "ilp"):
        self.name = name
        self.variables: list[Variable] = []
        self.objective: LinExpr = LinExpr()
        self._cols: list[int] = []
        self._coefs: list[float] = []
        self._row_ptr: list[int] = [0]
        self._row_lo: list[float] = []
        self._row_hi: list[float] = []

    # -- variable creation ----------------------------------------------------

    def binary_var(self, name: str, lower: float = 0.0, upper: float = 1.0) -> Variable:
        """A 0/1 variable; ``lower == upper`` fixes it (presolve drops it)."""
        return self._add_var(name, VarType.BINARY, lower, upper)

    def integer_var(self, name: str, lower: float = 0.0, upper: float = 1e9) -> Variable:
        return self._add_var(name, VarType.INTEGER, lower, upper)

    def continuous_var(self, name: str, lower: float = 0.0, upper: float = 1e18) -> Variable:
        return self._add_var(name, VarType.CONTINUOUS, lower, upper)

    def _add_var(self, name: str, var_type: VarType, lower: float, upper: float) -> Variable:
        var = Variable(len(self.variables), name, var_type, lower, upper)
        self.variables.append(var)
        return var

    # -- constraints / objective ----------------------------------------------

    def add_row(self, cols: Sequence[int], coefs: Sequence[float], lo: float, hi: float) -> None:
        """Append ``lo <= sum(coefs[i] * x[cols[i]]) <= hi`` to the row store.

        *cols* are variable indices, each at most once, with non-zero *coefs*.
        """
        self._cols.extend(cols)
        self._coefs.extend(coefs)
        self._row_ptr.append(len(self._cols))
        self._row_lo.append(lo)
        self._row_hi.append(hi)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint.name = name
        terms = [(i, c) for i, c in constraint.expr.coeffs.items() if c != 0.0]
        rhs = -constraint.expr.constant
        self.add_row(
            [i for i, _ in terms],
            [c for _, c in terms],
            -math.inf if constraint.sense is ConstraintSense.LE else rhs,
            math.inf if constraint.sense is ConstraintSense.GE else rhs,
        )
        return constraint

    def add_eq(self, expr, value, name: str = "") -> Constraint:
        if isinstance(expr, Variable):
            expr = LinExpr.from_term(expr)
        return self.add_constraint(expr.eq(value), name)

    def minimize(self, expr) -> None:
        if isinstance(expr, Variable):
            expr = LinExpr.from_term(expr)
        self.objective = expr

    def rows(self) -> tuple[list[float], list[int], list[int], list[float], list[float]]:
        """The row store as ``(coefs, cols, row_ptr, row_lo, row_hi)`` — the
        ``(data, indices, indptr)`` of a CSR matrix plus the row bounds."""
        return self._coefs, self._cols, self._row_ptr, self._row_lo, self._row_hi

    # -- introspection ----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self._row_lo)

    def check_solution(self, values: Mapping[int, float], tol: float = 1e-6) -> bool:
        """Verify that *values* satisfy every constraint and integrality."""
        for var in self.variables:
            v = values.get(var.index, 0.0)
            if v < var.lower - tol or v > var.upper + tol:
                return False
            if var.var_type in (VarType.BINARY, VarType.INTEGER) and abs(v - round(v)) > tol:
                return False
        coefs, cols, ptr = self._coefs, self._cols, self._row_ptr
        for r, (lo, hi) in enumerate(zip(self._row_lo, self._row_hi)):
            activity = sum(
                coefs[j] * values.get(cols[j], 0.0) for j in range(ptr[r], ptr[r + 1])
            )
            if activity < lo - tol or activity > hi + tol:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IlpModel {self.name!r}: {self.num_variables} vars, "
            f"{self.num_constraints} constraints>"
        )
