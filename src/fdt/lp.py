"""LP solving front end.

Two interchangeable backends sit behind one problem type: an exact rational
simplex (ours) and HiGHS dual simplex via scipy (float mode).  Both return
basic (vertex) optimal solutions; the pruning LP depends on that, so
interior-point methods are deliberately not offered.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from . import simplex

FEAS_TOL = 1e-7
ZERO_OBJ_TOL = 1e-6  # "optimal value is 0" tests in float mode

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

RATIONAL_DEFAULT_MAX_COLS = 64


class LpError(RuntimeError):
    pass


@dataclass
class LpProblem:
    """min/max objective . x  subject to sparse rows and column bounds."""

    num_cols: int
    rows: list = field(default_factory=list)  # (coef dict, sense, rhs)
    lower: list = None
    upper: list = None  # None entry = +inf
    objective: list = None
    maximize: bool = False

    def __post_init__(self):
        if self.lower is None:
            self.lower = [0] * self.num_cols
        if self.upper is None:
            self.upper = [None] * self.num_cols
        if self.objective is None:
            self.objective = [0] * self.num_cols

    def add_row(self, coef, sense, rhs):
        self.rows.append((coef, sense, rhs))


@dataclass
class LpOutcome:
    status: str
    solution: list = None
    objective: object = None
    basis: list = None
    duals: list = None
    mode: str = "float"


def solve(problem, mode=None):
    """Solve, returning a vertex optimum or a definite infeasible/unbounded.

    mode None picks rational for small problems (exactness is cheap there)
    and float otherwise.  Float failures fall back to the rational backend.
    """
    if mode is None:
        mode = "rational" if problem.num_cols <= RATIONAL_DEFAULT_MAX_COLS else "float"
    if mode == "rational":
        return _solve_rational(problem)
    if mode == "float":
        try:
            return _solve_float(problem)
        except LpError:
            return _solve_rational(problem)
    raise ValueError(f"unknown mode {mode!r}")


def _solve_rational(problem):
    status, x, obj, basis, duals = simplex.solve_rational(problem)
    if status != OPTIMAL:
        return LpOutcome(status, mode="rational")
    return LpOutcome(OPTIMAL, solution=x, objective=obj, basis=basis, duals=duals,
                     mode="rational")


def _solve_float(problem):
    n = problem.num_cols
    c = np.array([float(v) for v in problem.objective])
    if problem.maximize:
        c = -c
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    ub_sign = []  # +1: row entered as-is (<=); -1: negated (>=)
    for coef, sense, rhs in problem.rows:
        dense = np.zeros(n)
        for i, v in coef.items():
            dense[i] = float(v)
        if sense == "<=":
            ub_rows.append(dense)
            ub_rhs.append(float(rhs))
            ub_sign.append(1)
        elif sense == ">=":
            ub_rows.append(-dense)
            ub_rhs.append(-float(rhs))
            ub_sign.append(-1)
        elif sense in ("==", "="):
            eq_rows.append(dense)
            eq_rhs.append(float(rhs))
        else:
            raise ValueError(f"unknown sense {sense!r}")
    bounds = [
        (float(l), None if u is None else float(u))
        for l, u in zip(problem.lower, problem.upper)
    ]
    res = linprog(
        c,
        A_ub=np.array(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        bounds=bounds,
        method="highs-ds",
    )
    if res.status in (2, 3):
        # dual simplex cannot always tell infeasible from unbounded;
        # let the exact backend classify the (rare, off-hot-path) failure
        return _solve_rational(problem)
    if res.status != 0:
        raise LpError(f"float solve failed: {res.message}")
    x = list(res.x)
    obj = float(np.dot([float(v) for v in problem.objective], res.x))
    duals = _float_duals(problem, res, ub_sign)
    basis = [
        j for j in range(n)
        if x[j] > bounds[j][0] + FEAS_TOL
        and (bounds[j][1] is None or x[j] < bounds[j][1] - FEAS_TOL)
    ]
    return LpOutcome(OPTIMAL, solution=x, objective=obj, basis=basis, duals=duals,
                     mode="float")


def _float_duals(problem, res, ub_sign):
    # marginals are d(min obj)/d(rhs of the converted row); undo the
    # objective negation for maximize and the rhs negation for >= rows
    sgn = -1 if problem.maximize else 1
    duals = []
    iu = ie = 0
    for coef, sense, rhs in problem.rows:
        if sense in ("==", "="):
            duals.append(sgn * res.eqlin.marginals[ie])
            ie += 1
        else:
            duals.append(sgn * res.ineqlin.marginals[iu] * ub_sign[iu])
            iu += 1
    return duals


def vertex_interior_count(outcome, problem, tol=FEAS_TOL):
    """Number of solution coordinates strictly between their bounds."""
    cnt = 0
    for j, v in enumerate(outcome.solution):
        lo = problem.lower[j]
        hi = problem.upper[j]
        strictly_above = float(v) > float(lo) + tol
        strictly_below = hi is None or float(v) < float(hi) - tol
        if strictly_above and strictly_below:
            cnt += 1
    return cnt
