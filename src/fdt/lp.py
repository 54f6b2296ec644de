"""LP solving front end.

Two interchangeable backends sit behind one problem type: an exact rational
simplex (ours) and HiGHS dual simplex via scipy (float mode).  Both return
basic (vertex) optimal solutions; the pruning LP depends on that, so
interior-point methods are deliberately not offered.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import simplex

ZERO_OBJ_TOL = 1e-6  # "optimal value is 0" tests in float mode

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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
    mode: str = "float"


def solve(problem, mode):
    """Solve, returning a vertex optimum or a definite infeasible/unbounded.

    mode is "rational" (exact) or "float"; float failures fall back to the
    rational backend.
    """
    if mode == "rational":
        return _solve_rational(problem)
    if mode == "float":
        try:
            return _solve_float(problem)
        except LpError:
            return _solve_rational(problem)
    raise ValueError(f"unknown mode {mode!r}")


def _solve_rational(problem):
    status, x, obj, _, _ = simplex.solve_rational(problem)
    if status != OPTIMAL:
        return LpOutcome(status, mode="rational")
    return LpOutcome(OPTIMAL, solution=x, objective=obj, mode="rational")


def _solve_float(problem):
    n = problem.num_cols
    c = np.array([float(v) for v in problem.objective])
    if problem.maximize:
        c = -c
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for coef, sense, rhs in problem.rows:
        dense = np.zeros(n)
        for i, v in coef.items():
            dense[i] = float(v)
        if sense == "<=":
            ub_rows.append(dense)
            ub_rhs.append(float(rhs))
        elif sense == ">=":
            ub_rows.append(-dense)
            ub_rhs.append(-float(rhs))
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
    obj = float(np.dot([float(v) for v in problem.objective], res.x))
    return LpOutcome(OPTIMAL, solution=res.x.tolist(), objective=obj, mode="float")
