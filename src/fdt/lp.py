"""LP solving front end.

Two interchangeable backends sit behind one problem type: an exact rational
simplex (ours) and HiGHS dual simplex (float mode), called directly through
the bindings scipy ships, with the model and options that
``scipy.optimize.linprog(method="highs-ds")`` would pass it.  Both return
basic (vertex) optimal solutions; the pruning LP depends on that, so
interior-point methods are deliberately not offered.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize._highspy import _core as highs

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


# linprog(method="highs-ds")'s options: presolve on, dual simplex, silent
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.solver = "simplex"
_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.log_to_console = False
_OPTIONS.output_flag = False

# linprog's test of a returned optimum: bounds, slacks and equality
# residuals within sqrt(tol) * 10 at its default tol of 1e-9
_RESULT_TOL = np.sqrt(1e-9) * 10


def _solve_float(problem):
    """The HiGHS model linprog builds: <= rows, then >= rows negated, in
    their order, with row bounds [-inf, rhs]; equality rows last with
    lhs = rhs; the matrix column-wise with row indices ascending and zero
    entries dropped; the cost negated when maximising."""
    n = problem.num_cols
    c = np.array([float(v) for v in problem.objective])
    if problem.maximize:
        c = -c
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for coef, sense, rhs in problem.rows:
        if sense == "<=":
            ub_rows.append((coef, 1.0))
            ub_rhs.append(float(rhs))
        elif sense == ">=":
            ub_rows.append((coef, -1.0))
            ub_rhs.append(-float(rhs))
        elif sense in ("==", "="):
            eq_rows.append((coef, 1.0))
            eq_rhs.append(float(rhs))
        else:
            raise ValueError(f"unknown sense {sense!r}")
    columns = [[] for _ in range(n)]
    for r, (coef, sign) in enumerate(ub_rows + eq_rows):
        for i, v in coef.items():
            v = float(v)
            if v:
                columns[i].append((r, v if sign > 0 else -v))
    start = np.zeros(n + 1, dtype=np.int32)
    start[1:] = np.cumsum([len(col) for col in columns])
    entries = [e for col in columns for e in col]
    index = np.array([r for r, _ in entries], dtype=np.int32)
    value = np.array([v for _, v in entries], dtype=float)
    rhs = np.array(ub_rhs + eq_rhs, dtype=float)
    lhs = np.array([-highs.kHighsInf] * len(ub_rhs) + eq_rhs, dtype=float)
    lower = np.array([float(v) for v in problem.lower])
    upper = np.array([highs.kHighsInf if v is None else float(v) for v in problem.upper])
    status, x, activity = linprog(c, lower, upper, lhs, rhs, start, index, value)
    if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kUnbounded):
        # dual simplex cannot always tell infeasible from unbounded;
        # let the exact backend classify the (rare, off-hot-path) failure
        return _solve_rational(problem)
    if x is None:
        raise LpError(f"float solve failed: HiGHS model status {status.name}")
    slack = rhs - activity
    m = len(ub_rhs)
    if (np.isnan(x).any() or np.isnan(slack).any()
            or (x < lower - _RESULT_TOL).any() or (x > upper + _RESULT_TOL).any()
            or (slack[:m] < -_RESULT_TOL).any() or (np.abs(slack[m:]) > _RESULT_TOL).any()):
        raise LpError("float solve failed: optimum violates the constraints")
    obj = float(np.dot([float(v) for v in problem.objective], x))
    return LpOutcome(OPTIMAL, solution=x.tolist(), objective=obj, mode="float")


def linprog(cost, lower, upper, row_lower, row_upper, start, index, value):
    """min cost.x  s.t.  row_lower <= A x <= row_upper, lower <= x <= upper,
    with A column-wise as (start, index, value), by HiGHS dual simplex in a
    fresh solver.  Returns (model status, x, A x); x and A x are None unless
    the status is optimal."""
    model = highs.HighsLp()
    model.num_col_ = len(cost)
    model.num_row_ = len(row_upper)
    model.a_matrix_.num_col_ = len(cost)
    model.a_matrix_.num_row_ = len(row_upper)
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.col_cost_ = cost
    model.col_lower_ = lower
    model.col_upper_ = upper
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    if solver.passModel(model) == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None, None
    failed = solver.run() == highs.HighsStatus.kError
    status = solver.getModelStatus()
    if failed or status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    solution = solver.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_value)
