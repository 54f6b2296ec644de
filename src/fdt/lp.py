"""LP solving front end.

Two interchangeable backends sit behind one problem type: an exact rational
simplex (ours) and HiGHS dual simplex (float mode), called directly through
the bindings scipy ships, with the model and options that
``scipy.optimize.linprog(method="highs-ds")`` would pass it.  Both return
basic (vertex) optimal solutions; the pruning LP depends on that, so
interior-point methods are deliberately not offered.  solve is the one
place a float solve hands over to the exact backend: a float solve with
no checked optimum is solved once more, exactly.

Problems keep their rows as CSR lists of Python numbers, so building and
solving one exactly uses no numpy.  numpy loads with HiGHS, on the first
float solve, and only the float backend uses it: it turns a problem into
linprog's model (>= rows negated, equality rows last, zero entries
dropped) and hands HiGHS the matrix row-wise, as the problem holds it;
HiGHS makes from that the column-wise matrix linprog would have passed.

The binding is one extension module, ``scipy.optimize._highspy._core``.
It is loaded from its file, without ``scipy.optimize``'s package import
(0.4-0.6 s and 48 MB of peak RSS on a 2-vCPU host), and with its options
and the shared solver, on the first float solve; a run that only solves
exactly never loads it, nor numpy (0.09 s and 12 MB of peak RSS).
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from math import inf, sqrt

from . import simplex
from .simplex import EQ, GE, LE

ZERO_OBJ_TOL = 1e-6  # "optimal value is 0" tests in float mode

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    pass


_SENSE = {"<=": LE, ">=": GE, "==": EQ, "=": EQ}
_SENSE_NAME = ("<=", ">=", "==")


class LpProblem:
    """min/max objective . x  subject to sparse rows and column bounds.

    The rows are kept as CSR lists (csr()): row r has the entries
    start[r]:start[r+1] of (index, value), its sense (LE, GE or EQ) and its
    right-hand side.  add_rows appends a block in that form, copying it;
    values and right-hand sides are ints, Fractions or floats, and each
    backend reads them all (the float one as floats, the rational one
    exactly).  add_row appends one row given as
    a {column: coef} dict, as a one-row block.  rows is a read-only view of
    all rows as (coef dict, sense, rhs) triples.  An upper bound of None or
    inf means unbounded.
    """

    def __init__(self, num_cols, lower=None, upper=None, objective=None, maximize=False):
        self.num_cols = num_cols
        self.lower = [0] * num_cols if lower is None else lower
        self.upper = [None] * num_cols if upper is None else upper
        self.objective = [0] * num_cols if objective is None else objective
        self.maximize = maximize
        self._start, self._index, self._value, self._sense, self._rhs = [0], [], [], [], []

    def add_row(self, coef, sense, rhs):
        if sense not in _SENSE:
            raise ValueError(f"unknown sense {sense!r}")
        self.add_rows([0, len(coef)], list(coef), list(coef.values()), _SENSE[sense], [rhs])

    def add_rows(self, start, index, value, sense, rhs):
        """Append rows in CSR form (sequences, start from 0); sense is one
        code for every row or a sequence of codes.  An entry on a column
        outside [0, num_cols) is a ValueError."""
        if len(index) and (min(index) < 0 or max(index) >= self.num_cols):
            raise ValueError(f"row entry on a column outside [0, {self.num_cols})")
        offset = self._start[-1]
        self._start.extend([s + offset for s in start[1:]] if offset else start[1:])
        self._index.extend(index)
        self._value.extend(value)
        self._sense.extend([sense] * len(rhs) if isinstance(sense, int) else sense)
        self._rhs.extend(rhs)

    def csr(self):
        """Every row as one (start, index, value, sense, rhs) tuple of lists,
        the problem's own: read them, do not change them."""
        return self._start, self._index, self._value, self._sense, self._rhs

    @property
    def rows(self):
        return _Rows(self)


class _Rows:
    """The rows of an LpProblem as (coef dict, sense, rhs) triples, sense
    one of "<=", ">=" and "=="."""

    def __init__(self, problem):
        self._problem = problem

    def __len__(self):
        return len(self._problem._rhs)

    def __iter__(self):
        start, index, value, sense, rhs = self._problem.csr()
        for lo, hi, s, v in zip(start, start[1:], sense, rhs):
            yield dict(zip(index[lo:hi], value[lo:hi])), _SENSE_NAME[s], v


@dataclass
class LpOutcome:
    status: str
    solution: list = None
    objective: object = None
    mode: str = "float"


def solve(problem, mode):
    """Solve, returning a vertex optimum or a definite infeasible/unbounded.

    mode is "rational" (exact) or "float"; a float solve with no checked
    optimum is solved once more, exactly, here and nowhere else, and says
    mode "rational".  lower, upper and objective need one entry per column,
    every lower bound and objective coefficient must be a finite number,
    and every upper bound a number no smaller than its lower bound, +inf or
    None (both unbounded), not NaN or -inf.  A row with
    two nonzero entries on one column is a ValueError in both modes (HiGHS
    refuses the model, and the exact backend raises).
    """
    for name in ("lower", "upper", "objective"):
        if len(getattr(problem, name)) != problem.num_cols:
            raise ValueError(f"{name} has {len(getattr(problem, name))} entries "
                             f"for {problem.num_cols} columns")
    if any(v is None or v != v or abs(v) == inf for v in problem.lower):  # v != v: NaN
        raise ValueError("lower bounds must be finite")
    if any(v is not None and (v != v or v == -inf) for v in problem.upper):
        raise ValueError("upper bounds must not be NaN or -inf")
    below = [j for j, (lo, hi) in enumerate(zip(problem.lower, problem.upper))
             if hi is not None and hi < lo]
    if below:
        raise ValueError(f"upper bound below lower bound on column {below[0]}")
    if any(v != v or abs(v) == inf for v in problem.objective):
        raise ValueError("objective has a non-finite coefficient")
    if mode not in ("float", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "float" and (out := _solve_float(problem)) is not None:
        return out
    # dual simplex cannot always tell infeasible from unbounded, so a float
    # failure of any kind is classified (rare, off the hot path) exactly
    return LpOutcome(*simplex.solve_rational(problem), mode="rational")


# linprog's test of a returned optimum: bounds, slacks and equality
# residuals within sqrt(tol) * 10 at its default tol of 1e-9
_RESULT_TOL = sqrt(1e-9) * 10


def _solve_float(problem):
    """The HiGHS model linprog builds: <= rows, then >= rows negated, in
    their order, with row bounds [-inf, rhs]; equality rows last with
    lhs = rhs; zero entries dropped; the cost negated when maximising.  The
    matrix goes to HiGHS row-wise, each row's entries in their order; HiGHS
    transposes it into the column-wise matrix, row indices ascending, that
    linprog passes.  Returns None for a refused model, for any status but
    optimal (infeasible and unbounded too) and for an optimum outside
    linprog's tolerances."""
    if "_HIGHS" not in globals():
        _load_highs()
    n = problem.num_cols
    objective = np.fromiter(problem.objective, float, n)
    c = -objective if problem.maximize else objective
    start, index, value, sense, rhs = problem.csr()
    m, nnz = len(rhs), len(index)
    start = np.fromiter(start, np.int64, m + 1)
    count = np.diff(start)
    sense = np.fromiter(sense, np.int8, m)
    value = np.fromiter(value, float, nnz)
    rhs = np.fromiter(rhs, float, m)
    flip = sense == GE
    value = np.where(np.repeat(flip, count), -value, value)
    rhs = np.where(flip, -rhs, rhs)
    # HiGHS row k is problem row order[k]: inequalities first, in order;
    # each row's entries, zeros dropped, in their order
    eq = sense == EQ
    order = np.argsort(eq, kind="stable")
    count = count[order]
    row_start = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(count, out=row_start[1:])
    entry = np.repeat(start[order] - row_start[:-1], count) + np.arange(row_start[-1])
    value = value[entry]
    kept = value != 0
    kept_before = np.zeros(len(kept) + 1, dtype=np.int32)
    np.cumsum(kept, out=kept_before[1:])
    row_upper = rhs[order]
    row_lower = np.where(eq[order], row_upper, -inf)  # HiGHS's kHighsInf is inf
    lower = np.fromiter(problem.lower, float, n)
    upper = np.fromiter((inf if v is None else v for v in problem.upper), float, n)
    _, x, activity = linprog(c, lower, upper, row_lower, row_upper,
                             kept_before[row_start],
                             np.fromiter(index, np.int32, nnz)[entry[kept]], value[kept])
    if x is None:
        return None
    slack = row_upper - activity
    m -= int(eq.sum())
    if (np.isnan(x).any() or np.isnan(slack).any()
            or (x < lower - _RESULT_TOL).any() or (x > upper + _RESULT_TOL).any()
            or (slack[:m] < -_RESULT_TOL).any() or (np.abs(slack[m:]) > _RESULT_TOL).any()):
        return None
    return LpOutcome(OPTIMAL, x.tolist(), float(np.dot(objective, x)))


_BINDING = "scipy.optimize._highspy._core"


def _import_binding():
    """The HiGHS extension module scipy ships, loaded from its file in
    scipy's optimize/_highspy directory, so that nothing else of
    scipy.optimize is imported.  It is registered in sys.modules under its
    full name, so a later ``import scipy.optimize`` shares it, and one
    already there (scipy.optimize imported first) is reused: the extension
    is never initialised twice."""
    if _BINDING in sys.modules:
        return sys.modules[_BINDING]
    import scipy
    directory = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_BINDING, [directory])
    if spec is None:
        expected = os.path.join(directory, "_core" + importlib.machinery.EXTENSION_SUFFIXES[0])
        raise ImportError(f"HiGHS extension {_BINDING} not found: expected {expected}",
                          name=_BINDING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_BINDING] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_BINDING]
        raise
    return module


def _load_highs():
    """Load numpy and the HiGHS binding and make the process's one solver,
    with linprog(method="highs-ds")'s options: presolve on, dual simplex,
    silent.  passModel replaces the solver's model and clears its solver
    state, so every call starts cold, as in a fresh solver."""
    global np, highs, _OPTIONS, _HIGHS, _ROWWISE, _MINIMIZE
    import numpy as np
    highs = _import_binding()
    _OPTIONS = highs.HighsOptions()
    _OPTIONS.presolve = "on"
    _OPTIONS.solver = "simplex"
    _OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    _OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    _OPTIONS.log_to_console = False
    _OPTIONS.output_flag = False
    _HIGHS = highs._Highs()
    _HIGHS.passOptions(_OPTIONS)
    _ROWWISE = int(highs.MatrixFormat.kRowwise)
    _MINIMIZE = int(highs.ObjSense.kMinimize)


def linprog(cost, lower, upper, row_lower, row_upper, start, index, value):
    """min cost.x  s.t.  row_lower <= A x <= row_upper, lower <= x <= upper,
    with A row-wise as (start, index, value), by HiGHS dual simplex, which
    _solve_float loads.  Returns (model status, x, A x); x and A x are None
    unless the status is optimal.  The solver is shared: not thread-safe."""
    num_col, num_row = len(cost), len(row_upper)
    # all columns continuous; the array overload refuses an empty array
    integrality = np.zeros(num_col, dtype=np.int32)
    if _HIGHS.passModel(num_col, num_row, len(value), _ROWWISE, _MINIMIZE, 0.0,
                        cost, lower, upper, row_lower, row_upper,
                        start, index, value, integrality) == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None, None
    failed = _HIGHS.run() == highs.HighsStatus.kError
    status = _HIGHS.getModelStatus()
    if failed or status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    solution = _HIGHS.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_value)
