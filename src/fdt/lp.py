"""LP solving front end.

Two interchangeable backends sit behind one problem type: an exact rational
simplex (ours) and HiGHS dual simplex (float mode), called directly through
the bindings scipy ships, with the model and options that
``scipy.optimize.linprog(method="highs-ds")`` would pass it.  Both return
basic (vertex) optimal solutions; the pruning LP depends on that, so
interior-point methods are deliberately not offered.

The binding is one extension module, ``scipy.optimize._highspy._core``.
It is loaded from its file, without ``scipy.optimize``'s package import
(0.4-0.6 s and 48 MB of peak RSS on a 2-vCPU host), and with its options
and the shared solver, on the first float solve; a run that only solves
exactly never loads it.  The module attributes ``highs``, ``_OPTIONS`` and
``_HIGHS`` load it when first read.
"""

import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from math import inf

import numpy as np

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
_NO_ROWS = (np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0),
            np.zeros(0, np.int8), np.zeros(0))


class LpProblem:
    """min/max objective . x  subject to sparse rows and column bounds.

    The rows are kept as CSR arrays (csr()): row r has the entries
    start[r]:start[r+1] of (index, value), its sense (LE, GE or EQ) and its
    right-hand side.  add_rows appends a block in that form; values and
    right-hand sides are float64 arrays, or object arrays of exact numbers
    (ints, Fractions) for the rational backend.  add_row appends one row
    given as a {column: coef} dict, as a one-row block.  rows is a
    read-only view of all rows as (coef dict, sense, rhs) triples.  An
    upper bound of None or inf means unbounded.
    """

    def __init__(self, num_cols, lower=None, upper=None, objective=None, maximize=False):
        self.num_cols = num_cols
        self.lower = [0] * num_cols if lower is None else lower
        self.upper = [None] * num_cols if upper is None else upper
        self.objective = [0] * num_cols if objective is None else objective
        self.maximize = maximize
        self._blocks = []  # (start, index, value, sense, rhs), start from 0

    def add_row(self, coef, sense, rhs):
        if sense not in _SENSE:
            raise ValueError(f"unknown sense {sense!r}")
        self.add_rows([0, len(coef)], np.fromiter(coef, np.int64, len(coef)),
                      np.array(list(coef.values()), dtype=object), _SENSE[sense],
                      np.array([rhs], dtype=object))

    def add_rows(self, start, index, value, sense, rhs):
        """Append rows in CSR form (start from 0); sense is one code for
        every row or an array of codes.  An entry on a column outside
        [0, num_cols) is a ValueError."""
        index = np.asarray(index)
        if len(index) and (index.min() < 0 or index.max() >= self.num_cols):
            raise ValueError(f"row entry on a column outside [0, {self.num_cols})")
        self._blocks.append((np.asarray(start), index, value,
                             np.broadcast_to(np.asarray(sense, dtype=np.int8), len(rhs)),
                             rhs))

    def csr(self):
        """Every row as one (start, index, value, sense, rhs) tuple of arrays."""
        if len(self._blocks) > 1:
            offsets = np.cumsum([0] + [b[0][-1] for b in self._blocks[:-1]])
            start = np.concatenate([[0]] + [b[0][1:] + off
                                            for b, off in zip(self._blocks, offsets)])
            self._blocks = [(start,) + tuple(np.concatenate([b[k] for b in self._blocks])
                                             for k in range(1, 5))]
        return self._blocks[0] if self._blocks else _NO_ROWS

    @property
    def rows(self):
        return _Rows(self)


class _Rows(Sequence):
    """The rows of an LpProblem as (coef dict, sense, rhs) triples, sense
    one of "<=", ">=" and "=="."""

    def __init__(self, problem):
        self._problem = problem

    def __len__(self):
        return sum(len(block[4]) for block in self._problem._blocks)

    def __getitem__(self, r):
        return list(self)[r]

    def __iter__(self):
        start, index, value, sense, rhs = (a.tolist() for a in self._problem.csr())
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

    mode is "rational" (exact) or "float"; float failures fall back to the
    rational backend.  lower, upper and objective need one entry per column,
    every lower bound must be a finite number, and every upper bound a
    number, +inf or None (both unbounded), not NaN or -inf.  A row with
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


# linprog's test of a returned optimum: bounds, slacks and equality
# residuals within sqrt(tol) * 10 at its default tol of 1e-9
_RESULT_TOL = np.sqrt(1e-9) * 10


def _solve_float(problem):
    """The HiGHS model linprog builds: <= rows, then >= rows negated, in
    their order, with row bounds [-inf, rhs]; equality rows last with
    lhs = rhs; the matrix column-wise with row indices ascending and zero
    entries dropped; the cost negated when maximising."""
    n = problem.num_cols
    objective = np.asarray(problem.objective, dtype=float)
    if not np.isfinite(objective).all():
        raise ValueError("objective has a non-finite coefficient")
    c = -objective if problem.maximize else objective
    start, index, value, sense, rhs = problem.csr()
    value = np.asarray(value, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    flip = sense == GE
    rhs = np.where(flip, -rhs, rhs)
    # HiGHS row k is problem row order[k]: inequalities first, in order
    eq = sense == EQ
    order = np.argsort(eq, kind="stable")
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    entry_row = np.repeat(np.arange(len(rhs)), np.diff(start))
    value = np.where(flip[entry_row], -value, value)
    kept = value != 0
    entry_row, column, value = position[entry_row[kept]], index[kept], value[kept]
    by_column = np.argsort(column * len(rhs) + entry_row, kind="stable")
    a_start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(column, minlength=n), out=a_start[1:])
    row_upper = rhs[order]
    row_lower = np.where(eq[order], row_upper, -np.inf)  # HiGHS's kHighsInf is inf
    lower = np.asarray(problem.lower, dtype=float)
    upper = np.asarray(problem.upper)
    if upper.dtype == object:
        upper = np.where(upper == None, np.inf, upper)  # noqa: E711
    upper = upper.astype(float)
    status, x, activity = linprog(c, lower, upper, row_lower, row_upper, a_start,
                                  entry_row[by_column].astype(np.int32),
                                  value[by_column])
    # linprog has loaded the binding by now
    if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kUnbounded):
        # dual simplex cannot always tell infeasible from unbounded;
        # let the exact backend classify the (rare, off-hot-path) failure
        return _solve_rational(problem)
    if x is None:
        raise LpError(f"float solve failed: HiGHS model status {status.name}")
    slack = row_upper - activity
    m = len(rhs) - int(eq.sum())
    if (np.isnan(x).any() or np.isnan(slack).any()
            or (x < lower - _RESULT_TOL).any() or (x > upper + _RESULT_TOL).any()
            or (slack[:m] < -_RESULT_TOL).any() or (np.abs(slack[m:]) > _RESULT_TOL).any()):
        raise LpError("float solve failed: optimum violates the constraints")
    obj = float(np.dot(objective, x))
    return LpOutcome(OPTIMAL, solution=x.tolist(), objective=obj, mode="float")


_LAZY = frozenset({"highs", "_OPTIONS", "_HIGHS", "_COLWISE", "_MINIMIZE"})


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
    """Load the HiGHS binding and make the process's one solver, with
    linprog(method="highs-ds")'s options: presolve on, dual simplex, silent.
    passModel replaces the solver's model and clears its solver state, so
    every call starts cold, as in a fresh solver."""
    global highs, _OPTIONS, _HIGHS, _COLWISE, _MINIMIZE
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
    _COLWISE = int(highs.MatrixFormat.kColwise)
    _MINIMIZE = int(highs.ObjSense.kMinimize)


def __getattr__(name):
    if name in _LAZY:
        _load_highs()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def linprog(cost, lower, upper, row_lower, row_upper, start, index, value):
    """min cost.x  s.t.  row_lower <= A x <= row_upper, lower <= x <= upper,
    with A column-wise as (start, index, value), by HiGHS dual simplex.
    Returns (model status, x, A x); x and A x are None unless the status is
    optimal.  The solver is shared, so this is not thread-safe."""
    if "_HIGHS" not in globals():
        _load_highs()
    num_col, num_row = len(cost), len(row_upper)
    # all columns continuous; the array overload refuses an empty array
    integrality = np.zeros(num_col, dtype=np.int32)
    if _HIGHS.passModel(num_col, num_row, len(value), _COLWISE, _MINIMIZE, 0.0,
                        cost, lower, upper, row_lower, row_upper,
                        start, index, value, integrality) == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None, None
    failed = _HIGHS.run() == highs.HighsStatus.kError
    status = _HIGHS.getModelStatus()
    if failed or status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    solution = _HIGHS.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_value)
