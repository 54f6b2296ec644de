"""Exact bounded-variable primal simplex over the rationals.

Two-phase full-tableau method with Bland's pivoting rule.  Slow compared to
any float solver, but every optimum it returns is an exact vertex of the
feasible region, which the pruning step downstream relies on.  Intended for
small problems (a few hundred nonzeros); the float backend handles the rest.

Fraction arithmetic dominates the cost, so the loop does as little of it as
it can.  A pivot scales the pivot row, collects its nonzeros as (column,
value) pairs and updates each other row with a nonzero in the entering
column over those columns only.  The reduced-cost row is computed once per
phase and then carried across pivots with the same pairs,
``d[j] -= d[e] * row_r[j]``; a bound flip leaves it as it is.  In exact
arithmetic the carried row equals the recomputed one, so Bland's rule makes
the same choices, and the vertex, basis and duals do not depend on this
bookkeeping.
"""

from fractions import Fraction

MAX_ITER = 200_000


class CyclingError(RuntimeError):
    """Iteration guard tripped; unreachable under Bland's rule."""


def _to_equality_form(problem):
    """Append one slack column per inequality row; returns (A, b, lo, hi, c)."""
    n = problem.num_cols
    lo = [Fraction(v) for v in problem.lower]
    hi = [None if v is None else Fraction(v) for v in problem.upper]
    c = [Fraction(v) for v in problem.objective]
    if problem.maximize:
        c = [-v for v in c]
    rows = []
    b = []
    ncol = n
    for coef, sense, rhs in problem.rows:
        row = {int(i): Fraction(v) for i, v in coef.items() if Fraction(v) != 0}
        rhs = Fraction(rhs)
        if sense == ">=":
            row[ncol] = Fraction(-1)
        elif sense == "<=":
            row[ncol] = Fraction(1)
        elif sense in ("==", "="):
            ncol -= 1  # no slack
        else:
            raise ValueError(f"unknown sense {sense!r}")
        if sense in (">=", "<="):
            lo.append(Fraction(0))
            hi.append(None)
            c.append(Fraction(0))
        ncol += 1
        rows.append(row)
        b.append(rhs)
    for v in lo:
        if v is None:
            raise ValueError("finite lower bounds required")
    for l, h in zip(lo, hi):
        if h is not None and h < l:
            raise ValueError("upper bound below lower bound")
    return rows, b, lo, hi, c, ncol


class _Tableau:
    def __init__(self, rows, b, lo, hi, ncol):
        self.m = len(rows)
        self.n = ncol
        self.lo = lo
        self.hi = hi
        # columns that may enter the basis, in Bland order; fixed ones never do
        self.movable = [j for j in range(ncol) if lo[j] != hi[j]]
        # nonbasic start: everything at its lower bound
        self.at_upper = set()
        xN = lo
        sgn = []
        self.xB = []
        for k, row in enumerate(rows):
            r = b[k] - sum(v * xN[j] for j, v in row.items())
            sgn.append(1 if r >= 0 else -1)
            self.xB.append(abs(r))
        self.T = []
        for k, row in enumerate(rows):
            dense = [Fraction(0)] * ncol
            for j, v in row.items():
                dense[j] = sgn[k] * v
            self.T.append(dense)
        # artificial basis; artificial for row k has index n + k and never re-enters
        self.basis = [ncol + k for k in range(self.m)]
        self.d = None  # reduced-cost row of the current phase

    def values(self):
        out = [self.hi[j] if j in self.at_upper else self.lo[j] for j in range(self.n)]
        for i, j in enumerate(self.basis):
            if j < self.n:
                out[j] = self.xB[i]
        return out

    def _reduced_costs(self, c, art_cost):
        d = list(c)
        for i, j in enumerate(self.basis):
            ci = c[j] if j < self.n else art_cost
            if ci == 0:
                continue
            for k, v in enumerate(self.T[i]):
                if v != 0:
                    d[k] -= ci * v
        return d

    def _pivot(self, r, e):
        """Make column e basic in row r; returns the new row r's nonzeros as
        (column, value) pairs.  Only those columns change in the other rows."""
        Tr = self.T[r]
        inv = 1 / Tr[e]
        nz = [(j, v * inv) for j, v in enumerate(Tr) if v != 0]
        for j, v in nz:
            Tr[j] = v
        for i, Ti in enumerate(self.T):
            f = Ti[e]
            if f == 0 or i == r:
                continue
            for j, v in nz:
                Ti[j] -= f * v
        return nz

    def run(self, c, art_cost):
        """Minimize c over the current tableau; returns 'optimal' or 'unbounded'."""
        basic = set(self.basis)
        d = self.d = self._reduced_costs(c, art_cost)
        lo, hi, at_upper, xB, basis = self.lo, self.hi, self.at_upper, self.xB, self.basis
        n = self.n
        for _ in range(MAX_ITER):
            enter = -1
            for j in self.movable:
                if j in basic:
                    continue
                if j in at_upper:
                    if d[j] > 0:
                        enter = j
                        break
                elif d[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            increase = enter not in at_upper
            col = [(i, Ti[enter]) for i, Ti in enumerate(self.T) if Ti[enter] != 0]
            # ratio test: largest step t >= 0 keeping everything inside bounds
            t_best = None
            leave = -1  # -1 means bound flip of the entering variable
            if hi[enter] is not None:
                t_best = hi[enter] - lo[enter]
            for i, wi in col:
                bi = basis[i]
                if (wi > 0) == increase:  # basic variable falls to its lower bound
                    t_i = (xB[i] - (lo[bi] if bi < n else 0)) / abs(wi)
                elif bi < n and hi[bi] is not None:  # rises to its upper bound
                    t_i = (hi[bi] - xB[i]) / abs(wi)
                else:
                    continue
                if t_best is None or t_i < t_best:
                    t_best = t_i
                    leave = i
                elif t_i == t_best and leave >= 0 and bi < basis[leave]:
                    # Bland tie-break on the leaving variable index
                    leave = i
            if t_best is None:
                return "unbounded"
            step = t_best if increase else -t_best
            for i, wi in col:
                xB[i] -= step * wi
            if leave < 0:
                # entering variable flips from one finite bound to the other;
                # the basis, and so the reduced costs, stay as they are
                if increase:
                    at_upper.add(enter)
                else:
                    at_upper.discard(enter)
                continue
            leaving = basis[leave]
            enter_val = (lo[enter] if increase else hi[enter]) + step
            if leaving < n:
                if (self.T[leave][enter] > 0) == increase:
                    at_upper.discard(leaving)
                else:
                    at_upper.add(leaving)
            basic.discard(leaving)
            basic.add(enter)
            basis[leave] = enter
            at_upper.discard(enter)
            de = d[enter]
            for j, v in self._pivot(leave, enter):
                d[j] -= de * v
            xB[leave] = enter_val
        raise CyclingError("simplex iteration limit exceeded")

    def drive_out_artificials(self):
        """Pivot zero-valued artificials out of the basis; drop redundant rows."""
        drop = []
        for i in range(self.m):
            if self.basis[i] < self.n:
                continue
            piv_col = next((j for j in self.movable if self.T[i][j] != 0), None)
            if piv_col is None:
                drop.append(i)
                continue
            # zero-step pivot: the solution is unchanged, so the incoming
            # variable keeps the bound value it currently sits at
            enter_val = self.hi[piv_col] if piv_col in self.at_upper else self.lo[piv_col]
            self.basis[i] = piv_col
            self.at_upper.discard(piv_col)
            self.xB[i] = enter_val
            self._pivot(i, piv_col)
        for i in reversed(drop):
            del self.T[i], self.xB[i], self.basis[i]
            self.m -= 1


def solve_rational(problem):
    """Exact two-phase simplex.  Returns (status, values, objective, basis, duals).

    values covers the problem's structural columns only; basis lists the
    basic column indices (structural and slack); duals has one multiplier per
    original row, None for equality rows (they have no slack to read it from).
    """
    rows, b, lo, hi, c, ncol = _to_equality_form(problem)
    tab = _Tableau(rows, b, lo, hi, ncol)

    phase1_cost = [Fraction(0)] * ncol
    tab.run(phase1_cost, art_cost=Fraction(1))
    infeas = sum(
        tab.xB[i] for i in range(tab.m) if tab.basis[i] >= ncol
    )
    if infeas > 0:
        return "infeasible", None, None, None, None
    tab.drive_out_artificials()

    status = tab.run(c, art_cost=Fraction(0))
    if status == "unbounded":
        return "unbounded", None, None, None, None

    vals = tab.values()
    x = vals[: problem.num_cols]
    obj = sum(Fraction(ci) * v for ci, v in zip(problem.objective, x))
    basis = sorted(j for j in tab.basis if j < ncol)
    duals = _recover_duals(problem, tab.d)
    if problem.maximize:
        duals = [None if y is None else -y for y in duals]
    return "optimal", x, obj, basis, duals


def _recover_duals(problem, d):
    """y_k = c_B . B^{-1} e_k read off the slack column of row k, when present;
    d is phase 2's final reduced-cost row."""
    duals = []
    col = problem.num_cols
    for coef, sense, rhs in problem.rows:
        if sense == ">=":
            duals.append(d[col])  # slack coef is -1: d_s = 0 + y_k
            col += 1
        elif sense == "<=":
            duals.append(-d[col])
            col += 1
        else:
            duals.append(None)
    return duals
