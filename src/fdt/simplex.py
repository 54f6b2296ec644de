"""Exact bounded-variable primal simplex over the rationals.

Two-phase full-tableau method with Bland's pivoting rule.  Slow compared to
any float solver, but every optimum it returns is an exact vertex of the
feasible region, which the pruning step downstream relies on.  Intended for
small problems (a few hundred nonzeros); the float backend handles the rest.

The start puts every column at its lower bound and makes each inequality
row's slack basic when the slack is then nonnegative: with r = rhs - a.lo,
a <= row with r >= 0 or a >= row with r <= 0 (the slack basis of
production simplex codes; Bixby, ORSA J. Computing 1992).  Only equality
rows and rows the start violates get an artificial, and phase 1 drives
those to zero.  The branching and pruning LPs are homogeneous except for a
few rows, so most of their rows start at the slack and phase 1 has little
to do.

The tableau holds no fractions.  Each row is a list of Python ints N plus
one positive int denominator D, so that entry j of the row is N[j] / D
exactly; the entry past the last column holds the row's basic value the
same way.  A pivot on (r, e) flips row r's sign so that N_r[e] = P > 0 and
divides it by its gcd; every other row with N_i[e] != 0 becomes
N_i * P - N_i[e] * N_r over D_i * P, the subtraction running over row r's
nonzeros only, and is then divided by its gcd (fraction-free elimination,
Edmonds 1967).  The reduced costs of both phases are two more such rows,
built with the tableau and eliminated by every pivot: phase 1 prices on
the last, which is then dropped.  Each column is first scaled by the
least common denominator of its bounds, so that bounds, bound flips and
ratio-test numerators are ints too; scaling column e by s > 0 multiplies
every ratio of that pivot step by the same s and keeps every sign, so it
changes no comparison.

Bland's rule therefore reads the same signs and makes the same
comparisons as a Fraction tableau would: from the same starting basis, the
pivot sequence and vertex are those of a Fraction simplex.  A different
start can end at a different optimal vertex of a degenerate LP, with the
same optimal value.  Fractions appear only at the edges: _Tableau builds
its integer rows from the problem's CSR lists in one pass, and the values
and objective are returned as Fractions.
"""

from fractions import Fraction
from math import gcd, inf, lcm

MAX_ITER = 200_000

# the row sense codes of an LpProblem (fdt.lp re-exports them)
LE, GE, EQ = 0, 1, 2


class CyclingError(RuntimeError):
    """Iteration guard tripped; unreachable under Bland's rule."""


def _rational(v):
    """v exactly, as an int or a Fraction (both have numerator and denominator)."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _common_denominator(ratios):
    """The rationals num / den of ratios as ints over one positive
    denominator, in lowest terms: (ints, denominator)."""
    den = lcm(*(d for _, d in ratios))
    nums = [num * (den // d) for num, d in ratios]
    g = gcd(den, *nums)
    return [v // g for v in nums], den // g


class _Tableau:
    def __init__(self, problem):
        """The problem's integer tableau, read in one pass over its rows.

        Structural column j is scaled by scale[j], the least common
        denominator of its bounds, and one slack column (scale 1) follows per
        inequality row: +1 on a <= row, -1 on a >= row.  lo and hi are the
        scaled int bounds (hi None when infinite).  The m constraint rows
        are followed by two reduced-cost rows: phase 2's, the scaled
        objective, and phase 1's, the sum of the artificials.  The problem
        is one lp.solve has checked; a row with two nonzero entries on one
        column is a ValueError.
        """
        lo = [_rational(v) for v in problem.lower]
        hi = [None if v is None or isinstance(v, float) and v == inf else _rational(v)
              for v in problem.upper]
        scale = [l.denominator if h is None else lcm(l.denominator, h.denominator)
                 for l, h in zip(lo, hi)]
        lo = [l.numerator * (s // l.denominator) for l, s in zip(lo, scale)]
        hi = [None if h is None else h.numerator * (s // h.denominator)
              for h, s in zip(hi, scale)]
        sign = -1 if problem.maximize else 1
        cost, cost_den = _common_denominator(
            [(sign * v.numerator, v.denominator * s)
             for v, s in zip(map(_rational, problem.objective), scale)])

        rows, senses = problem.rows, problem.sense
        start, index, value, rhs = rows.start, rows.index, rows.values, rows.rhs
        slacks = len(senses) - senses.count(EQ)
        self.m = len(rhs)
        self.n = ncol = problem.num_cols + slacks
        self.scale = scale + [1] * slacks
        self.lo = lo = lo + [0] * slacks
        self.hi = hi = hi + [None] * slacks
        # columns that may enter the basis, in Bland order; fixed ones never do
        self.movable = [j for j in range(ncol) if lo[j] != hi[j]]
        # start: every nonbasic column at its lower bound.  A row whose
        # slack is then nonnegative starts with the slack basic; every other
        # row gets an artificial (index n + k for row k, never re-entering).
        # Each row's sign is chosen so that its basic variable has entry D
        # (coefficient 1) and starts at a nonnegative value.
        self.at_upper = set()
        self.N = []
        self.D = []
        self.basis = []
        slack = problem.num_cols  # the next inequality row's slack column
        for k, (a, b, sense, r) in enumerate(zip(start, start[1:], senses, rhs)):
            cols, ratios = [], []
            for i, v in zip(index[a:b], value[a:b]):
                v = _rational(v)
                if v:
                    cols.append(i)
                    ratios.append((v.numerator, v.denominator * scale[i]))
            if len(set(cols)) < len(cols):
                raise ValueError(f"row {k} has a repeated column")
            r = _rational(r)
            ratios.append((r.numerator, r.denominator))
            # the slack's +-1 over 1 would change neither denominator nor gcd
            nums, den = _common_denominator(ratios)
            r = nums[-1] - sum(v * lo[j] for j, v in zip(cols, nums))
            sl = 0 if sense == EQ else -1 if sense == GE else 1  # slack coefficient
            at_slack = sl and sl * r >= 0
            sgn = sl if at_slack else 1 if r >= 0 else -1
            self.basis.append(slack if at_slack else ncol + k)
            dense = [0] * (ncol + 1)
            for j, v in zip(cols, nums):
                dense[j] = sgn * v
            if sl:
                dense[slack] = sgn * sl * den
                slack += 1
            dense[ncol] = sgn * r
            self.N.append(dense)
            self.D.append(den)
        # reduced costs c - c_B B^-1 A, each one more row that every pivot
        # eliminates.  Every starting basic column, slack or artificial, has
        # phase 2 cost 0, so phase 2's row is the cost itself; phase 1's is
        # minus the rows whose artificial is basic.
        self.N.append(cost + [0] * (slacks + 1))
        self.D.append(cost_den)
        arts = [k for k, j in enumerate(self.basis) if j >= ncol]
        den = lcm(*(self.D[k] for k in arts))
        rows = [(self.N[k], den // self.D[k]) for k in arts]
        d = [-sum(Nk[j] * f for Nk, f in rows) for j in range(ncol + 1)]
        g = gcd(den, *d)
        self.N.append([v // g for v in d])
        self.D.append(den // g)

    def values(self, count):
        """The values of the first count columns, unscaled."""
        out = [Fraction(self.hi[j] if j in self.at_upper else self.lo[j], self.scale[j])
               for j in range(count)]
        for i, j in enumerate(self.basis):
            if j < count:
                out[j] = Fraction(self.N[i][self.n], self.D[i] * self.scale[j])
        return out

    def _pivot(self, r, e, col, leave_at, enter_at):
        """Make column e basic in row r: the leaving variable goes to the
        value leave_at and e takes the value enter_at plus the step (the
        two bounds, scaled, that they sit at).  col lists the rows with a
        nonzero in column e as (row, entry) pairs.

        Every other such row, constraint or reduced-cost, becomes itself
        minus its entry f in column e times the pivot row, whose nonzeros
        are nz over p_den = its entry in column e, and is then divided by
        its gcd."""
        N, D, n = self.N, self.D, self.n
        row = N[r]
        if leave_at:
            row[n] -= leave_at * D[r]  # row r's last entry is now the step
        if row[e] < 0:
            row = [-v for v in row]
        g = gcd(*row)
        if g != 1:
            row = [v // g for v in row]
        p_den = row[e]
        nz = [(j, v) for j, v in enumerate(row) if v]
        for i, f in col:
            if i == r:
                continue
            Ni, den = N[i], D[i]
            g = gcd(f, p_den)
            p, q = p_den // g, f // g
            if p != 1:
                Ni = [v * p for v in Ni]
                den *= p
            for j, v in nz:
                Ni[j] -= q * v
            g = gcd(den, *Ni)
            if g != 1:
                Ni = [v // g for v in Ni]
                den //= g
            N[i], D[i] = Ni, den
        row[n] += enter_at * p_den
        N[r], D[r] = row, p_den

    def run(self):
        """Minimize the objective whose reduced costs are the tableau's last
        row; returns 'optimal' or 'unbounded'."""
        basic = set(self.basis)
        lo, hi, at_upper, basis = self.lo, self.hi, self.at_upper, self.basis
        N, D, n, m = self.N, self.D, self.n, self.m
        for _ in range(MAX_ITER):
            d = N[-1]
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
            col = [(i, Ni[enter]) for i, Ni in enumerate(N) if Ni[enter]]
            # ratio test: largest step t >= 0 keeping everything inside
            # bounds; row i's bound is reached at t = num / abs(w)
            t_num = t_den = None
            leave = -1  # -1 means bound flip of the entering variable
            if hi[enter] is not None:
                t_num, t_den = hi[enter] - lo[enter], 1
            for i, wi in col:
                if i >= m:  # the reduced-cost rows
                    break
                bi = basis[i]
                if (wi > 0) == increase:  # basic variable falls to its lower bound
                    num = N[i][n] - (lo[bi] * D[i] if bi < n else 0)
                elif bi < n and hi[bi] is not None:  # rises to its upper bound
                    num = hi[bi] * D[i] - N[i][n]
                else:
                    continue
                den = abs(wi)
                if t_num is None or num * t_den < t_num * den:
                    t_num, t_den = num, den
                    leave = i
                elif num * t_den == t_num * den and leave >= 0 and bi < basis[leave]:
                    # Bland tie-break on the leaving variable index
                    leave = i
            if t_num is None:
                return "unbounded"
            enter_at = lo[enter] if increase else hi[enter]
            if leave < 0:
                # entering variable flips from one finite bound to the other;
                # the basis, and so the reduced costs, stay as they are (the
                # reduced-cost rows' last entries move, and nothing reads them)
                step = t_num if increase else -t_num
                for i, wi in col:
                    N[i][n] -= step * wi
                if increase:
                    at_upper.add(enter)
                else:
                    at_upper.discard(enter)
                continue
            leaving = basis[leave]
            if leaving < n:
                falls = (N[leave][enter] > 0) == increase
                leave_at = lo[leaving] if falls else hi[leaving]
                if falls:
                    at_upper.discard(leaving)
                else:
                    at_upper.add(leaving)
            else:
                leave_at = 0
            basic.discard(leaving)
            basic.add(enter)
            basis[leave] = enter
            at_upper.discard(enter)
            self._pivot(leave, enter, col, leave_at, enter_at)
        raise CyclingError("simplex iteration limit exceeded")

    def drive_out_artificials(self):
        """Pivot zero-valued artificials out of the basis; drop redundant rows."""
        drop = []
        for i in range(self.m):
            if self.basis[i] < self.n:
                continue
            piv_col = next((j for j in self.movable if self.N[i][j] != 0), None)
            if piv_col is None:
                drop.append(i)
                continue
            # zero-step pivot: the solution is unchanged, so the incoming
            # variable keeps the bound value it currently sits at
            enter_at = self.hi[piv_col] if piv_col in self.at_upper else self.lo[piv_col]
            self.basis[i] = piv_col
            self.at_upper.discard(piv_col)
            col = [(k, Nk[piv_col]) for k, Nk in enumerate(self.N) if Nk[piv_col]]
            self._pivot(i, piv_col, col, 0, enter_at)
        for i in reversed(drop):
            del self.N[i], self.D[i], self.basis[i]
            self.m -= 1


def solve_rational(problem):
    """Exact two-phase simplex.  Returns (status, values, objective); values
    covers the problem's structural columns only."""
    tab = _Tableau(problem)
    ncol = tab.n
    tab.run()
    # artificials never go negative, so phase 1 reached 0 iff each one is 0
    if any(tab.N[i][ncol] for i in range(tab.m) if tab.basis[i] >= ncol):
        return "infeasible", None, None
    del tab.N[-1], tab.D[-1]  # phase 1's row: phase 2 prices on the cost's
    tab.drive_out_artificials()

    status = tab.run()
    if status == "unbounded":
        return "unbounded", None, None

    x = tab.values(problem.num_cols)
    return "optimal", x, sum(Fraction(ci) * v for ci, v in zip(problem.objective, x))
