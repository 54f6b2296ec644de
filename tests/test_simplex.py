import random
from fractions import Fraction

import pytest

from fdt import lp, simplex
from fdt.simplex import _Tableau, solve_rational
from lp_rows import prob, row_triples


class TestKnownOptima:
    def test_tiny_minimization(self):
        # min x0 + x1 s.t. x0 + x1 >= 1  ->  optimum 1 at a vertex
        status, x, obj = solve_rational(
            prob(2, [({0: 1, 1: 1}, ">=", 1)], objective=[1, 1]))
        assert status == "optimal"
        assert obj == 1
        assert x[0] + x[1] == 1
        assert set(x) <= {Fraction(0), Fraction(1)}  # vertex, not midpoint

    def test_fractional_vertex(self):
        # the half-point of the triangle cover polytope is its only optimum
        rows = [({0: 1, 1: 1}, ">=", 1), ({1: 1, 2: 1}, ">=", 1),
                ({0: 1, 2: 1}, ">=", 1)]
        status, x, obj = solve_rational(
            prob(3, rows, upper=[1, 1, 1], objective=[1, 1, 1]))
        assert status == "optimal"
        assert obj == Fraction(3, 2)
        assert x == [Fraction(1, 2)] * 3

    def test_maximize_with_upper_bounds(self):
        status, x, obj = solve_rational(
            prob(2, [({0: 1, 1: 1}, "<=", 3)], upper=[2, 2],
                 objective=[2, 1], maximize=True))
        assert status == "optimal"
        assert obj == 5
        assert x == [2, 1]

    def test_equality_row(self):
        status, x, obj = solve_rational(
            prob(2, [({0: 1, 1: 2}, "==", 4)], upper=[3, 3], objective=[1, 1]))
        assert status == "optimal"
        assert obj == 2 and x == [0, 2]

    def test_nonzero_lower_bounds(self):
        status, x, obj = solve_rational(
            prob(2, [({0: 1, 1: 1}, ">=", 1)],
                 lower=[Fraction(1, 4), Fraction(1, 4)], objective=[1, 3]))
        assert status == "optimal"
        assert x == [Fraction(3, 4), Fraction(1, 4)]


class TestStatusClassification:
    def test_infeasible(self):
        status, *_ = solve_rational(
            prob(1, [({0: 1}, ">=", 2)], upper=[1]))
        assert status == "infeasible"

    def test_infeasible_equalities(self):
        status, *_ = solve_rational(
            prob(1, [({0: 1}, "==", 1), ({0: 1}, "==", 2)]))
        assert status == "infeasible"

    def test_unbounded(self):
        status, *_ = solve_rational(
            prob(1, [], objective=[1], maximize=True))
        assert status == "unbounded"

    def test_bounded_by_constraint_not_bound(self):
        status, x, obj = solve_rational(
            prob(1, [({0: 1}, "<=", 7)], objective=[1], maximize=True))
        assert status == "optimal" and obj == 7

    def test_empty_objective_feasibility_check(self):
        status, x, *_ = solve_rational(prob(2, [({0: 1, 1: 1}, ">=", 1)]))
        assert status == "optimal"
        assert x[0] + x[1] >= 1


class TestDegenerate:
    def test_redundant_rows_dropped(self):
        rows = [({0: 1}, "==", 1), ({0: 2}, "==", 2), ({0: 3}, "==", 3)]
        status, x, obj = solve_rational(prob(1, rows, objective=[1]))
        assert status == "optimal" and x == [1]

    def test_fixed_column(self):
        status, x, obj = solve_rational(
            prob(2, [({0: 1, 1: 1}, ">=", 1)], lower=[Fraction(1), 0],
                 upper=[Fraction(1), None], objective=[0, 1]))
        assert status == "optimal"
        assert x == [1, 0]

    def test_zero_rhs_homogeneous(self):
        status, x, obj = solve_rational(
            prob(2, [({0: 1, 1: -1}, ">=", 0)], upper=[1, 1],
                 objective=[1, 1]))
        assert status == "optimal" and obj == 0


def start_basis(problem):
    """'slack' or 'artificial' per row: the variable the row starts with
    basic.  Also checks that the basic variable has coefficient 1 and a
    nonnegative starting value in every row."""
    tab = _Tableau(problem)
    ncol = tab.n
    for i, j in enumerate(tab.basis):
        assert tab.N[i][ncol] >= 0
        if j < ncol:
            assert tab.N[i][j] == tab.D[i]
    return ["artificial" if j >= ncol else "slack" for j in tab.basis]


class TestSlackStart:
    """An inequality row starts with its slack basic when the slack is
    nonnegative with every column at its lower bound, that is when
    r = rhs - a.lo is >= 0 on a <= row or <= 0 on a >= row."""

    def test_le_row_with_negative_r_gets_an_artificial(self):
        # -x0 <= -1 at x0 = 0: the slack would be -1
        p = prob(2, [({0: -1}, "<=", -1), ({0: 1, 1: 1}, "<=", 3)], objective=[1, 1])
        assert start_basis(p) == ["artificial", "slack"]
        status, x, obj = solve_rational(p)
        assert (status, x, obj) == ("optimal", [1, 0], 1)

    def test_ge_rows_with_r_negative_or_zero_start_at_the_slack(self):
        p = prob(2, [({0: 1, 1: 1}, ">=", -1), ({0: 1, 1: -1}, ">=", 0)],
                 upper=[2, 2], objective=[-1, 1])
        assert start_basis(p) == ["slack", "slack"]
        status, x, obj = solve_rational(p)
        assert (status, x, obj) == ("optimal", [2, 0], -2)

    def test_equality_row_always_gets_an_artificial(self):
        p = prob(2, [({0: 1, 1: 1}, "==", 0), ({0: 1}, "<=", 1)], upper=[1, 1])
        assert start_basis(p) == ["artificial", "slack"]
        assert solve_rational(p) == ("optimal", [0, 0], 0)

    def test_no_artificial_means_no_phase_one_pivot(self, monkeypatch):
        pivots = []
        real = _Tableau._pivot

        def counting(self, *args):
            pivots.append(args[:2])
            return real(self, *args)

        monkeypatch.setattr(simplex._Tableau, "_pivot", counting)
        p = prob(2, [({0: 1, 1: 2}, "<=", 4), ({0: 3, 1: 1}, "<=", 6)],
                 objective=[1, 1], maximize=True)
        assert start_basis(p) == ["slack", "slack"]
        status, x, obj = solve_rational(p)
        assert (status, x, obj) == ("optimal", [Fraction(8, 5), Fraction(6, 5)],
                                    Fraction(14, 5))
        assert len(pivots) == 2  # phase 2 only: x0 enters, then x1

    def test_infeasible_with_one_violated_row(self):
        # every row starts at its slack except x0 + x1 <= -1, which no
        # point of the box satisfies
        p = prob(2, [({0: 1, 1: -1}, ">=", 0), ({0: 1, 1: 1}, "<=", -1),
                     ({1: 1}, "<=", 1)], upper=[1, 1], objective=[1, 1])
        assert start_basis(p) == ["slack", "artificial", "slack"]
        assert solve_rational(p)[0] == "infeasible"

    def test_negative_lower_bounds_flip_r(self):
        rows = [({0: 1, 1: 1}, ">=", -1), ({0: 1, 1: 1}, "<=", -1)]
        # at the origin r = -1 on both rows: the >= row takes its slack,
        # the <= row an artificial
        at_zero = prob(2, rows, upper=[1, 1], objective=[1, 0])
        assert start_basis(at_zero) == ["slack", "artificial"]
        assert solve_rational(at_zero)[0] == "infeasible"
        # at lower bounds (-1, -1), r = 1 on both rows: the other way round
        shifted = prob(2, rows, lower=[-1, -1], upper=[1, 1], objective=[1, 0])
        assert start_basis(shifted) == ["artificial", "slack"]
        status, x, obj = solve_rational(shifted)
        assert (status, x, obj) == ("optimal", [-1, 0], -1)


class TestFuzzAgainstFloatBackend:
    def test_agreement_on_random_lps(self):
        rng = random.Random(40)
        for trial in range(150):
            n = rng.randint(1, 6)
            maximize = rng.random() < 0.5
            objective = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            lower = [Fraction(rng.randint(0, 1)) for _ in range(n)]
            upper = [None if rng.random() < 0.3 else Fraction(rng.randint(2, 4))
                     for _ in range(n)]
            rows = []
            for _ in range(rng.randint(1, 7)):
                coef = {i: Fraction(rng.randint(-4, 4))
                        for i in rng.sample(range(n), rng.randint(1, n))}
                coef = {i: c for i, c in coef.items() if c}
                if coef:
                    rows.append((coef, rng.choice([">=", "<=", "=="]),
                                 Fraction(rng.randint(-6, 6))))
            p = prob(n, rows, lower, upper, objective, maximize)
            r = lp.solve(p, mode="rational")
            f = lp.solve(p, mode="float")
            assert r.status == f.status, trial
            if r.status != lp.OPTIMAL:
                continue
            assert abs(float(r.objective) - float(f.objective)) < 1e-6, trial
            # exact feasibility of the rational optimum
            x = r.solution
            for j in range(n):
                assert p.lower[j] <= x[j]
                assert p.upper[j] is None or x[j] <= p.upper[j]
            for coef, sense, rhs in row_triples(p):
                lhs = sum(c * x[i] for i, c in coef.items())
                if sense == ">=":
                    assert lhs >= rhs
                elif sense == "<=":
                    assert lhs <= rhs
                else:
                    assert lhs == rhs


def reduced_costs(tab, cost, art_cost):
    """The reference for a carried reduced-cost row: cost minus c_B times
    the constraint rows, as one Fraction per column, right-hand side left
    out; cost has one Fraction per column, art_cost is every artificial's."""
    basic_cost = [cost[j] if j < tab.n else art_cost for j in tab.basis]
    return [cost[j] - sum(cb * Fraction(tab.N[i][j], tab.D[i])
                          for i, cb in enumerate(basic_cost) if cb)
            for j in range(tab.n)]


class CheckedTableau(_Tableau):
    """A tableau that checks its reduced-cost rows against reduced_costs at
    the start of each run and after every pivot, drive_out_artificials'
    included: phase 2's row (the one after the constraint rows) always,
    phase 1's (the last) while it is there.  checks counts them by phase."""

    checks = {1: 0, 2: 0}

    def __init__(self, problem):
        super().__init__(problem)
        sign = -1 if problem.maximize else 1
        cost = [sign * Fraction(c) / s for c, s in zip(problem.objective, self.scale)]
        self.phase2_cost = cost + [Fraction(0)] * (self.n - len(cost))

    def _row(self, i):
        return [Fraction(v, self.D[i]) for v in self.N[i][:self.n]]

    def check(self):
        assert self._row(self.m) == reduced_costs(self, self.phase2_cost, 0)
        phase = 2
        if len(self.N) == self.m + 2:
            phase = 1
            assert self._row(self.m + 1) == reduced_costs(self, [Fraction(0)] * self.n, 1)
        CheckedTableau.checks[phase] += 1

    def _pivot(self, *args):
        super()._pivot(*args)
        self.check()

    def run(self):
        self.check()
        return super().run()


def random_fractional_lp(rng):
    """A seeded LP with fractional data, negative lower bounds and rows
    around a point inside the bounds, so that most are feasible and both
    phases pivot, with bound flips."""
    def q(lo, hi):
        d = rng.randint(1, 6)
        return Fraction(rng.randint(lo * d, hi * d), d)
    n = rng.randint(1, 6)
    lower = [q(-2, 1) for _ in range(n)]
    upper = [None if rng.random() < 0.3 else lo + q(0, 3) for lo in lower]
    point = [lo + q(0, 2) if hi is None else lo + (hi - lo) * q(0, 1)
             for lo, hi in zip(lower, upper)]
    rows = []
    for _ in range(rng.randint(1, 7)):
        coef = {i: q(-4, 4) for i in rng.sample(range(n), rng.randint(1, n))}
        coef = {i: c for i, c in coef.items() if c}
        if coef:
            sense = rng.choice([">=", "<=", "=="])
            lhs = sum(c * point[i] for i, c in coef.items())
            slack = rng.choice([0, q(0, 2), q(-1, 1)])  # some rows cut the point off
            rows.append((coef, sense, {">=": lhs - slack, "<=": lhs + slack}.get(sense, lhs)))
    return prob(n, rows, lower=lower, upper=upper, objective=[q(-5, 5) for _ in range(n)],
                maximize=rng.random() < 0.5)


class TestCarriedReducedCosts:
    """The reduced-cost rows that every pivot eliminates stay equal to
    c - c_B B^-1 A recomputed from the constraint rows."""

    def test_seeded_random_lps(self, monkeypatch):
        CheckedTableau.checks = {1: 0, 2: 0}
        monkeypatch.setattr(simplex, "_Tableau", CheckedTableau)
        rng = random.Random(23)
        statuses = {solve_rational(random_fractional_lp(rng))[0] for _ in range(200)}
        assert statuses == {"optimal", "infeasible", "unbounded"}
        # the start of each run plus many pivots in each phase
        assert min(CheckedTableau.checks.values()) > 300, CheckedTableau.checks
