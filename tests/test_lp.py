import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from fdt import lp, simplex


def triangle_problem(maximize=False):
    p = lp.LpProblem(num_cols=3, upper=[1, 1, 1], objective=[1, 1, 1],
                     maximize=maximize)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        p.add_row({u: 1, v: 1}, ">=", 1)
    return p


class TestModeSelection:
    def test_mode_is_required(self):
        with pytest.raises(TypeError):
            lp.solve(triangle_problem())

    def test_float_solution_is_python_floats(self):
        out = lp.solve(triangle_problem(), mode="float")
        assert out.mode == "float"
        assert all(type(v) is float for v in out.solution)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            lp.solve(triangle_problem(), mode="interior")


class TestBackendsAgree:
    def test_triangle_both_modes(self):
        r = lp.solve(triangle_problem(), mode="rational")
        f = lp.solve(triangle_problem(), mode="float")
        assert r.objective == Fraction(3, 2)
        assert f.objective == pytest.approx(1.5)
        assert [float(v) for v in r.solution] == pytest.approx(f.solution)

    def test_statuses_agree_on_infeasible(self):
        p = lp.LpProblem(num_cols=1, upper=[1])
        p.add_row({0: 1}, ">=", 2)
        assert lp.solve(p, mode="rational").status == lp.INFEASIBLE
        assert lp.solve(p, mode="float").status == lp.INFEASIBLE

    def test_statuses_agree_on_unbounded(self):
        p = lp.LpProblem(num_cols=1, objective=[1], maximize=True)
        assert lp.solve(p, mode="rational").status == lp.UNBOUNDED
        assert lp.solve(p, mode="float").status == lp.UNBOUNDED


class TestVertexProperty:
    def test_float_backend_returns_vertex(self):
        # dual simplex lands on a vertex: for the triangle that is the
        # all-halves point, every coordinate strictly inside its bounds
        out = lp.solve(triangle_problem(), mode="float")
        assert out.solution == pytest.approx([0.5, 0.5, 0.5])
        assert all(1e-7 < v < 1 - 1e-7 for v in out.solution)

    def test_degenerate_packing_vertex_is_sparse(self):
        # max sum theta, theta_j x^j <= x* with duplicated columns: a vertex
        # optimum concentrates mass instead of spreading it
        p = lp.LpProblem(num_cols=4, objective=[1] * 4, maximize=True)
        for i in range(3):
            p.add_row({j: 1 for j in range(4)}, "<=", 1)
        for mode in ("rational", "float"):
            out = lp.solve(p, mode=mode)
            assert float(out.objective) == pytest.approx(1.0)
            nonzero = [v for v in out.solution if float(v) > 1e-9]
            assert len(nonzero) == 1


class TestDuals:
    def test_maximization_dual_sign(self):
        p = lp.LpProblem(num_cols=1, upper=[None], objective=[1], maximize=True)
        p.add_row({0: 1}, "<=", 5)
        status, _, _, _, duals = simplex.solve_rational(p)
        assert status == lp.OPTIMAL
        assert duals[0] == 1


def linprog_oracle(problem):
    """scipy.optimize.linprog(method="highs-ds") on the problem, built the
    way the float backend used to build it: dense rows, >= rows negated."""
    n = problem.num_cols
    c = np.array([float(v) for v in problem.objective])
    if problem.maximize:
        c = -c
    ub, b_ub, eq, b_eq = [], [], [], []
    for coef, sense, rhs in problem.rows:
        dense = np.zeros(n)
        for i, v in coef.items():
            dense[i] = float(v)
        if sense == "==":
            eq.append(dense)
            b_eq.append(float(rhs))
        else:
            sign = 1.0 if sense == "<=" else -1.0
            ub.append(sign * dense)
            b_ub.append(sign * float(rhs))
    return scipy.optimize.linprog(
        c, A_ub=np.array(ub) if ub else None, b_ub=np.array(b_ub) if ub else None,
        A_eq=np.array(eq) if eq else None, b_eq=np.array(b_eq) if eq else None,
        bounds=[(float(lo), None if hi is None else float(hi))
                for lo, hi in zip(problem.lower, problem.upper)],
        method="highs-ds")


def random_lp(rng):
    """Mixed senses, equality rows, open upper bounds, either direction,
    explicit zero coefficients; rows tight at a point, so many are
    degenerate.  A few are unbounded."""
    n = rng.randint(2, 8)
    p = lp.LpProblem(num_cols=n, maximize=rng.random() < 0.5)
    p.objective = [rng.choice([0, 1, 2, -1, Fraction(1, 3)]) for _ in range(n)]
    p.lower = [rng.choice([0, 0, 1]) for _ in range(n)]
    p.upper = [None if rng.random() < 0.3 else lo + rng.randint(0, 3) for lo in p.lower]
    point = [lo + rng.randint(0, 2) if hi is None else rng.randint(lo, hi)
             for lo, hi in zip(p.lower, p.upper)]
    for _ in range(rng.randint(1, 8)):
        coef = {i: Fraction(rng.randint(-3, 4), rng.randint(1, 3))
                for i in rng.sample(range(n), rng.randint(1, n))}
        sense = rng.choice([">=", ">=", "<=", "=="])
        lhs = sum(c * point[i] for i, c in coef.items())
        shift = rng.choice([0, 0, 1, 2]) if sense != "==" else 0
        p.add_row(coef, sense, lhs - shift if sense == ">=" else lhs + shift)
    return p


class TestHighsMatchesLinprog:
    """The float backend calls HiGHS itself with linprog's model and options,
    so it must land on linprog's vertex, bit for bit."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_lp(self, seed):
        p = random_lp(random.Random(seed))
        expected = linprog_oracle(p)
        out = lp.solve(p, mode="float")
        if expected.status == 0:
            assert out.mode == "float"
            assert out.solution == expected.x.tolist()
        else:
            assert expected.status in (2, 3)
            assert out.mode == "rational"
            assert out.status in (lp.INFEASIBLE, lp.UNBOUNDED)

    def test_infeasible_is_classified_exactly(self):
        p = lp.LpProblem(num_cols=2, upper=[1, 1])
        p.add_row({0: 1, 1: 1}, ">=", 3)
        assert linprog_oracle(p).status == 2
        out = lp.solve(p, mode="float")
        assert (out.status, out.mode) == (lp.INFEASIBLE, "rational")

    def test_unbounded_is_classified_exactly(self):
        p = lp.LpProblem(num_cols=2, objective=[1, -1], maximize=True)
        p.add_row({0: 1, 1: -1}, ">=", 0)
        assert linprog_oracle(p).status == 3
        out = lp.solve(p, mode="float")
        assert (out.status, out.mode) == (lp.UNBOUNDED, "rational")

    def test_optimum_outside_tolerance_falls_back(self, monkeypatch):
        # an "optimal" x that breaks a row by more than linprog's tolerance
        # is refused, and the exact backend answers instead
        def bad_highs(*args):
            return (lp.highs.HighsModelStatus.kOptimal, np.zeros(3), np.zeros(3))
        monkeypatch.setattr(lp, "linprog", bad_highs)
        out = lp.solve(triangle_problem(), mode="float")
        assert (out.mode, out.objective) == ("rational", Fraction(3, 2))

    def test_other_status_falls_back(self, monkeypatch):
        monkeypatch.setattr(lp, "linprog", lambda *args: (
            lp.highs.HighsModelStatus.kIterationLimit, None, None))
        out = lp.solve(triangle_problem(), mode="float")
        assert (out.mode, out.objective) == ("rational", Fraction(3, 2))
