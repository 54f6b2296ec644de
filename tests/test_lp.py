from fractions import Fraction

import pytest

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
