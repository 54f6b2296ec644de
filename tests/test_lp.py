import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from fdt import domtoip, generators, lp, simplex
from fdt.binary import ZERO_TOL, branch_lpc, prune
from fdt.experiments import _solve_relaxation
from fdt.generators import cv_support_graph, gen_vc
from fdt.graphs import make_graph
from fdt.model import ZEROONETWO, RowMatrix, SubtourPoint, is_zero, make_instance
from fdt.twoec import CutPool, branch_lpc_2ec, separate_subtour
from lp_rows import prob, row_triples


def triangle_problem(maximize=False):
    return prob(3, [({u: 1, v: 1}, ">=", 1) for u, v in [(0, 1), (1, 2), (0, 2)]],
                upper=[1, 1, 1], objective=[1, 1, 1], maximize=maximize)


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

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("cost", [math.inf, math.nan])
    def test_non_finite_objective_rejected(self, cost, mode):
        with pytest.raises(ValueError, match="non-finite"):
            lp.solve(prob(1, [], upper=[1], objective=[cost]), mode)


class TestInputChecks:
    """A malformed row block, a row entry outside the columns, or bounds or
    an objective of the wrong length, is refused before either backend
    sees the problem."""

    @pytest.fixture
    def no_backend(self, monkeypatch):
        def backend(problem):
            raise AssertionError("a backend ran")
        monkeypatch.setattr(lp, "_solve_float", backend)
        monkeypatch.setattr(lp.simplex, "solve_rational", backend)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_column_index_past_the_last(self, no_backend, mode):
        # row 1 used to land on row 0's slack column: "optimal", x0 = 6
        p = prob(1, [({0: 1}, ">=", 1), ({1: 1}, ">=", 5)], objective=[1])
        with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_negative_column_index(self, no_backend, mode):
        # used to come back infeasible
        p = prob(2, [({0: 1.0, -1: 1.0}, ">=", 1.0)], upper=[1, 1], objective=[1, 1])
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("rows, sense, message", [
        # a sense code outside LE, GE, EQ used to be solved as <=
        (RowMatrix([0, 2], [0, 1], [1, 1], [1]), [7], "unknown sense code 7"),
        (RowMatrix([0, 2], [0, 1], [1, 1], [1]), [lp.GE, lp.GE],
         "sense has 2 entries for 1 rows"),
        (RowMatrix([0, 2], [0, 1], [1, 1], [1]), [], "sense has 0 entries for 1 rows"),
        # used to be solved as a one-row LP
        (RowMatrix([0, 1, 2], [0, 1], [1, 1], [1]), [lp.GE], "start has 3 entries for 1 rows"),
        (RowMatrix([1, 2], [0, 1], [1, 1], [1]), [lp.GE], "start begins at 1, not 0"),
        (RowMatrix([0, 1], [0, 1], [1, 1], [1]), [lp.GE],
         "start ends at 1 for 2 index entries"),
        # used to raise numpy's "repeats may not contain negative values" in
        # float mode and come back infeasible in rational mode
        (RowMatrix([0, 2, 1, 2], [0, 1], [1, 1], [1, 1, 1]), [lp.GE] * 3,
         "row 1 ends before it starts"),
        # used to come back infeasible in rational mode and raise numpy's
        # "iterator too short" in float mode
        (RowMatrix([0, 2], [0, 1], [1], [1]), [lp.GE],
         "values has 1 entries for 2 index entries"),
    ])
    def test_malformed_rows(self, no_backend, rows, sense, message, mode):
        p = lp.LpProblem(2, rows, sense, upper=[1, 1], objective=[1, 1])
        with pytest.raises(ValueError, match=message):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("name", ["lower", "upper", "objective"])
    def test_wrong_length(self, name, mode):
        # upper=[3] on two columns used to reach HiGHS, which answered [3.0, 0.0]
        p = prob(2, [({0: 1, 1: 1}, "<=", 5)], **{"objective": [-1, 0], name: [3]})
        with pytest.raises(ValueError, match=f"{name} has 1 entries for 2 columns"):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("bound", [-math.inf, math.nan, math.inf, None])
    def test_non_finite_lower_bound(self, no_backend, bound, mode):
        # lower=[-inf] used to solve in float mode (x0 = -5.0) and raise
        # OverflowError in rational mode
        p = prob(1, [({0: 1}, ">=", -5)], lower=[bound], upper=[1], objective=[1])
        with pytest.raises(ValueError, match="lower bounds must be finite"):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("bound", [-math.inf, math.nan])
    def test_nan_or_minus_inf_upper_bound(self, no_backend, bound, mode):
        # upper=[-inf] used to raise OverflowError in both modes (float mode
        # fell back to the exact simplex), and NaN "cannot convert NaN"
        p = prob(1, [({0: 1}, ">=", Fraction(1, 2))], upper=[bound], objective=[1])
        with pytest.raises(ValueError, match="upper bounds must not be NaN or -inf"):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("upper", [0, Fraction(1, 3), -0.5])
    def test_upper_bound_below_lower_bound(self, no_backend, upper, mode):
        # the exact simplex raised this, and HiGHS answered "infeasible",
        # which sent float mode on to the exact simplex
        p = prob(2, [({0: 1}, ">=", 0)], lower=[0, Fraction(1, 2)], upper=[1, upper],
                 objective=[1, 1])
        with pytest.raises(ValueError, match="upper bound below lower bound on column 1"):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("bound", [math.inf, None])
    def test_unbounded_upper_bound(self, bound, mode):
        p = prob(1, [({0: 1}, ">=", Fraction(1, 2))], upper=[bound], objective=[1])
        out = lp.solve(p, mode)
        assert (out.status, out.solution) == (lp.OPTIMAL, [Fraction(1, 2)])

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_repeated_column_in_a_row(self, mode):
        # x0 + x0 >= 2 on x0 in [0, 1] used to come back infeasible: both
        # backends kept only the last entry
        p = lp.LpProblem(1, RowMatrix([0, 2], [0, 0], [1.0, 1.0], [2.0]), [lp.GE],
                         upper=[1], objective=[1])
        with pytest.raises(ValueError, match="row 0 has a repeated column"):
            lp.solve(p, mode)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_one_column_in_several_rows(self, mode):
        p = prob(2, [({0: 1.0}, ">=", 0.5), ({0: 1.0, 1: 1.0}, ">=", 1.0)], upper=[1, 1],
                 objective=[1, 2])
        out = lp.solve(p, mode)
        assert (out.status, out.solution) == (lp.OPTIMAL, [1, 0])


class TestBackendsAgree:
    def test_triangle_both_modes(self):
        r = lp.solve(triangle_problem(), mode="rational")
        f = lp.solve(triangle_problem(), mode="float")
        assert r.objective == Fraction(3, 2)
        assert f.objective == pytest.approx(1.5)
        assert [float(v) for v in r.solution] == pytest.approx(f.solution)

    def test_statuses_agree_on_infeasible(self):
        p = prob(1, [({0: 1}, ">=", 2)], upper=[1])
        assert lp.solve(p, mode="rational").status == lp.INFEASIBLE
        assert lp.solve(p, mode="float").status == lp.INFEASIBLE

    def test_statuses_agree_on_unbounded(self):
        p = prob(1, [], objective=[1], maximize=True)
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
        p = prob(4, [({j: 1 for j in range(4)}, "<=", 1)] * 3, objective=[1] * 4,
                 maximize=True)
        for mode in ("rational", "float"):
            out = lp.solve(p, mode=mode)
            assert float(out.objective) == pytest.approx(1.0)
            nonzero = [v for v in out.solution if float(v) > 1e-9]
            assert len(nonzero) == 1


def linprog_oracle(problem):
    """scipy.optimize.linprog(method="highs-ds") on the problem, built the
    way the float backend used to build it: dense rows, >= rows negated."""
    n = problem.num_cols
    c = np.array([float(v) for v in problem.objective])
    if problem.maximize:
        c = -c
    ub, b_ub, eq, b_eq = [], [], [], []
    for coef, sense, rhs in row_triples(problem):
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
    maximize = rng.random() < 0.5
    objective = [rng.choice([0, 1, 2, -1, Fraction(1, 3)]) for _ in range(n)]
    lower = [rng.choice([0, 0, 1]) for _ in range(n)]
    upper = [None if rng.random() < 0.3 else lo + rng.randint(0, 3) for lo in lower]
    point = [lo + rng.randint(0, 2) if hi is None else rng.randint(lo, hi)
             for lo, hi in zip(lower, upper)]
    rows = []
    for _ in range(rng.randint(1, 8)):
        coef = {i: Fraction(rng.randint(-3, 4), rng.randint(1, 3))
                for i in rng.sample(range(n), rng.randint(1, n))}
        sense = rng.choice([">=", ">=", "<=", "=="])
        lhs = sum(c * point[i] for i, c in coef.items())
        shift = rng.choice([0, 0, 1, 2]) if sense != "==" else 0
        rows.append((coef, sense, lhs - shift if sense == ">=" else lhs + shift))
    return prob(n, rows, lower, upper, objective, maximize)


def reference_branching_lp(x, ell, cap, rows, pinned, fixed, mode):
    """The branching LP as binary._branching_lp built it from row dicts
    before the CSR builder; rows is a list of Rows."""
    exact = mode == "rational"
    tol = 0 if exact else ZERO_TOL
    active = [i for i, v in enumerate(x) if v > tol]
    a = len(active)
    arity = cap + 1
    col = {i: k for k, i in enumerate(active)}
    lam = [arity * a + j for j in range(arity)]
    one = Fraction(1) if exact else 1.0
    triples = []
    for j in range(arity):
        off = j * a
        for row in rows:
            coef = {off + col[i]: c for i, c in zip(row.index, row.values) if i in col}
            coef[lam[j]] = -row.rhs
            triples.append((coef, ">=", 0))
        for i in active:
            triples.append(({off + col[i]: 1, lam[j]: -cap}, "<=", 0))
        for i in pinned:
            triples.append(({off + col[i]: 1, lam[j]: -1}, ">=", 0))
        for i, v in fixed.items():
            if i in col:
                triples.append(({off + col[i]: 1, lam[j]: -v}, "==", 0))
    for j in range(1, arity):
        triples.append(({j * a + col[ell]: 1, lam[j]: -j}, "==", 0))
    for i in active:
        triples.append(({j * a + col[i]: 1 for j in range(arity)}, "<=", x[i]))
    triples.append(({lam[j]: 1 for j in range(arity)}, "<=", 1))
    upper = [None] * (arity * a) + [one] * arity
    upper[col[ell]] = 0
    return prob(arity * a + arity, triples, upper=upper,
                objective=[0] * (arity * a) + [1] * arity, maximize=True)


def reference_prune_lp(nodes, x_star, supp, exact):
    """The pruning LP as binary.prune built it from row dicts, leaving out
    entries up to ZERO_TOL in float mode and only zeros in rational mode."""
    tol = 0 if exact else ZERO_TOL
    triples = [({j: x[i] for j, (x, _) in enumerate(nodes) if x[i] > tol}, "<=", x_star[i])
               for i in supp]
    return prob(len(nodes), triples, objective=[1] * len(nodes), maximize=True)


def reference_relaxation_lp(inst):
    """The relaxation LP as experiments._solve_relaxation built it from row
    dicts."""
    return prob(
        inst.num_vars,
        [(dict(zip(row.index, row.values)), ">=", row.rhs) for row in inst.rows],
        upper=[inst.var_upper] * inst.num_vars,
        objective=list(inst.objective) if inst.objective else [0] * inst.num_vars,
    )


def reference_cycle_lp(graph, cycle_idx, path_idx, c, cuts):
    """One round's LP of generators._solve_cycle_lp as it was built from row
    dicts, every cut's row again in every round."""
    col = {e: i for i, e in enumerate(cycle_idx)}
    path_set = set(path_idx)
    triples = []
    for side in cuts:
        crossing = graph.cut_edges(side)
        fixed = sum(1 for e in crossing if e in path_set)
        triples.append(({col[e]: 1 for e in crossing if e in col}, ">=", 2 - fixed))
    return prob(len(cycle_idx), triples, upper=[2] * len(cycle_idx), objective=c)


def built_lps(monkeypatch, build):
    """Copies of the LpProblems that build() hands to lp.solve, taken at
    each solve: a problem holds its builder's matrix, which the builder may
    append to afterwards."""
    problems = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve",
                        lambda p, mode: problems.append(copy.deepcopy(p)) or solve(p, mode))
    build()
    monkeypatch.setattr(lp, "solve", solve)
    return problems


def cv8():
    """8-cycle at value 1/2 with four crossing value-1 chords."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 3), (1, 5), (2, 6), (4, 7)]
    return SubtourPoint(make_graph(8, edges), (0.5,) * 8 + (1.0,) * 4)


def node_lps(monkeypatch, mode):
    """(built, reference) pairs: the branching LPs of a binary VC node, a
    {0,1,2} node with fixed rows and a 2EC node with pinned rows and a grown
    cut pool, the pruning LP of the VC node's children, the relaxations of
    the VC and {0,1,2} instances and, in float mode (the only mode gen_cv
    solves in), both rounds of a cycle LP that separates one cut."""
    exact = mode == "rational"
    num = Fraction if exact else float
    pairs = []

    vc = gen_vc(make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]))
    x = tuple(num(v) for v in (Fraction(1, 2),) * 5)
    results = []
    [built] = built_lps(monkeypatch, lambda: results.append(
        branch_lpc(vc, x, 1, integral_prefix=(), mode=mode)))
    pairs.append((built, reference_branching_lp(x, 1, 1, vc.rows, (), {}, mode)))

    # children of that node, plus one with a coordinate of 1e-12: under
    # ZERO_TOL, but not zero
    br = results[0]
    nodes = [(xh, g) for g, xh in zip(br.gammas, br.x_hats) if g]
    nodes.append((tuple(num(v) for v in (Fraction(1, 10**12), 1, 0, 1, 1)), num(0)))
    supp = list(range(5))
    [built] = built_lps(monkeypatch, lambda: prune(nodes, x, supp, mode=mode))
    pairs.append((built, reference_prune_lp(nodes, x, supp, exact)))

    # x0 is integral and on the prefix, so {0,1,2} branching fixes it;
    # row 1 has a non-dyadic coefficient and row 2 a zero right-hand side
    tri = make_instance(3, [({0: 1, 1: 1}, 1), ({0: 2, 2: Fraction(2, 3)}, 1),
                            ({1: 1, 2: -1}, 0)], kind=ZEROONETWO)
    x = tuple(num(v) for v in (1, Fraction(3, 2), Fraction(1, 2)))
    [built] = built_lps(monkeypatch, lambda: branch_lpc(tri, x, 1, integral_prefix=(0,),
                                                         mode=mode))
    pairs.append((built, reference_branching_lp(x, 1, 2, tri.rows, (), {0: x[0]}, mode)))

    pt = cv8()
    x = tuple(num(v) for v in pt.x)
    pool = CutPool(pt.graph)
    for e in range(2):
        branch_lpc_2ec(pt.graph, x, e, cut_pool=pool, mode=mode)
    assert len(pool) > 0
    rows = list(pool.rows)
    pinned = [e for e, v in enumerate(x) if v >= 1]
    assert pinned
    built = built_lps(monkeypatch, lambda: branch_lpc_2ec(pt.graph, x, 2, cut_pool=pool,
                                                          mode=mode))
    pairs.append((built[0], reference_branching_lp(x, 2, 2, rows, pinned, {}, mode)))

    for inst in (vc, tri):
        [built] = built_lps(monkeypatch, lambda: _solve_relaxation(inst, mode))
        pairs.append((built, reference_relaxation_lp(inst)))

    if not exact:
        graph, cycle_idx, path_idx = cv_support_graph(
            10, ((0, 2), (1, 5), (3, 7), (4, 8), (6, 9)))
        rng = random.Random(0)
        c = [rng.uniform(0.5, 1.5) for _ in cycle_idx]
        sides = []
        monkeypatch.setattr(generators, "separate_subtour",
                            lambda *args: sides.append(separate_subtour(*args)) or sides[-1])
        built = built_lps(monkeypatch, lambda: generators._solve_cycle_lp(
            graph, cycle_idx, path_idx, c))
        monkeypatch.setattr(generators, "separate_subtour", separate_subtour)
        assert len(built) == 2 and sides[0] is not None and sides[1] is None
        cuts = [frozenset([v]) for v in range(graph.num_vertices)]
        pairs.append((built[0], reference_cycle_lp(graph, cycle_idx, path_idx, c, cuts)))
        pairs.append((built[1], reference_cycle_lp(graph, cycle_idx, path_idx, c,
                                                   cuts + [sides[0]])))
    return pairs


def _values(seq, exact):
    """seq as exact numbers, or as floats with None read as inf."""
    if exact:
        assert not any(isinstance(v, float) for v in seq)
        return list(seq)
    return [math.inf if v is None else float(v) for v in seq]


class TestBlockBuilders:
    """The CSR builders make the LPs the row-dict builders made, row for row."""

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_same_lp_as_reference(self, monkeypatch, mode):
        exact = mode == "rational"
        for built, ref in node_lps(monkeypatch, mode):
            assert (built.num_cols, built.maximize) == (ref.num_cols, ref.maximize)
            for attr in ("objective", "lower", "upper"):
                assert (_values(getattr(built, attr), exact)
                        == _values(getattr(ref, attr), exact)), attr
            built_rows, ref_rows = row_triples(built), row_triples(ref)
            assert len(built_rows) == len(ref_rows)
            for (coef, sense, rhs), (ref_coef, ref_sense, ref_rhs) in zip(built_rows,
                                                                            ref_rows):
                assert sense == ref_sense
                assert _values([rhs], exact) == _values([ref_rhs], exact)
                assert set(coef) == set(ref_coef)
                assert (_values([coef[k] for k in ref_coef], exact)
                        == _values(ref_coef.values(), exact))


class TestInstanceRows:
    """The relaxation and helper LPs hold the instance's own RowMatrix, and
    no solve changes it."""

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_lps_hold_the_instance_rows(self, monkeypatch, mode):
        inst = make_instance(3, [({0: 1, 1: 1}, 1), ({1: 1, 2: -1}, 0, "<="),
                                 ({0: Fraction(1, 2), 2: 1}, Fraction(1, 3))])
        rows = inst.rows
        before = [list(rows.start), list(rows.index), list(rows.values), list(rows.rhs)]
        relaxation = domtoip.relaxation_lp(inst)
        assert relaxation.rows is rows
        assert lp.solve(relaxation, mode).status == lp.OPTIMAL
        solved = []
        solve = lp.solve
        monkeypatch.setattr(lp, "solve", lambda p, mode: solved.append(p) or solve(p, mode))
        assert domtoip._helper_by_lp(inst, [1, 1, 1], [], 0, mode).status == lp.OPTIMAL
        assert [p.rows for p in solved] == [rows] and solved[0].rows is rows
        assert [rows.start, rows.index, rows.values, rows.rhs] == before


def reference_helper_by_lp(inst, x_cur, finalized, target, mode):
    """domtoip._helper_by_lp as it was built from row dicts: zero-capped
    columns dropped from the LP and the solution expanded again."""
    exact = mode == "rational"
    zero = Fraction(0) if exact else 0.0
    lower = [zero] * inst.num_vars
    upper = list(x_cur)
    for j in finalized:
        lower[j] = x_cur[j]
    active = [j for j in range(inst.num_vars) if not is_zero(upper[j])]
    col_of = {j: k for k, j in enumerate(active)}
    triples = [({col_of[i]: c for i, c in zip(row.index, row.values) if i in col_of},
                ">=", row.rhs) for row in inst.rows]
    out = lp.solve(prob(len(active), triples, lower=[lower[j] for j in active],
                        upper=[upper[j] for j in active],
                        objective=[1 if j == target else 0 for j in active]), mode=mode)
    if out.status == lp.OPTIMAL and out.solution is not None:
        full = [zero] * inst.num_vars
        for j, k in col_of.items():
            full[j] = out.solution[k]
        out.solution = full
    return out


def mixed_sign_instance(rng):
    """Rows with >=, <= and == senses (at least one of the last two), all
    tight or slack at one 0/1 point, so the instance is feasible and not
    covering."""
    n = rng.randint(2, 6)
    z = [rng.randint(0, 1) for _ in range(n)]
    rows = []
    senses = [rng.choice(["<=", "=="])] + [rng.choice([">=", ">=", "<=", "=="])
                                           for _ in range(rng.randint(1, 4))]
    for sense in senses:
        coef = {i: rng.choice([1, 1, 2, -1, Fraction(1, 3), Fraction(-2, 3)])
                for i in rng.sample(range(n), rng.randint(1, n))}
        lhs = sum(c * z[i] for i, c in coef.items())
        slack = rng.choice([0, 0, 1]) if sense != "==" else 0
        rows.append((coef, lhs - slack if sense == ">=" else lhs + slack, sense))
    return make_instance(n, rows)


class TestHelperLpAllColumns:
    """The helper LP keeps every column, a zero-capped one fixed at 0; on
    instances with <= and == rows it has the status and optimal value of the
    LP without those columns, and dom_to_ip returns what it returned."""

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("seed", range(40))
    def test_same_status_value_and_dom_to_ip(self, monkeypatch, seed, mode):
        rng = random.Random(seed)
        inst = mixed_sign_instance(rng)
        assert not inst.covering
        num = Fraction if mode == "rational" else float
        for _ in range(4):
            x_cur = [num(rng.randint(0, 2)) for _ in range(inst.num_vars)]
            finalized = rng.sample(range(inst.num_vars), rng.randint(0, inst.num_vars - 1))
            target = rng.choice([j for j in range(inst.num_vars) if j not in finalized])
            out = domtoip._helper_by_lp(inst, x_cur, finalized, target, mode)
            ref = reference_helper_by_lp(inst, x_cur, finalized, target, mode)
            assert (out.status, out.objective) == (ref.status, ref.objective)

        points = [[rng.randint(0, 1) for _ in range(inst.num_vars)] for _ in range(4)]

        def results():
            found = []
            for point in points:
                try:
                    found.append(domtoip.dom_to_ip(inst, point, mode=mode))
                except domtoip.UnboundedGapOrInfeasible as exc:
                    found.append(str(exc))
            return found
        got = results()
        monkeypatch.setattr(domtoip, "_helper_by_lp", reference_helper_by_lp)
        assert got == results()


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

    def test_node_lps(self, monkeypatch):
        for built, _ in node_lps(monkeypatch, "float"):
            expected = linprog_oracle(built)
            assert expected.status == 0
            out = lp.solve(built, mode="float")
            assert out.mode == "float"
            assert out.solution == expected.x.tolist()

    def test_infeasible_is_classified_exactly(self):
        p = prob(2, [({0: 1, 1: 1}, ">=", 3)], upper=[1, 1])
        assert linprog_oracle(p).status == 2
        out = lp.solve(p, mode="float")
        assert (out.status, out.mode) == (lp.INFEASIBLE, "rational")

    def test_unbounded_is_classified_exactly(self):
        p = prob(2, [({0: 1, 1: -1}, ">=", 0)], objective=[1, -1], maximize=True)
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

    @pytest.mark.parametrize("answer", ["kInfeasible", "kUnbounded", "kModelError",
                                        "optimum outside tolerance"])
    def test_every_failure_solves_exactly_once(self, monkeypatch, answer):
        # each HiGHS failure reaches the exact backend by one route, once
        def highs_answer(*args):
            status = lp.highs.HighsModelStatus
            if answer == "optimum outside tolerance":
                return status.kOptimal, np.zeros(3), np.zeros(3)
            return getattr(status, answer), None, None
        calls = []
        exact = simplex.solve_rational
        monkeypatch.setattr(lp, "linprog", highs_answer)
        monkeypatch.setattr(lp.simplex, "solve_rational",
                            lambda problem: calls.append(problem) or exact(problem))
        out = lp.solve(triangle_problem(), mode="float")
        assert (out.mode, out.objective, len(calls)) == ("rational", Fraction(3, 2), 1)


def colwise_highs(problem):
    """HiGHS's answer to linprog's model of the problem, with the matrix
    passed column-wise, row indices ascending in each column: (model
    status, x, A x), x and A x None unless optimal."""
    rows = row_triples(problem)
    rows = [r for r in rows if r[1] != "=="] + [r for r in rows if r[1] == "=="]
    columns = [[] for _ in range(problem.num_cols)]
    row_lower, row_upper = [], []
    for k, (coef, sense, rhs) in enumerate(rows):
        sign = -1.0 if sense == ">=" else 1.0
        for j, v in coef.items():
            if v != 0:
                columns[j].append((k, sign * float(v)))
        row_upper.append(sign * float(rhs))
        row_lower.append(row_upper[-1] if sense == "==" else -math.inf)
    start, index, value = [0], [], []
    for entries in columns:
        index += [k for k, _ in entries]
        value += [v for _, v in entries]
        start.append(len(index))
    sign = -1.0 if problem.maximize else 1.0
    highs, solver = lp.highs, lp._HIGHS
    n = problem.num_cols
    if solver.passModel(
            n, len(rows), len(value), int(highs.MatrixFormat.kColwise),
            int(highs.ObjSense.kMinimize), 0.0,
            np.array([sign * float(v) for v in problem.objective]),
            np.array(problem.lower, dtype=float),
            np.array([math.inf if v is None else float(v) for v in problem.upper]),
            np.array(row_lower), np.array(row_upper), np.array(start, dtype=np.int32),
            np.array(index, dtype=np.int32), np.array(value),
            np.zeros(n, dtype=np.int32)) == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None, None
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return status, None, None
    solution = solver.getSolution()
    return status, np.array(solution.col_value), np.array(solution.row_value)


@st.composite
def small_lps(draw):
    """LPs of 1-5 columns and 0-6 rows: <=, >= and == rows in any order,
    each row's columns in any order with zero coefficients among them;
    either direction; finite, None and inf upper bounds.  Each row is
    tight at a point in the bounds, or off it by a small shift either way,
    so most LPs are feasible and some are not."""
    n = draw(st.integers(1, 5))
    num = st.integers(-3, 3)
    maximize = draw(st.booleans())
    objective = draw(st.lists(num, min_size=n, max_size=n))
    lower = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    upper = [draw(st.sampled_from([None, math.inf, lo, lo + 1, lo + 2])) for lo in lower]
    point = [lo + draw(st.integers(0, 2 if hi in (None, math.inf) else hi - lo))
             for lo, hi in zip(lower, upper)]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        columns = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
        coef = {j: draw(num) for j in columns}
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        shift = draw(st.integers(-1, 2)) * (-1 if sense == ">=" else 1)
        rows.append((coef, sense, sum(c * point[j] for j, c in coef.items()) + shift))
    return prob(n, rows, lower, upper, objective, maximize)


class TestRowwiseHandOff:
    """The float backend hands HiGHS its rows row-wise; HiGHS must answer as
    it does to the column-wise matrix linprog builds, bit for bit."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(small_lps())
    def test_same_answer_as_colwise(self, p):
        answers = []

        def recorded(*args):
            answers.append(lp_linprog(*args))
            return answers[-1]
        lp_linprog = lp.linprog
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "linprog", recorded)
            out = lp.solve(p, "float")
        [(status, x, activity)] = answers
        ref_status, ref_x, ref_activity = colwise_highs(p)
        assert status == ref_status
        if ref_x is None:
            assert x is None
        else:
            assert (x.tobytes(), activity.tobytes()) == (ref_x.tobytes(),
                                                        ref_activity.tobytes())
            assert out.mode == "float"
            assert out.solution == ref_x.tolist()


class TestReusedSolver:
    """lp.linprog keeps one HiGHS solver for the process; a solve must not
    depend on what that solver did before."""

    def test_sequence_matches_fresh_solver(self, monkeypatch):
        lp.solve(triangle_problem(), mode="float")  # loads HiGHS
        infeasible = prob(1, [({0: 1}, ">=", 2)], upper=[1])
        unbounded = prob(1, [], objective=[1], maximize=True)
        # a coefficient HiGHS refuses as too large: no optimum, so the
        # exact backend answers
        model_error = prob(2, [({0: 1e16, 1: 1}, ">=", 1)], upper=[1, 1], objective=[1, 1])
        expected = [
            (infeasible, lp.highs.HighsModelStatus.kInfeasible, lp.INFEASIBLE, "rational"),
            (unbounded, lp.highs.HighsModelStatus.kUnbounded, lp.UNBOUNDED, "rational"),
            (model_error, lp.highs.HighsModelStatus.kModelError, lp.OPTIMAL, "rational"),
            (triangle_problem(), lp.highs.HighsModelStatus.kOptimal, lp.OPTIMAL, "float"),
        ]
        linprog = lp.linprog
        shared = lp._HIGHS

        def solve(problem, solver):
            calls = []

            def recorded(*args):
                status, x, activity = linprog(*args)
                calls.append((status, None if x is None else x.tobytes()))
                return status, x, activity
            monkeypatch.setattr(lp, "_HIGHS", solver)
            monkeypatch.setattr(lp, "linprog", recorded)
            out = lp.solve(problem, mode="float")
            return calls, (out.status, out.mode, out.solution, out.objective)

        for problem, highs_status, status, mode in expected:
            fresh = lp.highs._Highs()
            fresh.passOptions(lp._OPTIONS)
            calls, out = solve(problem, shared)
            assert (calls, out) == solve(problem, fresh)
            assert [c[0] for c in calls] == [highs_status]
            assert out[:2] == (status, mode)
