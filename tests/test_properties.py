"""Property tests: on random covering instances, binary and {0,1,2}, the
tree's certificates verify, exactly in rational mode, also at points
within float tolerances of a vertex, as do the rational 2EC tree's on
K4 and K5; on both problem types the verifier refuses each single
mutation of a certificate with its report line; dom_to_ip's helper
LP has the same optimum in closed form as by solving the LP; on random
instances with rows of every sense, the checks that read an instance's
RowMatrix agree with evaluating its drawn rows by hand; on random bounded
LPs the exact simplex agrees with HiGHS on the optimum and returns a
basic solution."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fdt import lp
from fdt.binary import fdt_tree
from fdt.domtoip import _covering_helper, _helper_by_lp
from fdt.experiments import _solve_relaxation
from fdt.graphs import make_graph
from fdt.model import (BINARY, ZEROONETWO, Certificate, SubtourPoint,
                       check_integer_feasible, is_integral, make_instance, num_str,
                       row_violations, verify_certificate, verify_certificate_2ec)
from fdt.simplex import solve_rational
from fdt.twoec import fdt_2ec
from lp_rows import prob, row_triples

E12 = Fraction(1, 10**12)  # far inside every float tolerance


def rationals(lo, hi):
    """Rationals in [lo, hi] with denominators up to 12."""
    return st.integers(1, 12).flatmap(
        lambda q: st.integers(lo * q, hi * q).map(lambda p: Fraction(p, q)))


@st.composite
def covering_instances(draw):
    """A covering instance A x >= b with A, b >= 0, every row satisfiable
    at the variables' upper bound, and a positive objective."""
    kind = draw(st.sampled_from([BINARY, ZEROONETWO]))
    cap = 1 if kind == BINARY else 2
    n = draw(st.integers(2, 7))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coef = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                                    min_size=2, max_size=n))
        rhs = draw(st.integers(1, cap * sum(coef.values())))
        rows.append((coef, rhs))
    objective = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return make_instance(n, rows, kind=kind, objective=objective)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(covering_instances())
def test_certificates_verify(inst):
    _, x = _solve_relaxation(inst, "rational")
    assume(not all(is_integral(v) for v in x))

    cert = fdt_tree(inst, x, mode="rational")
    assert isinstance(cert.factor, Fraction)
    ok, report = verify_certificate(cert, inst, tol=0)
    assert ok, report

    approx = fdt_tree(inst, [float(v) for v in x], mode="float")
    ok, report = verify_certificate(approx, inst)
    assert ok, report


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(covering_instances(), st.data())
def test_rational_certificates_verify_off_the_vertex_by_1e_12(inst, data):
    """x* is a relaxation vertex with each coordinate raised by k * 1e-12
    (still in P: every coefficient is >= 0).  Such values sit inside every
    float tolerance, and the rational tree compares them exactly."""
    _, x = _solve_relaxation(inst, "rational")
    moves = data.draw(st.lists(st.integers(0, 2), min_size=len(x), max_size=len(x)))
    x = [min(v + k * E12, inst.var_upper) for v, k in zip(x, moves)]
    assume(not all(is_integral(v) for v in x))
    cert = fdt_tree(inst, x, mode="rational")
    ok, report = verify_certificate(cert, inst, tol=0)
    assert ok, report


@settings(max_examples=32, deadline=None, derandomize=True)
@given(st.sampled_from([4, 5]), st.data())
def test_rational_2ec_certificates_verify_off_the_vertex_by_1e_12(n, data):
    """K_n at 2/(n-1) per edge, every cut at least 2, with each edge raised
    by k * 1e-12, plus parallel copies of some edges at k * 1e-12: the
    rational 2EC tree's certificate verifies at tol=0."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    raised = data.draw(st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
    x = [Fraction(2, n - 1) + k * E12 for k in raised]
    copies = data.draw(st.lists(st.tuples(st.sampled_from(edges), st.integers(1, 2)),
                                max_size=2))
    graph = make_graph(n, edges + [e for e, _ in copies])
    point = SubtourPoint(graph, tuple(x + [k * E12 for _, k in copies]))
    cert = fdt_2ec(point, mode="rational")
    ok, report = verify_certificate_2ec(cert, graph, tol=0)
    assert ok, report


@st.composite
def certified_problems(draw, kind):
    """(certificate, verify, infeasible point, its report line prefix): the
    rational tree's certificate on a covering instance at a fractional
    relaxation vertex, or on K4/K5 at 2/(n-1) per edge with edges raised by
    k * 1e-12; verify(cert) runs that problem's verifier at tol=0.  The
    infeasible point is a random integer point with one row's variables
    (one vertex's edges) set to 0: covering rows have rhs >= 1, and a
    vertex cut must be at least 2."""
    if kind == "covering":
        inst = draw(covering_instances())
        _, x = _solve_relaxation(inst, "rational")
        assume(not all(is_integral(v) for v in x))
        z = draw(st.lists(st.integers(0, inst.var_upper), min_size=len(x), max_size=len(x)))
        row = list(inst.rows)[draw(st.integers(0, len(inst.rows) - 1))]
        z = tuple(0 if i in row.index else v for i, v in enumerate(z))
        return (fdt_tree(inst, x, mode="rational"),
                lambda cert: verify_certificate(cert, inst, tol=0), z, "infeasible: row ")
    n = draw(st.sampled_from([4, 5]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    raised = draw(st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
    graph = make_graph(n, edges)
    point = SubtourPoint(graph, tuple(Fraction(2, n - 1) + k * E12 for k in raised))
    z = draw(st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
    cut = draw(st.integers(0, n - 1))
    z = tuple(0 if cut in e else m for e, m in zip(edges, z))
    return (fdt_2ec(point, mode="rational"),
            lambda cert: verify_certificate_2ec(cert, graph, tol=0), z,
            "is not 2-edge-connected")


@pytest.mark.parametrize("kind", ["covering", "2ec"])
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.data())
def test_verifier_refuses_each_single_mutation(kind, data):
    """The tree's certificate verifies; raising one weight by delta, scaling
    C below the tight ratio max_i (sum_j lambda_j z^j_i) / x*_i, replacing
    one solution by an infeasible integer point, or making one weight NaN
    is each refused with its report line."""
    cert, verify, bad_point, infeasible = data.draw(certified_problems(kind))
    ok, report = verify(cert)
    assert ok, report
    j = data.draw(st.integers(0, cert.k - 1))
    delta = Fraction(1, 10 ** data.draw(st.integers(1, 12)))
    comb = cert.combination()
    tight = max(c / x for c, x in zip(comb, cert.base_point) if x)

    def refused(line, **change):
        ok, report = verify(replace(cert, **change))
        assert not ok and any(r.startswith(line) for r in report), report

    def with_weight(w):
        return cert.weights[:j] + (w,) + cert.weights[j + 1:]

    refused("weights: sum is ", weights=with_weight(cert.weights[j] + delta))
    refused("domination fails at coordinate ", factor=tight * (1 - delta))
    refused(f"solution {j} {infeasible}",
            solutions=cert.solutions[:j] + (bad_point,) + cert.solutions[j + 1:])
    refused(f"weights: weight {j} = nan is not a finite number", weights=with_weight(math.nan))


@st.composite
def helper_lp_draws(draw):
    """A covering instance with int or Fraction coefficients >= 0 and
    right-hand sides that may be zero or negative, and a helper LP on it:
    integral caps (some above the variables' bound), a finalized set and a
    target.  Many draws are infeasible."""
    kind = draw(st.sampled_from([BINARY, ZEROONETWO]))
    cap = 1 if kind == BINARY else 2
    n = draw(st.integers(1, 6))
    numbers = st.one_of(st.integers(0, 4), rationals(0, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coef = draw(st.dictionaries(st.integers(0, n - 1), numbers, min_size=1, max_size=n))
        rhs = draw(st.one_of(st.integers(-2, 6), rationals(-2, 6)))
        rows.append((coef, rhs))
    inst = make_instance(n, rows, kind=kind)
    caps = draw(st.lists(st.integers(0, cap + 1), min_size=n, max_size=n))
    finalized = draw(st.lists(st.integers(0, n - 1), unique=True))
    target = draw(st.integers(0, n - 1))
    return inst, caps, finalized, target


@settings(max_examples=300, deadline=None, derandomize=True)
@given(helper_lp_draws(), st.sampled_from(["rational", "float"]))
def test_helper_closed_form_matches_lp(draw, mode):
    inst, caps, finalized, target = draw
    assert inst.covering
    x_cur = [Fraction(v) if mode == "rational" else float(v) for v in caps]
    closed = _covering_helper(inst, x_cur, finalized, target)
    solved = _helper_by_lp(inst, x_cur, finalized, target, mode)
    assert closed.status == solved.status and closed.mode == "rational"
    if closed.status != lp.OPTIMAL:
        return
    tol = 0 if mode == "rational" else 1e-9
    assert isinstance(closed.objective, Fraction)
    assert abs(closed.objective - solved.objective) <= tol
    assert closed.solution[target] == closed.objective
    assert all(row.value(closed.solution) - row.rhs >= -tol for row in inst.rows)


@st.composite
def mixed_instances(draw):
    """An instance with >=, <= and == rows whose coefficients and
    right-hand sides are ints or Fractions of either sign, the drawn
    (coef, rhs, sense) triples it was made from, an integer point in its
    box and a rational one."""
    kind = draw(st.sampled_from([BINARY, ZEROONETWO]))
    cap = 1 if kind == BINARY else 2
    n = draw(st.integers(1, 5))
    numbers = st.one_of(st.integers(-3, 3), rationals(-3, 3))
    rows = [(draw(st.dictionaries(st.integers(0, n - 1), numbers, max_size=n)),
             draw(numbers), draw(st.sampled_from([">=", "<=", "=="])))
            for _ in range(draw(st.integers(0, 5)))]
    z = draw(st.lists(st.integers(0, cap), min_size=n, max_size=n))
    x = draw(st.lists(rationals(0, cap), min_size=n, max_size=n))
    return make_instance(n, rows, kind=kind), rows, z, x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mixed_instances())
def test_row_matrix_readers_match_row_dicts(draw):
    """covering, the integer check and the premise check read the
    instance's RowMatrix; each agrees with evaluating the drawn rows by
    hand, a <= row negated and an == row as the >= row and its negation."""
    inst, triples, z, x = draw
    rows = []  # (coef, rhs) of each >= row, in make_instance's order
    for coef, rhs, sense in triples:
        if sense in (">=", "=="):
            rows.append((coef, rhs))
        if sense in ("<=", "=="):
            rows.append(({i: -c for i, c in coef.items()}, -rhs))

    def value(coef, point):
        return sum(c * point[i] for i, c in coef.items())

    assert inst.covering == all(c >= 0 for coef, _ in rows for c in coef.values())
    ok, _ = check_integer_feasible(z, inst)
    assert ok == all(value(coef, z) >= rhs for coef, rhs in rows)
    missed = [(k, value(coef, x), rhs) for k, (coef, rhs) in enumerate(rows)
              if value(coef, x) < rhs]
    assert row_violations(x, inst.rows, 0) == missed
    cert = Certificate(factor=1, weights=(Fraction(1),), solutions=(tuple(z),),
                       base_point=tuple(x))
    _, report = verify_certificate(cert, inst, tol=0)
    assert [line for line in report if line.startswith("base point violates")] == [
        f"base point violates row {k}: {num_str(v)} < {num_str(r)}" for k, v, r in missed]


@st.composite
def bounded_lps(draw):
    """An LP with a finite box on every column and rows that are tight or
    slack at a point of the box, so that most draws are feasible; every
    number has a denominator of at most 12."""
    n = draw(st.integers(1, 6))
    maximize = draw(st.booleans())
    objective = draw(st.lists(rationals(-5, 5), min_size=n, max_size=n))
    lower = draw(st.lists(rationals(-2, 1), min_size=n, max_size=n))
    upper = [lo + w for lo, w in zip(
        lower, draw(st.lists(rationals(0, 3), min_size=n, max_size=n)))]
    point = [lo + (hi - lo) * t for lo, hi, t in zip(
        lower, upper, draw(st.lists(rationals(0, 1), min_size=n, max_size=n)))]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coef = draw(st.dictionaries(st.integers(0, n - 1), rationals(-4, 4),
                                    min_size=1, max_size=n))
        coef = {i: c for i, c in coef.items() if c}
        if not coef:
            continue
        sense = draw(st.sampled_from([">=", "<=", "=="]))
        lhs = sum(c * point[i] for i, c in coef.items())
        slack = 0 if sense == "==" else draw(rationals(0, 2))
        rows.append((coef, sense, lhs - slack if sense == ">=" else lhs + slack))
    return prob(n, rows, lower, upper, objective, maximize)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bounded_lps())
def test_exact_optimum_matches_highs(problem):
    out = lp.solve(problem, "float")
    assume(out.mode == "float")  # HiGHS reported an optimum (no exact fallback)
    status, _, obj = solve_rational(problem)
    assert status == "optimal"
    assert abs(float(obj) - out.objective) <= 1e-6 * (1 + abs(float(obj)))


def _rank(vectors):
    """The rank of a list of equal-length Fraction vectors, exactly."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bounded_lps())
def test_exact_optimum_is_basic(problem):
    """The columns strictly inside their bounds, together with the slacks of
    the rows not tight at x, are linearly independent: x is a vertex, which
    the pruning LP relies on."""
    status, x, _ = solve_rational(problem)
    assume(status == "optimal")
    rows = row_triples(problem)
    m = len(rows)
    vectors = [[Fraction(coef.get(j, 0)) for coef, _, _ in rows]
               for j in range(problem.num_cols)
               if problem.lower[j] < x[j] < problem.upper[j]]
    for k, (coef, _, rhs) in enumerate(rows):
        if sum(Fraction(c) * x[i] for i, c in coef.items()) != rhs:
            vectors.append([Fraction(int(i == k)) for i in range(m)])
    assert _rank(vectors) == len(vectors)
