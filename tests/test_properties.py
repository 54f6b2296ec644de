"""Property tests: on random covering instances, binary and {0,1,2}, the
tree's certificates verify, exactly in rational mode; on random bounded LPs
the exact simplex agrees with HiGHS on the optimum."""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fdt import lp
from fdt.binary import fdt_tree
from fdt.experiments import _solve_relaxation
from fdt.model import BINARY, ZEROONETWO, is_integral, make_instance, verify_certificate
from fdt.simplex import solve_rational


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


@st.composite
def bounded_lps(draw):
    """An LP with a finite box on every column and rows that are tight or
    slack at a point of the box, so that most draws are feasible; every
    number has a denominator of at most 12."""
    n = draw(st.integers(1, 6))
    problem = lp.LpProblem(num_cols=n, maximize=draw(st.booleans()))
    problem.objective = draw(st.lists(rationals(-5, 5), min_size=n, max_size=n))
    problem.lower = draw(st.lists(rationals(-2, 1), min_size=n, max_size=n))
    problem.upper = [lo + w for lo, w in zip(
        problem.lower, draw(st.lists(rationals(0, 3), min_size=n, max_size=n)))]
    point = [lo + (hi - lo) * t for lo, hi, t in zip(
        problem.lower, problem.upper, draw(st.lists(rationals(0, 1), min_size=n, max_size=n)))]
    for _ in range(draw(st.integers(1, 6))):
        coef = draw(st.dictionaries(st.integers(0, n - 1), rationals(-4, 4),
                                    min_size=1, max_size=n))
        coef = {i: c for i, c in coef.items() if c}
        if not coef:
            continue
        sense = draw(st.sampled_from([">=", "<=", "=="]))
        lhs = sum(c * point[i] for i, c in coef.items())
        slack = 0 if sense == "==" else draw(rationals(0, 2))
        problem.add_row(coef, sense, lhs - slack if sense == ">=" else lhs + slack)
    return problem


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bounded_lps())
def test_exact_optimum_matches_highs(problem):
    out = lp.solve(problem, "float")
    assume(out.mode == "float")  # HiGHS reported an optimum (no exact fallback)
    status, _, obj, _, _ = solve_rational(problem)
    assert status == "optimal"
    assert abs(float(obj) - out.objective) <= 1e-6 * (1 + abs(float(obj)))
