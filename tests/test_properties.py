"""Property tests: on random covering instances, binary and {0,1,2}, the
tree's certificates verify, exactly in rational mode."""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fdt.binary import fdt_tree
from fdt.experiments import _solve_relaxation
from fdt.model import BINARY, ZEROONETWO, is_integral, make_instance, verify_certificate


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
