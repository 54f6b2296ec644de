"""Golden outputs of the exact simplex and of the rational tree.

Bland's rule fixes the pivot sequence, so the exact simplex must return the
same vertex, basis and duals however its arithmetic is organised, and the
rational tree built on it must return the same certificates.  The expected
values in golden_rational.json were recorded from the dense-pivot simplex
that preceded the sparse one.  Regenerate them (``PYTHONPATH=src python tests/test_golden.py``)
only when a change of pivot rule is intended.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from fdt import lp
from fdt.binary import fdt_tree
from fdt.experiments import _solve_relaxation
from fdt.generators import gen_vc
from fdt.graphs import make_graph
from fdt.model import certificate_to_dict
from fdt.simplex import solve_rational
from test_simplex import prob

GOLDEN = Path(__file__).with_name("golden_rational.json")


def _random_lp(rng):
    n = rng.randint(2, 6)
    p = lp.LpProblem(num_cols=n, maximize=rng.random() < 0.5)
    p.objective = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    p.lower = [Fraction(rng.randint(0, 1)) for _ in range(n)]
    p.upper = [None if rng.random() < 0.3 else Fraction(rng.randint(2, 4))
               for _ in range(n)]
    # rows are tight or slack at a point inside the bounds, so most of these
    # problems are feasible and many are degenerate
    point = [lo + rng.randint(0, 2) if hi is None else rng.randint(int(lo), int(hi))
             for lo, hi in zip(p.lower, p.upper)]
    for _ in range(rng.randint(2, 6)):
        coef = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for i in rng.sample(range(n), rng.randint(1, n))}
        coef = {i: c for i, c in coef.items() if c}
        if coef:
            sense = rng.choice([">=", "<=", "=="])
            lhs = sum(c * point[i] for i, c in coef.items())
            slack = rng.choice([0, 0, 1, 2])
            p.add_row(coef, sense, {">=": lhs - slack, "<=": lhs + slack}.get(sense, lhs))
    return p


def golden_problems():
    """(name, problem) pairs: hand-made corner cases, then seeded random LPs."""
    tri = [({0: 1, 1: 1}, ">=", 1), ({1: 1, 2: 1}, ">=", 1), ({0: 1, 2: 1}, ">=", 1)]
    cases = [
        # degenerate: the half-point of the triangle, and a doubly tight vertex
        ("triangle-cover", prob(3, tri, upper=[1, 1, 1], objective=[1, 1, 1])),
        ("degenerate-origin", prob(
            3, [({0: 1, 1: -1}, ">=", 0), ({1: 1, 2: -1}, ">=", 0),
                ({0: 1, 2: -1}, ">=", 0), ({0: 1, 1: 1, 2: 1}, "<=", 3)],
            upper=[1, 1, 1], objective=[-1, -1, -1])),
        # bound flips: the entering column reaches its own upper bound first
        ("box-flip", prob(3, [({0: 1, 1: 1, 2: 1}, "<=", 10)], upper=[2, 3, 4],
                           objective=[1, 1, 1], maximize=True)),
        ("flip-then-pivot", prob(
            2, [({0: 1, 1: 1}, "<=", 3)], upper=[2, 2], objective=[2, 1],
            maximize=True)),
        ("flip-down", prob(
            2, [({0: 1, 1: 1}, ">=", 1), ({0: 1, 1: -1}, "<=", 1)],
            lower=[1, 0], upper=[3, 2], objective=[-1, 2])),
        # equality rows
        ("equality-row", prob(2, [({0: 1, 1: 2}, "==", 4)], upper=[3, 3],
                               objective=[1, 1])),
        ("equality-mixed", prob(
            4, [({0: 1, 1: 1, 2: 1, 3: 1}, "==", 2), ({0: 1, 2: -1}, "==", 0),
                ({1: 2, 3: 1}, ">=", 1)],
            upper=[1, 1, 1, 1], objective=[3, 1, 2, 1])),
        # redundant rows: phase 1 leaves artificials that cannot be driven out
        ("redundant-equalities", prob(
            1, [({0: 1}, "==", 1), ({0: 2}, "==", 2), ({0: 3}, "==", 3)],
            objective=[1])),
        ("redundant-sum", prob(
            3, [({0: 1, 1: 1}, "==", 1), ({1: 1, 2: 1}, "==", 1),
                ({0: 1, 1: 2, 2: 1}, "==", 2)],
            upper=[1, 1, 1], objective=[1, 2, 3])),
        ("zero-rhs-equality", prob(
            3, [({0: 1, 1: 1}, "==", 0), ({1: 1, 2: 1}, "==", 1)],
            upper=[2, 2, 2], objective=[1, 1, 1])),
        ("fixed-column", prob(2, [({0: 1, 1: 1}, ">=", 1)], lower=[1, 0],
                               upper=[1, None], objective=[0, 1])),
        ("nonzero-lower", prob(
            2, [({0: 1, 1: 1}, ">=", 1)], lower=[Fraction(1, 4), Fraction(1, 4)],
            objective=[1, 3])),
        ("infeasible", prob(1, [({0: 1}, ">=", 2)], upper=[1])),
        ("infeasible-equalities", prob(1, [({0: 1}, "==", 1), ({0: 1}, "==", 2)])),
        ("unbounded", prob(2, [({0: 1, 1: -1}, "<=", 1)], objective=[1, 1],
                            maximize=True)),
        ("empty-objective", prob(2, [({0: 1, 1: 1}, ">=", 1)])),
    ]
    rng = random.Random(2020)
    for k in range(16):
        cases.append((f"random-{k}", _random_lp(rng)))
    return cases


def golden_graphs():
    """(name, graph) pairs for the rational tree."""
    def atlas(i):
        g = nx.graph_atlas(i)
        return make_graph(g.number_of_nodes(), list(g.edges()))
    return [
        ("triangle", make_graph(3, [(0, 1), (1, 2), (0, 2)])),
        ("C5", make_graph(5, [(i, (i + 1) % 5) for i in range(5)])),
        ("K4", make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])),
        ("atlas-43", atlas(43)),
        ("atlas-50", atlas(50)),
    ]


def _fmt(v):
    return None if v is None else str(v)


def simplex_record(problem):
    status, x, obj, basis, duals = solve_rational(problem)
    return {
        "status": status,
        "x": None if x is None else [_fmt(v) for v in x],
        "obj": _fmt(obj),
        "basis": basis,
        "duals": None if duals is None else [_fmt(y) for y in duals],
    }


def certificate_record(graph):
    inst = gen_vc(graph)
    _, x = _solve_relaxation(inst, "rational")
    return certificate_to_dict(fdt_tree(inst, x, mode="rational"))


def _load():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,problem", golden_problems(),
                         ids=[name for name, _ in golden_problems()])
def test_simplex_matches_golden(name, problem):
    assert simplex_record(problem) == _load()["simplex"][name]


@pytest.mark.parametrize("name,graph", golden_graphs(),
                         ids=[name for name, _ in golden_graphs()])
def test_rational_tree_matches_golden(name, graph):
    assert certificate_record(graph) == _load()["certificates"][name]


if __name__ == "__main__":
    data = {
        "simplex": {name: simplex_record(p) for name, p in golden_problems()},
        "certificates": {name: certificate_record(g) for name, g in golden_graphs()},
    }
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
