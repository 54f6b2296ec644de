"""Golden outputs of the exact simplex, the rational tree and the float 2EC tree.

Bland's rule and the starting basis fix the pivot sequence, so the exact
simplex must return the same status, vertex and objective however its
arithmetic is organised, and the rational tree built on it must return the
same certificates.  The expected values in golden_rational.json were recorded
from the dense-pivot simplex that preceded the sparse one, and regenerated
when the simplex moved from an all-artificial start to the slack basis.
From the new start Bland's rule ends at another optimal basis of some
degenerate LPs: degenerate-origin, fixed-column and random-14 changed their
basis and duals (status, vertex and objective stayed), and the tree's
certificate on atlas-43 kept C = 4/3 with other solutions.

golden_float_2ec.json pins the float 2EC tree on cv8() and four seeded
cycle points.  Its certificates depend on which optimal vertex HiGHS returns
for each degenerate branching LP and on which side the min-cut separator
reports, so any change to the float LP model, the solver options or the cut
order that moves a vertex shows up here.  It was recorded through
scipy.optimize.linprog and networkx.stoer_wagner, before fdt called HiGHS and
ran Stoer-Wagner itself.

golden_simplex.json pins the exact simplex on LPs whose data is further
from the integers: seeded random LPs with coefficients, right-hand sides and
bounds of denominator up to 12, negative entries and negative lower bounds,
and the branching and pruning LPs that the rational tree solves on atlas
graph 45 (stored with the problems, so each one is checked on its own).  It
was recorded from the Fraction-tableau simplex that preceded the integer-row
one, and regenerated with the slack-basis start: wide-9 and wide-10 changed
their basis and duals; six of the atlas-45 branching LPs ended at another
optimal basis, three of them at another vertex, so four of the pruning LPs
after them are other LPs.  Every stored LP kept its status and objective.
test_pivot_counts pins the number of pivots, which the start cut by more
than half.  The simplex no longer returns a basis or duals; their keys were
dropped from golden_simplex.json and from golden_rational.json's simplex
records.

Regenerate the files (``PYTHONPATH=src python tests/test_golden.py``) only
when a change of pivot rule, LP model or cut order is intended.
"""

import json
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from fdt import binary, lp, simplex
from fdt.binary import fdt_tree
from fdt.experiments import _solve_relaxation
from fdt.generators import gen_cv, gen_vc
from fdt.graphs import make_graph
from fdt.model import certificate_to_dict
from fdt.simplex import solve_rational
from fdt.twoec import fdt_2ec
from test_simplex import CheckedTableau, prob
from test_twoec import cv8

GOLDEN = Path(__file__).with_name("golden_rational.json")
GOLDEN_2EC = Path(__file__).with_name("golden_float_2ec.json")
GOLDEN_LPS = Path(__file__).with_name("golden_simplex.json")

# _Tableau._pivot calls over the 11 atlas-45 LPs of golden_simplex.json, and
# over the rational tree on golden_graphs() (relaxations excluded)
ATLAS_PIVOTS = 103
TREE_PIVOTS = 215


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


def _rational(rng, lo, hi):
    """A random rational in [lo, hi] with denominator up to 12."""
    q = rng.randint(1, 12)
    return Fraction(rng.randint(lo * q, hi * q), q)


def _wide_lp(rng):
    n = rng.randint(2, 7)
    p = lp.LpProblem(num_cols=n, maximize=rng.random() < 0.5)
    p.objective = [_rational(rng, -5, 5) for _ in range(n)]
    p.lower = [_rational(rng, -2, 1) for _ in range(n)]
    p.upper = [None if rng.random() < 0.3 else lo + _rational(rng, 0, 3)
               for lo in p.lower]
    point = [lo + (_rational(rng, 0, 2) if hi is None else (hi - lo) * _rational(rng, 0, 1))
             for lo, hi in zip(p.lower, p.upper)]
    for _ in range(rng.randint(2, 7)):
        coef = {i: _rational(rng, -4, 4) for i in rng.sample(range(n), rng.randint(1, n))}
        coef = {i: c for i, c in coef.items() if c}
        if coef:
            sense = rng.choice([">=", "<=", "=="])
            lhs = sum(c * point[i] for i, c in coef.items())
            slack = rng.choice([0, 0, _rational(rng, 0, 2)])
            p.add_row(coef, sense, {">=": lhs - slack, "<=": lhs + slack}.get(sense, lhs))
    return p


def wide_problems():
    """(name, problem) pairs: seeded random LPs with denominators up to 12."""
    rng = random.Random(12)
    return [(f"wide-{k}", _wide_lp(rng)) for k in range(24)]


def atlas_problems():
    """(name, problem) pairs: every branching and pruning LP the rational
    tree solves on atlas graph 45, in solve order."""
    graph = nx.graph_atlas(45)
    inst = gen_vc(make_graph(graph.number_of_nodes(), list(graph.edges())))
    _, x = _solve_relaxation(inst, "rational")
    solved = []

    def solve(problem, mode):
        role = "branch" if sys._getframe(1).f_code.co_name == "_branching_lp" else "prune"
        solved.append((f"atlas-45-{len(solved)}-{role}", problem))
        return lp.solve(problem, mode)

    # a stand-in for the lp module as fdt.binary sees it, so that only the
    # tree's own LPs are recorded and dom_to_ip's helper LPs are not
    recorder = types.SimpleNamespace(**vars(lp))
    recorder.solve = solve
    real, binary.lp = binary.lp, recorder
    try:
        fdt_tree(inst, x, mode="rational")
    finally:
        binary.lp = real
    return solved


def problem_to_dict(p):
    return {
        "num_cols": p.num_cols,
        "maximize": p.maximize,
        "objective": [str(v) for v in p.objective],
        "lower": [str(v) for v in p.lower],
        "upper": [_fmt(v) for v in p.upper],
        "rows": [[{str(i): str(c) for i, c in coef.items()}, sense, str(rhs)]
                 for coef, sense, rhs in p.rows],
    }


def problem_from_dict(d):
    p = lp.LpProblem(
        num_cols=d["num_cols"], maximize=d["maximize"],
        objective=[Fraction(v) for v in d["objective"]],
        lower=[Fraction(v) for v in d["lower"]],
        upper=[None if v is None else Fraction(v) for v in d["upper"]])
    for coef, sense, rhs in d["rows"]:
        p.add_row({int(i): Fraction(c) for i, c in coef.items()}, sense, Fraction(rhs))
    return p


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


def golden_points():
    """(name, point) pairs for the float 2EC tree: cv8 and four seeded
    gen_cv points (the seed is the first that gives a fractional point)."""
    cases = [
        (10, ((0, 2), (1, 5), (3, 7), (4, 8), (6, 9)), 1),
        (10, ((0, 3), (1, 6), (2, 7), (4, 8), (5, 9)), 0),
        (12, ((0, 2), (1, 4), (3, 8), (5, 9), (6, 10), (7, 11)), 0),
        (12, ((0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11)), 0),
    ]
    return [("cv8", cv8())] + [
        (f"cv{k}-{i}", gen_cv(k, matching, seed=seed).point)
        for i, (k, matching, seed) in enumerate(cases)]


def _fmt(v):
    return None if v is None else str(v)


def simplex_record(problem):
    status, x, obj = solve_rational(problem)
    return {
        "status": status,
        "x": None if x is None else [_fmt(v) for v in x],
        "obj": _fmt(obj),
    }


def certificate_record(graph):
    inst = gen_vc(graph)
    _, x = _solve_relaxation(inst, "rational")
    return certificate_to_dict(fdt_tree(inst, x, mode="rational"))


def float_2ec_record(point):
    cert = fdt_2ec(point, mode="float")
    return {
        "factor": round(cert.factor, 9),
        "solutions": [[int(m) for m in z] for z in cert.solutions],
        "weights": [round(w, 9) for w in cert.weights],
    }


def _load(path=GOLDEN):
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,problem", golden_problems(),
                         ids=[name for name, _ in golden_problems()])
def test_simplex_matches_golden(name, problem):
    assert simplex_record(problem) == _load()["simplex"][name]


@pytest.mark.parametrize("name,problem", wide_problems(),
                         ids=[name for name, _ in wide_problems()])
def test_wide_simplex_matches_golden(name, problem):
    assert simplex_record(problem) == _load(GOLDEN_LPS)["wide"][name]


def test_atlas_lps_match_golden():
    atlas = _load(GOLDEN_LPS)["atlas"]
    assert len(atlas) == 11
    for name, case in atlas.items():
        assert simplex_record(problem_from_dict(case["problem"])) == case["result"], name


def test_carried_reduced_costs_on_golden_lps(monkeypatch):
    """On every LP of golden_simplex.json, each reduced-cost row equals its
    recomputation at the start of each phase and after every pivot."""
    CheckedTableau.checks = {1: 0, 2: 0}
    monkeypatch.setattr(simplex, "_Tableau", CheckedTableau)
    lps = _load(GOLDEN_LPS)
    for name, problem in wide_problems():
        assert simplex_record(problem) == lps["wide"][name], name
    for name, case in lps["atlas"].items():
        assert simplex_record(problem_from_dict(case["problem"])) == case["result"], name
    assert min(CheckedTableau.checks.values()) > 100, CheckedTableau.checks


@pytest.mark.parametrize("name,graph", golden_graphs(),
                         ids=[name for name, _ in golden_graphs()])
def test_rational_tree_matches_golden(name, graph):
    assert certificate_record(graph) == _load()["certificates"][name]


def test_pivot_counts(monkeypatch):
    """The exact simplex's pivots on the atlas-45 LPs and on the rational
    tree over the golden graphs, so that a change to the starting basis
    or the pivot rule shows up here."""
    pivots = [0]
    real = simplex._Tableau._pivot

    def counting(self, *args):
        pivots[0] += 1
        return real(self, *args)

    atlas = [problem_from_dict(case["problem"]) for case in _load(GOLDEN_LPS)["atlas"].values()]
    starts = []
    for _, graph in golden_graphs():
        inst = gen_vc(graph)
        starts.append((inst, _solve_relaxation(inst, "rational")[1]))
    monkeypatch.setattr(simplex._Tableau, "_pivot", counting)
    for problem in atlas:
        solve_rational(problem)
    assert pivots[0] == ATLAS_PIVOTS
    pivots[0] = 0
    for inst, x in starts:
        fdt_tree(inst, x, mode="rational")
    assert pivots[0] == TREE_PIVOTS


@pytest.mark.parametrize("name,point", golden_points(),
                         ids=[name for name, _ in golden_points()])
def test_float_2ec_tree_matches_golden(name, point):
    assert float_2ec_record(point) == _load(GOLDEN_2EC)[name]


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _write(GOLDEN, {
        "simplex": {name: simplex_record(p) for name, p in golden_problems()},
        "certificates": {name: certificate_record(g) for name, g in golden_graphs()},
    })
    _write(GOLDEN_2EC, {name: float_2ec_record(p) for name, p in golden_points()})
    _write(GOLDEN_LPS, {
        "wide": {name: simplex_record(p) for name, p in wide_problems()},
        "atlas": {name: {"problem": problem_to_dict(p), "result": simplex_record(p)}
                  for name, p in atlas_problems()},
    })
