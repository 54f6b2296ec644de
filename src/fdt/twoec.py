"""Decomposition for the 2-edge-connected multi-subgraph problem.

The relaxation demands every cut carry weight at least 2 with edge values
in [0, 2]; the exponential cut family is handled lazily with a global
minimum-cut separator.  Branching is three-way (edge multiplicity 0, 1, or
2), and an extra constraint pins every edge already at value >= 1 so it can
never fall back below 1 in a descendant.  Leaves are floored to integer
multiplicities.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .binary import (CHECK_TOL, InvariantError, _branching_lp, _decompose, _split,
                     floor_round, prune)
from .graphs import Graph, global_min_cut, graph_to_dict, make_graph
# is_subtour_feasible and verify_certificate_2ec stay names here for perfbench/spans.py
from .model import (RATIONAL, SEP_TOL, ZERO_TOL, RowMatrix, ValidationError,
                    arithmetic, as_fraction, as_integer, base_point, check_2ec,
                    cut_violations, is_integral, is_subtour_feasible, support,
                    verify_certificate_2ec)

# float mode's separation tolerances, with model.SEP_TOL; rational mode reads each as 0
SEP_LAMBDA_TOL = 1e-9
MAX_SEPARATION_ROUNDS = 500


@dataclass(frozen=True)
class SubtourPoint:
    graph: Graph
    x: tuple

    def __post_init__(self):
        if len(self.x) != self.graph.num_edges:
            raise ValueError("edge value vector has wrong length")


def separate_subtour(graph, y, threshold, tol=SEP_TOL):
    """A vertex set whose cut weight under y falls below threshold, or None."""
    if graph.num_vertices < 2 or threshold <= tol:
        return None
    value, side = global_min_cut(graph, y)
    return side if value < threshold - tol else None


class CutPool:
    """The cut rows x(delta(S)) >= 2 of one tree: the degree cuts, then every
    separated cut in the order found, as one RowMatrix.  Each row is built
    once, when its cut enters the pool; len() counts the separated cuts."""

    def __init__(self, graph):
        self.graph = graph
        self.everything = frozenset(range(graph.num_vertices))
        self.sides = set()
        self.rows = RowMatrix()
        for v in range(graph.num_vertices):
            self.add(frozenset([v]))

    def __len__(self):
        return len(self.rows) - self.graph.num_vertices

    def add(self, side):
        """Add the cut of side unless it, or its complement, is already in
        the pool; returns whether it was added."""
        if side in self.sides or self.everything - side in self.sides:
            return False
        self.sides.add(side)
        edges = self.graph.cut_edges(side)
        self.rows.append(edges, [1] * len(edges), 2)
        return True


def branch_lpc_2ec(graph, x_node, e_idx, cut_pool=None, mode="float"):
    """Three-way split of a subtour-feasible point on edge e_idx.

    The branching LP is the binary tree's with cap 2, solved by row
    generation: the rows of cut_pool (a CutPool of graph; degree cuts plus
    any previously found cuts) seed it, then violated cuts from the
    separator are added until each scaled copy is certified feasible.  Edges
    already at value >= 1 are pinned there.  cut_pool, when given, is shared
    and extended in place so later branches start warm.  In rational mode
    the pinned test and the separation are exact.
    """
    ar = arithmetic(mode)
    if cut_pool is None:
        cut_pool = CutPool(graph)
    pinned = [e for e, v in enumerate(x_node) if v >= 1 - ar.tol(ZERO_TOL)]
    for _ in range(MAX_SEPARATION_ROUNDS):
        out, active = _branching_lp(x_node, e_idx, 2, cut_pool.rows, pinned, {}, ar)
        added = False
        for j in range(3):
            lj = out.solution[3 * len(active) + j]
            if lj <= ar.tol(SEP_LAMBDA_TOL):
                continue
            y = [0] * graph.num_edges
            for k, e in enumerate(active):
                y[e] = out.solution[j * len(active) + k]
            side = separate_subtour(graph, y, 2 * lj, ar.tol(SEP_TOL))
            if side is not None and cut_pool.add(side):
                added = True
        if not added:
            break
    else:
        raise lp.LpError("separation did not converge")
    return _split(out, x_node, active, 2, ar)


def fdt_2ec(point, mode="float", trace=None):
    """Decompose a subtour-feasible point into 2-edge-connected multigraphs.

    Returns a certificate whose solutions are multiplicity vectors in
    {0,1,2}^E.  x*, in the mode's numbers, must lie in the subtour
    relaxation: a coordinate outside [0, 2] or a cut below 2, to within the
    tree's tolerance (none in rational mode, whose certificates verify at
    tol=0), raises ValidationError.  A float run that breaks an invariant
    is retried once in rational mode, premise check included.
    """
    ar = arithmetic(mode)
    try:
        return _fdt_2ec(point, ar, trace)
    except InvariantError:
        if ar.exact:
            raise
        return _fdt_2ec(point, RATIONAL, trace)


def _fdt_2ec(point, ar, trace):
    graph = point.graph
    tol = ar.tol(CHECK_TOL)
    x0 = base_point(point.x, graph.num_edges, 2, ar, tol)
    problems = cut_violations(graph, x0, tol)
    if problems:
        raise ValidationError(f"x*: {problems[0]}")
    supp = support(x0)
    # fractional edges first, then index order
    order = sorted(supp, key=lambda e: (is_integral(x0[e]), e))
    cut_pool = CutPool(graph)
    zero = ar.tol(ZERO_TOL)

    def finish(x):
        F = floor_round(x, zero)
        if not check_2ec(graph, F):
            raise InvariantError("floored leaf is not 2-edge-connected")
        return F

    # an edge at 0 or >= 1 is settled: the floor at the leaves handles it
    return _decompose(
        x0, order, ar, trace,
        settle=lambda x, e: None if zero < x[e] < 1 - zero else x,
        branch=lambda x, depth: branch_lpc_2ec(graph, x, order[depth],
                                               cut_pool=cut_pool, mode=ar.name),
        prune_level=lambda nodes: prune(nodes, x0, supp, mode=ar.name),
        finish=finish,
    )


def point_to_dict(point, rational=False):
    d = graph_to_dict(point.graph)
    d["x"] = [str(Fraction(v)) if rational else float(v) for v in point.x]
    return d


def point_from_dict(d):
    try:
        graph = make_graph(as_integer(d["vertices"]),
                           [(as_integer(u), as_integer(v)) for u, v in d["edges"]])
        return SubtourPoint(graph, tuple(as_fraction(v) for v in d["x"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed point: {exc}") from exc


def load_point(path):
    with open(path) as fh:
        return point_from_dict(json.load(fh))


def save_point(point, path, rational=False):
    with open(path, "w") as fh:
        json.dump(point_to_dict(point, rational=rational), fh, indent=1)
        fh.write("\n")
