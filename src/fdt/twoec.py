"""Decomposition for the 2-edge-connected multi-subgraph problem.

The relaxation demands every cut carry weight at least 2 with edge values
in [0, 2]; the exponential cut family is handled lazily with a global
minimum-cut separator.  Branching is three-way (edge multiplicity 0, 1, or
2), and an extra constraint pins every edge already at value >= 1 so it can
never fall back below 1 in a descendant.  Leaves are floored to integer
multiplicities.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .binary import CHECK_TOL, GAMMA_TOL, InvariantError, prune
from .domtoip import UnboundedGapOrInfeasible
from .graphs import Graph, global_min_cut, graph_from_dict, graph_to_dict, make_graph
from .model import (ZERO_TOL, Certificate, ValidationError, as_fraction,
                    check_dimensions, support)

SEP_TOL = 1e-7
SEP_LAMBDA_TOL = 1e-9
MAX_SEPARATION_ROUNDS = 500


@dataclass(frozen=True)
class SubtourPoint:
    graph: Graph
    x: tuple

    def __post_init__(self):
        if len(self.x) != self.graph.num_edges:
            raise ValueError("edge value vector has wrong length")


@dataclass
class TriBranchResult:
    gammas: tuple  # (gamma0, gamma1, gamma2)
    x_hats: tuple  # matching points, None where gamma is 0

    @property
    def total(self):
        return sum(self.gammas)


def separate_subtour(graph, y, threshold, tol=SEP_TOL):
    """A vertex set whose cut weight under y falls below threshold, or None."""
    if graph.num_vertices < 2 or threshold <= tol:
        return None
    value, side = global_min_cut(graph, y)
    if value < threshold - tol:
        return side
    return None


def is_subtour_feasible(point, tol=SEP_TOL):
    if any(v < -tol or v > 2 + tol for v in point.x):
        return False
    return separate_subtour(point.graph, point.x, 2, tol=tol) is None


def check_2ec(graph, multiplicity):
    """Global min cut of the multiplicity-weighted multigraph is >= 2."""
    if graph.num_vertices < 2:
        return True
    value, _ = global_min_cut(graph, [int(m) for m in multiplicity])
    return value >= 2


def floor_round(x, tol=ZERO_TOL):
    """Floor a leaf point to multiplicities, capping at 2.

    Every coordinate must already be 0 or >= 1; a value strictly inside
    (0, 1) means an upstream invariant broke.
    """
    out = []
    for i, v in enumerate(x):
        f = float(v)
        if tol < f < 1 - tol:
            raise InvariantError(f"leaf coordinate {i} = {f} is in (0, 1)")
        out.append(min(2, math.floor(f + tol)))
    return tuple(out)


def branch_lpc_2ec(graph, x_node, e_idx, cut_pool=None, mode="float"):
    """Three-way split of a subtour-feasible point on edge e_idx.

    The LP is solved by row generation: degree cuts (plus any previously
    found cuts) seed it, then violated cuts from the separator are added
    until each scaled copy is certified feasible.  cut_pool, when given, is
    shared and extended in place so later branches start warm.
    """
    exact = mode == "rational"
    tol = 0 if exact else ZERO_TOL
    active = [e for e, v in enumerate(x_node) if float(v) > tol]
    if e_idx not in active:
        raise ValueError("branch edge has value 0; nothing to split")
    a = len(active)
    col = {e: k for k, e in enumerate(active)}
    lam = [3 * a, 3 * a + 1, 3 * a + 2]
    one = Fraction(1) if exact else 1.0
    ones = [e for e in active if float(x_node[e]) >= 1 - ZERO_TOL]
    if cut_pool is None:
        cut_pool = []

    def build(cuts):
        prob = lp.LpProblem(
            num_cols=3 * a + 3,
            upper=[None] * (3 * a) + [one, one, one],
            objective=[0] * (3 * a) + [1, 1, 1],
            maximize=True,
        )
        prob.upper[col[e_idx]] = 0  # multiplicity-0 branch
        for j in range(3):
            off = j * a
            for side in cuts:
                idxs = [e for e in graph.cut_edges(side) if e in col]
                coef = {off + col[e]: 1 for e in idxs}
                coef[lam[j]] = -2
                prob.add_row(coef, ">=", 0)
            for e in active:
                prob.add_row({off + col[e]: 1, lam[j]: -2}, "<=", 0)
            for e in ones:
                prob.add_row({off + col[e]: 1, lam[j]: -1}, ">=", 0)
        prob.add_row({a + col[e_idx]: 1, lam[1]: -1}, "==", 0)
        prob.add_row({2 * a + col[e_idx]: 1, lam[2]: -2}, "==", 0)
        for e in active:
            prob.add_row({j * a + col[e]: 1 for j in range(3)}, "<=", x_node[e])
        prob.add_row({lam[0]: 1, lam[1]: 1, lam[2]: 1}, "<=", 1)
        return prob

    degree_cuts = [frozenset([v]) for v in range(graph.num_vertices)]
    known = set(degree_cuts) | set(cut_pool)
    cuts = degree_cuts + list(cut_pool)
    for _ in range(MAX_SEPARATION_ROUNDS):
        out = lp.solve(build(cuts), mode=mode)
        if out.status != lp.OPTIMAL:
            raise lp.LpError(f"branching LP unexpectedly {out.status}")
        new = []
        for j in range(3):
            lj = out.solution[lam[j]]
            if float(lj) <= SEP_LAMBDA_TOL:
                continue
            y = [0] * graph.num_edges
            for e, k in col.items():
                y[e] = out.solution[j * a + k]
            side = separate_subtour(graph, y, 2 * lj)
            if side is not None and side not in known and frozenset(
                range(graph.num_vertices)) - side not in known:
                new.append(side)
                known.add(side)
        if not new:
            break
        cuts.extend(new)
        cut_pool.extend(new)
    else:
        raise lp.LpError("separation did not converge")

    gammas = [g if float(g) > GAMMA_TOL else 0 for g in
              (out.solution[lam[0]], out.solution[lam[1]], out.solution[lam[2]])]
    if sum(float(g) for g in gammas) <= GAMMA_TOL:
        raise UnboundedGapOrInfeasible("three-way branching LP optimum is 0")
    x_hats = []
    for j in range(3):
        if not gammas[j]:
            x_hats.append(None)
            continue
        zero = Fraction(0) if exact else 0.0
        xh = [zero] * graph.num_edges
        for e, k in col.items():
            v = out.solution[j * a + k] / gammas[j]
            if not exact:
                v = min(max(v, 0.0), 2.0)
            xh[e] = v
        x_hats.append(tuple(xh))
    return TriBranchResult(gammas=tuple(gammas), x_hats=tuple(x_hats))


def fdt_2ec(point, mode="float", check=True, trace=None):
    """Decompose a subtour-feasible point into 2-edge-connected multigraphs.

    Returns a certificate whose solutions are multiplicity vectors in
    {0,1,2}^E.  A leaf failing the connectivity check in float mode triggers
    one exact retry before giving up.
    """
    try:
        return _fdt_2ec(point, mode=mode, check=check, trace=trace)
    except InvariantError:
        if mode == "float":
            return _fdt_2ec(point, mode="rational", check=check, trace=trace)
        raise


def _fdt_2ec(point, mode, check, trace):
    exact = mode == "rational"
    graph = point.graph
    x0 = tuple(as_fraction(v) if exact else float(v) for v in point.x)
    supp = support(x0)
    t = len(supp)
    # fractional edges first, then index order
    order = sorted(supp, key=lambda e: (0 if _fractional(x0[e]) else 1, e))
    cut_pool = []
    L = [(x0, Fraction(1) if exact else 1.0)]
    for depth, e in enumerate(order):
        grown = []
        branch_totals = []
        for x, w in L:
            v = float(x[e])
            if v <= ZERO_TOL or v >= 1 - ZERO_TOL:
                grown.append((x, w))
                continue
            br = branch_lpc_2ec(graph, x, e, cut_pool=cut_pool, mode=mode)
            branch_totals.append(float(br.total))
            for g, xh in zip(br.gammas, br.x_hats):
                if g:
                    grown.append((xh, w * g))
        L, old_total, new_total = prune(grown, x0, supp, mode=mode)
        if check:
            _check_level_2ec(L, x0, order[: depth + 1], t, old_total, new_total,
                             0 if exact else CHECK_TOL)
        if trace is not None:
            trace.append({
                "level": depth + 1, "edge": e,
                "pre_prune_size": len(grown), "size": len(L),
                "pre_prune_mass": float(old_total), "mass": float(new_total),
                "branch_totals": branch_totals,
            })

    solutions, weights = [], []
    for x, w in L:
        F = floor_round(x)
        if not check_2ec(graph, F):
            raise InvariantError("floored leaf is not 2-edge-connected")
        solutions.append(F)
        weights.append(w)
    total = sum(weights)
    factor = (Fraction(1) / total) if exact else 1.0 / total
    return Certificate(
        factor=factor,
        weights=tuple(w * factor for w in weights),
        solutions=tuple(solutions),
        base_point=x0,
    )


def verify_certificate_2ec(cert, graph, tol=1e-6):
    """Certificate checks for the multigraph setting; see the binary verifier."""
    check_dimensions(cert, graph.num_edges)
    report = []
    total = sum(cert.weights)
    if abs(total - 1) > tol:
        report.append(f"weights: sum is {float(total):.9g}, expected 1")
    for idx, F in enumerate(cert.solutions):
        if any(m not in (0, 1, 2) for m in F):
            report.append(f"solution {idx}: multiplicity outside {{0,1,2}}")
        elif not check_2ec(graph, F):
            report.append(f"solution {idx} is not 2-edge-connected")
    comb = cert.combination()
    for e in range(graph.num_edges):
        bound = min(cert.factor * cert.base_point[e], 2)
        if comb[e] > bound + tol:
            report.append(
                f"domination fails at edge {e}: "
                f"{float(comb[e]):.9g} > {float(bound):.9g}"
            )
    t = len(support(cert.base_point))
    if cert.k > t:
        report.append(f"too many solutions: k = {cert.k} > {t}")
    return not report, report


def _check_level_2ec(L, x_star, branched, t, old_total, new_total, tol):
    if len(L) > t:
        raise InvariantError(f"level has {len(L)} nodes, limit {t}")
    if new_total < old_total - max(tol, 1e-9):
        raise InvariantError(
            f"prune lost mass: {float(old_total)} -> {float(new_total)}"
        )
    n = len(x_star)
    comb = [0] * n
    for x, w in L:
        for e in branched:
            v = float(x[e])
            if ZERO_TOL < v < 1 - ZERO_TOL:
                raise InvariantError(f"edge {e} has value {v} in (0, 1)")
        for i in range(n):
            comb[i] += w * x[i]
    for i in range(n):
        if comb[i] > x_star[i] + tol:
            raise InvariantError(
                f"mass exceeds base point at {i}: {float(comb[i])} > {float(x_star[i])}"
            )


def _fractional(v):
    return abs(float(v) - round(float(v))) > ZERO_TOL


def point_to_dict(point, rational=False):
    d = graph_to_dict(point.graph)
    d["x"] = [str(Fraction(v)) if rational else float(v) for v in point.x]
    return d


def point_from_dict(d):
    try:
        graph = graph_from_dict(d)
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
