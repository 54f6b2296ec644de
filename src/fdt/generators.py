"""Instance generators for the three experiment families: vertex cover,
tree augmentation, and fractional points whose support is a cycle plus
value-1 matching paths."""

import random
from dataclasses import dataclass

from . import lp
from .graphs import Graph, GraphError, make_graph
from .model import BINARY, RowMatrix, SubtourPoint, make_instance
from .twoec import separate_subtour

FRACTIONAL_TOL = 1e-9
CV_ATTEMPTS = 5  # seeded objectives gen_cv tries before it gives up


def gen_vc(graph, costs=None, name="vc"):
    """Covering instance: one row x_u + x_v >= 1 per edge, binary variables."""
    rows = []
    for u, v in graph.edges:
        if u == v:
            raise GraphError("self-loop has no cover row")
        rows.append(({u: 1, v: 1}, 1))
    if costs is None:
        costs = [1] * graph.num_vertices
    return make_instance(graph.num_vertices, rows, kind=BINARY,
                         objective=costs, name=name)


def read_pace_graph(path):
    """Plain edge-list graph file: optional 'p ... n m' header, '#'/'c'
    comment lines, then one 1-based edge per line.  A bad edge is named by
    its line, with the file's own vertex numbers."""
    n = None
    edges = []

    def number(token):
        try:
            return int(token)
        except ValueError:
            raise GraphError(f"{path}:{lineno}: {token!r} is not an integer") from None

    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.split()
            if not tok or tok[0] in ("c", "#"):
                continue
            if tok[0] == "p":
                if len(tok) < 3:
                    raise GraphError(f"{path}:{lineno}: expected 'p ... n m', got {line!r}")
                if edges:
                    raise GraphError(f"{path}:{lineno}: header after the first edge")
                n = number(tok[-2])
                if n < 0:
                    raise GraphError(f"{path}:{lineno}: vertex count {n} is negative")
                continue
            if len(tok) != 2:
                raise GraphError(f"{path}:{lineno}: expected an edge, got {line!r}")
            u, v = number(tok[0]), number(tok[1])
            for w in (u, v):
                if w < 1 or n is not None and w > n:
                    where = "below 1" if n is None else f"outside [1, {n}]"
                    raise GraphError(f"{path}:{lineno}: vertex {w} {where}")
            if u == v:
                raise GraphError(f"{path}:{lineno}: edge {u} {v} is a self-loop")
            edges.append((u - 1, v - 1))
    if n is None:
        if not edges:
            raise GraphError(f"{path}: no header and no edges")
        n = 1 + max(max(e) for e in edges)
    return make_graph(n, edges, require_connected=False)


@dataclass(frozen=True)
class TapInstance:
    """Spanning tree plus candidate links; feasible sets of links make the
    tree 2-edge-connected."""

    tree: Graph
    links: tuple
    costs: tuple


def tap_batch_seed(seed, levels, rep):
    """gen_tap's seed for instance rep at levels in the TAP batch of seed, so
    that ``fdt gen tap --count`` writes what run_tap_experiment certifies."""
    return seed * 10_000 + levels * 100 + rep


def gen_tap(levels, seed=0):
    """Full binary tree with `levels` edge-levels, one link per leaf pair,
    uniform random link costs.  Returns (TapInstance, covering IpInstance).

    levels=3 gives 6 tree edges and 6 links; each extra level doubles the
    tree and squares-ish the links.
    """
    if levels < 2:
        raise ValueError("need at least 2 levels")
    num_vertices = 2 ** levels - 1
    tree_edges = [((c - 1) // 2, c) for c in range(1, num_vertices)]
    first_leaf = 2 ** (levels - 1) - 1
    leaves = list(range(first_leaf, num_vertices))
    links = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]]
    rng = random.Random(seed)
    costs = tuple(rng.random() for _ in links)

    tree = make_graph(num_vertices, tree_edges)
    rows = []
    for _, child in tree_edges:
        cov = [j for j, (a, b) in enumerate(links)
               if _in_subtree(a, child) != _in_subtree(b, child)]
        rows.append(({j: 1 for j in cov}, 1))
    inst = make_instance(len(links), rows, kind=BINARY, objective=costs,
                         name=f"tap-l{levels}-s{seed}")
    return TapInstance(tree, tuple(links), costs), inst


def _in_subtree(v, root):
    # heap indexing: parent of v is (v-1)//2
    while v > root:
        v = (v - 1) // 2
    return v == root


class CvGenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CvInstance:
    """Fractional cycle joined by value-1 matching paths, subtour-feasible."""

    cycle_len: int
    matching: tuple
    path_lengths: tuple
    point: SubtourPoint


def cv_support_graph(cycle_len, matching, path_lengths=None):
    """(graph, cycle edge indices, path edge indices) for the given shape."""
    k = cycle_len
    if path_lengths is None:
        path_lengths = [1] * len(matching)
    edges = [(i, (i + 1) % k) for i in range(k)]
    nxt = k
    path_idx = []
    for (i, j), length in zip(matching, path_lengths):
        if length < 1:
            raise ValueError("path length must be >= 1")
        chain = [i] + list(range(nxt, nxt + length - 1)) + [j]
        nxt += length - 1
        for a, b in zip(chain, chain[1:]):
            path_idx.append(len(edges))
            edges.append((a, b))
    graph = make_graph(nxt, edges)
    return graph, list(range(k)), path_idx


def gen_cv(cycle_len, matching, path_lengths=None, seed=0):
    """Generate a fractional extreme point on the cycle-plus-paths support.

    Path edges are fixed at 1; cycle values come from minimizing a seeded
    random positive objective over the cut constraints, generated lazily.
    The basic optimum of the final relaxation is a vertex of the constrained
    region; we keep it only if every cycle value is strictly inside (0, 1).
    """
    k = cycle_len
    if k < 4 or k % 2:
        raise ValueError("cycle length must be even and >= 4")
    _check_matching(k, matching)
    graph, cycle_idx, path_idx = cv_support_graph(k, matching, path_lengths)

    for attempt in range(CV_ATTEMPTS):
        rng = random.Random((seed, attempt, k, tuple(sorted(map(tuple, matching)))).__hash__())
        c = [rng.uniform(0.5, 1.5) for _ in cycle_idx]
        x = _solve_cycle_lp(graph, cycle_idx, path_idx, c)
        if x is not None and all(FRACTIONAL_TOL < x[e] < 1 - FRACTIONAL_TOL for e in cycle_idx):
            return CvInstance(k, tuple(tuple(p) for p in matching),
                              tuple(path_lengths or [1] * len(matching)),
                              SubtourPoint(graph, tuple(x)))
    raise CvGenerationError("support admits no fractional extreme point "
                            f"(matching {sorted(map(tuple, matching))})")


def _solve_cycle_lp(graph, cycle_idx, path_idx, c):
    """Row-generated min over the cut system with path edges pinned at 1.
    Returns the point on every edge, which no subtour cut separates, or
    None if no fractional vertex arises."""
    col = {e: i for i, e in enumerate(cycle_idx)}
    path_set = set(path_idx)

    rows = RowMatrix()

    def add_cut(side):
        crossing = graph.cut_edges(side)
        index = [col[e] for e in crossing if e in col]
        rows.append(index, [1] * len(index), 2 - sum(1 for e in crossing if e in path_set))

    cuts = [frozenset([v]) for v in range(graph.num_vertices)]
    seen = set(cuts)
    for side in cuts:
        add_cut(side)
    for _ in range(200):
        prob = lp.LpProblem(len(cycle_idx), rows, [lp.GE] * len(rows),
                            upper=[2] * len(cycle_idx), objective=c)
        out = lp.solve(prob, mode="float")
        if out.status != lp.OPTIMAL:
            raise CvGenerationError(
                f"cut system infeasible (last cut {sorted(cuts[-1])})")
        full = [0.0] * graph.num_edges
        for e, v in zip(cycle_idx, out.solution):
            full[e] = v
        for e in path_idx:
            full[e] = 1.0
        side = separate_subtour(graph, full, 2)
        if side is None:
            return full
        if side in seen:
            return None  # separator stuck at tolerance boundary
        seen.add(side)
        cuts.append(side)
        add_cut(side)
    return None


def _check_matching(k, matching):
    used = set()
    for pair in matching:
        i, j = pair
        if i == j or not (0 <= i < k and 0 <= j < k):
            raise ValueError(f"bad matching pair {pair}")
        if i in used or j in used:
            raise ValueError(f"position matched twice in {pair}")
        used.update(pair)
    if len(used) != k:
        raise ValueError("matching is not perfect")


def perfect_matchings(k):
    """All perfect matchings of positions 0..k-1 (tuples of sorted pairs)."""
    def rec(remaining):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for i, other in enumerate(remaining[1:], 1):
            rest = remaining[1:i] + remaining[i + 1:]
            for tail in rec(rest):
                yield ((first, other),) + tail
    return list(rec(tuple(range(k))))


def canonical_matchings(k):
    """Perfect matchings on cycle positions, one per rotation/reflection class."""
    maps = []
    for s in range(k):
        maps.append(lambda i, s=s: (i + s) % k)
        maps.append(lambda i, s=s: (s - i) % k)
    out = {}
    for m in perfect_matchings(k):
        images = []
        for f in maps:
            img = tuple(sorted(tuple(sorted((f(i), f(j)))) for i, j in m))
            images.append(img)
        canon = min(images)
        out.setdefault(canon, canon)
    return sorted(out)


def enumerate_cv(cycle_len, seed=0):
    """One instance per symmetry class of matchings that yields a fractional
    extreme point, in deterministic order."""
    out = []
    for m in canonical_matchings(cycle_len):
        try:
            out.append(gen_cv(cycle_len, m, seed=seed))
        except CvGenerationError:
            continue
    return out
