"""Small multigraph type plus weighted global minimum cut."""

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph: a vertex count and a list of endpoint pairs.

    Parallel edges are allowed and kept as distinct indices; self-loops are
    rejected (they never cross a cut).
    """

    num_vertices: int
    edges: tuple

    def __post_init__(self):
        if self.num_vertices < 0:
            raise GraphError(f"vertex count {self.num_vertices} is negative")
        for k, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise GraphError(f"edge {k} endpoint outside [0, {self.num_vertices})")
            if u == v:
                raise GraphError(f"edge {k} is a self-loop")

    @property
    def num_edges(self):
        return len(self.edges)

    def cut_edges(self, side):
        """Edge indices crossing the cut (side, complement)."""
        side = set(side)
        return [
            k for k, (a, b) in enumerate(self.edges) if (a in side) != (b in side)
        ]


def make_graph(num_vertices, edges, require_connected=True):
    g = Graph(int(num_vertices), tuple((int(u), int(v)) for u, v in edges))
    # more vertices than edges + 1 cannot be connected; refusing them first
    # keeps is_connected from allocating per vertex of a huge count
    if require_connected and (g.num_vertices > g.num_edges + 1 or not is_connected(g)):
        raise GraphError("graph is not connected")
    return g


def is_connected(graph):
    if graph.num_vertices <= 1:
        return True
    adj = [[] for _ in range(graph.num_vertices)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    return len(_reachable(adj, 0)) == graph.num_vertices


def _reachable(adj, source):
    """The vertices reachable from source; adj maps a vertex to its neighbours."""
    seen = {source}
    stack = [source]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def global_min_cut(graph, weights):
    """(cut value, one side) of the minimum weighted cut; parallel edge
    weights are summed.  Stoer-Wagner; exact when weights are Fractions.

    A disconnected graph has value 0 and the side holding vertex 0.
    Otherwise this is networkx.stoer_wagner step for step -- its node and
    neighbour orders, heap tie-breaks, summation order and side recovery --
    so it returns the same value and the same side.
    """
    n = graph.num_vertices
    if n < 2:
        raise GraphError("minimum cut needs at least two vertices")
    # summed capacities; each neighbour sits where its first edge put it
    adj = [{} for _ in range(n)]
    for (u, v), w in zip(graph.edges, weights):
        if w < 0:  # roundoff from an LP solution; capacities cannot be negative
            w = 0 * w
        adj[u][v] = adj[v][u] = adj[u][v] + w if v in adj[u] else w
    side = _reachable(adj, 0)
    if len(side) < n:
        return 0, frozenset(side)

    # networkx's working copy: nodes and neighbours in edge-iteration order
    G = {}
    for u in range(n):
        for v, w in adj[u].items():
            if v > u:
                G.setdefault(u, {})[v] = w
                G.setdefault(v, {})[u] = w

    cut_value = float("inf")
    contractions = []
    for i in range(n - 1):
        # a phase: grow A from the first node, always adding the node most
        # tightly connected to it (a min-heap of negated connectivities whose
        # stale entries are skipped)
        u = next(iter(G))
        in_a = {u}
        heap, key_of, tick = [], {}, count()
        for v, w in G[u].items():
            key_of[v] = -w
            heappush(heap, (-w, next(tick), v))
        for _ in range(n - i - 2):
            while True:
                value, _, u = heappop(heap)
                if u in key_of and value == key_of[u]:
                    break
            del key_of[u]
            in_a.add(u)
            for v, w in G[u].items():
                if v not in in_a:
                    value = key_of.get(v, 0) - w
                    if v not in key_of or value < key_of[v]:
                        key_of[v] = value
                        heappush(heap, (value, next(tick), v))
        while True:
            value, _, v = heap[0]
            if v in key_of and value == key_of[v]:
                break
            heappop(heap)
        w = -value
        if w < cut_value:
            cut_value = w
            best_phase = i
        # contract v into u, the last node added to A
        contractions.append((u, v))
        Gu = G[u]
        for x, w in G[v].items():
            if x != u:
                Gu[x] = G[x][u] = Gu[x] + w if x in Gu else w
        for x in G.pop(v):
            del G[x][v]

    # the side: what the first best_phase contractions merged into its v
    v = contractions[best_phase][1]
    merged = {v: []}
    for a, b in contractions[:best_phase]:
        merged.setdefault(a, []).append(b)
        merged.setdefault(b, []).append(a)
    return cut_value, frozenset(_reachable(merged, v))


def graph_to_dict(graph):
    return {"vertices": graph.num_vertices, "edges": [list(e) for e in graph.edges]}
