"""Small multigraph type plus weighted global minimum cut."""

from dataclasses import dataclass

import networkx as nx


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
    if require_connected and not is_connected(g):
        raise GraphError("graph is not connected")
    return g


def is_connected(graph):
    if graph.num_vertices <= 1:
        return True
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.num_vertices))
    nxg.add_edges_from(graph.edges)
    return nx.is_connected(nxg)


def global_min_cut(graph, weights):
    """(cut value, one side) of the minimum weighted cut; parallel edge
    weights are summed.  Stoer-Wagner; exact when weights are Fractions."""
    if graph.num_vertices < 2:
        raise GraphError("minimum cut needs at least two vertices")
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.num_vertices))
    for (u, v), w in zip(graph.edges, weights):
        if w < 0:  # roundoff from an LP solution; capacities cannot be negative
            w = 0 * w
        if nxg.has_edge(u, v):
            nxg[u][v]["weight"] += w
        else:
            nxg.add_edge(u, v, weight=w)
    value, (side, _) = nx.stoer_wagner(nxg)
    return value, frozenset(side)


def graph_to_dict(graph):
    return {"vertices": graph.num_vertices, "edges": [list(e) for e in graph.edges]}


def graph_from_dict(d):
    return make_graph(d["vertices"], d["edges"])
