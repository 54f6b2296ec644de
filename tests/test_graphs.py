"""Graph connectivity and the Stoer-Wagner global minimum cut.

networkx.stoer_wagner is the oracle: on connected graphs global_min_cut
must return its value (same type) and its side, because the separated cut
decides which rows the 2EC branching LPs get and so the certificates.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest

from fdt.graphs import Graph, global_min_cut, is_connected


def stoer_wagner_oracle(graph, weights):
    """The networkx graph global_min_cut used to build, and its cut."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for (u, v), w in zip(graph.edges, weights):
        if w < 0:
            w = 0 * w
        if g.has_edge(u, v):
            g[u][v]["weight"] += w
        else:
            g.add_edge(u, v, weight=w)
    value, (side, _) = nx.stoer_wagner(g)
    return value, frozenset(side)


def random_multigraph(rng):
    """A connected multigraph on 2-14 vertices with parallel edges and a
    random edge order, and edge weights of one kind."""
    n = rng.randint(2, 14)
    perm = rng.sample(range(n), n)
    edges = [(perm[k], perm[rng.randrange(k)]) for k in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    rng.shuffle(edges)
    kind = rng.choice(["int", "float", "fraction", "lp"])

    def weight():
        if kind == "int":
            return rng.randint(0, 3)
        if kind == "fraction":
            return Fraction(rng.randint(0, 6), rng.randint(1, 4))
        if kind == "lp":  # LP-like values: many ties, negative roundoff
            return rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 1 / 3, -1e-12])
        return rng.random() * 2 if rng.random() < 0.9 else -1e-12

    return Graph(n, tuple(edges)), [weight() for _ in edges]


@pytest.mark.parametrize("seed", range(8))
def test_min_cut_matches_networkx(seed):
    rng = random.Random(seed)
    for _ in range(250):
        graph, weights = random_multigraph(rng)
        value, side = global_min_cut(graph, weights)
        expected_value, expected_side = stoer_wagner_oracle(graph, weights)
        assert (value, side) == (expected_value, expected_side)
        assert type(value) is type(expected_value)
        assert repr(value) == repr(expected_value)


class TestDisconnected:
    def test_two_components(self):
        g = Graph(4, ((0, 1), (2, 3)))
        assert global_min_cut(g, [1, 1]) == (0, frozenset({0, 1}))

    def test_isolated_vertex_zero(self):
        g = Graph(3, ((1, 2),))
        assert global_min_cut(g, [Fraction(1, 2)]) == (0, frozenset({0}))

    def test_zero_weight_edge_still_connects(self):
        # connectivity is structural; a weight-0 edge gives a 0 cut by
        # Stoer-Wagner, with networkx's side
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        assert global_min_cut(g, [1, 0, 1]) == stoer_wagner_oracle(g, [1, 0, 1])

    def test_is_connected(self):
        assert is_connected(Graph(1, ()))
        assert is_connected(Graph(3, ((0, 1), (2, 1))))
        assert not is_connected(Graph(4, ((0, 1), (2, 3))))
        assert not is_connected(Graph(2, ()))
