import itertools

import pytest

from fdt.generators import (CvGenerationError, canonical_matchings,
                            cv_support_graph, enumerate_cv, gen_cv, gen_tap,
                            gen_vc, perfect_matchings, read_pace_graph)
from fdt.graphs import GraphError, make_graph
from fdt.model import is_subtour_feasible


class TestVc:
    def test_one_row_per_edge(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        inst = gen_vc(g)
        assert len(inst.rows) == 2
        assert inst.rows[0].coef == {0: 1, 1: 1} and inst.rows[0].rhs == 1
        assert inst.objective == (1, 1, 1)

    def test_custom_costs(self):
        g = make_graph(2, [(0, 1)])
        inst = gen_vc(g, costs=[3, 5])
        assert inst.objective == (3, 5)


class TestPaceReader:
    def test_header_comments_and_one_based_edges(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("c a comment\np td 4 3\n# another\n1 2\n2 3\n3 4\n")
        g = read_pace_graph(path)
        assert g.num_vertices == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_vertex_count_inferred_without_header(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("1 2\n2 5\n")
        assert read_pace_graph(path).num_vertices == 5

    def test_malformed_line_located(self, tmp_path):
        path = tmp_path / "g.gr"
        path.write_text("1 2\n1 2 3\n")
        with pytest.raises(GraphError, match="2"):
            read_pace_graph(path)


class TestTap:
    def test_size_table(self):
        # (levels, tree edges, links)
        expected = {3: (6, 6), 4: (14, 28), 5: (30, 120), 7: (126, 2016)}
        for levels, (edges, links) in expected.items():
            tap, inst = gen_tap(levels, seed=0)
            assert tap.tree.num_edges == edges
            assert len(tap.links) == links
            assert inst.num_vars == links
            assert len(inst.rows) == edges

    def test_coverage_matches_path_enumeration(self):
        import networkx as nx
        tap, inst = gen_tap(4, seed=3)
        tree = nx.Graph(list(tap.tree.edges))
        for k, row in enumerate(inst.rows):
            u, v = tap.tree.edges[k]
            for j, (a, b) in enumerate(tap.links):
                path = nx.shortest_path(tree, a, b)
                on_path = any({u, v} == {p, q}
                              for p, q in zip(path, path[1:]))
                assert (j in row.coef) == on_path, (k, j)

    def test_costs_seeded(self):
        a, _ = gen_tap(3, seed=5)
        b, _ = gen_tap(3, seed=5)
        c, _ = gen_tap(3, seed=6)
        assert a.costs == b.costs
        assert a.costs != c.costs
        assert all(0 <= v < 1 for v in a.costs)

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            gen_tap(1)


class TestMatchings:
    def test_perfect_matching_counts(self):
        # double factorial (k-1)!!
        assert len(perfect_matchings(4)) == 3
        assert len(perfect_matchings(6)) == 15
        assert len(perfect_matchings(8)) == 105

    def test_canonical_classes_are_smaller(self):
        classes = canonical_matchings(8)
        assert 0 < len(classes) < 105
        # each class representative is its own dihedral minimum
        assert sorted(classes) == classes

    def test_symmetric_matchings_collapse(self):
        classes = canonical_matchings(4)
        assert len(classes) == 2  # adjacent pairs vs crossing diameters


class TestCvSupport:
    def test_unit_paths_shape(self):
        g, cycle_idx, path_idx = cv_support_graph(4, [(0, 2), (1, 3)])
        assert g.num_vertices == 4
        assert len(cycle_idx) == 4 and len(path_idx) == 2

    def test_longer_paths_add_interior_vertices(self):
        g, _, path_idx = cv_support_graph(4, [(0, 2), (1, 3)],
                                          path_lengths=[3, 1])
        assert g.num_vertices == 6
        assert len(path_idx) == 4

    def test_bad_matchings_rejected(self):
        with pytest.raises(ValueError):
            gen_cv(6, [(0, 0), (1, 2), (3, 4)])
        with pytest.raises(ValueError):
            gen_cv(6, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            gen_cv(5, [(0, 1)])


class TestCvGeneration:
    def test_known_fractional_support(self):
        cv = gen_cv(8, [(0, 3), (1, 5), (2, 6), (4, 7)], seed=0)
        x = cv.point.x
        assert all(0 < float(v) < 1 for v in x[:8])
        assert all(float(v) == 1 for v in x[8:])
        assert is_subtour_feasible(cv.point)

    def test_integral_support_raises(self):
        # diameters on a hexagon reduce to an even-cycle cover system whose
        # vertices are all integral
        with pytest.raises(CvGenerationError):
            gen_cv(6, [(0, 3), (1, 4), (2, 5)], seed=0)

    def test_generation_deterministic(self):
        a = gen_cv(8, [(0, 3), (1, 5), (2, 6), (4, 7)], seed=1)
        b = gen_cv(8, [(0, 3), (1, 5), (2, 6), (4, 7)], seed=1)
        assert a.point.x == b.point.x

    def test_enumeration_skips_integral_classes(self):
        insts = enumerate_cv(8, seed=0)
        assert len(insts) == 3  # frozen: observed stable across seeds
        for cv in insts:
            assert is_subtour_feasible(cv.point)
            assert all(0 < float(v) < 1 for v in cv.point.x[:8])
