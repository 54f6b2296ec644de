import copy
import math
import tracemalloc
from fractions import Fraction

import pytest

from fdt import twoec
from fdt.binary import InvariantError
from fdt.domtoip import UnboundedGapOrInfeasible
from fdt.graphs import Graph, GraphError, global_min_cut, make_graph
from fdt.model import (Certificate, RowMatrix, SubtourPoint, ValidationError,
                       check_2ec, is_subtour_feasible, point_from_dict, point_to_dict,
                       verify_certificate_2ec)
from fdt.twoec import CutPool, branch_lpc_2ec, fdt_2ec, floor_round, separate_subtour


def square():
    """4-cycle with all edge values 1: subtour-feasible and already integral."""
    g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return SubtourPoint(g, (1.0, 1.0, 1.0, 1.0))


def cv8():
    """8-cycle at value 1/2 with four crossing value-1 chords."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    chords = [(0, 3), (1, 5), (2, 6), (4, 7)]
    g = make_graph(8, edges + chords)
    return SubtourPoint(g, (0.5,) * 8 + (1.0,) * 4)


class TestGraphOps:
    def test_self_loops_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 0),))

    def test_parallel_edges_keep_indices(self):
        g = Graph(2, ((0, 1), (0, 1)))
        assert g.cut_edges({0}) == [0, 1]

    def test_min_cut_sums_parallel_weights(self):
        g = Graph(2, ((0, 1), (0, 1)))
        value, side = global_min_cut(g, [1, 2])
        assert value == 3

    def test_min_cut_finds_bottleneck(self):
        # two triangles joined by a single light edge
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (2, 3)])
        value, side = global_min_cut(g, [2] * 6 + [1])
        assert value == 1
        assert side in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))

    def test_negative_roundoff_clamped(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        value, _ = global_min_cut(g, [1.0, 1.0, -1e-16])
        assert value >= 0


class TestSeparation:
    def test_feasible_point_has_no_cut(self):
        assert separate_subtour(square().graph, square().x, 2) is None

    def test_violated_cut_returned(self):
        g = square().graph
        side = separate_subtour(g, [1.0, 0.5, 1.0, 1.0], 2)
        assert side is not None
        assert sum(1 for e in g.cut_edges(side)
                   if [1.0, 0.5, 1.0, 1.0][e] < 1) >= 1

    def test_threshold_scales_with_lambda(self):
        g = square().graph
        y = [0.4, 0.4, 0.4, 0.4]
        assert separate_subtour(g, y, 2) is not None
        assert separate_subtour(g, y, 0.8) is None
        assert separate_subtour(g, y, 1e-9) is None  # vacuous threshold

    def test_is_subtour_feasible(self):
        assert is_subtour_feasible(square())
        assert is_subtour_feasible(cv8())
        bad = SubtourPoint(square().graph, (1.0, 0.5, 1.0, 1.0))
        assert not is_subtour_feasible(bad)
        over = SubtourPoint(square().graph, (3.0, 1.0, 1.0, 1.0))
        assert not is_subtour_feasible(over)

    def test_nan_coordinate_is_not_subtour_feasible(self):
        assert not is_subtour_feasible(SubtourPoint(square().graph,
                                                    (math.nan, 2.0, 2.0, 2.0)))

    def test_verifier_reports_nan_weights(self):
        # K4 at 2/3 per edge is three Hamiltonian cycles at 1/3 each; NaN
        # weights once passed every check
        k4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        cert = fdt_2ec(SubtourPoint(k4, (Fraction(2, 3),) * 6), mode="rational")
        assert verify_certificate_2ec(cert, k4, tol=0)[0]
        bad = Certificate(cert.factor, (math.nan,) * cert.k, cert.solutions, cert.base_point)
        ok, report = verify_certificate_2ec(bad, k4, tol=0)
        assert not ok
        assert [f"weights: weight {j} = nan is not a finite number" for j in range(3)] == [
            line for line in report if line.startswith("weights: weight")]

    def test_verifier_reports_nan_coordinate(self):
        # the min cut of a NaN-weighted graph is undefined: the box report
        # names the problem, and the cuts are not checked
        cert = Certificate(1.0, (1.0,), ((1, 1, 1, 1),), (math.nan, 1.0, 1.0, 1.0))
        ok, report = verify_certificate_2ec(cert, square().graph)
        assert not ok
        assert report == ["base point: coordinate 0 = nan outside [0, 2]"]


class TestRounding:
    def test_floor_caps_at_two(self):
        assert floor_round([0.0, 1.0, 2.0, 2.6]) == (0, 1, 2, 2)

    def test_tolerant_near_integers(self):
        assert floor_round([1.0 - 1e-12, 1e-12]) == (1, 0)

    def test_open_interval_values_flag_invariant_break(self):
        with pytest.raises(InvariantError):
            floor_round([0.5])

    def test_check_2ec(self):
        g = square().graph
        assert check_2ec(g, [1, 1, 1, 1])
        assert not check_2ec(g, [1, 1, 1, 0])
        assert not check_2ec(g, [0, 2, 2, 0])  # vertex 0 left isolated


class TestBranching:
    def test_three_way_split_shapes(self):
        pt = cv8()
        br = branch_lpc_2ec(pt.graph, list(pt.x), 0, mode="float")
        assert len(br.gammas) == 3
        assert float(br.total) >= 2 / 3 - 1e-9  # three-branch lower bound
        for j, xh in enumerate(br.x_hats):
            if xh is None:
                continue
            assert float(xh[0]) == pytest.approx(j, abs=1e-9)

    def test_one_edges_stay_pinned(self):
        pt = cv8()
        br = branch_lpc_2ec(pt.graph, list(pt.x), 0, mode="float")
        for xh in br.x_hats:
            if xh is None:
                continue
            for e in range(8, 12):  # chords entered at value 1
                assert float(xh[e]) >= 1 - 1e-9

    def test_branch_copies_subtour_feasible(self):
        pt = cv8()
        br = branch_lpc_2ec(pt.graph, list(pt.x), 0, mode="float")
        for xh in br.x_hats:
            if xh is not None:
                assert separate_subtour(pt.graph, xh, 2, tol=1e-6) is None

    def test_cut_pool_shared(self):
        pt = cv8()
        pool = CutPool(pt.graph)
        branch_lpc_2ec(pt.graph, list(pt.x), 0, cut_pool=pool, mode="float")
        # a second call may only extend the pool
        size = len(pool)
        branch_lpc_2ec(pt.graph, list(pt.x), 1, cut_pool=pool, mode="float")
        assert len(pool) >= size

    def test_cut_rows_built_once(self, monkeypatch):
        pt = cv8()
        scans = []
        cut_edges = Graph.cut_edges
        monkeypatch.setattr(Graph, "cut_edges",
                            lambda g, side: scans.append(side) or cut_edges(g, side))
        pool = CutPool(pt.graph)
        for e in range(3):
            branch_lpc_2ec(pt.graph, list(pt.x), e, cut_pool=pool, mode="float")
        assert len(scans) == len(pool.rows) == pt.graph.num_vertices + len(pool)

    def test_pool_rows_equal_one_row_matrix(self):
        # the pool appends each cut's row in place; after every append its
        # rows are those of one RowMatrix of the same rows
        pt = cv8()
        pool = CutPool(pt.graph)
        sides = [frozenset(range(v)) for v in range(2, pt.graph.num_vertices - 1)]
        cuts = [pt.graph.cut_edges(frozenset([v])) for v in range(pt.graph.num_vertices)]
        for k, side in enumerate(sides, 1):
            assert pool.add(side)
            cuts.append(pt.graph.cut_edges(side))
            assert len(pool) == k
            one = RowMatrix()
            for edges in cuts:
                one.append(edges, [1] * len(edges), 2)
            assert pool.rows == one

    @pytest.mark.parametrize("point, mode", [
        (cv8(), "float"),
        (SubtourPoint(make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]),
                      (Fraction(2, 3),) * 6), "rational"),
    ])
    def test_separation_checks_the_branches_split_keeps(self, monkeypatch, point, mode):
        # one list of thresholds per branching LP solved
        rounds = []
        solve, separate = twoec._branching_lp, twoec.separate_subtour
        monkeypatch.setattr(twoec, "_branching_lp",
                            lambda *args: rounds.append([]) or solve(*args))
        monkeypatch.setattr(twoec, "separate_subtour",
                            lambda g, y, threshold, tol: rounds[-1].append(threshold)
                            or separate(g, y, threshold, tol))
        br = branch_lpc_2ec(point.graph, list(point.x), 0, mode=mode)
        kept = [2 * g for g in br.gammas if g]
        assert len(kept) >= 2
        assert rounds[-1] == kept
        assert [xh is not None for xh in br.x_hats] == [bool(g) for g in br.gammas]

    def test_cut_pool_refuses_a_side_it_holds_and_its_complement(self):
        pt = cv8()
        pool = CutPool(pt.graph)
        side = frozenset({0, 1, 2})
        assert pool.add(side)
        rows = copy.deepcopy(pool.rows)
        for again in (side, frozenset(range(pt.graph.num_vertices)) - side, frozenset({3})):
            assert not pool.add(again)
            assert len(pool) == 1
            assert pool.rows == rows

    def test_zero_edge_rejected(self):
        pt = square()
        with pytest.raises(ValueError):
            branch_lpc_2ec(pt.graph, [1.0, 1.0, 1.0, 0.0], 3)


class TestFdt2ec:
    def test_integral_point_passes_through(self):
        cert = fdt_2ec(square())
        assert float(cert.factor) == pytest.approx(1.0)
        assert cert.k == 1
        assert cert.solutions[0] == (1, 1, 1, 1)

    def test_cv8_certified_below_six_fifths(self):
        cert = fdt_2ec(cv8())
        ok, report = verify_certificate_2ec(cert, cv8().graph)
        assert ok, report
        assert float(cert.factor) <= 1.2 + 1e-6
        for F in cert.solutions:
            assert check_2ec(cv8().graph, F)
            assert set(F) <= {0, 1, 2}

    def test_trace_and_level_invariants(self):
        trace = []
        cert = fdt_2ec(cv8(), trace=trace)
        t = 12
        for lv in trace:
            assert lv["size"] <= t
            assert lv["mass"] >= lv["pre_prune_mass"] - 1e-9
            for g in lv["branch_totals"]:
                assert g >= 2 / 3 - 1e-6
        assert cert.k <= t

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_single_vertex_certifies_one_empty_solution(self, mode):
        # x* = 0 has an empty support, and the certificate still holds a solution
        graph = make_graph(1, [])
        cert = fdt_2ec(SubtourPoint(graph, ()), mode=mode)
        assert (cert.k, cert.solutions, cert.factor) == (1, ((),), 1)
        assert verify_certificate_2ec(cert, graph, tol=0) == (True, [])

    def test_tampered_certificate_rejected(self):
        cert = fdt_2ec(cv8())
        bad = Certificate(cert.factor, cert.weights,
                          ((0,) * 12,) + cert.solutions[1:], cert.base_point)
        ok, report = verify_certificate_2ec(bad, cv8().graph)
        assert not ok
        assert any("2-edge-connected" in line for line in report)

    def break_prune(self, monkeypatch):
        """Halve the weights that every float pruning LP keeps."""
        real = twoec.prune
        broken = []

        def prune(nodes, x_star, supp=None, mode="float"):
            kept, old_total, new_total = real(nodes, x_star, supp, mode=mode)
            if mode != "float":
                return kept, old_total, new_total
            broken.append(mode)
            kept = [(x, w / 2) for x, w in kept]
            return kept, old_total, sum(w for _, w in kept)
        monkeypatch.setattr(twoec, "prune", prune)
        return broken

    def test_float_tree_that_breaks_an_invariant_returns_the_rational_certificate(
            self, monkeypatch):
        # the triangular prism, triangle edges at 1/2 and rungs at 1: x* is
        # dyadic, so the exact retry reads the float x* as it is
        prism = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                               (0, 3), (1, 4), (2, 5)])
        exact = fdt_2ec(SubtourPoint(prism, (Fraction(1, 2),) * 6 + (1,) * 3), "rational")
        broken = self.break_prune(monkeypatch)
        cert = fdt_2ec(SubtourPoint(prism, (0.5,) * 6 + (1.0,) * 3), "float")
        assert cert == exact
        assert (cert.factor, cert.k) == (Fraction(7, 6), 7)
        assert broken == ["float"]

    def test_retry_refused_by_the_exact_premise_names_the_broken_invariant(self, monkeypatch):
        # 2/3 in floats reads just below 2/3 exactly, so each vertex's cut in
        # K4 is 2 to within the float tolerance and below 2 exactly
        k4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        broken = self.break_prune(monkeypatch)
        with pytest.raises(InvariantError, match=r"^prune lost mass: 1\.0 -> 0\.5; no exact "
                           r"retry, as x\* read exactly is outside P \(x\*: base point "
                           r"violates the cut of vertices \[3\]: "
                           r"18014398509481983/9007199254740992 < 2\)$") as info:
            fdt_2ec(SubtourPoint(k4, (2 / 3,) * 6), "float")
        assert isinstance(info.value.__cause__, InvariantError)
        assert broken == ["float"]

    def test_multiplicity_outside_0_1_2_rejected(self):
        cert = fdt_2ec(cv8())
        bad = Certificate(cert.factor, cert.weights,
                          ((1,) * 11 + (3,),) + cert.solutions[1:], cert.base_point)
        ok, report = verify_certificate_2ec(bad, cv8().graph)
        assert not ok
        assert "solution 0 has a multiplicity outside {0,1,2}" in report

    def test_base_point_outside_relaxation_rejected(self):
        # every check on the solutions passes; x* itself is not in the
        # subtour relaxation
        tour = (1, 1, 1, 1)
        light = Certificate(2.0, (1.0,), (tour,), (1.0, 1.0, 1.0, 0.5))
        ok, report = verify_certificate_2ec(light, square().graph)
        assert not ok
        assert report == ["base point violates the cut of vertices [3]: 1.5 < 2"]
        heavy = Certificate(1.0, (1.0,), (tour,), (1.0, 1.0, 1.0, 2.5))
        ok, report = verify_certificate_2ec(heavy, square().graph)
        assert not ok
        assert report == ["base point: coordinate 3 = 2.5 outside [0, 2]"]

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_point_outside_subtour_relaxation_refused(self, mode):
        # the triangle at 1/2 is in [0, 2]^E, but every vertex cut is 1
        tri = SubtourPoint(make_graph(3, [(0, 1), (1, 2), (0, 2)]), (Fraction(1, 2),) * 3)
        with pytest.raises(ValidationError,
                           match=r"x\*: base point violates the cut of vertices \[\d\]: 1 < 2"):
            fdt_2ec(tri, mode=mode)

    def test_premise_checked_with_one_min_cut(self, monkeypatch):
        from fdt import model
        calls = []
        monkeypatch.setattr(model, "global_min_cut",
                            lambda g, x: calls.append(tuple(x)) or global_min_cut(g, x))
        # integral, so the tree only settles: one cut for the premise, one
        # for the leaf's 2EC check
        fdt_2ec(square())
        assert calls == [square().x, (1, 1, 1, 1)]

    def test_negative_weight_rejected(self):
        # the 8-cycle twice, weighted 3/2 and -1/2: every other check passes
        cycle = (1,) * 8 + (0,) * 4
        bad = Certificate(4.0, (1.5, -0.5), (cycle, cycle), cv8().x)
        ok, report = verify_certificate_2ec(bad, cv8().graph)
        assert not ok
        assert report == ["weights: negative weight"]

    def test_wrong_lengths_rejected(self):
        cert = fdt_2ec(cv8())
        graph = cv8().graph
        short_base = Certificate(cert.factor, cert.weights, cert.solutions,
                                 cert.base_point[:-1])
        short_solution = Certificate(cert.factor, cert.weights,
                                     (cert.solutions[0][:-1],) + cert.solutions[1:],
                                     cert.base_point)
        extra_weight = Certificate(cert.factor, cert.weights + (0.0,),
                                   cert.solutions, cert.base_point)
        for bad in (short_base, short_solution, extra_weight):
            with pytest.raises(ValidationError):
                verify_certificate_2ec(bad, graph)

    def test_malformed_point_dict(self):
        d = point_to_dict(cv8())
        for broken in ({k: v for k, v in d.items() if k != "x"}, dict(d, x=3), [1, 2]):
            with pytest.raises(ValidationError):
                point_from_dict(broken)

    def test_vertex_count_beyond_edges_refused_before_allocating(self):
        # three edges connect at most four vertices; refusing a million used
        # to build a million adjacency lists first (64 MB)
        d = {"vertices": 10**6, "edges": [[0, 1], [1, 2], [2, 3]], "x": [1, 1, 1]}
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="graph is not connected"):
                point_from_dict(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_point_serialization_round_trip(self):
        pt = cv8()
        back = point_from_dict(point_to_dict(pt, rational=True))
        assert back.graph == pt.graph
        assert [float(v) for v in back.x] == pytest.approx(list(pt.x))
