import random
from fractions import Fraction

import pytest

from fdt import binary, lp
from fdt.binary import (InvariantError, _leaf_solution, branch_lpc, fdt_dive,
                        fdt_tree, prune)
from fdt.domtoip import UnboundedGapOrInfeasible
from fdt.graphs import make_graph
from fdt.generators import gen_vc
from fdt.model import (ZEROONETWO, ValidationError, check_integer_feasible, make_instance,
                       support, verify_certificate)

HALF = Fraction(1, 2)


def triangle():
    return gen_vc(make_graph(3, [(0, 1), (1, 2), (0, 2)]))


class TestBranchLpc:
    def test_triangle_multipliers_match_oracle(self):
        # frozen against an independent dense formulation of the same LP
        br = branch_lpc(triangle(), [HALF] * 3, 0, mode="rational")
        assert br.total == Fraction(3, 4)
        assert br.gammas == (Fraction(1, 4), Fraction(1, 2))

    def test_branch_points_dominated_and_split(self):
        x = [HALF] * 3
        br = branch_lpc(triangle(), x, 0, mode="rational")
        assert br.x_hats[0][0] == 0 and br.x_hats[1][0] == 1
        for i in range(3):
            got = br.gammas[0] * br.x_hats[0][i] + br.gammas[1] * br.x_hats[1][i]
            assert got <= x[i]

    def test_branch_points_stay_in_relaxation_scaled(self):
        br = branch_lpc(triangle(), [HALF] * 3, 1, mode="rational")
        for xh in br.x_hats:
            for row in triangle().rows:
                assert row.value(xh) >= row.rhs

    def test_prefix_rounds_up(self):
        # a branched coordinate may drift below 1 inside the LP; the caller's
        # prefix list restores exact integrality
        br = branch_lpc(triangle(), (1, HALF, HALF), 1,
                        integral_prefix=[0], mode="rational")
        for xh in br.x_hats:
            if xh is not None:
                assert xh[0] in (0, 1)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ValueError):
            branch_lpc(triangle(), [0, HALF, HALF], 0)

    def test_gap_signal_on_empty_system(self):
        # x'=(1/2, 0, 0) dominates nothing in the cover polytope
        inst = triangle()
        with pytest.raises(UnboundedGapOrInfeasible):
            branch_lpc(inst, [HALF, 0, 0], 0, mode="rational")

    def test_float_matches_rational(self):
        brf = branch_lpc(triangle(), [0.5] * 3, 0, mode="float")
        assert float(brf.total) == pytest.approx(0.75)


class TestPrune:
    def test_keeps_mass_and_bounds_size(self):
        x_star = (HALF, HALF, HALF)
        # incoming weights must themselves satisfy the packing constraint
        nodes = [((1, 1, 0), Fraction(1, 6)), ((0, 1, 1), Fraction(1, 6)),
                 ((1, 0, 1), Fraction(1, 6)), ((1, 1, 1), Fraction(1, 24))]
        kept, old, new = prune(nodes, x_star, mode="rational")
        assert new >= old
        assert len(kept) <= len(support(x_star))
        comb = [sum(w * x[i] for x, w in kept) for i in range(3)]
        assert all(c <= s for c, s in zip(comb, x_star))

    def test_vertex_optimum_is_sparse(self):
        # four identical nodes: any split is optimal but a vertex keeps one
        x_star = (HALF, HALF)
        nodes = [((1, 1), Fraction(1, 8))] * 4
        kept, _, new = prune(nodes, x_star, mode="rational")
        assert len(kept) == 1
        assert new == HALF

    def test_empty_support_node_raises(self):
        with pytest.raises(lp.LpError):
            prune([((0, 0), Fraction(1))], (HALF, HALF), mode="rational")


class TestFdtTree:
    def test_triangle_exact_factor(self):
        cert = fdt_tree(triangle(), [HALF] * 3, mode="rational")
        assert cert.factor == Fraction(4, 3)
        assert sorted(cert.solutions) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert all(w == Fraction(1, 3) for w in cert.weights)
        ok, report = verify_certificate(cert, triangle(), tol=0)
        assert ok, report

    def test_float_mode_matches(self):
        cert = fdt_tree(triangle(), [0.5] * 3, mode="float")
        assert float(cert.factor) == pytest.approx(4 / 3)
        ok, report = verify_certificate(cert, triangle())
        assert ok, report

    def test_integral_input_passes_through(self):
        cert = fdt_tree(triangle(), [1, 1, 0], mode="rational")
        assert cert.factor == 1
        assert cert.k == 1

    def test_level_trace_invariants(self):
        trace = []
        cert = fdt_tree(triangle(), [HALF] * 3, mode="rational", trace=trace)
        assert [lv["level"] for lv in trace] == [1, 2, 3]
        t = 3
        for lv in trace:
            assert lv["size"] <= t
            assert lv["mass"] >= lv["pre_prune_mass"] - 1e-12
            for g in lv["branch_totals"]:
                assert g >= 0.5 - 1e-9  # two-branch bound for gap-2 systems
        assert cert.k <= t

    def test_branch_order_list(self):
        cert = fdt_tree(triangle(), [HALF] * 3, mode="rational",
                        branch_order=[2, 0, 1])
        assert cert.factor == Fraction(4, 3)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("order", [None, [0, 1], [1, 0]])
    def test_zero_point_certifies_one_solution(self, mode, order):
        # every certificate holds a solution, so x* = 0 allows k = 1; a
        # level on a zero coordinate used to prune with no rows (unbounded)
        inst = make_instance(2, [({0: 1}, 0)])
        cert = fdt_tree(inst, [0, 0], mode=mode, branch_order=order)
        assert (cert.k, cert.solutions, cert.factor) == (1, ((0, 0),), 1)
        assert verify_certificate(cert, inst, tol=0) == (True, [])

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_branch_order_skips_zero_coordinates(self, mode):
        inst = gen_vc(make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
        x = [HALF, HALF, 1, 0]
        runs = []
        for order in ([0, 1, 2], [3, 0, 1, 2, 3]):
            trace = []
            runs.append((fdt_tree(inst, x, mode=mode, branch_order=order, trace=trace),
                         [lv["coordinate"] for lv in trace]))
        assert runs[0] == runs[1]
        assert runs[0][1] == [0, 1, 2]

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_branch_order_branches_once_per_coordinate(self, mode):
        # a repeated coordinate once traced a fourth level, on a coordinate
        # every node had already settled
        runs = []
        for order in ([0, 1, 2], [0, 1, 2, 0]):
            trace = []
            runs.append((fdt_tree(triangle(), [HALF] * 3, mode=mode, branch_order=order,
                                  trace=trace),
                         [lv["coordinate"] for lv in trace]))
        assert runs[0] == runs[1]
        assert runs[1][1] == [0, 1, 2]

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("order,message", [
        ([0], r"misses coordinates \[1, 2\] of spp\(x\*\)"),
        ([2, 1, 0, 7], r"coordinates \[7\] are outside \[0, 3\)"),
        ([-1, 0, 1, 2], r"coordinates \[-1\] are outside \[0, 3\)"),
    ])
    def test_incomplete_or_out_of_range_branch_order_refused(self, monkeypatch, mode,
                                                              order, message):
        # [0] used to end in "InvariantError: leaf coordinate 1 = 0.5 is in
        # (0, 1)" after an exact retry, and the 7 was dropped silently
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was solved")
        monkeypatch.setattr(lp, "solve", no_lp)
        with pytest.raises(ValueError, match=message):
            fdt_tree(triangle(), [HALF] * 3, mode=mode, branch_order=order)

    def test_branch_order_random_still_valid(self):
        order = [0, 1, 2]
        random.Random(1).shuffle(order)
        cert = fdt_tree(triangle(), [HALF] * 3, mode="rational", branch_order=order)
        ok, report = verify_certificate(cert, triangle(), tol=0)
        assert ok, report

    def test_gap_one_instance_certified_exactly(self):
        # consecutive-ones rows: the relaxation is integral, so the factor
        # must come out exactly 1 even from a fractional interior point
        rows = [({i: 1 for i in range(a, b + 1)}, 1)
                for a, b in [(0, 2), (1, 3), (2, 5), (0, 1), (4, 5)]]
        inst = make_instance(6, rows, objective=[3, 1, 4, 1, 5, 9])
        cert = fdt_tree(inst, [HALF] * 6, mode="rational")
        assert cert.factor == 1
        ok, report = verify_certificate(cert, inst, tol=0)
        assert ok, report

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_settled_level_with_the_same_points_skips_the_prune_lp(self, monkeypatch, mode):
        # an edge at (1, 1) and a triangle at 1/2: levels 1 and 2 settle on
        # the root, and level 5 settles every node of level 4
        inst = gen_vc(make_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)],
                                 require_connected=False))
        x = [1, 1, HALF, HALF, HALF]
        if mode == "float":
            x = [float(v) for v in x]
        sizes = []
        monkeypatch.setattr(binary, "prune", lambda nodes, *args, **kwargs: (
            sizes.append(len(nodes)) or prune(nodes, *args, **kwargs)))
        trace = []
        cert = fdt_tree(inst, x, mode=mode, trace=trace)
        assert sizes == [1, 2, 3]
        assert [(lv["pre_prune_size"], lv["size"]) for lv in trace] == [
            (1, 1), (1, 1), (2, 2), (3, 3), (3, 3)]
        assert cert.factor == (Fraction(4, 3) if mode == "rational" else pytest.approx(4 / 3))
        assert verify_certificate(cert, inst, tol=0 if mode == "rational" else 1e-6)[0]

    def test_prune_again_returns_the_weights_it_gave(self):
        # what the skip relies on: a level whose nodes the pruning LP kept
        # gets the same weights from the same LP
        x_star = (HALF, HALF, HALF)
        nodes = [((1, 1, 0), Fraction(1, 6)), ((0, 1, 1), Fraction(1, 6)),
                 ((1, 0, 1), Fraction(1, 6))]
        kept, _, total = prune(nodes, x_star, mode="rational")
        assert len(kept) == len(nodes)
        assert prune(kept, x_star, mode="rational") == (kept, total, total)

    def test_unbounded_gap_signalled(self):
        inst = make_instance(2, [({0: 1, 1: 1}, 3)])
        with pytest.raises(UnboundedGapOrInfeasible):
            fdt_tree(inst, [HALF, HALF], mode="rational")

    def test_random_vc_certificates_all_valid(self):
        import networkx as nx
        from fdt.experiments import _solve_relaxation
        rng = random.Random(2)
        for i in range(8):
            n = rng.randint(6, 16)
            g = nx.gnp_random_graph(n, 0.3, seed=i)
            graph = make_graph(n, list(g.edges()), require_connected=False)
            if graph.num_edges == 0:
                continue
            inst = gen_vc(graph)
            _, x = _solve_relaxation(inst, "float")
            cert = fdt_tree(inst, x, mode="float")
            ok, report = verify_certificate(cert, inst)
            assert ok, (i, report)
            assert float(cert.factor) <= 2 + 1e-6


class TestPremise:
    """Both trees refuse an x* outside P, the relaxation, to within their
    tolerance; an empty P is a gap signal instead."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("x", [(Fraction(1, 10),) * 3, (0, 0, 0)])
    @pytest.mark.parametrize("tree", [fdt_tree, fdt_dive])
    def test_point_outside_relaxation_refused(self, tree, x, mode):
        with pytest.raises(ValidationError, match=r"^x\*: violates row 0: "):
            tree(triangle(), x, mode=mode)

    @pytest.mark.parametrize("tree", [fdt_tree, fdt_dive])
    def test_float_mode_allows_its_tolerance(self, tree):
        x = [0.5 - 1e-8] * 3  # every row short by 2e-8
        tree(triangle(), x, mode="float")
        with pytest.raises(ValidationError):
            tree(triangle(), x, mode="rational")

    @pytest.mark.parametrize("tree", [fdt_tree, fdt_dive])
    def test_empty_relaxation_is_a_gap_signal(self, tree):
        inst = make_instance(2, [({0: 1, 1: 1}, 3)])
        with pytest.raises(UnboundedGapOrInfeasible):
            tree(inst, [1, 1], mode="float")

    def test_emptiness_lp_runs_only_when_a_row_is_missed(self, monkeypatch):
        def refuse(inst):
            raise AssertionError("relaxation LP built for an x* in P")

        monkeypatch.setattr(binary, "relaxation_lp", refuse)
        fdt_tree(triangle(), [HALF] * 3, mode="rational")
        fdt_dive(triangle(), [HALF] * 3, mode="rational")


class TestFdtDive:
    def test_deterministic_per_seed(self):
        inst = triangle()
        for seed in range(5):
            a = fdt_dive(inst, [0.5] * 3, seed=seed)
            b = fdt_dive(inst, [0.5] * 3, seed=seed)
            assert a == b

    def test_solutions_feasible(self):
        inst = triangle()
        for seed in range(10):
            z = fdt_dive(inst, [0.5] * 3, seed=seed)
            assert all(row.value(z) >= row.rhs for row in inst.rows)

    def test_trace_records_branch_probability(self):
        trace = []
        fdt_dive(triangle(), [0.5] * 3, seed=0, trace=trace)
        assert trace
        assert trace[0]["coordinate"] == 0
        assert trace[0]["p0"] == pytest.approx(1 / 3)  # gamma = (1/4, 1/2)
        assert trace[0]["branch"] in (0, 1)


class TestZeroOneTwo:
    """x0 + x1 >= 3 over {0,1,2}: x* = (3/2, 3/2) is the average of (1, 2)
    and (2, 1), so the three-way tree certifies C = 1."""

    def inst(self):
        return make_instance(2, [({0: 1, 1: 1}, 3)], kind=ZEROONETWO)

    def test_branch_is_three_way(self):
        br = branch_lpc(self.inst(), [Fraction(3, 2)] * 2, 0, mode="rational")
        assert len(br.gammas) == 3
        assert br.total == 1
        assert br.x_hats[1] == (1, 2) and br.x_hats[2] == (2, 1)

    def test_tree_certifies_factor_one_exactly(self):
        inst = self.inst()
        cert = fdt_tree(inst, [Fraction(3, 2)] * 2, mode="rational")
        assert cert.factor == 1
        assert sorted(cert.solutions) == [(1, 2), (2, 1)]
        ok, report = verify_certificate(cert, inst, tol=0)
        assert ok, report

    def test_tree_float_mode_verifies(self):
        inst = self.inst()
        cert = fdt_tree(inst, [1.5, 1.5], mode="float")
        assert float(cert.factor) == pytest.approx(1.0)
        ok, report = verify_certificate(cert, inst)
        assert ok, report

    def test_dive_reaches_a_feasible_solution(self):
        inst = self.inst()
        for seed in range(6):
            for x in ([Fraction(3, 2)] * 2, [1.5, 1.5]):
                mode = "rational" if isinstance(x[0], Fraction) else "float"
                z = fdt_dive(inst, x, seed=seed, mode=mode)
                assert sorted(z) == [1, 2]

    def test_branched_coordinates_stay_integral(self):
        # coordinate 0 settles at 1 on level 1; the level-2 branch on x2 may
        # not move it to 3/2, or the 0-branch's floored leaf (1, 0, 0) would
        # miss 2 x0 + 2 x2 >= 3
        inst = make_instance(3, [({0: 1, 1: 1}, 1), ({0: 2, 2: 2}, 3)],
                             kind=ZEROONETWO)
        cert = fdt_tree(inst, [1, 0, HALF], mode="rational")
        ok, report = verify_certificate(cert, inst, tol=0)
        assert ok, report

    def test_point_a_hair_off_half_certifies_exactly(self):
        # x0 + x1 >= 1 + 1e-12 at (1/2 + 1e-12, 1/2): every float tolerance
        # would read the hair as 0; rational mode keeps it
        eps = Fraction(1, 10**12)
        inst = make_instance(2, [({0: 1, 1: 1}, 1 + eps)], kind=ZEROONETWO)
        cert = fdt_tree(inst, [HALF + eps, HALF], mode="rational")
        ok, report = verify_certificate(cert, inst, tol=0)
        assert ok, report

    def test_float_tree_a_hair_off_half_makes_no_gap_claim(self):
        # the float tree reads the hair as 0 and floors a leaf to (0, 1),
        # which misses the row by 1e-12; the exact integer check sees it and
        # the tree runs again in rational mode, where a 1e-9 check let the
        # leaf reach dom_to_ip, whose failure claimed an unbounded gap on an
        # instance with the point (1, 1)
        eps = Fraction(1, 10**12)
        inst = make_instance(2, [({0: 1, 1: 1}, 1 + eps)], kind=ZEROONETWO)
        trace = ["an earlier record"]
        cert = fdt_tree(inst, [HALF + eps, HALF], mode="float", trace=trace)
        assert cert.factor == 2 and isinstance(cert.factor, Fraction)
        ok, report = verify_certificate(cert, inst, tol=0)
        assert ok, report
        # the failed float run's levels are dropped, the caller's record kept
        assert [lv if isinstance(lv, str) else lv["level"] for lv in trace] == [
            "an earlier record", 1, 2]
        ok, report = check_integer_feasible((0, 1), inst)
        assert report == ["row 0 violated: 1 < 1000000000001/1000000000000"]

    def test_float_dive_a_hair_off_half_retries_exactly(self):
        # the float dive floors the same infeasible leaf as the float tree
        # and walks again in rational mode from the same seed, keeping only
        # that walk's records
        eps = Fraction(1, 10**12)
        inst = make_instance(2, [({0: 1, 1: 1}, 1 + eps)], kind=ZEROONETWO)
        x = [HALF + eps, HALF]
        for seed in range(6):
            exact = []
            z = fdt_dive(inst, x, seed=seed, mode="rational", trace=exact)
            assert sorted(z) in ([0, 2], [1, 1])
            trace = ["an earlier record"]
            assert fdt_dive(inst, x, seed=seed, mode="float", trace=trace) == z
            assert trace == ["an earlier record", *exact]

    def test_infeasible_floored_leaf_is_an_invariant_error(self):
        # (3/2, 3/2) floors to (1, 1), which misses the row: a leaf should
        # never look like this, so no gap claim is made
        with pytest.raises(InvariantError):
            _leaf_solution(self.inst(), (Fraction(3, 2),) * 2, "rational")


class TestLevelInvariants:
    """_check_level on a valid level, then with one condition broken."""

    LEVEL = dict(L=[((1, 0), HALF), ((0, 1), HALF)], x_star=(HALF, HALF), branched=[0, 1],
                 t=2, old_total=1, new_total=1, tol=0)

    def test_valid_level_passes(self):
        binary._check_level(**self.LEVEL)

    @pytest.mark.parametrize("change, message", [
        ({"t": 1}, "level has 2 nodes, limit 1"),
        ({"new_total": HALF}, "prune lost mass: 1.0 -> 0.5"),
        ({"L": [((HALF, 0), 1)]}, r"coordinate 0 has value 0.5 in \(0, 1\)"),
        ({"x_star": (HALF, Fraction(1, 4))}, "mass exceeds base point at 1: 0.5 > 0.25"),
    ])
    def test_each_broken_condition_raises(self, change, message):
        with pytest.raises(InvariantError, match=message):
            binary._check_level(**{**self.LEVEL, **change})


class TestExactRetry:
    """A float tree whose pruning breaks mass is built again exactly; the
    same break in rational mode is an error, not a second retry."""

    def break_prune(self, monkeypatch, broken_mode):
        real = binary.prune
        broken = []

        def prune(nodes, x_star, supp=None, mode="float"):
            kept, old_total, new_total = real(nodes, x_star, supp, mode=mode)
            if mode != broken_mode:
                return kept, old_total, new_total
            broken.append(mode)
            kept = [(x, w / 2) for x, w in kept]
            return kept, old_total, sum(w for _, w in kept)
        monkeypatch.setattr(binary, "prune", prune)
        return broken

    def test_float_tree_returns_the_rational_certificate(self, monkeypatch):
        exact = fdt_tree(triangle(), [HALF] * 3, mode="rational")
        broken = self.break_prune(monkeypatch, "float")
        assert fdt_tree(triangle(), [0.5] * 3, mode="float") == exact
        assert broken == ["float"]

    def test_rational_tree_raises(self, monkeypatch):
        broken = self.break_prune(monkeypatch, "rational")
        with pytest.raises(InvariantError, match="prune lost mass"):
            fdt_tree(triangle(), [HALF] * 3, mode="rational")
        assert broken == ["rational"]
