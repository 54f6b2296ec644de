import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from fdt import domtoip, lp
from fdt.domtoip import (UnboundedGapOrInfeasible, dom_to_ip,
                         dom_to_ip_from_fractional, helper_lp)
from fdt.model import ValidationError, make_instance


def triangle_vc():
    return make_instance(3, [({0: 1, 1: 1}, 1), ({1: 1, 2: 1}, 1),
                             ({0: 1, 2: 1}, 1)])


def brute_force_dominated(inst, x_tilde):
    """Smallest-support feasible z <= x_tilde by enumeration, or None."""
    n = inst.num_vars
    free = [i for i in range(n) if x_tilde[i]]
    best = None
    for bits in itertools.product((0, 1), repeat=len(free)):
        z = [0] * n
        for i, v in zip(free, bits):
            z[i] = v
        if all(row.value(z) >= row.rhs for row in inst.rows):
            if best is None or sum(z) < sum(best):
                best = z
    return best


class TestHelperLp:
    def test_reports_min_of_target(self):
        inst = triangle_vc()
        out = helper_lp(inst, [1, 1, 1], finalized=[], target=0, mode="rational")
        assert out.status == lp.OPTIMAL
        assert out.objective == 0  # {1,2} still cover everything

    def test_pinned_prefix_constrains(self):
        inst = triangle_vc()
        # with coordinate 1 finalized at 0, edge (0,1) forces x0 = 1
        out = helper_lp(inst, [1, 0, 1], finalized=[1], target=0, mode="rational")
        assert out.status == lp.OPTIMAL
        assert out.objective == 1

    def test_zero_capped_columns_are_dropped(self):
        inst = triangle_vc()
        out = helper_lp(inst, [1, 1, 0], finalized=[], target=0, mode="rational")
        assert out.solution[2] == 0

    def test_infeasible_when_caps_too_tight(self):
        inst = triangle_vc()
        out = helper_lp(inst, [1, 0, 0], finalized=[], target=0, mode="rational")
        assert out.status == lp.INFEASIBLE

    def test_lp_solved_only_off_covering_rows(self, monkeypatch):
        calls = []
        real = lp.solve

        def counting(problem, mode):
            calls.append(mode)
            return real(problem, mode)

        monkeypatch.setattr(lp, "solve", counting)
        for mode in ("rational", "float"):
            assert dom_to_ip(triangle_vc(), [1, 1, 1], mode=mode) == [0, 1, 1]
        assert calls == []
        # a <= row is stored negated, so the instance is not covering
        mixed = make_instance(3, [({0: 1, 1: 1}, 1), ({0: 1, 1: 1, 2: 1}, 2, "<=")])
        assert not mixed.covering
        assert dom_to_ip(mixed, [1, 1, 1], mode="rational") == [0, 1, 0]
        assert len(calls) >= 1


class TestDomToIp:
    def test_all_ones_reduces_to_minimal_cover(self):
        z = dom_to_ip(triangle_vc(), [1, 1, 1], mode="rational")
        assert sum(z) == 2  # triangle needs two vertices
        ok = all(row.value(z) >= row.rhs for row in triangle_vc().rows)
        assert ok

    def test_output_dominated_by_input(self):
        x_tilde = [1, 1, 0]
        z = dom_to_ip(triangle_vc(), x_tilde, mode="rational")
        assert all(a <= b for a, b in zip(z, x_tilde))

    def test_raises_outside_dominant(self):
        with pytest.raises(UnboundedGapOrInfeasible):
            dom_to_ip(triangle_vc(), [1, 0, 0], mode="rational")

    def test_raises_on_infeasible_system(self):
        inst = make_instance(2, [({0: 1, 1: 1}, 3)])
        with pytest.raises(UnboundedGapOrInfeasible):
            dom_to_ip(inst, [1, 1], mode="rational")

    @pytest.mark.parametrize("inst, x_tilde, message", [
        (triangle_vc(), [0, 0, 0], r"^no dominated solution: row 0 violated: 0 < 1$"),
        (make_instance(2, [({0: 1, 1: -1}, 1)]), [0, 1],
         r"^helper LP infeasible: input outside dom\(P\) or unbounded gap$"),
    ])
    def test_float_refusal_restarts_once_in_rational_mode(self, monkeypatch, inst, x_tilde,
                                                          message):
        # a float run restarts only after reading a float optimum; these
        # refusals read none (no support, or an infeasible LP that
        # lp.solve settled exactly), so the float run raises
        with pytest.raises(UnboundedGapOrInfeasible, match=message):
            self.modes_of(monkeypatch, inst, x_tilde)
        assert self.modes == ["float"]

    def test_refusal_after_a_float_optimum_restarts_once(self, monkeypatch):
        # x0 = x1 = 1/2 is the only point: the float optimum 0.5 pins x0 at
        # 1, and the next helper LP is infeasible
        inst = make_instance(2, [({0: 1, 1: 1}, 1, "=="), ({0: 1, 1: -1}, 0, "==")])
        with pytest.raises(UnboundedGapOrInfeasible, match="^helper LP infeasible"):
            self.modes_of(monkeypatch, inst, [1, 1])
        assert self.modes == ["float", "rational"]

    def modes_of(self, monkeypatch, inst, x_tilde):
        """Run float dom_to_ip, recording in self.modes every mode it runs in."""
        self.modes = []
        real = domtoip.dom_to_ip

        def spy(inst, x_tilde, mode="float"):
            self.modes.append(mode)
            return real(inst, x_tilde, mode=mode)
        monkeypatch.setattr(domtoip, "dom_to_ip", spy)
        return domtoip.dom_to_ip(inst, x_tilde, mode="float")

    def test_fractional_input_is_caller_error(self):
        with pytest.raises(ValueError):
            dom_to_ip(triangle_vc(), [0.5, 1, 1])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            dom_to_ip(triangle_vc(), [1, 1])

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("first", [-1, -1.0, Fraction(-2), math.inf, -math.inf, math.nan])
    def test_negative_or_non_finite_coordinate_rejected(self, first, mode):
        with pytest.raises(ValidationError, match="coordinate 0"):
            dom_to_ip(triangle_vc(), [first, 1, 1], mode=mode)

    def test_coordinate_above_cap_is_legal(self):
        # dom(P) is unbounded above
        assert dom_to_ip(triangle_vc(), [2, 1, 1], mode="rational") == [0, 1, 1]

    def test_float_mode_matches_rational(self):
        for x_tilde in ([1, 1, 1], [0, 1, 1], [1, 1, 0]):
            zf = dom_to_ip(triangle_vc(), x_tilde, mode="float")
            zr = dom_to_ip(triangle_vc(), x_tilde, mode="rational")
            assert zf == zr

    def test_rational_mode_reads_the_helper_optimum_exactly(self):
        # x0 >= 1 + 1e-12 over {0,1,2}: the helper LP's optimum is a hair
        # above 1, so 1 is infeasible and the coordinate must stay at 2
        inst = make_instance(1, [({0: 1}, 1 + Fraction(1, 10**12))], kind="zeroonetwo")
        assert dom_to_ip(inst, [2], mode="rational") == [2]

    def test_zeroonetwo_caps_respected(self):
        inst = make_instance(2, [({0: 1, 1: 1}, 3)], kind="zeroonetwo")
        z = dom_to_ip(inst, [2, 2], mode="rational")
        assert all(row.value(z) >= row.rhs for row in inst.rows)
        assert all(v <= 2 for v in z)


class TestFractionalEntry:
    def test_ceiling_then_push_down(self):
        z = dom_to_ip_from_fractional(triangle_vc(), [0.5, 0.5, 0.5])
        assert sum(z) == 2

    def test_near_integer_values_do_not_round_up(self):
        z = dom_to_ip_from_fractional(triangle_vc(), [1.0 + 1e-12, 1.0, 1e-12])
        assert z[2] == 0

    @pytest.mark.parametrize("mode", ["float", "rational"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinate_rejected(self, bad, mode):
        # inf used to raise OverflowError from the rounding, NaN ValueError
        with pytest.raises(ValidationError, match="coordinate 1 = .* is not finite"):
            dom_to_ip_from_fractional(triangle_vc(), [0.5, bad, 0.5], mode=mode)


class TestOracleEquivalence:
    def test_random_covering_instances(self):
        rng = random.Random(23)
        agree = refuse = 0
        for trial in range(120):
            n = rng.randint(3, 10)
            rows = []
            for _ in range(rng.randint(2, 7)):
                coef = {i: rng.randint(1, 3)
                        for i in rng.sample(range(n), rng.randint(1, min(4, n)))}
                rows.append((coef, rng.randint(0, 4)))
            inst = make_instance(n, rows)
            assert inst.covering
            x_tilde = [int(rng.random() < 0.7) for _ in range(n)]
            expected = brute_force_dominated(inst, x_tilde)
            try:
                z = dom_to_ip(inst, x_tilde, mode="rational")
            except UnboundedGapOrInfeasible:
                assert expected is None, trial
                refuse += 1
                continue
            assert expected is not None, trial
            assert all(a <= b for a, b in zip(z, x_tilde)), trial
            assert all(row.value(z) >= row.rhs for row in inst.rows), trial
            agree += 1
        assert agree > 20 and refuse > 5  # both branches exercised

    def test_random_mixed_sign_instances(self, monkeypatch):
        """With <= and == rows and negative coefficients the helper LPs are
        solved, and float refusals restart in rational mode.  Off covering
        rows dom_to_ip may refuse a point that dominates a solution; what it
        returns must still be feasible and dominated."""
        helper_solves = restarts = 0
        real_solve, real_dom_to_ip = lp.solve, domtoip.dom_to_ip

        def counting_solve(problem, mode):
            nonlocal helper_solves
            helper_solves += 1
            return real_solve(problem, mode)

        def counting_dom_to_ip(inst, x_tilde, mode="float"):
            nonlocal restarts
            restarts += sys._getframe(1).f_code.co_name == "dom_to_ip"
            return real_dom_to_ip(inst, x_tilde, mode=mode)

        monkeypatch.setattr(lp, "solve", counting_solve)
        monkeypatch.setattr(domtoip, "dom_to_ip", counting_dom_to_ip)
        rng = random.Random(29)
        agree = refuse = 0
        for trial in range(80):
            n = rng.randint(3, 8)
            rows = []
            for _ in range(rng.randint(1, 4)):
                coef = {i: rng.choice([-2, -1, 1, 2, 3])
                        for i in rng.sample(range(n), rng.randint(1, min(4, n)))}
                rows.append((coef, rng.randint(-1, 2), rng.choice([">=", ">=", "<=", "=="])))
            i, j = rng.sample(range(n), 2)
            rows.append(({i: 1, j: 1}, rng.randint(1, 2), "<="))
            inst = make_instance(n, rows)
            assert not inst.covering
            x_tilde = [int(rng.random() < 0.8) for _ in range(n)]
            expected = brute_force_dominated(inst, x_tilde)
            results = []
            for mode in ("rational", "float"):
                try:
                    results.append(dom_to_ip(inst, x_tilde, mode=mode))
                except UnboundedGapOrInfeasible:
                    results.append(None)
            z = results[0]
            assert results[1] == z, trial
            if z is None:
                refuse += 1
                continue
            assert expected is not None, trial
            assert all(a <= b for a, b in zip(z, x_tilde)), trial
            assert all(row.value(z) >= row.rhs for row in inst.rows), trial
            agree += 1
        assert agree > 20 and refuse > 20  # both branches exercised
        assert helper_solves > 0 and restarts > 0
