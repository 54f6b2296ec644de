import json
from fractions import Fraction

import pytest

from fdt import (SubtourPoint, dom_to_ip, fdt_2ec, fdt_dive, fdt_tree, gen_vc, helper_lp,
                 make_graph)
from fdt.model import (BINARY, FLOAT, RATIONAL, ZEROONETWO, Certificate, Row, RowMatrix,
                       ValidationError, arithmetic, as_fraction, certificate_from_dict,
                       certificate_to_dict,
                       check_integer_feasible, instance_from_dict,
                       instance_to_dict, is_integral, is_zero, load_instance,
                       make_instance, save_instance, support,
                       verify_certificate)


def triangle_vc():
    return make_instance(3, [({0: 1, 1: 1}, 1), ({1: 1, 2: 1}, 1),
                             ({0: 1, 2: 1}, 1)], objective=[1, 1, 1])


class TestArithmetic:
    def test_modes(self):
        assert arithmetic("float") is FLOAT and arithmetic("rational") is RATIONAL
        assert (FLOAT.number, FLOAT.exact, FLOAT.tol(1e-6)) == (float, False, 1e-6)
        assert (RATIONAL.number, RATIONAL.exact, RATIONAL.tol(1e-6)) == (Fraction, True, 0)

    @pytest.mark.parametrize("entry", ["fdt_tree", "fdt_dive", "fdt_2ec", "dom_to_ip",
                                       "helper_lp"])
    def test_unknown_mode_is_refused(self, entry):
        # each of these once ran an unknown mode as float, or failed only
        # when it reached lp.solve
        graph = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        inst = gen_vc(graph)
        half = [Fraction(1, 2)] * 3
        calls = {
            "fdt_tree": lambda: fdt_tree(inst, half, mode="exact"),
            "fdt_dive": lambda: fdt_dive(inst, half, mode="exact"),
            "fdt_2ec": lambda: fdt_2ec(SubtourPoint(graph, (1,) * 3), mode="exact"),
            "dom_to_ip": lambda: dom_to_ip(inst, [1, 1, 1], mode="exact"),
            "helper_lp": lambda: helper_lp(inst, [1, 1, 1], [], 0, mode="exact"),
        }
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            calls[entry]()


class TestRowMatrix:
    ROWS = [Row({0: Fraction(1), 2: Fraction(1, 3)}, Fraction(2)),
            Row({1: Fraction(-2)}, Fraction(-1, 3)),
            Row({}, Fraction(0)),
            Row({2: Fraction(5, 1)}, Fraction(7, 2))]

    @staticmethod
    def lists(m):
        return m.start, m.index, m.values, m.rhs

    def test_integral_fractions_stored_as_ints(self):
        start, index, values, rhs = self.lists(RowMatrix(self.ROWS))
        assert (start, index) == ([0, 2, 3, 3, 4], [0, 2, 1, 2])
        assert values == [1, Fraction(1, 3), -2, 5] and rhs == [2, Fraction(-1, 3), 0,
                                                                  Fraction(7, 2)]
        assert [type(v) for v in values + rhs] == [int, Fraction, int, int, int, Fraction,
                                                  int, Fraction]

    @pytest.mark.parametrize("split", range(5))
    def test_append_equals_one_matrix(self, split):
        grown = RowMatrix(self.ROWS[:split])
        for row in self.ROWS[split:]:
            grown.append(row.coef, row.coef.values(), row.rhs)
        whole = RowMatrix(self.ROWS)
        assert len(grown) == len(whole) == len(self.ROWS)
        assert self.lists(grown) == self.lists(whole)

    def test_rows_iterate_as_slices(self):
        assert list(RowMatrix(self.ROWS)) == [([0, 2], [1, Fraction(1, 3)], 2),
                                               ([1], [-2], Fraction(-1, 3)),
                                               ([], [], 0),
                                               ([2], [5], Fraction(7, 2))]


class TestNumbers:
    def test_as_fraction_parses_fraction_strings(self):
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction("2") == 2
        assert as_fraction(5) == 5
        assert as_fraction(0.5) == Fraction(1, 2)

    def test_as_fraction_rejects_junk(self):
        with pytest.raises(ValidationError):
            as_fraction(float("nan"))
        with pytest.raises(ValidationError):
            as_fraction(True)
        with pytest.raises((ValidationError, ValueError)):
            as_fraction("three")

    def test_zero_and_integrality_tolerances(self):
        assert is_zero(1e-12)
        assert not is_zero(1e-6)
        assert is_zero(Fraction(0))
        assert not is_zero(Fraction(1, 10**12))  # exact types compare exactly
        assert is_integral(1.0 + 1e-12)
        assert not is_integral(0.5)
        assert not is_integral(Fraction(1, 2))

    def test_support_skips_zeros(self):
        assert support([0, 0.5, 0, 1, 1e-12]) == [1, 3]
        assert support([Fraction(0), Fraction(1, 3)]) == [1]


class TestInstance:
    def test_sense_normalization(self):
        inst = make_instance(2, [({0: 1}, 1, "<="), ({1: 1}, 1, "==")])
        # <= becomes a negated >=; == splits into a >= pair
        assert len(inst.rows) == 3
        assert inst.rows[0].coef == {0: -1} and inst.rows[0].rhs == -1
        assert inst.rows[1].coef == {1: 1} and inst.rows[2].coef == {1: -1}

    def test_bad_index_rejected(self):
        with pytest.raises(ValidationError):
            make_instance(2, [({5: 1}, 1)])

    def test_negative_objective_rejected(self):
        with pytest.raises(ValidationError):
            make_instance(1, [({0: 1}, 1)], objective=[-1])

    def test_kind_controls_upper_bound(self):
        assert make_instance(1, [], kind=BINARY).var_upper == 1
        assert make_instance(1, [], kind=ZEROONETWO).var_upper == 2
        with pytest.raises(ValidationError):
            make_instance(1, [], kind="ternary")

    def test_cost(self):
        inst = triangle_vc()
        assert inst.cost([1, 0, 1]) == 2

    def test_round_trip_is_identity(self, tmp_path):
        inst = make_instance(
            3,
            [({0: Fraction(1, 3), 2: 2}, Fraction(5, 7))],
            objective=[Fraction(1, 2), 0, 3],
            name="rt",
        )
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back == inst

    def test_dict_form_uses_fraction_strings(self):
        inst = make_instance(1, [({0: Fraction(1, 3)}, 1)])
        d = instance_to_dict(inst)
        assert d["rows"][0]["coef"]["0"] == "1/3"
        assert instance_from_dict(d) == inst

    def test_malformed_instance_reports(self):
        with pytest.raises(ValidationError):
            instance_from_dict({"num_vars": 2})


class TestFeasibility:
    def test_feasible_point_accepted(self):
        ok, report = check_integer_feasible([1, 0, 1], triangle_vc())
        assert ok and report == []

    def test_violated_row_named(self):
        ok, report = check_integer_feasible([1, 0, 0], triangle_vc())
        assert not ok
        assert any("row 1" in line for line in report)

    def test_out_of_domain_named(self):
        ok, report = check_integer_feasible([2, 1, 1], triangle_vc())
        assert not ok and "coordinate 0" in report[0]

    def test_exact_row_check_at_tol_zero(self):
        tiny = Fraction(1, 10**10)
        inst = make_instance(1, [({0: tiny}, tiny)])
        ok, report = check_integer_feasible((0,), inst, tol=0)
        assert not ok and "row 0" in report[0]
        cert = Certificate(1, (1,), ((0,),), (1,))
        ok, report = verify_certificate(cert, inst, tol=0)
        assert not ok and any("infeasible" in line for line in report)

    def test_fractional_point_is_caller_error(self):
        with pytest.raises(ValidationError):
            check_integer_feasible([0.5, 1, 1], triangle_vc())


class TestCertificate:
    def make_cert(self):
        # the exact decomposition of the half-point of the triangle
        third = Fraction(1, 3)
        return Certificate(
            factor=Fraction(4, 3),
            weights=(third, third, third),
            solutions=((0, 1, 1), (1, 0, 1), (1, 1, 0)),
            base_point=(Fraction(1, 2),) * 3,
        )

    def test_valid_certificate_passes_exactly(self):
        ok, report = verify_certificate(self.make_cert(), triangle_vc(), tol=0)
        assert ok, report

    def test_combination(self):
        cert = self.make_cert()
        assert cert.combination() == [Fraction(2, 3)] * 3

    def test_tampered_weights_named(self):
        cert = self.make_cert()
        bad = Certificate(cert.factor, (Fraction(1, 2),) + cert.weights[1:],
                          cert.solutions, cert.base_point)
        ok, report = verify_certificate(bad, triangle_vc(), tol=0)
        assert not ok and any("weights" in line for line in report)

    def test_tampered_solution_named(self):
        cert = self.make_cert()
        bad = Certificate(cert.factor, cert.weights,
                          ((0, 0, 1),) + cert.solutions[1:], cert.base_point)
        ok, report = verify_certificate(bad, triangle_vc(), tol=0)
        assert not ok and any("solution 0" in line for line in report)

    def test_domination_failure_named(self):
        cert = self.make_cert()
        bad = Certificate(Fraction(1), cert.weights, cert.solutions,
                          cert.base_point)
        ok, report = verify_certificate(bad, triangle_vc(), tol=0)
        assert not ok and any("domination" in line for line in report)

    def test_too_many_solutions_rejected(self):
        cert = self.make_cert()
        w = (Fraction(1, 4),) * 4
        bad = Certificate(cert.factor, w, cert.solutions + ((1, 1, 1),),
                          cert.base_point)
        ok, report = verify_certificate(bad, triangle_vc(), tol=0)
        assert not ok and any("too many" in line for line in report)

    def test_base_point_outside_box_named(self):
        cert = self.make_cert()
        bad = Certificate(cert.factor, cert.weights, cert.solutions,
                          (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2)))
        ok, report = verify_certificate(bad, triangle_vc(), tol=0)
        assert not ok
        assert "base point: coordinate 0 = 1.5 outside [0, 1]" in report
        assert "base point: coordinate 2 = -0.5 outside [0, 1]" in report

    def test_base_point_row_checked_exactly(self):
        # row 1 (x1 + x2 >= 1) falls short by 1e-12: outside P, inside the
        # float tolerance
        cert = self.make_cert()
        x = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**12))
        near = Certificate(Fraction(3, 2), cert.weights, cert.solutions, x)
        ok, report = verify_certificate(near, triangle_vc(), tol=0)
        assert not ok
        assert [line for line in report if line.startswith("base point")] == [
            "base point violates row 1: 1 < 1", "base point violates row 2: 1 < 1"]
        ok, report = verify_certificate(near, triangle_vc())
        assert ok, report

    def test_domination_cap_allows_doubled_coordinates(self):
        # min(C x*, upper) is the bound: a coordinate at the variable cap is
        # fine even when C x* exceeds it (x* = 1/2 is in P: 2 x0 >= 1)
        inst = make_instance(1, [({0: 2}, 1)])
        cert = Certificate(Fraction(3), (Fraction(1),), ((1,),), (Fraction(1, 2),))
        ok, report = verify_certificate(cert, inst, tol=0)
        assert ok, report

    def test_certificate_round_trip(self):
        cert = self.make_cert()
        back = certificate_from_dict(certificate_to_dict(cert))
        assert back.factor == cert.factor
        assert back.weights == cert.weights
        assert back.solutions == cert.solutions
        assert back.base_point == cert.base_point
