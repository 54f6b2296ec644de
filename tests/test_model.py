import ast
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fdt import (SubtourPoint, dom_to_ip, fdt_2ec, fdt_dive, fdt_tree, gen_vc, helper_lp,
                 make_graph)
from fdt.model import (BINARY, FLOAT, RATIONAL, ZEROONETWO, Certificate, RowMatrix,
                       ValidationError, arithmetic, as_fraction, certificate_from_dict,
                       certificate_to_dict,
                       check_integer_feasible, instance_from_dict,
                       instance_to_dict, is_integral, is_zero, load_instance,
                       make_instance, save_instance, solution_limit, support,
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
    ROWS = [([0, 2], [Fraction(1), Fraction(1, 3)], Fraction(2)),
            ([1], [Fraction(-2)], Fraction(-1, 3)),
            ([], [], Fraction(0)),
            ([2], [Fraction(5, 1)], Fraction(7, 2))]

    @staticmethod
    def lists(m):
        return m.start, m.index, m.values, m.rhs

    @staticmethod
    def matrix(rows):
        m = RowMatrix()
        for row in rows:
            m.append(*row)
        return m

    def test_integral_fractions_stored_as_ints(self):
        start, index, values, rhs = self.lists(self.matrix(self.ROWS))
        assert (start, index) == ([0, 2, 3, 3, 4], [0, 2, 1, 2])
        assert values == [1, Fraction(1, 3), -2, 5] and rhs == [2, Fraction(-1, 3), 0,
                                                                  Fraction(7, 2)]
        assert [type(v) for v in values + rhs] == [int, Fraction, int, int, int, Fraction,
                                                  int, Fraction]

    @pytest.mark.parametrize("split", range(5))
    def test_append_equals_one_matrix(self, split):
        grown = RowMatrix(*map(list, self.lists(self.matrix(self.ROWS[:split]))))
        for row in self.ROWS[split:]:
            grown.append(*row)
        whole = self.matrix(self.ROWS)
        assert len(grown) == len(whole) == len(self.ROWS)
        assert self.lists(grown) == self.lists(whole)

    def test_rows_iterate_as_slices(self):
        rows = list(self.matrix(self.ROWS))
        assert rows == [([0, 2], [1, Fraction(1, 3)], 2),
                        ([1], [-2], Fraction(-1, 3)),
                        ([], [], 0),
                        ([2], [5], Fraction(7, 2))]
        assert [row.value([3, 1, 6]) for row in rows] == [5, -2, 0, 30]

    def test_equality_reads_every_list(self):
        same = self.matrix(self.ROWS)
        assert self.matrix(self.ROWS) == same
        changed_coef = [([0, 2], [Fraction(1), Fraction(2, 3)], Fraction(2)), *self.ROWS[1:]]
        changed_rhs = [*self.ROWS[:3], ([2], [Fraction(5)], Fraction(5, 2))]
        extra_row = [*self.ROWS, ([], [], Fraction(0))]
        for rows in (changed_coef, changed_rhs, extra_row):
            assert self.matrix(rows) != same

    def test_append_drops_the_covering_answer(self):
        # the instance used to cache covering itself, so a negative row
        # appended after the first read still read as covering
        inst = make_instance(2, [({0: 1, 1: 1}, 1)])
        assert inst.covering
        inst.rows.append([0, 1], [-1, -1], -1)
        assert not inst.covering and not inst.rows.covering
        assert inst.rows == self.matrix([([0, 1], [1, 1], 1), ([0, 1], [-1, -1], -1)])


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
        assert list(inst.rows) == [([0], [-1], -1), ([1], [1], 1), ([1], [-1], -1)]

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
        ok, report = check_integer_feasible((0,), inst)
        assert not ok and "row 0" in report[0]
        cert = Certificate(1, (1,), ((0,),), (1,))
        ok, report = verify_certificate(cert, inst, tol=0)
        assert not ok and any("infeasible" in line for line in report)

    def test_fractional_point_is_caller_error(self):
        with pytest.raises(ValidationError):
            check_integer_feasible([0.5, 1, 1], triangle_vc())

    @pytest.mark.parametrize("v", [1 - 1e-12, math.nan, math.inf])
    def test_no_tolerance_for_integrality(self, v):
        # an integer point needs none: a float a hair off 1 is not integral
        with pytest.raises(ValidationError, match="coordinate 0"):
            check_integer_feasible([v, 1, 1], triangle_vc())


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

    @pytest.mark.parametrize("base_point, k, line", [
        ((0, 0, 0), 1, None),
        ((0, 0, 0), 2, "too many solutions: k = 2 > 1, as x* = 0"),
        ((1, 0, 0), 2, "too many solutions: k = 2 > |spp(x*)| = 1"),
        ((1, 1, 0), 2, None),
    ])
    def test_solution_limit_is_at_least_one(self, base_point, k, line):
        # k <= max(1, |spp(x*)|): every certificate holds a solution
        assert solution_limit(base_point) == max(1, len(support(base_point)))
        cert = Certificate(Fraction(1), (Fraction(1, k),) * k, ((0, 0, 0),) * k,
                           tuple(map(Fraction, base_point)))
        ok, report = verify_certificate(cert, make_instance(3, []), tol=0)
        assert report == ([] if line is None else [line])

    def test_base_point_outside_box_named(self):
        cert = self.make_cert()
        bad = Certificate(cert.factor, cert.weights, cert.solutions,
                          (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2)))
        ok, report = verify_certificate(bad, triangle_vc(), tol=0)
        assert not ok
        assert "base point: coordinate 0 = 3/2 outside [0, 1]" in report
        assert "base point: coordinate 2 = -1/2 outside [0, 1]" in report

    def test_base_point_row_checked_exactly(self):
        # row 1 (x1 + x2 >= 1) falls short by 1e-12: outside P, inside the
        # float tolerance
        cert = self.make_cert()
        x = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**12))
        near = Certificate(Fraction(3, 2), cert.weights, cert.solutions, x)
        ok, report = verify_certificate(near, triangle_vc(), tol=0)
        assert not ok
        assert [line for line in report if line.startswith("base point")] == [
            "base point violates row 1: 999999999999/1000000000000 < 1",
            "base point violates row 2: 999999999999/1000000000000 < 1"]
        ok, report = verify_certificate(near, triangle_vc())
        assert ok, report

    def test_weight_sum_and_domination_reported_exactly(self):
        # both miss by 1e-12, which nine significant digits print as "1" and
        # "0.666666667 > ... = 0.666666667"
        cert = self.make_cert()
        eps = Fraction(1, 10**12)
        heavy = Certificate(cert.factor, (cert.weights[0] + eps,) + cert.weights[1:],
                            cert.solutions, cert.base_point)
        ok, report = verify_certificate(heavy, triangle_vc(), tol=0)
        assert report == [
            "weights: sum is 1000000000001/1000000000000, expected 1",
            *(f"domination fails at coordinate {i}: "
              "2000000000003/3000000000000 > min(C*x*, 1) = 2/3" for i in (1, 2))]

    def test_nan_factor_and_weights_reported(self):
        # NaN compares false, so these once passed every check
        cert = Certificate(math.nan, (math.nan,) * 3, ((1, 1, 1),) * 3, (0.5,) * 3)
        ok, report = verify_certificate(cert, triangle_vc())
        assert not ok
        assert "factor: nan is not a finite number" in report
        assert [f"weights: weight {j} = nan is not a finite number" for j in range(3)] == [
            line for line in report if line.startswith("weights: weight")]
        assert "weights: sum is nan, expected 1" in report
        assert sum(line.startswith("domination fails") for line in report) == 3

    def test_infinite_factor_reported(self):
        # inf * 0 is NaN: the bound at coordinate 2 is NaN, and 1 > NaN is false
        cert = Certificate(math.inf, (1.0,), ((1, 1, 1),), (1.0, 1.0, 0.0))
        ok, report = verify_certificate(cert, triangle_vc())
        assert not ok
        assert report == ["factor: inf is not a finite number",
                          "domination fails at coordinate 2: 1 > min(C*x*, 1) = nan"]

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


def test_verifier_imports_only_stdlib_and_graphs():
    """The verifier (fdt.model) and its min cut (fdt.graphs) trust none of
    the solvers' code: they import the standard library and fdt.graphs only."""
    src = Path(__file__).parent.parent / "src" / "fdt"
    for name in ("model.py", "graphs.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level:
                modules = [f"fdt.{node.module}"] if node.module else [
                    f"fdt.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert (module == "fdt.graphs"
                        or module.split(".")[0] in sys.stdlib_module_names), (name, module)
