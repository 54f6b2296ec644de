import dataclasses
import hashlib
from fractions import Fraction

import pytest

from fdt import experiments
from fdt.experiments import (factor_bin_2ec, ratio_bin, report_to_csv,
                             report_to_json, run_cv_experiment,
                             run_tap_experiment, run_vc_experiment,
                             _solve_relaxation)
from fdt.generators import gen_vc
from fdt.graphs import make_graph
from fdt.model import make_instance


class TestBinning:
    def test_ratio_bins_snap_to_reference_fractions(self):
        assert ratio_bin(1.0) == "1"
        assert ratio_bin(1.0 + 1e-12) == "1"
        assert ratio_bin(10 / 9) == "10/9"
        assert ratio_bin(1.3) == "4/3"
        assert ratio_bin(1.5) == "3/2"
        assert ratio_bin(1.7).startswith(">")

    def test_factor_bins_cover_table_ranges(self):
        assert factor_bin_2ec(1.0) == "(1.00,1.08]"
        assert factor_bin_2ec(1.1) == "(1.08,1.11]"
        assert factor_bin_2ec(1.15) == "(1.14,1.17]"
        assert factor_bin_2ec(1.2) == "(1.17,1.20]"
        assert factor_bin_2ec(1.25).startswith(">")


class TestRelaxation:
    def test_triangle_lp_bound(self):
        inst = gen_vc(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        opt, x = _solve_relaxation(inst, "float")
        assert opt == pytest.approx(1.5)
        assert x == pytest.approx([0.5, 0.5, 0.5])

    def test_star_lp_is_integral(self):
        star = make_graph(6, [(0, i) for i in range(1, 6)])
        opt, x = _solve_relaxation(gen_vc(star), "float")
        assert opt == pytest.approx(1.0)


class TestTapExperiment:
    def test_records_and_histogram(self):
        report = run_tap_experiment([3], 4, seed=7)
        assert len(report.records) == 4
        assert not report.errors
        for rec in report.records:
            assert rec["ratio"] >= 1 - 1e-9  # LP is a valid lower bound
            assert rec["factor"] >= 1 - 1e-9
        assert sum(report.histogram.values()) == 4

    def test_single_link_per_edge_gives_ratio_one(self):
        # a cut LP whose rows each have their own private link is integral
        inst = make_instance(2, [({0: 1}, 1), ({1: 1}, 1)],
                             objective=[2, 3], name="private-links")
        opt, x = _solve_relaxation(inst, "rational")
        assert opt == 5 and x == [1, 1]


class TestCvExperiment:
    def test_k8_all_below_six_fifths(self):
        report = run_cv_experiment([8], seed=0)
        assert len(report.records) == 3
        assert not report.errors
        for rec in report.records:
            assert rec["factor"] <= 1.2 + 1e-6


class TestVcExperiment:
    def test_triangle_and_star_examples(self):
        graphs = [
            ("K3", make_graph(3, [(0, 1), (1, 2), (0, 2)])),
            ("star5", make_graph(6, [(0, i) for i in range(1, 6)])),
        ]
        report = run_vc_experiment(graphs, seed=0)
        assert not report.errors
        k3, star = report.records
        assert k3["lp_opt"] == pytest.approx(1.5)
        assert k3["best_cost"] == 2          # derived: min cover of K3
        assert k3["ratio"] == pytest.approx(4 / 3)
        assert star["best_cost"] == 1        # the center covers everything
        assert star["ratio"] == pytest.approx(1.0)
        for rec in report.records:
            assert rec["ratio"] <= 2 + 1e-6


class TestReports:
    def test_csv_reproducible_and_time_free(self):
        a = report_to_csv(run_tap_experiment([3], 3, seed=9))
        b = report_to_csv(run_tap_experiment([3], 3, seed=9))
        assert a == b
        assert "time" not in a.splitlines()[0]

    def test_error_isolation(self):
        # a graph with an isolated edgeless component is fine, but a node
        # count of zero breaks generation for that record only
        graphs = [("ok", make_graph(2, [(0, 1)])),
                  ("broken", None)]
        report = run_vc_experiment(graphs, seed=0)
        assert len(report.records) == 2
        assert report.records[0].get("error") is None
        assert report.records[1]["error"]

    def test_json_aggregate(self, tmp_path):
        report = run_tap_experiment([3], 2, seed=1)
        d = report_to_json(report, tmp_path / "agg.json")
        assert d["count"] == 2 and d["errors"] == 0
        assert (tmp_path / "agg.json").exists()


class TestVerifiedCertificates:
    """Every batch certificate is verified at its mode's tolerance, 1e-6 in
    float mode and 0 in rational mode; a refused one is its record's error."""

    @staticmethod
    def scale_weights(monkeypatch, tree, scale):
        real = getattr(experiments, tree)

        def tampered(*args, **kwargs):
            cert = real(*args, **kwargs)
            return dataclasses.replace(cert, weights=tuple(w * scale for w in cert.weights))
        monkeypatch.setattr(experiments, tree, tampered)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_refused_tree_certificates_are_errors(self, monkeypatch, mode):
        self.scale_weights(monkeypatch, "fdt_tree", 2)
        tap = run_tap_experiment([3], 2, seed=9, mode=mode)
        vc = run_vc_experiment([("triangle", make_graph(3, [(0, 1), (1, 2), (0, 2)]))],
                               mode=mode)
        for report in (tap, vc):
            assert [r.get("error") for r in report.records] == [
                "RuntimeError: certificate invalid: weights: sum is 2, expected 1"
            ] * len(report.records)
            assert report.ratios() == []

    @pytest.mark.parametrize("mode, errors", [("float", 0), ("rational", 3)])
    def test_weights_off_by_1e9_refused_only_in_rational_mode(self, monkeypatch, mode,
                                                              errors):
        scale = 1 + Fraction(1, 10**9) if mode == "rational" else 1 + 1e-9
        self.scale_weights(monkeypatch, "fdt_2ec", scale)
        report = run_cv_experiment([8], mode=mode)
        assert len(report.records) == 3
        assert [r["error"] for r in report.errors] == [
            "RuntimeError: certificate invalid: weights: sum is 1000000001/1000000000, "
            "expected 1"] * errors


class TestReportPins:
    """Rational batches are exact, so their CSVs read the same on every
    platform; these digests were recorded before the batches shared one
    record loop."""

    @pytest.mark.parametrize("run, digest", [
        (lambda: run_tap_experiment([3], 3, seed=9, mode="rational"),
         "39c07726e4462d185f9e873c63937efbc39cd6743b75fb909818888b280560d6"),
        (lambda: run_cv_experiment([8], mode="rational"),
         "930e67508abb295192d3f95e4cf8a4180a372c18a83bda9f2ada14ac748851fe"),
    ], ids=["tap", "cv"])
    def test_rational_csv_digest(self, run, digest):
        assert hashlib.sha256(report_to_csv(run()).encode()).hexdigest() == digest
