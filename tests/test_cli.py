import json
import random
from fractions import Fraction

import pytest

from fdt import cli
from fdt.cli import main
from fdt.experiments import _solve_relaxation
from fdt.generators import enumerate_cv
from fdt.model import load_certificate, load_instance, load_point


def write_point(path, values):
    with open(path, "w") as fh:
        json.dump({"values": values}, fh)


@pytest.fixture
def tap_setup(tmp_path):
    inst_path = tmp_path / "tap.json"
    assert main(["gen", "tap", "--levels", "3", "--seed", "1",
                 "--out", str(inst_path)]) == 0
    inst = load_instance(inst_path)
    _, x = _solve_relaxation(inst, "float")
    point_path = tmp_path / "x.json"
    write_point(point_path, x)
    return inst_path, point_path


@pytest.fixture
def pace_square(tmp_path):
    """A 4-cycle in the PACE edge-list format, 1-based."""
    path = tmp_path / "square.gr"
    path.write_text("c a 4-cycle\np td 4 4\n1 2\n2 3\n3 4\n4 1\n")
    return path


class TestGen:
    def test_vc_random(self, tmp_path):
        out = tmp_path / "vc.json"
        assert main(["gen", "vc", "--n", "6", "--p", "0.5", "--seed", "3",
                     "--out", str(out)]) == 0
        inst = load_instance(out)
        assert inst.num_vars == 6

    def test_tap_batch_manifest(self, tmp_path):
        prefix = str(tmp_path / "b")
        assert main(["gen", "tap", "--levels", "3", "4", "--count", "2",
                     "--seed", "1", "--out", prefix]) == 0
        lines = (tmp_path / "b-manifest.csv").read_text().splitlines()
        assert lines[0] == "levels,edges,links,count"
        assert lines[1] == "3,6,6,2"
        assert lines[2] == "4,14,28,2"
        assert (tmp_path / "b-l3-r1.json").exists()

    def test_cv_point(self, tmp_path):
        out = tmp_path / "cv.json"
        assert main(["gen", "cv", "--cycle", "8",
                     "--matching", "0-3,1-5,2-6,4-7", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["vertices"] == 8 and len(d["edges"]) == 12

    def test_vc_from_pace_file(self, tmp_path, pace_square):
        out = tmp_path / "vc.json"
        assert main(["gen", "vc", "--pace", str(pace_square), "--out", str(out)]) == 0
        inst = load_instance(out)
        assert inst.num_vars == 4
        assert sorted(sorted(row.index) for row in inst.rows) == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_negative_pace_vertex_count_named(self, tmp_path, capsys):
        path = tmp_path / "negative.gr"
        path.write_text("p td -2 0\n")
        out = tmp_path / "vc.json"
        assert main(["gen", "vc", "--pace", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: vertex count -2 is negative\n"

    def test_cv_enumerate_writes_every_class(self, tmp_path, capsys):
        prefix = str(tmp_path / "e")
        assert main(["gen", "cv", "--cycle", "8", "--enumerate", "--out", prefix]) == 0
        assert capsys.readouterr().out == "wrote 3 points\n"
        points = [load_point(f"{prefix}-8-{idx}.json") for idx in range(3)]
        assert points == [cv.point for cv in enumerate_cv(8)]
        assert not (tmp_path / "e-8-3.json").exists()

    @pytest.mark.parametrize("family, exact", [
        (["vc", "--n", "4", "--p", "1"], lambda d: d["rows"][0]["rhs"] == "1"),
        (["cv", "--cycle", "8", "--matching", "0-3,1-5,2-6,4-7"],
         lambda d: set(d["x"]) == {"1/2", "1"}),
    ])
    def test_rational_stdout_matches_the_file(self, tmp_path, capsys, family, exact):
        # --rational without --out used to print floats
        out = tmp_path / "out.json"
        assert main(["gen", *family, "--rational", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["gen", *family, "--rational"]) == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        assert exact(json.loads(printed))


    @pytest.mark.parametrize("command", [["gen", "vc"], ["bench-vc", "--count", "1"]])
    @pytest.mark.parametrize("option, message", [
        (["--n", "-3"], "--n must be >= 0, got -3"),
        (["--p", "1.5"], "--p must be in [0, 1], got 1.5"),
        (["--p", "-1"], "--p must be in [0, 1], got -1.0"),
        (["--p", "nan"], "--p must be in [0, 1], got nan"),
    ])
    def test_bad_gnp_parameters_are_data_errors(self, tmp_path, capsys, command, option,
                                                message):
        # --n -3 used to end in a NetworkXError traceback, and --p 1.5 or
        # -1 gave a complete or an empty graph
        assert main(command + option + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())


class TestSolveAndVerify:
    def test_tree_solve_round_trip(self, tap_setup, tmp_path):
        inst_path, point_path = tap_setup
        cert_path = tmp_path / "cert.json"
        assert main(["solve", "--instance", str(inst_path),
                     "--point", str(point_path), "--out", str(cert_path)]) == 0
        cert = load_certificate(cert_path)
        assert cert.k >= 1
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 0

    def test_tampered_certificate_exits_nonzero(self, tap_setup, tmp_path, capsys):
        inst_path, point_path = tap_setup
        cert_path = tmp_path / "cert.json"
        main(["solve", "--instance", str(inst_path),
              "--point", str(point_path), "--out", str(cert_path)])
        d = json.loads(cert_path.read_text())
        d["weights"][0] = 0.5 if len(d["weights"]) == 1 else d["weights"][0] * 2
        cert_path.write_text(json.dumps(d))
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 2
        assert "weights" in capsys.readouterr().out

    def test_dive_mode(self, tap_setup, tmp_path):
        inst_path, point_path = tap_setup
        out = tmp_path / "z.json"
        assert main(["solve", "--instance", str(inst_path),
                     "--point", str(point_path), "--mode", "dive",
                     "--seed", "3", "--out", str(out)]) == 0
        z = json.loads(out.read_text())["values"]
        inst = load_instance(inst_path)
        assert all(row.value(z) >= row.rhs for row in inst.rows)

    def test_solve_2ec_round_trip(self, tmp_path):
        cv = tmp_path / "cv.json"
        cert = tmp_path / "cert.json"
        main(["gen", "cv", "--cycle", "8", "--matching", "0-3,1-5,2-6,4-7",
              "--out", str(cv)])
        assert main(["solve-2ec", "--point", str(cv),
                     "--out", str(cert)]) == 0
        assert main(["verify", "--certificate", str(cert),
                     "--point", str(cv)]) == 0

    @pytest.mark.parametrize("mode", [[], ["--rational"]])
    def test_zero_point_round_trips(self, tmp_path, mode):
        # x* = 0: one solution, which the verifier allows (k <= max(1, |spp(x*)|))
        inst_path, point_path = tmp_path / "inst.json", tmp_path / "x.json"
        inst_path.write_text(json.dumps({"num_vars": 2, "rows": []}))
        write_point(point_path, [0, 0])
        lone = tmp_path / "lone.json"
        lone.write_text(json.dumps({"vertices": 1, "edges": [], "x": []}))
        tree = ["--instance", str(inst_path)]
        for solve, given in [(["solve", *tree, "--point", str(point_path)], tree),
                             (["solve-2ec", "--point", str(lone)], ["--point", str(lone)])]:
            cert = tmp_path / "cert.json"
            assert main(solve + mode + ["--out", str(cert)]) == 0
            assert load_certificate(cert).k == 1
            assert main(["verify", "--certificate", str(cert), *given]) == 0

    def test_solve_2ec_more_vertices_than_edges_connect(self, tmp_path, capsys):
        point_path = tmp_path / "sparse.json"
        point_path.write_text(json.dumps({
            "vertices": 10**6, "edges": [[0, 1], [1, 2], [2, 3]], "x": [1, 1, 1]}))
        assert main(["solve-2ec", "--point", str(point_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "graph is not connected" in err
        assert err.count("\n") == 1


class TestDomtoip:
    def test_success_path(self, tap_setup, tmp_path, capsys):
        inst_path, _ = tap_setup
        ones = tmp_path / "ones.json"
        write_point(ones, [1, 1, 1, 1, 1, 1])
        assert main(["domtoip", "--instance", str(inst_path),
                     "--point", str(ones)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["values"]) <= {0, 1}

    def test_unbounded_gap_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "bad.json"
        inst_path.write_text(json.dumps({
            "num_vars": 2, "kind": "binary",
            "rows": [{"coef": {"0": 1, "1": 1}, "rhs": 3}],
        }))
        point = tmp_path / "p.json"
        write_point(point, [1, 1])
        assert main(["domtoip", "--instance", str(inst_path),
                     "--point", str(point)]) == 2
        assert "unbounded-gap-or-infeasible" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_negative_coordinate_is_data_error(self, tmp_path, capsys, mode):
        inst_path = tmp_path / "tri.json"
        inst_path.write_text(json.dumps({
            "num_vars": 3, "kind": "binary",
            "rows": [{"coef": {"0": 1, "1": 1}, "rhs": 1},
                     {"coef": {"1": 1, "2": 1}, "rhs": 1},
                     {"coef": {"0": 1, "2": 1}, "rhs": 1}],
        }))
        point = tmp_path / "p.json"
        write_point(point, [-1, 1, 1])
        rational = ["--rational"] if mode == "rational" else []
        assert main(["domtoip", *rational, "--instance", str(inst_path),
                     "--point", str(point)]) == 1
        captured = capsys.readouterr()
        assert "coordinate 0" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestBench:
    def test_bench_tap_writes_reports(self, tmp_path, capsys):
        prefix = str(tmp_path / "rep")
        assert main(["bench-tap", "--levels", "3", "--count", "2",
                     "--seed", "4", "--out", prefix]) == 0
        csv_text = (tmp_path / "rep.csv").read_text()
        assert csv_text.splitlines()[0].startswith("instance,")
        agg = json.loads((tmp_path / "rep.json").read_text())
        assert agg["count"] == 2

    def test_bench_cv_prints_csv_without_out(self, capsys):
        assert main(["bench-cv", "--k", "8"]) == 0
        out = capsys.readouterr().out
        csv_text, histogram = out[:out.index("{")], out[out.index("{"):]
        lines = csv_text.splitlines()
        assert lines[0].startswith("instance,")
        assert [line.split(",")[0] for line in lines[1:]] == ["cv-k8-0", "cv-k8-1", "cv-k8-2"]
        assert sum(json.loads(histogram).values()) == 3

    def test_bench_vc_reads_pace_files_and_draws(self, tmp_path, capsys, pace_square):
        prefix = str(tmp_path / "rep")
        assert main(["bench-vc", "--pace", str(pace_square), "--n", "5", "--p", "0.5",
                     "--count", "2", "--seed", "1", "--out", prefix]) == 0
        rows = (tmp_path / "rep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["square.gr", "gnp-5-0", "gnp-5-1"]
        agg = json.loads((tmp_path / "rep.json").read_text())
        assert (agg["count"], agg["errors"]) == (3, 0)

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["solve", "--instance", "/nonexistent.json",
                     "--point", "/nonexistent.json"]) == 1


@pytest.fixture
def triangle_setup(tmp_path):
    inst_path = tmp_path / "tri.json"
    inst_path.write_text(json.dumps({
        "num_vars": 3, "kind": "binary",
        "rows": [{"coef": {"0": 1, "1": 1}, "rhs": 1},
                 {"coef": {"1": 1, "2": 1}, "rhs": 1},
                 {"coef": {"0": 1, "2": 1}, "rhs": 1}],
    }))
    point_path = tmp_path / "x.json"
    write_point(point_path, ["1/2", "1/2", "1/2"])
    cert_path = tmp_path / "cert.json"
    assert main(["solve", "--rational", "--instance", str(inst_path),
                 "--point", str(point_path), "--out", str(cert_path)]) == 0
    return inst_path, cert_path


class TestVerifyInput:
    def test_rational_certificate_checked_exactly(self, triangle_setup, capsys):
        inst_path, cert_path = triangle_setup
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 0
        d = json.loads(cert_path.read_text())
        assert d["mode"] == "rational" and d["factor"] == "4/3"
        # C*x* now falls short of the combination by 1e-7: far inside the float
        # tolerance, but a false certificate
        d["factor"] = str(Fraction(4, 3) - Fraction(2, 10**7))
        cert_path.write_text(json.dumps(d))
        capsys.readouterr()
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 2
        assert "domination fails" in capsys.readouterr().out

    def test_point_outside_relaxation_is_invalid(self, triangle_setup, tmp_path, capsys):
        # x* = (1/10, 1/10, 1/10) misses every row, but the combination of
        # the three two-vertex covers is dominated by C x* at C = 20/3, so
        # only the premise check catches this certificate
        inst_path, _ = triangle_setup
        cert_path = tmp_path / "outside-cert.json"
        cert_path.write_text(json.dumps({
            "name": "vc", "mode": "rational", "factor": "20/3",
            "weights": ["1/3", "1/3", "1/3"],
            "solutions": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "base_point": ["1/10", "1/10", "1/10"]}))
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "base point violates row 0: 1/5 < 1" in out
        assert out[-1] == "INVALID"

    @pytest.mark.parametrize("mode", [["--rational"], []])
    @pytest.mark.parametrize("x", [["1/10"] * 3, [0, 0, 0]])
    def test_solve_refuses_point_outside_relaxation(self, triangle_setup, tmp_path,
                                                     capsys, mode, x):
        inst_path, _ = triangle_setup
        point_path = tmp_path / "outside.json"
        write_point(point_path, x)
        capsys.readouterr()
        assert main(["solve", *mode, "--instance", str(inst_path),
                     "--point", str(point_path)]) == 1
        assert "error: x*: violates row 0" in capsys.readouterr().err

    def test_missing_key_is_data_error(self, triangle_setup, capsys):
        inst_path, cert_path = triangle_setup
        d = json.loads(cert_path.read_text())
        del d["factor"]
        cert_path.write_text(json.dumps(d))
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 1
        assert "malformed certificate" in capsys.readouterr().err

    def test_wrong_type_is_data_error(self, triangle_setup, capsys):
        inst_path, cert_path = triangle_setup
        d = json.loads(cert_path.read_text())
        d["weights"] = 3
        cert_path.write_text(json.dumps(d))
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 1
        assert "malformed certificate" in capsys.readouterr().err

    def test_fractional_solution_entry_is_data_error(self, triangle_setup, capsys):
        # truncating 1.9 to 1 would verify a certificate the file does not hold
        inst_path, cert_path = triangle_setup
        d = json.loads(cert_path.read_text())
        d["solutions"][0] = [v + 0.9 if v else v for v in d["solutions"][0]]
        cert_path.write_text(json.dumps(d))
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 1
        assert "not an integer" in capsys.readouterr().err

    def test_malformed_point_is_data_error(self, triangle_setup, tmp_path, capsys):
        inst_path, cert_path = triangle_setup
        point = tmp_path / "bad-point.json"
        point.write_text(json.dumps({"vertices": 3}))
        assert main(["verify", "--certificate", str(cert_path),
                     "--point", str(point)]) == 1
        point.write_text(json.dumps({"value": [1, 2]}))
        assert main(["solve", "--instance", str(inst_path),
                     "--point", str(point)]) == 1
        assert capsys.readouterr().err.count("malformed point") == 2


class TestBasePointOutsideBox:
    """x* must lie in [0, cap]^n; anything else is a data error, not a
    traceback or a certificate the verifier then rejects."""

    @pytest.mark.parametrize("values", [[0.5, 0.5, -0.5], [1.5, 0.5, 0.5]])
    def test_solve(self, triangle_setup, tmp_path, capsys, values):
        inst_path, _ = triangle_setup
        point_path = tmp_path / "bad.json"
        write_point(point_path, values)
        capsys.readouterr()
        assert main(["solve", "--instance", str(inst_path),
                     "--point", str(point_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "outside [0, 1]" in err
        assert "Traceback" not in err

    def test_solve_2ec(self, tmp_path, capsys):
        point_path = tmp_path / "tri-2ec.json"
        point_path.write_text(json.dumps({
            "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "x": [1, 1, -1]}))
        assert main(["solve-2ec", "--point", str(point_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "outside [0, 2]" in err
        assert "Traceback" not in err

    def test_solve_2ec_outside_subtour_relaxation(self, tmp_path, capsys):
        # inside [0, 2]^E, but every vertex cut is 1; the certificate used to
        # come out with C = 2 and then fail `fdt verify` on its premise
        point_path = tmp_path / "tri-half.json"
        point_path.write_text(json.dumps({
            "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "x": [0.5, 0.5, 0.5]}))
        assert main(["solve-2ec", "--point", str(point_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: x*: base point violates the cut of vertices")
        assert err.count("\n") == 1


def test_random_order_follows_seed(triangle_setup, tmp_path, monkeypatch):
    # the order used to be shuffled with seed 0 whatever --seed said
    inst_path, _ = triangle_setup
    orders = []
    tree = cli.fdt_tree

    def spy(*args, branch_order=None, **kwargs):
        orders.append(branch_order)
        return tree(*args, branch_order=branch_order, **kwargs)

    monkeypatch.setattr(cli, "fdt_tree", spy)
    expected = []
    for seed in range(4):
        assert main(["solve", "--rational", "--random-order", "--seed", str(seed),
                     "--instance", str(inst_path), "--point", str(tmp_path / "x.json")]) == 0
        expected.append([0, 1, 2])
        random.Random(seed).shuffle(expected[-1])
    assert orders == expected
    assert len({tuple(order) for order in orders}) > 1
