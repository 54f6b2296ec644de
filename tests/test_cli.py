import json
from fractions import Fraction

import pytest

from fdt.cli import main
from fdt.experiments import _solve_relaxation
from fdt.model import load_certificate, load_instance


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


class TestBench:
    def test_bench_tap_writes_reports(self, tmp_path, capsys):
        prefix = str(tmp_path / "rep")
        assert main(["bench-tap", "--levels", "3", "--count", "2",
                     "--seed", "4", "--out", prefix]) == 0
        csv_text = (tmp_path / "rep.csv").read_text()
        assert csv_text.splitlines()[0].startswith("instance,")
        agg = json.loads((tmp_path / "rep.json").read_text())
        assert agg["count"] == 2

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
        # x* = (1/10, 1/10, 1/10) misses every row; the tree still returns a
        # combination dominated by C x*, so only the premise check catches it
        inst_path, _ = triangle_setup
        point_path = tmp_path / "outside.json"
        write_point(point_path, ["1/10", "1/10", "1/10"])
        cert_path = tmp_path / "outside-cert.json"
        assert main(["solve", "--rational", "--instance", str(inst_path),
                     "--point", str(point_path), "--out", str(cert_path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--certificate", str(cert_path),
                     "--instance", str(inst_path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "base point violates row 0: 0.2 < 1" in out
        assert out[-1] == "INVALID"

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
