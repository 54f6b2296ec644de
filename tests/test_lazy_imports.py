"""HiGHS (through scipy.optimize) and networkx load only when a run uses
them.  Each check runs in a fresh interpreter, since this one has long
loaded both."""

import json
import os
import subprocess
import sys
import textwrap

import fdt

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fdt.__file__)))


def run_fresh(code):
    """Run code in a fresh interpreter with fdt importable; returns stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(stdout):
    return json.loads(stdout.splitlines()[-1])


def test_import_loads_neither_scipy_optimize_nor_networkx():
    assert loaded(run_fresh("""
        import json, sys
        import fdt, fdt.cli
        print(json.dumps([m for m in ("scipy.optimize", "networkx") if m in sys.modules]))
    """)) == []


def test_exact_runs_leave_scipy_optimize_unloaded(tmp_path):
    assert loaded(run_fresh(f"""
        import json, sys
        from fractions import Fraction
        from fdt import fdt_tree, gen_vc, make_graph, save_certificate, save_instance
        from fdt import verify_certificate
        from fdt.cli import main

        inst = gen_vc(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        cert = fdt_tree(inst, [Fraction(1, 2)] * 3, mode="rational")
        assert cert.factor == Fraction(4, 3)
        assert verify_certificate(cert, inst, tol=0)[0]
        save_instance(inst, {str(tmp_path / "inst.json")!r})
        save_certificate(cert, {str(tmp_path / "cert.json")!r})
        assert main(["verify", "--certificate", {str(tmp_path / "cert.json")!r},
                     "--instance", {str(tmp_path / "inst.json")!r}]) == 0
        print(json.dumps([m for m in ("scipy.optimize", "networkx") if m in sys.modules]))
    """)) == []


def test_first_float_solve_loads_highs_once():
    assert loaded(run_fresh("""
        import json, sys
        from fdt import lp

        def solve():
            p = lp.LpProblem(num_cols=2, objective=[1, 1])
            p.add_row({0: 1, 1: 1}, ">=", 1)
            out = lp.solve(p, mode="float")
            assert (out.status, out.mode, out.objective) == (lp.OPTIMAL, "float", 1.0)

        before = "scipy.optimize" in sys.modules
        solve()
        after = "scipy.optimize" in sys.modules
        solver = lp._HIGHS
        solve()
        print(json.dumps([before, after, lp._HIGHS is solver]))
    """)) == [False, True, True]
