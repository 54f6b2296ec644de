"""HiGHS, numpy and networkx load only when a run uses them, and HiGHS
loads without scipy.optimize.  Each check runs in a fresh interpreter,
since this one has long loaded them all."""

import json
import os
import subprocess
import sys
import textwrap

import fdt
from fdt.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fdt.__file__)))


def run_fresh(*parts):
    """Run the code parts, each dedented, one after another in a fresh
    interpreter with fdt importable; returns stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = "\n".join(textwrap.dedent(part) for part in parts)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(stdout):
    return json.loads(stdout.splitlines()[-1])


def test_import_loads_neither_scipy_optimize_nor_networkx():
    assert loaded(run_fresh("""
        import json, sys
        import fdt, fdt.cli
        print(json.dumps([m for m in ("scipy.optimize", "networkx", "numpy")
                          if m in sys.modules]))
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
        print(json.dumps([m for m in ("scipy.optimize", "networkx", "numpy")
                          if m in sys.modules]))
    """)) == []


FLOAT_SOLVE = """
    from fdt import lp
    from fdt.model import RowMatrix

    def solve():
        p = lp.LpProblem(2, RowMatrix([0, 2], [0, 1], [1, 1], [1]), [lp.GE],
                         objective=[1, 1])
        out = lp.solve(p, mode="float")
        assert (out.status, out.mode, out.objective) == (lp.OPTIMAL, "float", 1.0)
        return out.solution
"""

LINPROG = """
    def linprog():
        return scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1],
                                      method="highs-ds").x.tolist()
"""


def test_first_float_solve_loads_highs_once():
    assert loaded(run_fresh("""
        import json, sys
    """, FLOAT_SOLVE, """
        solve()
        binding = sys.modules.get("scipy.optimize._highspy._core")
        solver = lp._HIGHS
        solve()
        print(json.dumps([binding is lp.highs, "scipy.optimize" in sys.modules,
                          lp._HIGHS is solver]))
    """)) == [True, False, True]


def test_solve_2ec_leaves_scipy_optimize_unloaded(tmp_path):
    point = tmp_path / "cv.json"
    assert main(["gen", "cv", "--cycle", "8", "--matching", "0-3,1-5,2-6,4-7",
                 "--out", str(point)]) == 0
    assert loaded(run_fresh(f"""
        import json, sys
        from fdt.cli import main

        assert main(["solve-2ec", "--point", {str(point)!r},
                     "--out", {str(tmp_path / "cert.json")!r}]) == 0
        print(json.dumps([m in sys.modules
                          for m in ("scipy.optimize._highspy._core", "scipy.optimize")]))
    """)) == [True, False]


def test_float_solve_then_scipy_optimize_share_the_binding():
    assert loaded(run_fresh("""
        import json, sys
    """, FLOAT_SOLVE, LINPROG, """
        ours = solve()
        binding = sys.modules["scipy.optimize._highspy._core"]
        import scipy.optimize
        theirs = linprog()
        print(json.dumps([ours == theirs, lp.highs is binding,
                          sys.modules["scipy.optimize._highspy._core"] is binding]))
    """)) == [True, True, True]


def test_scipy_optimize_then_float_solve_share_the_binding():
    assert loaded(run_fresh("""
        import json, sys
        import scipy.optimize
    """, LINPROG, """
        binding = sys.modules["scipy.optimize._highspy._core"]
        theirs = linprog()
    """, FLOAT_SOLVE, """
        ours = solve()
        print(json.dumps([ours == theirs, lp.highs is binding,
                          sys.modules["scipy.optimize._highspy._core"] is binding]))
    """)) == [True, True, True]


def test_missing_binding_is_an_import_error_naming_its_path(tmp_path):
    message = loaded(run_fresh(f"""
        import json, sys
        import scipy
        from fdt import lp

        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            lp._load_highs()
        except ImportError as exc:
            assert "scipy.optimize._highspy._core" not in sys.modules
            print(json.dumps(str(exc)))
    """))
    assert str(tmp_path / "optimize" / "_highspy" / "_core") in message
