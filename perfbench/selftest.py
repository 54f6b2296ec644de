"""The benchmark's own tests, on small instance sets.

    python3 -m pytest -q perfbench/selftest.py

They guard the benchmark, not fdt: same seed gives the same certificates,
tracing changes no output, every wrapper records calls on the workload
meant to exercise it (so a refactor that moves a name out from under its
wrapper fails here instead of zeroing a layer), the predicted zeros hold,
and the output check rejects bad certificates and bad premises.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402
from fdt import model  # noqa: E402

SEED = 3

SMALL = {
    "cv-2ec": workloads.CvWorkload(workloads.CV_CLASSES[6:10]),  # two of each length
    "vc-exact": workloads.VcWorkload(lambda tracer: workloads.atlas_draws(5, 1, tracer)[:3]),
}

# wrapped binding -> workloads whose traced run must call through it
EXERCISED_ON = {
    "fdt.lp.solve": ("cv-2ec", "vc-exact"),
    "fdt.lp.linprog": ("cv-2ec",),
    "fdt.simplex.solve_rational": ("vc-exact",),
    "fdt.binary.fdt_tree": ("vc-exact",),
    "fdt.binary.branch_lpc": ("vc-exact",),
    "fdt.binary.prune": ("vc-exact",),
    "fdt.twoec.prune": ("cv-2ec",),
    "fdt.binary.dom_to_ip": ("vc-exact",),
    # the exact restart inside dom_to_ip; no workload is expected to need it
    "fdt.domtoip.dom_to_ip": (),
    "fdt.domtoip.helper_lp": ("vc-exact",),
    "fdt.twoec.fdt_2ec": ("cv-2ec",),
    "fdt.twoec.branch_lpc_2ec": ("cv-2ec",),
    "fdt.twoec.separate_subtour": ("cv-2ec",),
    "fdt.generators.separate_subtour": ("cv-2ec",),
    "fdt.twoec.check_2ec": ("cv-2ec",),
    "fdt.twoec.is_subtour_feasible": ("cv-2ec",),
    "fdt.twoec.verify_certificate_2ec": ("cv-2ec",),
    "fdt.twoec.global_min_cut": ("cv-2ec",),
    "fdt.generators.gen_vc": ("vc-exact",),
    "fdt.generators.gen_cv": ("cv-2ec",),
    "fdt.model.verify_certificate": ("vc-exact",),
}

_traced = {}


def traced(name):
    """(metrics, failures, detail, tracer) of a traced run, cached per workload."""
    if name not in _traced:
        _, metrics, _, _, failures, detail, tracer = run.run_traced(SMALL[name], SEED)
        _traced[name] = metrics, failures, detail, tracer
    return _traced[name]


@pytest.mark.parametrize("name", ["cv-2ec", "vc-exact"])
def test_same_seed_same_digest(name):
    wl = SMALL[name]
    digests = []
    for _ in range(2):
        cases = wl.build(SEED)
        _, certs, errors = run.certify_pass(wl, cases)
        assert not errors
        digests.append(run.cert_digest(cases, certs))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", ["cv-2ec", "vc-exact"])
def test_traced_run_matches_untraced(name):
    metrics, failures, detail, _ = traced(name)
    assert failures == []
    plain, traced_digest = detail["digest"]
    assert plain == traced_digest
    assert set(metrics) == {m for m, _, _ in spans.PER_LAYER}


@pytest.mark.parametrize("name", ["cv-2ec", "vc-exact"])
def test_every_wrapper_records_calls(name):
    tracer = traced(name)[3]
    assert set(tracer.site_calls) == set(EXERCISED_ON)
    silent = [site for site, names in EXERCISED_ON.items()
              if name in names and tracer.site_calls[site] == 0]
    assert silent == []


def test_exact_restart_goes_through_the_wrapped_name():
    """No workload needs dom_to_ip's exact restart, so check instead that the
    restart still calls dom_to_ip through the module global spans.py wraps."""
    from fdt import domtoip
    assert "dom_to_ip" in domtoip.dom_to_ip.__code__.co_names


def test_predicted_zeros():
    cv = traced("cv-2ec")[0]
    assert cv["domtoip.dom_to_ip.calls"] == 0
    assert cv["simplex.solve_rational.calls"] == 0
    assert cv["lp.linprog.calls"] > 0
    assert traced("vc-exact")[0]["lp.linprog.calls"] == 0


def test_lp_roles_cover_every_solve():
    """Every certificate LP has a role; the set-up roles count set-up only."""
    for name in SMALL:
        m = traced(name)[0]
        roles = sum(m[f"lp.solve.calls.{r}"] for r in spans.LP_ROLES.values()
                    if r not in spans.SETUP_ROLES)
        assert roles == m["lp.solve.calls"]
        assert m["lp.solve.calls.relax"] + m["lp.solve.calls.cvgen"] > 0


def test_check_rejects_bad_certificate_and_bad_premise():
    wl = SMALL["vc-exact"]
    case = wl.build(SEED)[0]
    cert = wl.certify(case)
    assert wl.check(case, cert) == []
    shrunk = model.Certificate(cert.factor * 0.5, cert.weights, cert.solutions,
                               cert.base_point)
    assert any("domination" in p for p in wl.check(case, shrunk))
    outside = workloads.Case(case.key, case.problem, [0.0] * len(case.x_star), case.info)
    assert any("covering row" in p for p in wl.check(outside, cert))

    cv = SMALL["cv-2ec"]
    cv_case = cv.build(SEED)[0]
    cv_cert = cv.certify(cv_case)
    assert cv.check(cv_case, cv_cert) == []
    half = workloads.Case(cv_case.key,
                          type(cv_case.problem)(cv_case.problem.graph,
                                                tuple(v / 2 for v in cv_case.x_star)),
                          tuple(v / 2 for v in cv_case.x_star), cv_case.info)
    assert any("subtour" in p for p in cv.check(half, cv_cert))


@pytest.mark.parametrize("trace,table", [(0, run.END_TO_END), (1, spans.PER_LAYER)])
def test_result_line(monkeypatch, tmp_path, capsys, trace, table):
    # six instances in two passes are enough for cert_tail_s
    wl = workloads.VcWorkload(lambda tracer: workloads.atlas_draws(5, 1, tracer)[:6])
    monkeypatch.setitem(workloads.WORKLOADS, "vc-exact", wl)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.main(["--workload", "vc-exact", "--seed", str(SEED),
                     "--seconds", "0.5", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in table}


def test_fails_without_fdt_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-2ec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.PER_LAYER
