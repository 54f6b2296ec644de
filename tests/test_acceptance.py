"""Acceptance suite: one test per criterion, each reporting a pass/fail
line in the terminal summary.  Expensive artifact batches (vertex-cover
certificates, cycle-point decompositions) are built once per session and
shared between criteria."""

import functools
import itertools
import math
import random

import networkx as nx
import pytest

from conftest import record_acceptance
from fdt.binary import branch_lpc, fdt_dive, fdt_tree
from fdt.domtoip import UnboundedGapOrInfeasible, dom_to_ip
from fdt.experiments import run_tap_experiment
from fdt.generators import enumerate_cv, gen_vc
from fdt.graphs import make_graph
from fdt.model import (check_2ec, make_instance, support, verify_certificate,
                       verify_certificate_2ec)
from fdt.twoec import fdt_2ec

# the batches below take minutes; `pytest -m "not slow"` skips this module
pytestmark = pytest.mark.slow


def _acceptance(number, name):
    """Report the criterion verdict whichever way the test body exits."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                detail = fn(*args, **kw) or ""
            except BaseException as exc:
                record_acceptance(number, name, False, f"{type(exc).__name__}")
                raise
            record_acceptance(number, name, True, detail)
        return wrapper
    return deco


# -- shared artifact batches -------------------------------------------------

@pytest.fixture(scope="session")
def vc_batch():
    """200 random vertex-cover instances (n <= 40) decomposed with traces."""
    from fdt.experiments import _solve_relaxation
    rng = random.Random(17)
    out = []
    while len(out) < 200:
        n = rng.randint(8, 40)
        p = rng.uniform(0.08, 0.4)
        g = nx.gnp_random_graph(n, p, seed=rng.randint(0, 10**6))
        graph = make_graph(n, list(g.edges()), require_connected=False)
        if graph.num_edges == 0:
            continue
        inst = gen_vc(graph, name=f"vc-{len(out)}")
        _, x = _solve_relaxation(inst, "float")
        trace = []
        cert = fdt_tree(inst, x, mode="float", trace=trace)
        out.append((inst, tuple(x), cert, trace))
    return out


@pytest.fixture(scope="session")
def cv_batch():
    """All enumerated cycle points with 10 and 12 cycle vertices, decomposed."""
    out = []
    for k in (10, 12):
        for cv in enumerate_cv(k, seed=0):
            trace = []
            cert = fdt_2ec(cv.point, trace=trace)
            out.append((cv, cert, trace))
    return out


# -- criteria ----------------------------------------------------------------

@_acceptance(1, "domtoip-oracle-equivalence")
def test_criterion_1_domtoip_oracle():
    """dom_to_ip agrees with brute-force enumeration on 500 random IPs."""
    rng = random.Random(101)
    agree = refuse = 0
    for trial in range(500):
        n = rng.randint(3, 12)
        rows = []
        for _ in range(rng.randint(2, 8)):
            coef = {i: rng.randint(1, 3)
                    for i in rng.sample(range(n), rng.randint(1, min(4, n)))}
            rows.append((coef, rng.randint(0, 4)))
        inst = make_instance(n, rows)
        x_tilde = [int(rng.random() < 0.7) for _ in range(n)]

        free = [i for i in range(n) if x_tilde[i]]
        dominated = None
        for bits in itertools.product((0, 1), repeat=len(free)):
            z = [0] * n
            for i, v in zip(free, bits):
                z[i] = v
            if all(row.value(z) >= row.rhs for row in inst.rows):
                dominated = z
                break
        try:
            z = dom_to_ip(inst, x_tilde, mode="rational")
        except UnboundedGapOrInfeasible:
            assert dominated is None, trial
            refuse += 1
            continue
        assert dominated is not None, trial
        assert all(a <= b for a, b in zip(z, x_tilde)), trial
        assert all(row.value(z) >= row.rhs for row in inst.rows), trial
        agree += 1
    return f"{agree} solved / {refuse} refused, all matching the oracle"


@_acceptance(2, "certificate-validity")
def test_criterion_2_certificate_validity(vc_batch):
    """Every decomposition of 200 random VC points verifies at 1e-6."""
    for inst, x, cert, _ in vc_batch:
        ok, report = verify_certificate(cert, inst, tol=1e-6)
        assert ok, (inst.name, report)
        assert cert.k <= len(support(x))
    return f"{len(vc_batch)} certificates verified"


@_acceptance(3, "vc-factor-bound")
def test_criterion_3_vc_factor(vc_batch):
    """Certified factor never exceeds the formulation's gap of 2."""
    worst = max(float(cert.factor) for _, _, cert, _ in vc_batch)
    assert worst <= 2 + 1e-6
    return f"max factor {worst:.6f} <= 2"


@_acceptance(4, "tap-ratio-reproduction")
def test_criterion_4_tap_ratios():
    """Best-leaf/LP ratios on 102 instances at levels 3-5."""
    report = run_tap_experiment([3, 4, 5], 34, seed=5, mode="float")
    assert not report.errors, report.errors[:2]
    ratios = report.ratios()
    assert len(ratios) >= 100
    assert max(ratios) <= 1.5 + 1e-9
    share = sum(1 for r in ratios if r <= 4 / 3 + 1e-9) / len(ratios)
    assert share >= 0.8
    return f"max ratio {max(ratios):.4f}, {share:.0%} at or below 4/3"


@_acceptance(5, "2ec-cycle-point-factor")
def test_criterion_5_cv_factor(cv_batch):
    """All cycle-length 10 and 12 points certified at C <= 1.2."""
    from fdt.experiments import factor_bin_2ec
    bins = {}
    for cv, cert, _ in cv_batch:
        assert float(cert.factor) <= 1.2 + 1e-6, cv.matching
        ok, report = verify_certificate_2ec(cert, cv.point.graph)
        assert ok, (cv.matching, report)
        for F in cert.solutions:
            assert check_2ec(cv.point.graph, F)
        b = factor_bin_2ec(float(cert.factor))
        bins[b] = bins.get(b, 0) + 1
    counts = ", ".join(f"{k}:{v}" for k, v in sorted(bins.items()))
    return f"{len(cv_batch)} points, bins {counts}"


@_acceptance(6, "level-invariants")
def test_criterion_6_level_invariants(vc_batch, cv_batch):
    """Per-level properties hold on every traced run: branched prefix
    integral, mass below the base point, level size <= t, prune keeps mass.
    (The library re-checks these on every level of every run; no option
    turns that off.)"""
    import inspect
    assert "check" not in inspect.signature(fdt_tree).parameters
    assert "check" not in inspect.signature(fdt_2ec).parameters
    levels = 0
    for _, x, cert, trace in vc_batch:
        t = len(support(x))
        for lv in trace:
            assert lv["size"] <= t
            assert lv["mass"] >= lv["pre_prune_mass"] - 1e-9
            levels += 1
    for cv, cert, trace in cv_batch:
        t = len(support(cv.point.x))
        for lv in trace:
            assert lv["size"] <= t
            assert lv["mass"] >= lv["pre_prune_mass"] - 1e-9
            levels += 1
    return f"{levels} levels checked across both families"


@_acceptance(7, "gap-one-exactness")
def test_criterion_7_gap_one():
    """Interval-row instances have integral relaxations; on LP-optimal
    fractional points (mixtures of optimal covers) C must be exactly 1."""
    from fractions import Fraction
    rng = random.Random(7)
    checked = trial = 0
    while checked < 10:
        trial += 1
        assert trial < 200
        n = rng.randint(4, 8)
        rows = []
        for _ in range(rng.randint(2, 6)):
            a = rng.randint(0, n - 2)
            b = rng.randint(a + 1, n - 1)
            rows.append(({i: 1 for i in range(a, b + 1)}, 1))
        inst = make_instance(n, rows, objective=[1] * n)
        feas = [z for z in itertools.product((0, 1), repeat=n)
                if all(row.value(z) >= row.rhs for row in inst.rows)]
        opt = min(sum(z) for z in feas)
        optima = [z for z in feas if sum(z) == opt]
        if len(optima) < 2:
            continue
        za, zb = rng.sample(optima, 2)
        x = [Fraction(u + v, 2) for u, v in zip(za, zb)]
        cert = fdt_tree(inst, x, mode="rational")
        assert cert.factor == 1, (trial, cert.factor)
        ok, report = verify_certificate(cert, inst, tol=0)
        assert ok, report
        checked += 1
    return f"C == 1 exactly on {checked} LP-optimal fractional points"


@_acceptance(8, "branch-lp-lower-bound")
def test_criterion_8_branch_bounds(vc_batch, cv_batch):
    """Branch multipliers never fall below the gap-derived floor."""
    lo_vc = min((g for *_, tr in vc_batch for lv in tr
                 for g in lv["branch_totals"]), default=1.0)
    assert lo_vc >= 0.5 - 1e-6
    lo_2ec = min((g for *_, tr in cv_batch for lv in tr
                  for g in lv["branch_totals"]), default=1.0)
    assert lo_2ec >= 2 / 3 - 1e-6
    return f"min VC total {lo_vc:.4f} >= 1/2, min 2EC total {lo_2ec:.4f} >= 2/3"


@_acceptance(9, "dive-determinism-distribution")
def test_criterion_9_dive():
    """Same seed, same walk; root branch frequency matches gamma ratio."""
    inst = gen_vc(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
    x = [0.5, 0.5, 0.5]
    for seed in (0, 1, 2, 40):
        assert fdt_dive(inst, x, seed=seed) == fdt_dive(inst, x, seed=seed)

    br = branch_lpc(inst, x, 0, mode="float")
    p0 = float(br.gammas[0] / br.total)
    n = 2000
    count0 = 0
    for seed in range(n):
        trace = []
        fdt_dive(inst, x, seed=seed, trace=trace)
        count0 += trace[0]["branch"] == 0
    freq = count0 / n
    sigma = math.sqrt(p0 * (1 - p0) / n)
    assert abs(freq - p0) <= 3 * sigma, (freq, p0, sigma)
    return f"root freq {freq:.4f} vs p0 {p0:.4f} (3 sigma = {3*sigma:.4f})"
