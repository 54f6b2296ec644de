"""Batch experiment runners and report emitters.

Each runner fills one record per instance in _record, which times it and
turns a failure into the record's error.  Every certificate is verified at
its mode's tolerance (VERIFY_TOL in float mode, 0 in rational mode), and a
refused one is an error too.  Outcome ratios and factors are binned against
fixed reference values, and the CSV is byte-stable, so identical seeds
reproduce identical reports.
"""

import csv
import io
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .binary import fdt_dive, fdt_tree
from .domtoip import relaxation_lp
from .generators import enumerate_cv, gen_tap, gen_vc, tap_batch_seed
from .model import arithmetic, num_str, support, verify_certificate, verify_certificate_2ec
from .twoec import fdt_2ec

RATIO_BINS = [Fraction(1), Fraction(10, 9), Fraction(8, 7), Fraction(6, 5),
              Fraction(4, 3), Fraction(3, 2)]
FACTOR_BINS_2EC = [1.08, 1.11, 1.14, 1.17, 1.2]
BIN_TOL = 1e-9
DIVE_TRIES = 5  # run_vc_experiment keeps the best of this many seeded dives
VERIFY_TOL = 1e-6  # float mode's verifier tolerance; rational mode's is 0


@dataclass
class ExperimentReport:
    name: str
    records: list = field(default_factory=list)
    histogram: dict = field(default_factory=dict)

    @property
    def errors(self):
        return [r for r in self.records if r.get("error")]

    def ratios(self):
        return [r["ratio"] for r in self.records if "ratio" in r]


def ratio_bin(ratio):
    """Smallest reference fraction at or above the ratio."""
    for b in RATIO_BINS:
        if ratio <= float(b) + BIN_TOL:
            return f"{b.numerator}/{b.denominator}" if b != 1 else "1"
    return f">{RATIO_BINS[-1]}"


def factor_bin_2ec(factor):
    lo = 1.0
    for hi in FACTOR_BINS_2EC:
        if factor <= hi + BIN_TOL:
            return f"({lo:.2f},{hi:.2f}]"
        lo = hi
    return f">{FACTOR_BINS_2EC[-1]}"


def _histogram(records, key, binner):
    hist = {}
    for r in records:
        if key in r:
            b = binner(r[key])
            hist[b] = hist.get(b, 0) + 1
    return hist


@contextmanager
def _record(report, rec):
    """Time the block that fills rec, record an exception it raises as rec's
    error, and append rec to report."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:  # record and continue
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["time"] = time.perf_counter() - t0
    report.records.append(rec)


def _verified(cert, verify, problem, mode):
    """cert, once verify(cert, problem) accepts it at mode's tolerance; a
    RuntimeError names the first problem otherwise."""
    ok, rep = verify(cert, problem, tol=arithmetic(mode).tol(VERIFY_TOL))
    if not ok:
        raise RuntimeError(f"certificate invalid: {rep[0]}")
    return cert


def run_tap_experiment(levels_range, instances_per_size, seed=0, mode="float"):
    """LP optimum vs best decomposition leaf on random tree-augmentation
    instances; ratios land at small reference fractions."""
    report = ExperimentReport("tap")
    for levels in levels_range:
        for rep in range(instances_per_size):
            rec = {"instance": f"tap-l{levels}-r{rep}", "levels": levels}
            with _record(report, rec):
                _, inst = gen_tap(levels, seed=tap_batch_seed(seed, levels, rep))
                lp_opt, x_star = _solve_relaxation(inst, mode)
                cert = _verified(fdt_tree(inst, x_star, mode=mode), verify_certificate, inst,
                                 mode)
                best = min(float(inst.cost(z)) for z in cert.solutions)
                rec.update(lp_opt=lp_opt, best_cost=best, factor=float(cert.factor),
                           ratio=best / lp_opt, k=cert.k)
    report.histogram = _histogram(report.records, "ratio", ratio_bin)
    return report


def run_cv_experiment(k_list, seed=0, mode="float"):
    """Certified, and verified, factors over all enumerated cycle-plus-paths
    points."""
    report = ExperimentReport("cv-2ec")
    for k in k_list:
        for idx, cv in enumerate(enumerate_cv(k, seed=seed)):
            rec = {"instance": f"cv-k{k}-{idx}", "cycle_len": k}
            with _record(report, rec):
                cert = _verified(fdt_2ec(cv.point, mode=mode), verify_certificate_2ec,
                                 cv.point.graph, mode)
                rec.update(factor=float(cert.factor), k=cert.k,
                           support=len(support(cv.point.x)))
    report.histogram = _histogram(report.records, "factor", factor_bin_2ec)
    return report


def run_vc_experiment(graphs, seed=0, mode="float"):
    """Cover quality of dive (best of a few seeds) and of the full tree,
    against the LP lower bound.  graphs: list of (name, Graph)."""
    report = ExperimentReport("vc")
    for name, graph in graphs:
        rec = {"instance": name}
        with _record(report, rec):
            rec.update(n=graph.num_vertices, m=graph.num_edges)
            inst = gen_vc(graph, name=name)
            lp_opt, x_star = _solve_relaxation(inst, mode)
            rec["dive_cost"] = min(
                float(inst.cost(fdt_dive(inst, x_star, seed=seed * 1000 + s, mode=mode)))
                for s in range(DIVE_TRIES))
            cert = _verified(fdt_tree(inst, x_star, mode=mode), verify_certificate, inst, mode)
            tree_best = min(float(inst.cost(z)) for z in cert.solutions)
            rec.update(tree_cost=tree_best, factor=float(cert.factor))
            best = min(rec["dive_cost"], tree_best)
            rec.update(lp_opt=lp_opt, best_cost=best, ratio=best / lp_opt)
    report.histogram = _histogram(report.records, "ratio", ratio_bin)
    return report


def _solve_relaxation(inst, mode):
    """(LP optimum, optimal vertex) of the instance relaxation."""
    out = lp.solve(relaxation_lp(inst), mode=mode)
    if out.status != lp.OPTIMAL:
        raise lp.LpError(f"relaxation {out.status}")
    return float(out.objective), out.solution


CSV_FIELDS = ["instance", "levels", "cycle_len", "n", "m", "lp_opt", "dive_cost",
              "tree_cost", "best_cost", "factor", "ratio", "k", "support",
              "error"]


def report_to_csv(report, path=None):
    """One row per record; wall times are excluded so reruns are byte-identical."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for rec in report.records:
        writer.writerow({k: num_str(rec[k]) for k in CSV_FIELDS if k in rec})
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def report_to_json(report, path=None):
    d = {
        "name": report.name,
        "count": len(report.records),
        "errors": len(report.errors),
        "histogram": report.histogram,
        "total_time": sum(r.get("time", 0) for r in report.records),
    }
    text = json.dumps(d, indent=1, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return d
