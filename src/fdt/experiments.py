"""Batch experiment runners and report emitters.

Each runner isolates per-instance failures as error records, bins outcome
ratios/factors against fixed reference values, and writes byte-stable CSV
so identical seeds reproduce identical reports.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import lp
from .binary import fdt_dive, fdt_tree
from .domtoip import relaxation_lp
from .generators import enumerate_cv, gen_tap, gen_vc
from .model import support
from .twoec import fdt_2ec, verify_certificate_2ec

RATIO_BINS = [Fraction(1), Fraction(10, 9), Fraction(8, 7), Fraction(6, 5),
              Fraction(4, 3), Fraction(3, 2)]
FACTOR_BINS_2EC = [1.08, 1.11, 1.14, 1.17, 1.2]
BIN_TOL = 1e-9


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


def run_tap_experiment(levels_range, instances_per_size, seed=0, mode="float"):
    """LP optimum vs best decomposition leaf on random tree-augmentation
    instances; ratios land at small reference fractions."""
    report = ExperimentReport("tap")
    for levels in levels_range:
        for rep in range(instances_per_size):
            iid = f"tap-l{levels}-r{rep}"
            rec = {"instance": iid, "levels": levels}
            t0 = time.perf_counter()
            try:
                _, inst = gen_tap(levels, seed=seed * 10_000 + levels * 100 + rep)
                lp_opt, x_star = _solve_relaxation(inst, mode)
                cert = fdt_tree(inst, x_star, mode=mode)
                best = min(float(inst.cost(z)) for z in cert.solutions)
                rec.update(lp_opt=lp_opt, best_cost=best, factor=float(cert.factor),
                           ratio=best / lp_opt, k=cert.k)
            except Exception as exc:  # record and continue
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["time"] = time.perf_counter() - t0
            report.records.append(rec)
    report.histogram = _histogram(report.records, "ratio", ratio_bin)
    return report


def run_cv_experiment(k_list, seed=0, mode="float", verify=True):
    """Certified factors over all enumerated cycle-plus-paths points."""
    report = ExperimentReport("cv-2ec")
    for k in k_list:
        for idx, cv in enumerate(enumerate_cv(k, seed=seed)):
            rec = {"instance": f"cv-k{k}-{idx}", "cycle_len": k}
            t0 = time.perf_counter()
            try:
                cert = fdt_2ec(cv.point, mode=mode)
                if verify:
                    ok, rep = verify_certificate_2ec(cert, cv.point.graph)
                    if not ok:
                        raise RuntimeError(f"certificate invalid: {rep[0]}")
                rec.update(factor=float(cert.factor), k=cert.k,
                           support=len(support(cv.point.x)))
            except Exception as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["time"] = time.perf_counter() - t0
            report.records.append(rec)
    report.histogram = _histogram(report.records, "factor", factor_bin_2ec)
    return report


def run_vc_experiment(graphs, seed=0, mode="float", dive_tries=5, tree=True):
    """Cover quality of dive (best of a few seeds) and of the full tree,
    against the LP lower bound.  graphs: list of (name, Graph)."""
    report = ExperimentReport("vc")
    for name, graph in graphs:
        rec = {"instance": name}
        t0 = time.perf_counter()
        try:
            rec.update(n=graph.num_vertices, m=graph.num_edges)
            inst = gen_vc(graph, name=name)
            lp_opt, x_star = _solve_relaxation(inst, mode)
            best = None
            for s in range(dive_tries):
                z = fdt_dive(inst, x_star, seed=seed * 1000 + s, mode=mode)
                cost = float(inst.cost(z))
                if best is None or cost < best:
                    best = cost
            rec["dive_cost"] = best
            if tree:
                cert = fdt_tree(inst, x_star, mode=mode)
                tree_best = min(float(inst.cost(z)) for z in cert.solutions)
                rec.update(tree_cost=tree_best, factor=float(cert.factor))
                best = min(best, tree_best)
            rec.update(lp_opt=lp_opt, best_cost=best, ratio=best / lp_opt)
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["time"] = time.perf_counter() - t0
        report.records.append(rec)
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
        out = {}
        for k in CSV_FIELDS:
            if k not in rec:
                continue
            v = rec[k]
            out[k] = f"{v:.9g}" if isinstance(v, float) else v
        writer.writerow(out)
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
