"""Certificate-throughput benchmark for fdt.

    python3 perfbench/run.py --workload cv-2ec --seed 1 --seconds 60 --trace 0

Runs one workload in this single process (no worker pool) against the fdt
sources in ``src/`` next to this directory.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` certifies the first half
of the instance set in alternating untraced and traced passes, and reports
the per-layer metrics of the first traced pass.  Every certificate is
checked outside the timer.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any check fails and 2 when the fdt
sources are missing.  A JSON record with the provenance, the
instance descriptors, the timings and, for traced runs, the spans is
written under ``.perfbench_out/``.
"""

import os

# one thread for BLAS/OpenMP: must be set before numpy or scipy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("cv-2ec", "vc-exact")
SETUP_REPEATS = 3
# every instance is timed in at least this many passes; more passes follow
# while the next one is expected to end within --seconds of the start,
# import and set-up included
MIN_PASSES = 2
# instances certified untimed before the first pass
WARMUP = 2
# a traced run times this many untraced and this many traced passes over
# the traced half for trace.overhead_ratio
OVERHEAD_ROUNDS = 2

# (end-to-end metric, unit, better); fail_ratio is the result line's
# failed / attempted and is printed with these
END_TO_END = [
    ("certs_per_s", "1/s", "higher"),
    ("cert_p50_s", "s", "lower"),
    ("cert_tail_s", "s", "lower"),
    ("factor_mean", "C", "lower"),
    ("factor_max", "C", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def certify_pass(wl, cases, tracer=None, levels=None):
    """Time one tree call per case; returns (times, certs, errors)."""
    times, certs, errors = [], [], []
    for case in cases:
        t0 = perf_counter()
        try:
            if tracer is None:
                cert = wl.certify(case)
            else:
                with tracer.span(spans.CERT):
                    cert = wl.certify(case, levels)
        except Exception:  # a failed certificate is counted, not fatal
            cert = None
            errors.append((case, traceback.format_exc(limit=3).strip().splitlines()[-1]))
        times.append(perf_counter() - t0)
        certs.append(cert)
    return times, certs, errors


def check_pass(wl, cases, certs, errors):
    """Output check, outside the timer: [(case, problem)] for every failure."""
    bad = [(case, f"raised {error}") for case, error in errors]
    for case, cert in zip(cases, certs):
        if cert is not None:
            bad += [(case, problem) for problem in wl.check(case, cert)]
    return bad


def cert_digest(cases, certs):
    """Digest of each certificate's (factor, k)."""
    h = hashlib.sha256()
    for case, cert in zip(cases, certs):
        h.update(f"{case.key} {None if cert is None else (cert.factor, cert.k)!r}\n".encode())
    return h.hexdigest()[:16]


def input_digest(cases):
    h = hashlib.sha256()
    for c in cases:
        h.update(f"{c.key} {[str(Fraction(v)) for v in c.x_star]}\n".encode())
    return h.hexdigest()[:16]


def run_untraced(wl, seed, seconds, import_s):
    start = perf_counter() - import_s
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cases = wl.build(seed)
        setup_times.append(perf_counter() - t0)

    # warm-up: the first tree calls pay for scipy's lazy imports and caches
    certify_pass(wl, cases[:WARMUP])

    passes = []
    certify_start = perf_counter()
    while True:
        passes.append(certify_pass(wl, cases))
        now = perf_counter()
        per_pass = (now - certify_start) / len(passes)
        if len(passes) >= MIN_PASSES and now - start + per_pass > seconds:
            break

    failures, failed = [], 0
    for times, certs, errors in passes:
        found = check_pass(wl, cases, certs, errors)
        failures += found
        failed += len({c.key for c, _ in found})
    digests = sorted({cert_digest(cases, certs) for _, certs, _ in passes})
    if len(digests) > 1:
        failures.append((None, "certificates differ between passes"))
        failed += 1

    # every timed call of every pass counts: the host's speed drifts by tens
    # of percent within a minute, and whole runs can fall in a slow spell, so
    # statistics over the whole run vary less from run to run than each
    # instance's fastest pass
    calls = sorted(t for times, _, _ in passes for t in times)
    certs = [c for c in passes[0][1] if c is not None]
    metrics = {
        "certs_per_s": len(calls) / sum(calls),
        "cert_p50_s": statistics.median(calls),
        "setup_s": import_s + statistics.median(setup_times),
    }
    # the highest percentile with ten timed calls beyond it in the fewest
    # passes a run makes; fixed per workload by its instance count
    least = MIN_PASSES * len(cases)
    tail = None
    if least > 10:
        rank = -(-len(calls) * (least - 10) // least)  # ceil, in integers
        metrics["cert_tail_s"] = calls[rank - 1]
        tail = f"p{100 * (least - 10) / least:.0f} of {len(calls)} timed calls"
    metrics["factor_mean"] = statistics.fmean(float(c.factor) for c in certs) if certs else 0.0
    metrics["factor_max"] = max((float(c.factor) for c in certs), default=0.0)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {"passes": len(passes), "pass_times": [times for times, _, _ in passes],
              "setup_times": setup_times, "import_s": import_s, "cert_tail": tail, "digest": digests}
    return cases, metrics, len(passes) * len(cases), failed, failures, detail


def run_traced(wl, seed):
    """Per-layer metrics from one traced pass over the first half of the
    instance set.  The half is also certified in OVERHEAD_ROUNDS untraced
    and OVERHEAD_ROUNDS traced passes, in the order untraced, traced,
    traced, untraced, ..., so that a steady drift of the host's speed
    cancels out of trace.overhead_ratio.  Every pass must give the same
    certificates."""
    cases = wl.build(seed)
    half = cases[: (len(cases) + 1) // 2]

    tracer = spans.Tracer()
    levels = []
    tracer.install()
    try:
        with tracer.span(spans.SETUP):
            traced_cases = wl.build(seed, tracer)
    finally:
        tracer.uninstall()
    traced_half = traced_cases[: len(half)]

    plain, traced = [], []
    for i in range(2 * OVERHEAD_ROUNDS):
        if i % 4 in (0, 3):
            plain.append(certify_pass(wl, half))
            continue
        # the first traced pass gives the metrics; later ones time only
        pass_tracer = tracer if not traced else spans.Tracer()
        pass_tracer.install()
        try:
            traced.append(certify_pass(wl, traced_half, pass_tracer,
                                       levels if not traced else []))
        finally:
            pass_tracer.uninstall()

    tracer.install()
    try:
        with tracer.span(spans.CHECK):
            traced_bad = check_pass(wl, traced_half, traced[0][1], traced[0][2])
    finally:
        tracer.uninstall()
    plain_bad = check_pass(wl, half, plain[0][1], plain[0][2])
    failed = len({c.key for c, _ in plain_bad}) + len({c.key for c, _ in traced_bad})
    failures = plain_bad + traced_bad
    if input_digest(cases) != input_digest(traced_cases):
        failures.append((None, "traced set-up built different inputs"))
        failed += 1
    digests = [cert_digest(half, plain[0][1]), cert_digest(traced_half, traced[0][1])]
    others = {cert_digest(half, certs) for _, certs, _ in plain[1:] + traced[1:]}
    if digests[0] != digests[1]:
        failures.append((None, "tracing changed the certificates"))
        failed += 1
    if others - {digests[0]}:
        failures.append((None, "certificates differ between passes"))
        failed += 1

    metrics = spans.layer_metrics(tracer.spans, levels)
    plain_s = statistics.median(sum(times) for times, _, _ in plain)
    traced_s = statistics.median(sum(times) for times, _, _ in traced)
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    detail = {"traced_cases": len(half), "digest": digests,
              "plain_pass_s": [sum(t) for t, _, _ in plain],
              "traced_pass_s": [sum(t) for t, _, _ in traced]}
    return cases, metrics, len(plain + traced) * len(half), failed, failures, detail, tracer


def describe(cases):
    def extent(key):
        values = [c.info[key] for c in cases]
        return [min(values), max(values)]
    return {"count": len(cases), **{key: extent(key) for key in
                                    ("n", "m", "support", "lp_cols", "lp_rows")}}


def provenance(args):
    import networkx
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "fdt", "__init__.py")):
        print(f"perfbench: no fdt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import fdt  # numpy, scipy and networkx load here
    import workloads
    import_s = perf_counter() - t0
    if os.path.dirname(os.path.abspath(fdt.__file__)) != os.path.join(SRC, "fdt"):
        print(f"perfbench: fdt imported from {fdt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        cases, metrics, attempted, failed, failures, detail, tracer = run_traced(wl, args.seed)
        table = spans.PER_LAYER
    else:
        cases, metrics, attempted, failed, failures, detail = run_untraced(
            wl, args.seed, args.seconds, import_s)
        table = END_TO_END
    failed = min(failed, attempted)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")
    for c, p in failures:
        where = "run" if c is None else f"{c.key} {json.dumps(c.info)}"
        print(f"FAIL {args.workload} seed={args.seed} {where}: {p}")
    record = {"provenance": provenance(args), "instances": describe(cases),
              "detail": detail,
              "failures": [{"case": None if c is None else c.key,
                            "instance": None if c is None else c.info,
                            "problem": p} for c, p in failures]}
    print(json.dumps(record["provenance"]))
    print(json.dumps(record["instances"]))
    width = max(len(name) for name, _, _ in table)
    for name, unit, better in table:
        if name in metrics:
            print(f"{name:<{width}}  {metrics[name]:>14.6g}  {unit:<6} {better}")
    print(f"{'fail_ratio':<{width}}  {failed / attempted:>14.6g}  {'ratio':<6} lower")
    if detail.get("cert_tail"):
        print(f"cert_tail_s is {detail['cert_tail']}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table if name in metrics},
    }
    record["result"] = result
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
