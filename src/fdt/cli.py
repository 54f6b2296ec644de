"""Command line front end.

Exit codes: 0 success, 1 usage/data error (or a tree the solvers cannot
finish), 2 unbounded-gap-or-infeasible signal (or failed verification).
Every exit 1 prints one ``error:`` line on stderr and no traceback: a
missing or unknown option, a --matching part that is not a pair a-b, and
a matching whose support has no fractional point are errors like bad data.
"""

import argparse
import json
import logging
import os
import random
import sys
from fractions import Fraction
from itertools import combinations

from .binary import InvariantError, fdt_dive, fdt_tree
from .domtoip import UnboundedGapOrInfeasible, dom_to_ip, dom_to_ip_from_fractional
from .experiments import (report_to_csv, report_to_json, run_cv_experiment,
                          run_tap_experiment, run_vc_experiment)
from .generators import (CvGenerationError, enumerate_cv, gen_cv, gen_tap, gen_vc,
                         read_pace_graph, tap_batch_seed)
from .graphs import graph_to_dict, make_graph
from .lp import LpError
from .model import (ValidationError, as_fraction, certificate_to_dict,
                    instance_to_dict, is_integral, load_certificate, load_instance,
                    load_point, point_to_dict, read_json, save_instance, save_point,
                    support, verify_certificate, verify_certificate_2ec, write_json)
from .twoec import fdt_2ec

log = logging.getLogger("fdt")


def _load_vector(path):
    d = read_json(path)
    try:
        values = d["values"] if isinstance(d, dict) else d
        return [as_fraction(v) for v in values]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed point: {exc}") from exc


def _mode(args):
    return "rational" if getattr(args, "rational", False) else "float"


def cmd_domtoip(args):
    inst = load_instance(args.instance)
    x = _load_vector(args.point)
    push = dom_to_ip if all(is_integral(v) for v in x) else dom_to_ip_from_fractional
    write_json({"values": push(inst, x, mode=_mode(args))}, args.out)
    return 0


def cmd_solve(args):
    inst = load_instance(args.instance)
    x = _load_vector(args.point)
    mode = _mode(args)
    if args.mode == "dive":
        z = fdt_dive(inst, x, seed=args.seed, mode=mode)
        write_json({"values": z}, args.out)
    else:
        order = None
        if args.random_order:
            order = support(x)
            random.Random(args.seed).shuffle(order)
        cert = fdt_tree(inst, x, mode=mode, branch_order=order)
        write_json(certificate_to_dict(cert), args.out)
        log.info("factor %.6g with %d solutions", float(cert.factor), cert.k)
    return 0


def cmd_solve_2ec(args):
    point = load_point(args.point)
    cert = fdt_2ec(point, mode=_mode(args))
    write_json({**certificate_to_dict(cert), "graph": graph_to_dict(point.graph)}, args.out)
    log.info("factor %.6g with %d multigraphs", float(cert.factor), cert.k)
    return 0


def cmd_verify(args):
    cert = load_certificate(args.certificate)
    # rational certificates load as Fractions and are checked exactly
    tol = 0 if isinstance(cert.factor, Fraction) else 1e-6
    if args.instance:
        inst = load_instance(args.instance)
        ok, report = verify_certificate(cert, inst, tol=tol)
    else:
        point = load_point(args.point)
        ok, report = verify_certificate_2ec(cert, point.graph, tol=tol)
    for line in report:
        print(line)
    print("valid" if ok else "INVALID")
    return 0 if ok else 2


def cmd_gen(args):
    if args.family == "vc":
        if args.pace:
            graph = read_pace_graph(args.pace)
        else:
            _check_gnp(args)
            graph = _gnp(args.n, args.p, args.seed)
        write_json(instance_to_dict(gen_vc(graph), rational=args.rational), args.out)
    elif args.family == "tap":
        if args.count > 1 or len(args.levels) > 1:
            return _gen_tap_batch(args)
        _, inst = gen_tap(args.levels[0], seed=args.seed)
        write_json(instance_to_dict(inst, rational=args.rational), args.out)
    elif args.family == "cv":
        if args.enumerate:
            cvs = enumerate_cv(args.cycle, seed=args.seed)
            for idx, cv in enumerate(cvs):
                path = f"{args.out or 'cv'}-{args.cycle}-{idx}.json"
                save_point(cv.point, path, rational=args.rational)
            print(f"wrote {len(cvs)} points")
        else:
            if args.matching is None:
                raise ValueError("gen cv needs --matching or --enumerate")
            matching = _parse_matching(args.matching)
            cv = gen_cv(args.cycle, matching, seed=args.seed)
            write_json(point_to_dict(cv.point, rational=args.rational), args.out)
    return 0


def _gen_tap_batch(args):
    """Write one instance file per (levels, rep) plus a manifest of sizes."""
    prefix = args.out or "tap"
    manifest = []
    for levels in args.levels:
        tap = None
        for rep in range(args.count):
            tap, inst = gen_tap(levels, seed=tap_batch_seed(args.seed, levels, rep))
            save_instance(inst, f"{prefix}-l{levels}-r{rep}.json",
                          rational=args.rational)
        manifest.append((levels, tap.tree.num_edges, len(tap.links), args.count))
    with open(f"{prefix}-manifest.csv", "w") as fh:
        fh.write("levels,edges,links,count\n")
        for row in manifest:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"wrote {sum(m[3] for m in manifest)} instances and {prefix}-manifest.csv")
    return 0


def _parse_matching(text):
    """The pairs a-b of a comma-separated --matching; a ValueError names the
    first part that is not a pair of ints."""
    pairs = []
    for part in text.split(","):
        try:
            a, b = map(int, part.split("-"))
        except ValueError:
            raise ValueError(f"--matching: {part!r} is not a pair a-b of vertices") from None
        pairs.append((a, b))
    return pairs


def cmd_bench_tap(args):
    report = run_tap_experiment(args.levels, args.count, seed=args.seed,
                                mode=_mode(args))
    return _emit_report(report, args)


def cmd_bench_cv(args):
    report = run_cv_experiment(args.k, seed=args.seed, mode=_mode(args))
    return _emit_report(report, args)


def _check_gnp(args):
    """ValueError unless the G(n, p) draw's --n is >= 0 and --p is in
    [0, 1]."""
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    if not 0 <= args.p <= 1:
        raise ValueError(f"--p must be in [0, 1], got {args.p}")


def _gnp(n, p, seed):
    """A G(n, p) draw: each vertex pair, in lexicographic order, is an edge
    when the next random.Random(seed) number is below p (networkx's
    gnp_random_graph draws the same edges)."""
    rng = random.Random(seed)
    return make_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p],
                      require_connected=False)


def cmd_bench_vc(args):
    _check_gnp(args)
    graphs = []
    for path in args.pace or []:
        graphs.append((os.path.basename(path), read_pace_graph(path)))
    for rep in range(args.count):
        graphs.append((f"gnp-{args.n}-{rep}", _gnp(args.n, args.p, args.seed + rep)))
    report = run_vc_experiment(graphs, seed=args.seed, mode=_mode(args))
    return _emit_report(report, args)


def _emit_report(report, args):
    csv_text = report_to_csv(report, args.out and args.out + ".csv")
    agg = report_to_json(report, args.out and args.out + ".json")
    if not args.out:
        print(csv_text, end="")
    print(json.dumps(agg["histogram"], indent=1, sort_keys=True))
    if report.errors:
        log.warning("%d instances failed", len(report.errors))
    return 0


def _common(p, suppress):
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--rational", action="store_true",
                   default=d if suppress else False,
                   help="exact rational arithmetic throughout")
    p.add_argument("--seed", type=int, default=d if suppress else 0)
    p.add_argument("--out", default=d,
                   help="output path (or prefix for benchmarks)")


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValueError, so that fdt exits 1 on it like on bad data."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="fdt")
    _common(p, suppress=False)
    # globals are also accepted after the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    _common(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: _Parser(parents=[common], **kw))

    s = sub.add_parser("domtoip", help="push an integral dominating point into S")
    s.add_argument("--instance", required=True)
    s.add_argument("--point", required=True)
    s.set_defaults(func=cmd_domtoip)

    s = sub.add_parser("solve", help="decompose a relaxation point (binary)")
    s.add_argument("--instance", required=True)
    s.add_argument("--point", required=True)
    s.add_argument("--mode", choices=["tree", "dive"], default="tree")
    s.add_argument("--random-order", action="store_true")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("solve-2ec", help="decompose a subtour-feasible point")
    s.add_argument("--point", required=True)
    s.set_defaults(func=cmd_solve_2ec)

    s = sub.add_parser("verify", help="check a certificate")
    s.add_argument("--certificate", required=True)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--instance")
    g.add_argument("--point", help="2EC graph/point file")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("gen", help="emit instance/point files")
    s.add_argument("family", choices=["vc", "tap", "cv"])
    s.add_argument("--n", type=int, default=20)
    s.add_argument("--p", type=float, default=0.3)
    s.add_argument("--pace", help="read a PACE-format graph file")
    s.add_argument("--levels", type=int, nargs="+", default=[3])
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--cycle", type=int, default=8)
    s.add_argument("--matching", help="e.g. 0-4,1-5,2-6,3-7")
    s.add_argument("--enumerate", action="store_true")
    s.set_defaults(func=cmd_gen)

    s = sub.add_parser("bench-tap")
    s.add_argument("--levels", type=int, nargs="+", default=[3, 4, 5])
    s.add_argument("--count", type=int, default=100)
    s.set_defaults(func=cmd_bench_tap)

    s = sub.add_parser("bench-cv")
    s.add_argument("--k", type=int, nargs="+", default=[10])
    s.set_defaults(func=cmd_bench_cv)

    s = sub.add_parser("bench-vc")
    s.add_argument("--pace", nargs="*")
    s.add_argument("--n", type=int, default=30)
    s.add_argument("--p", type=float, default=0.2)
    s.add_argument("--count", type=int, default=5)
    s.set_defaults(func=cmd_bench_vc)
    return p


def main(argv=None):
    logging.basicConfig(level=os.environ.get("FDT_LOG", "WARNING").upper())
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UnboundedGapOrInfeasible:
        print("unbounded-gap-or-infeasible")
        return 2
    except (OSError, ValueError, LpError, InvariantError, CvGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
