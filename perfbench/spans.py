"""In-memory span recorder and the per-layer metrics computed from it.

Spans are recorded from the benchmark's own files: `Tracer.install` swaps
the attribute each caller resolves for a wrapper, and `Tracer.uninstall`
puts the originals back, so fdt itself is unchanged.  Several names are
bound with ``from ... import``, so the same function is wrapped under every
module that calls it (for example ``prune`` in both ``fdt.binary`` and
``fdt.twoec``).
"""

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# span record layout (lists are cheaper than objects on the hot path)
ID, NAME, PARENT, START, END, NOTE = range(6)


def _mode(pos):
    def note(args, kwargs, result):
        if "mode" in kwargs:
            return {"mode": kwargs["mode"]}
        return {"mode": args[pos] if len(args) > pos else "float"}
    return note


def _lp_note(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
    return {"mode": mode, "cols": problem.num_cols, "rows": len(problem.rows)}


def _cut_note(args, kwargs, result):
    return {"hit": result is not None}


def _branch2ec_note(args, kwargs, result):
    note = _mode(4)(args, kwargs, result)
    pool = kwargs.get("cut_pool", args[3] if len(args) > 3 else None)
    note["pool"] = 0 if pool is None else len(pool)
    return note


# (module, attribute resolved by the caller, span name, note)
WRAPPED = [
    ("fdt.lp", "solve", "lp.solve", _lp_note),
    ("fdt.lp", "linprog", "lp.linprog", None),
    ("fdt.simplex", "solve_rational", "simplex.solve_rational", None),
    ("fdt.binary", "fdt_tree", "binary.fdt_tree", _mode(2)),
    ("fdt.binary", "branch_lpc", "binary.branch_lpc", _mode(4)),
    ("fdt.binary", "prune", "binary.prune", _mode(3)),
    ("fdt.twoec", "prune", "binary.prune", _mode(3)),
    ("fdt.binary", "dom_to_ip", "domtoip.dom_to_ip", _mode(2)),
    ("fdt.domtoip", "dom_to_ip", "domtoip.dom_to_ip", _mode(2)),
    ("fdt.domtoip", "helper_lp", "domtoip.helper_lp", _mode(4)),
    ("fdt.twoec", "fdt_2ec", "twoec.fdt_2ec", _mode(1)),
    ("fdt.twoec", "branch_lpc_2ec", "twoec.branch_lpc_2ec", _branch2ec_note),
    ("fdt.twoec", "separate_subtour", "twoec.separate_subtour", _cut_note),
    ("fdt.generators", "separate_subtour", "twoec.separate_subtour", _cut_note),
    ("fdt.twoec", "check_2ec", "twoec.check_2ec", None),
    ("fdt.twoec", "is_subtour_feasible", "twoec.is_subtour_feasible", None),
    ("fdt.twoec", "verify_certificate_2ec", "twoec.verify_certificate_2ec", None),
    ("fdt.twoec", "global_min_cut", "graphs.global_min_cut", None),
    ("fdt.generators", "gen_vc", "generators.gen_vc", None),
    ("fdt.generators", "gen_cv", "generators.gen_cv", None),
    ("fdt.model", "verify_certificate", "model.verify_certificate", None),
]

# benchmark root spans.  Layer metrics count certificate work only, so that a
# gain inside the tree calls is not diluted by set-up; the generators.*
# metrics and the relax and cvgen LP roles count set-up, and the verifier
# metrics count the output check
SETUP, RELAX, CERT, CHECK = "bench.setup", "bench.relax", "bench.cert", "bench.check"
SETUP_ROLES = ("relax", "cvgen")
SETUP_LAYERS = ("generators.gen_cv", "generators.gen_vc")

LP_ROLES = {
    RELAX: "relax",
    "binary.branch_lpc": "branch",
    "binary.prune": "prune",
    "domtoip.helper_lp": "helper",
    "twoec.branch_lpc_2ec": "branch2ec",
    "generators.gen_cv": "cvgen",
}

# (per-layer metric, unit, better); the order is the order of the report
PER_LAYER = [
    ("lp.solve.calls", "count", "lower"),
    ("lp.solve.s", "s", "lower"),
    ("lp.solve.self_s", "s", "lower"),
    ("lp.linprog.calls", "count", "lower"),
    ("lp.linprog.s", "s", "lower"),
] + [(f"lp.solve.calls.{role}", "count", "lower") for role in LP_ROLES.values()] + [
    ("lp.float_fallbacks", "count", "lower"),
    ("lp.cols_mean", "count", "lower"),
    ("lp.rows_mean", "count", "lower"),
    ("simplex.solve_rational.calls", "count", "lower"),
    ("simplex.solve_rational.s", "s", "lower"),
    ("binary.fdt_tree.s", "s", "lower"),
    ("binary.branch_lpc.calls", "count", "lower"),
    ("binary.branch_lpc.s", "s", "lower"),
    ("binary.branch_lpc.self_s", "s", "lower"),
    ("binary.prune.calls", "count", "lower"),
    ("binary.prune.s", "s", "lower"),
    ("binary.prune.keep_ratio", "ratio", "lower"),
    ("binary.levels", "count", "lower"),
    ("domtoip.dom_to_ip.calls", "count", "lower"),
    ("domtoip.dom_to_ip.s", "s", "lower"),
    ("domtoip.helper_lp.calls", "count", "lower"),
    ("domtoip.helper_lp.s", "s", "lower"),
    ("domtoip.helper_lp.self_s", "s", "lower"),
    ("domtoip.exact_restarts", "count", "lower"),
    ("twoec.fdt_2ec.s", "s", "lower"),
    ("twoec.branch_lpc_2ec.calls", "count", "lower"),
    ("twoec.branch_lpc_2ec.s", "s", "lower"),
    ("twoec.branch_lpc_2ec.self_s", "s", "lower"),
    ("twoec.separation_rounds", "count", "lower"),
    ("twoec.separate_subtour.calls", "count", "lower"),
    ("twoec.separate_subtour.s", "s", "lower"),
    ("twoec.cut_hit_ratio", "ratio", "higher"),
    ("twoec.cut_pool_max", "count", "lower"),
    ("twoec.check_2ec.calls", "count", "lower"),
    ("twoec.check_2ec.s", "s", "lower"),
    ("twoec.exact_retries", "count", "lower"),
    ("graphs.global_min_cut.calls", "count", "lower"),
    ("graphs.global_min_cut.s", "s", "lower"),
    ("generators.gen_cv.calls", "count", "lower"),
    ("generators.gen_cv.s", "s", "lower"),
    ("generators.gen_vc.calls", "count", "lower"),
    ("generators.gen_vc.s", "s", "lower"),
    ("model.verify_certificate.s", "s", "lower"),
    ("twoec.verify_certificate_2ec.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


class Tracer:
    """Records one span per wrapped call: id, name, parent id, start, end, note."""

    def __init__(self):
        self.spans = []
        self.site_calls = {}  # "module.attribute" -> calls through that binding
        self._stack = []
        self._saved = []

    def _open(self, name):
        span = [len(self.spans), name, self._stack[-1] if self._stack else -1,
                0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = perf_counter()
        return span

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A benchmark-side span around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, note, site):
        self.site_calls.setdefault(site, 0)

        def wrapper(*args, **kwargs):
            self.site_calls[site] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for modname, attr, name, note in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, note, f"{modname}.{attr}"))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[ID], "name": s[NAME], "parent": s[PARENT],
                                     "start": s[START], "end": s[END],
                                     "note": s[NOTE]}) + "\n")


def layer_metrics(spans, tree_levels):
    """Per-layer metrics from a finished span list.

    tree_levels: the level records the trees returned through ``trace=``.
    Layer metrics cover the certificate spans, the generators.* metrics and
    the relax and cvgen LP roles the set-up spans, and the verifier times
    the output check, which runs outside the end-to-end timer.
    """
    root = {}
    for s in spans:
        root[s[ID]] = s[NAME] if s[PARENT] < 0 else root[s[PARENT]]
    by_id = {s[ID]: s for s in spans}
    children = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(s)

    def by_name(root_name):
        out = {}
        for s in spans:
            if root[s[ID]] == root_name:
                out.setdefault(s[NAME], []).append(s)
        return out

    work = [s for s in spans if root[s[ID]] == CERT]
    named = by_name(CERT)
    setup = by_name(SETUP)

    def dur(s):
        return s[END] - s[START]

    def outermost(name, among=None):
        out = []
        for s in (named if among is None else among).get(name, ()):
            p = s[PARENT]
            while p >= 0 and by_id[p][NAME] != name:
                p = by_id[p][PARENT]
            if p < 0:
                out.append(s)
        return out

    def calls(name, among=None):
        return len((named if among is None else among).get(name, ()))

    def total(name, among=None):
        return sum(dur(s) for s in outermost(name, among))

    def self_time(name):
        return sum(dur(s) - sum(dur(c) for c in children.get(s[ID], ()))
                   for s in named.get(name, ()))

    def parent_name(s):
        return by_id[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def mode_of(s):
        return (s[NOTE] or {}).get("mode")

    m = {}
    for name in ("lp.solve", "lp.linprog", "simplex.solve_rational",
                 "binary.branch_lpc", "binary.prune", "domtoip.dom_to_ip",
                 "domtoip.helper_lp", "twoec.branch_lpc_2ec",
                 "twoec.separate_subtour", "twoec.check_2ec",
                 "graphs.global_min_cut"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    for name in SETUP_LAYERS:
        m[f"{name}.calls"] = calls(name, setup)
        m[f"{name}.s"] = total(name, setup)
    for name in ("lp.solve", "binary.branch_lpc", "domtoip.helper_lp",
                 "twoec.branch_lpc_2ec"):
        m[f"{name}.self_s"] = self_time(name)
    m["binary.fdt_tree.s"] = total("binary.fdt_tree")
    m["twoec.fdt_2ec.s"] = total("twoec.fdt_2ec")

    solves = named.get("lp.solve", [])
    for role in LP_ROLES.values():
        m[f"lp.solve.calls.{role}"] = 0
    for in_setup, among in ((False, solves), (True, setup.get("lp.solve", []))):
        for s in among:
            role = LP_ROLES.get(parent_name(s))
            if role is not None and (role in SETUP_ROLES) == in_setup:
                m[f"lp.solve.calls.{role}"] += 1
    sized = [s[NOTE] for s in solves if s[NOTE] is not None]
    m["lp.cols_mean"] = _mean([note["cols"] for note in sized])
    m["lp.rows_mean"] = _mean([note["rows"] for note in sized])
    m["lp.float_fallbacks"] = sum(
        1 for s in named.get("simplex.solve_rational", ())
        if parent_name(s) == "lp.solve" and mode_of(by_id[s[PARENT]]) == "float")

    kept = sum(level["size"] for level in tree_levels)
    grown = sum(level["pre_prune_size"] for level in tree_levels)
    m["binary.prune.keep_ratio"] = kept / grown if grown else 0.0
    m["binary.levels"] = len(tree_levels)

    m["domtoip.exact_restarts"] = sum(
        1 for s in named.get("domtoip.dom_to_ip", ())
        if mode_of(s) == "rational" and parent_name(s) == "domtoip.dom_to_ip")

    branches = named.get("twoec.branch_lpc_2ec", [])
    m["twoec.separation_rounds"] = (
        m["lp.solve.calls.branch2ec"] / len(branches) if branches else 0.0)
    seps = [s for s in named.get("twoec.separate_subtour", ())
            if parent_name(s) == "twoec.branch_lpc_2ec"]
    m["twoec.cut_hit_ratio"] = (
        sum(1 for s in seps if (s[NOTE] or {}).get("hit")) / len(seps) if seps else 0.0)
    m["twoec.cut_pool_max"] = max((s[NOTE]["pool"] for s in branches
                                   if s[NOTE] is not None), default=0)
    retried = set()
    for s in work:
        if s[NAME] in ("twoec.branch_lpc_2ec", "binary.prune") and mode_of(s) == "rational":
            p = s[PARENT]
            while p >= 0 and by_id[p][NAME] != "twoec.fdt_2ec":
                p = by_id[p][PARENT]
            if p >= 0 and mode_of(by_id[p]) == "float":
                retried.add(p)
    m["twoec.exact_retries"] = len(retried)

    checked = [s for s in spans if root[s[ID]] == CHECK]
    for name in ("model.verify_certificate", "twoec.verify_certificate_2ec"):
        m[f"{name}.s"] = sum(dur(s) for s in checked if s[NAME] == name)
    return m


def _mean(values):
    return sum(values) / len(values) if values else 0.0
