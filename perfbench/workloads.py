"""The benchmark's two workloads: inputs, the timed tree call, and checks.

Each workload is chosen so that one roadmap optimisation does most of its
work there and almost none in the other (see perfbench/README.md):

* ``cv-2ec``: row generation with min-cut separation and three-way
  branching on the 2EC cycle points.  ``dom_to_ip`` never runs.
* ``vc-exact``: ``fdt_tree(mode="rational")``; almost all time is in the
  Fraction simplex, HiGHS is never called.

The program only sees the generated instances; every input comes from the
workload seed.  Functions are called through their modules so the traced
run's wrappers (spans.py) see every call.
"""

import random
from contextlib import nullcontext

import networkx as nx

from fdt import binary, experiments, generators, graphs, model, twoec

import spans

# vc-exact: every 5-vertex graph of the networkx atlas whose relaxation
# vertex is fractional, each twice under seeded random vertex labels.  A
# fixed graph set keeps the instance mix, and so the medians, alike from
# seed to seed while the labels, and so the branching order, change with
# every seed.
VC_EXACT_VERTICES = 5
VC_EXACT_COPIES = 2

# cycle-plus-chords points: one point for each matching class below, drawn
# with gen_cv under seeded retries until the class yields a fractional point.
# CV10_CLASSES are the eight classes of canonical_matchings(10) for which
# enumerate_cv(10, seed) returned a point on seeds 1-8 (it returns 6 to 8 of
# them per seed); CV12_CLASSES are the first sixteen classes of
# canonical_matchings(12), in random.Random(0)'s shuffled order, that yield a
# point.  The classes are fixed and the seed draws the points: tree time
# differs two-fold between classes, and letting the seed pick how many points
# each cycle length gets moved the median by 17% from seed to seed.
CV10_CLASSES = [
    ((0, 2), (1, 5), (3, 7), (4, 8), (6, 9)),
    ((0, 2), (1, 5), (3, 8), (4, 7), (6, 9)),
    ((0, 2), (1, 6), (3, 7), (4, 8), (5, 9)),
    ((0, 2), (1, 6), (3, 7), (4, 9), (5, 8)),
    ((0, 3), (1, 6), (2, 7), (4, 8), (5, 9)),
    ((0, 3), (1, 6), (2, 7), (4, 9), (5, 8)),
    ((0, 3), (1, 7), (2, 6), (4, 8), (5, 9)),
    ((0, 3), (1, 7), (2, 6), (4, 9), (5, 8)),
]
CV12_CLASSES = [
    ((0, 2), (1, 4), (3, 8), (5, 9), (6, 10), (7, 11)),
    ((0, 2), (1, 4), (3, 8), (5, 10), (6, 9), (7, 11)),
    ((0, 6), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11)),
    ((0, 2), (1, 5), (3, 7), (4, 9), (6, 11), (8, 10)),
    ((0, 3), (1, 6), (2, 9), (4, 8), (5, 10), (7, 11)),
    ((0, 5), (1, 7), (2, 8), (3, 10), (4, 9), (6, 11)),
    ((0, 3), (1, 6), (2, 7), (4, 9), (5, 10), (8, 11)),
    ((0, 4), (1, 6), (2, 9), (3, 8), (5, 10), (7, 11)),
    ((0, 4), (1, 7), (2, 8), (3, 9), (5, 10), (6, 11)),
    ((0, 2), (1, 4), (3, 7), (5, 9), (6, 10), (8, 11)),
    ((0, 5), (1, 7), (2, 8), (3, 9), (4, 10), (6, 11)),
    ((0, 2), (1, 6), (3, 7), (4, 8), (5, 10), (9, 11)),
    ((0, 2), (1, 4), (3, 7), (5, 10), (6, 9), (8, 11)),
    ((0, 2), (1, 5), (3, 10), (4, 9), (6, 8), (7, 11)),
    ((0, 3), (1, 7), (2, 8), (4, 11), (5, 9), (6, 10)),
    ((0, 2), (1, 7), (3, 6), (4, 9), (5, 10), (8, 11)),
]
CV_CLASSES = [(10, m) for m in CV10_CLASSES] + [(12, m) for m in CV12_CLASSES]
MAX_REDRAWS = 1000
FRACTIONAL = 1e-6


class Case:
    """One generated input: its key, the problem, the relaxation point."""

    def __init__(self, key, problem, x_star, info):
        self.key = key
        self.problem = problem
        self.x_star = tuple(x_star)
        self.info = info


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _fractional(x):
    return any(FRACTIONAL < float(v) < 1 - FRACTIONAL for v in x)


def _vc_instance(graph, name, tracer):
    inst = generators.gen_vc(
        graphs.make_graph(graph.number_of_nodes(), list(graph.edges()),
                          require_connected=False), name=name)
    with _span(tracer, spans.RELAX):
        _, x = experiments._solve_relaxation(inst, "rational")
    return inst, x


def atlas_draws(vertices, copies, tracer=None):
    """copies draws of each atlas graph on this many vertices whose
    relaxation vertex is fractional, each under random vertex labels."""
    def relabel(graph):
        return lambda rng: nx.relabel_nodes(
            graph, dict(zip(graph, rng.sample(range(vertices), vertices))))
    draws = []
    for graph in nx.graph_atlas_g():
        if graph.number_of_nodes() != vertices or graph.number_of_edges() == 0:
            continue
        _, x = _vc_instance(graph, "atlas", tracer)
        if _fractional(x):
            draws += [relabel(graph)] * copies
    return draws


class VcWorkload:
    name = "vc-exact"
    mode = "rational"

    def __init__(self, draws):
        self.draws = draws  # tracer -> [rng -> networkx graph], one per instance

    def build(self, seed, tracer=None):
        rng = random.Random(seed)
        cases = []
        for idx, draw in enumerate(self.draws(tracer)):
            for _ in range(MAX_REDRAWS):
                graph = draw(rng)
                inst, x = _vc_instance(graph, f"{self.name}-{seed}-{idx}", tracer)
                if _fractional(x):
                    break
            else:
                raise RuntimeError(f"{self.name}: no fractional relaxation for instance {idx}")
            cases.append(Case(inst.name, inst, x, {
                "n": inst.num_vars, "m": len(inst.rows), "support": len(model.support(x)),
                "lp_cols": inst.num_vars, "lp_rows": len(inst.rows),
                "edges": sorted(graph.edges())}))
        return cases

    def certify(self, case, levels=None):
        return binary.fdt_tree(case.problem, case.x_star, mode=self.mode, trace=levels)

    def check(self, case, cert):
        """Problems found with the certificate and its premise x* in P, in
        exact arithmetic."""
        inst, x = case.problem, case.x_star
        problems = []
        if any(v < 0 or v > 1 for v in x):
            problems.append("x* outside [0, 1]")
        for k, row in enumerate(inst.rows):
            if row.value(x) < row.rhs:
                problems.append(f"x* violates covering row {k}")
        if tuple(cert.base_point) != x:
            problems.append("certificate base point is not x*")
        _, report = model.verify_certificate(cert, inst, tol=0)
        problems.extend(report)
        return problems


class CvWorkload:
    name = "cv-2ec"
    mode = "float"

    def __init__(self, classes=CV_CLASSES):
        self.classes = classes  # [(cycle length, perfect matching)]

    def build(self, seed, tracer=None):
        rng = random.Random(seed)
        cases = []
        for idx, (k, matching) in enumerate(self.classes):
            for _ in range(MAX_REDRAWS):
                try:
                    cv = generators.gen_cv(k, matching, seed=rng.randrange(2**32))
                    break
                except generators.CvGenerationError:
                    continue
            else:
                raise RuntimeError(f"{self.name}: no fractional point for class {idx}")
            g = cv.point.graph
            cases.append(Case(f"cv-{seed}-{idx}-k{k}", cv.point, cv.point.x, {
                "n": g.num_vertices, "m": g.num_edges,
                "support": len(model.support(cv.point.x)),
                "lp_cols": g.num_edges, "lp_rows": g.num_vertices,
                "matching": [list(p) for p in cv.matching]}))
        return cases

    def certify(self, case, levels=None):
        return twoec.fdt_2ec(case.problem, mode=self.mode, trace=levels)

    def check(self, case, cert):
        problems = []
        if not twoec.is_subtour_feasible(case.problem):
            problems.append("x* is not subtour-feasible")
        if tuple(cert.base_point) != case.x_star:
            problems.append("certificate base point is not x*")
        _, report = twoec.verify_certificate_2ec(cert, case.problem.graph)
        problems.extend(report)
        return problems


WORKLOADS = {
    "cv-2ec": CvWorkload(),
    "vc-exact": VcWorkload(
        lambda tracer: atlas_draws(VC_EXACT_VERTICES, VC_EXACT_COPIES, tracer)),
}

