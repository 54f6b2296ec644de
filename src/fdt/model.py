"""Instances, 2EC points and certificates, their JSON files, and the one verifier.

An instance is a constraint system ``A x >= b`` over binary or {0,1,2}
variables, optionally with a nonnegative cost vector.  All coefficients are
kept as exact rationals, once: an instance's rows are a RowMatrix, one
set of exact CSR lists that both LP backends, the integer checks, the
verifier and the JSON writer read.

Every check of both problem types is here, apart from the solvers, so a
certificate needs trust in this module and fdt.graphs' min cut only: the
premise x* in P, feasibility (integer points exactly) and the invariants.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .graphs import Graph, global_min_cut, graph_to_dict, make_graph

ZERO_TOL = 1e-9
SEP_TOL = 1e-7  # the subtour separator's tolerance in float mode

BINARY = "binary"
ZEROONETWO = "zeroonetwo"


class ValidationError(ValueError):
    pass


def read_json(path):
    """The JSON document in the file at path; ValidationError names the
    file, and the line where it is not JSON, or why it is not UTF-8 text."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def write_json(obj, path=None):
    """Write obj as indented JSON and a newline to the file at path, or to
    stdout when path is empty."""
    text = json.dumps(obj, indent=1) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def num_str(v):
    """A number for a report: ints and Fractions exactly, floats to 9
    significant digits."""
    return f"{v:.9g}" if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class Arithmetic:
    """A mode's numbers: its name (as lp.solve takes it), its number type
    and whether it is exact.  tol(t) is the tolerance of a test that reads
    t in float mode: t, or 0 in exact mode, which compares the numbers."""

    name: str
    number: type
    exact: bool

    def tol(self, t):
        return 0 if self.exact else t


FLOAT = Arithmetic("float", float, False)
RATIONAL = Arithmetic("rational", Fraction, True)


def arithmetic(mode):
    """The Arithmetic of a mode string; ValueError for an unknown one."""
    for ar in (FLOAT, RATIONAL):
        if mode == ar.name:
            return ar
    raise ValueError(f"unknown mode {mode!r}")


def as_fraction(v):
    """Parse a JSON-ish number (int, float, or string like '1/3') exactly."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot interpret {v!r} as a number") from exc
    if isinstance(v, bool):
        raise ValidationError(f"boolean is not a number: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValidationError(f"non-finite coefficient: {v!r}")
        return Fraction(v)
    raise ValidationError(f"cannot interpret {v!r} as a number")


def is_zero(v, tol=ZERO_TOL):
    """Exact for ints and Fractions, to within tol for floats."""
    return v == 0 if isinstance(v, (int, Fraction)) else abs(v) <= tol


def is_integral(v, tol=ZERO_TOL):
    """Exact for ints and Fractions, to within tol for floats."""
    if isinstance(v, (int, Fraction)):
        return v.denominator == 1
    return abs(v - round(v)) <= tol


def support(x, tol=ZERO_TOL):
    """Indices of nonzero coordinates, sorted ascending."""
    return [i for i, v in enumerate(x) if not is_zero(v, tol)]


def solution_limit(x):
    """The most solutions a certificate with base point x may hold,
    max(1, |spp(x)|): a vertex of the pruning LP keeps at most |spp(x)|
    nodes, and a certificate holds one solution even at x = 0."""
    return max(1, len(support(x)))


class Row(NamedTuple):
    """One row  sum_k values[k] * x[index[k]] >= rhs  of a RowMatrix."""

    index: list
    values: list
    rhs: object

    def value(self, x):
        return sum([c * x[i] for i, c in zip(self.index, self.values)])


@dataclass
class RowMatrix:
    """Rows  sum_k values[k] * x[index[k]]  over k in start[r]:start[r+1],
    with right-hand sides rhs[r], as CSR lists.  An instance's and a cut
    pool's rows all read >= rhs and hold exact numbers; an lp.LpProblem
    pairs a matrix with one sense per row, and its numbers may be floats.
    append stores integral Fractions as ints (sums over integer points stay
    in int arithmetic, and the exact simplex reads them faster); a matrix
    built from lists holds them as given.  The lists are the matrix's own:
    callers read them and copy what they keep, and only append changes
    them, so that covering stays true to them."""

    start: list = field(default_factory=lambda: [0])
    index: list = field(default_factory=list)
    values: list = field(default_factory=list)
    rhs: list = field(default_factory=list)

    def __len__(self):
        return len(self.rhs)

    def __iter__(self):
        """Each row as a Row of its slices of the lists."""
        index, values = self.index, self.values
        return (Row(index[a:b], values[a:b], rhs)
                for a, b, rhs in zip(self.start, self.start[1:], self.rhs))

    @cached_property
    def covering(self):
        """Is every coefficient >= 0?  Cached until the next append."""
        return all(c >= 0 for c in self.values)

    def append(self, index, values, rhs):
        """Add the row  sum_k values[k] * x[index[k]] >= rhs  at the end."""
        self.__dict__.pop("covering", None)
        self.index.extend(index)
        self.values.extend(map(_int_if_integral, values))
        self.rhs.append(_int_if_integral(rhs))
        self.start.append(len(self.index))


def _int_if_integral(v):
    return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v


@dataclass(frozen=True)
class IpInstance:
    num_vars: int
    rows: RowMatrix
    kind: str = BINARY
    objective: tuple = None
    name: str = ""

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValidationError(f"num_vars {self.num_vars} is negative")
        if self.kind not in (BINARY, ZEROONETWO):
            raise ValidationError(f"unknown variable kind {self.kind!r}")
        for k, (index, _, _) in enumerate(self.rows):
            for i in index:
                if not (0 <= i < self.num_vars):
                    raise ValidationError(
                        f"row {k}: coefficient on variable {i}, "
                        f"but instance has {self.num_vars} variables"
                    )
        if self.objective is not None:
            if len(self.objective) != self.num_vars:
                raise ValidationError(
                    f"objective has length {len(self.objective)}, "
                    f"expected {self.num_vars}"
                )
            if any(c < 0 for c in self.objective):
                raise ValidationError("objective must be componentwise >= 0")

    @property
    def var_upper(self):
        return 1 if self.kind == BINARY else 2

    @property
    def covering(self):
        """Is every row coefficient >= 0?  make_instance negates <= rows and
        splits == rows into a negated pair, so those instances are not."""
        return self.rows.covering

    def cost(self, x):
        if self.objective is None:
            raise ValueError("instance has no objective")
        return sum(c * v for c, v in zip(self.objective, x))


def make_instance(num_vars, rows, kind=BINARY, objective=None, name=""):
    """Build a validated instance from (coef, rhs[, sense]) triples.

    Senses '<=' and '==' are normalized away: a <= row is negated, an == row
    is split into a >= pair.
    """
    norm = RowMatrix()
    for k, row in enumerate(rows):
        if len(row) == 2:
            coef, rhs = row
            sense = ">="
        else:
            coef, rhs, sense = row
        coef = {int(i): as_fraction(c) for i, c in coef.items() if as_fraction(c) != 0}
        rhs = as_fraction(rhs)
        if sense not in (">=", "<=", "==", "="):
            raise ValidationError(f"row {k}: unknown sense {sense!r}")
        if sense != "<=":  # >= and == keep the row, <= and == add its negation
            norm.append(coef, coef.values(), rhs)
        if sense != ">=":
            norm.append(coef, [-c for c in coef.values()], -rhs)
    obj = None
    if objective is not None:
        obj = tuple(as_fraction(c) for c in objective)
    return IpInstance(int(num_vars), norm, kind=kind, objective=obj, name=name)


def instance_to_dict(inst, rational=True):
    conv = _num_out(rational)
    d = {
        "name": inst.name,
        "num_vars": inst.num_vars,
        "kind": inst.kind,
        "rows": [
            {"coef": {str(i): conv(c) for i, c in zip(index, values)}, "rhs": conv(rhs)}
            for index, values, rhs in inst.rows
        ],
    }
    if inst.objective is not None:
        d["objective"] = [conv(c) for c in inst.objective]
    return d


def instance_from_dict(d):
    try:
        num_vars = as_integer(d["num_vars"])
        kind = d.get("kind", BINARY)
        rows = [
            ({int(i): v for i, v in r["coef"].items()}, r["rhs"], r.get("sense", ">="))
            for r in d["rows"]
        ]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed instance: {exc}") from exc
    return make_instance(
        num_vars, rows, kind=kind, objective=d.get("objective"), name=d.get("name", "")
    )


def load_instance(path):
    return instance_from_dict(read_json(path))


def save_instance(inst, path, rational=True):
    write_json(instance_to_dict(inst, rational=rational), path)


def check_integer_feasible(z, inst):
    """Is z an integer-feasible point of the instance?

    Returns (ok, report) where report lists the violated rows / domain
    entries.  The check is exact: z's integers against the exact rows.  A
    z that is not integral is a caller error and raises.
    """
    if len(z) != inst.num_vars:
        raise ValidationError(f"point has length {len(z)}, expected {inst.num_vars}")
    for i, v in enumerate(z):
        if not (_finite(v) and v == int(v)):
            raise ValidationError(f"coordinate {i} = {v} is not integral")
    zi = [int(v) for v in z]
    report = [f"coordinate {i} = {v} outside {{0..{inst.var_upper}}}"
              for i, v in enumerate(zi) if not 0 <= v <= inst.var_upper]
    report.extend(f"row {k} violated: {num_str(value)} < {num_str(rhs)}"
                  for k, value, rhs in row_violations(zi, inst.rows, 0))
    return not report, report


def _finite(v):
    """Ints and Fractions are finite; v - v is NaN for an infinite or NaN float."""
    return v - v == 0


def row_violations(x, rows, tol):
    """(k, value, rhs) for each row k of rows (a RowMatrix) whose value at
    x falls short of its right-hand side by more than tol."""
    missed = []
    start, index, values = rows.start, rows.index, rows.values  # faster than Row tuples
    for k, (a, b, rhs) in enumerate(zip(start, start[1:], rows.rhs)):
        value = sum([c * x[i] for i, c in zip(index[a:b], values[a:b])])
        if value - rhs < -tol:
            missed.append((k, value, rhs))
    return missed


@dataclass(frozen=True)
class Certificate:
    """Convex combination  sum_i weights[i] * solutions[i] <= factor * base_point."""

    factor: object
    weights: tuple
    solutions: tuple
    base_point: tuple
    name: str = ""

    @property
    def k(self):
        return len(self.weights)

    def combination(self):
        return [sum(w * z[i] for w, z in zip(self.weights, self.solutions))
                for i in range(len(self.base_point))]


def verify_certificate(cert, inst, tol=1e-6):
    """Check the premise x* in P and the four certificate invariants against
    an instance.

    Returns (ok, report); the report names every failed check.  With exact
    rational data, pass tol=0.  Solutions are checked exactly at any tol.
    """
    def infeasibility(z):
        ok, sub = check_integer_feasible(z, inst)
        return None if ok else f"infeasible: {sub[0]}"

    def violations(x):
        return [f"base point violates row {k}: {num_str(value)} < {num_str(rhs)}"
                for k, value, rhs in row_violations(x, inst.rows, tol)]

    return _verify_solutions(cert, inst.num_vars, inst.var_upper, infeasibility,
                             violations, tol)


def verify_certificate_2ec(cert, graph, tol=1e-6):
    """Certificate checks for the multigraph setting: those of
    verify_certificate with cap 2, where the premise is that x* is in the
    subtour relaxation (x* in [0, 2]^E, every cut at least 2 - tol) and a
    solution must be a {0,1,2} multiplicity vector that is
    2-edge-connected."""
    def infeasibility(F):
        if any(m not in (0, 1, 2) for m in F):
            return "has a multiplicity outside {0,1,2}"
        return None if check_2ec(graph, F) else "is not 2-edge-connected"

    return _verify_solutions(cert, graph.num_edges, 2, infeasibility,
                             lambda x: cut_violations(graph, x, tol), tol)


def _verify_solutions(cert, n, cap, infeasibility, violations, tol):
    """The certificate checks shared by both verifiers: the base point x*
    lies in [0, cap]^n and violations(x*) lists the relaxation constraints
    it breaks (none, when x* is in P), the factor and weights are finite,
    weights are nonnegative and sum to 1, no solution is infeasible
    (infeasibility(z) names the problem, or returns None), the combination
    is dominated by min(C * x*, cap), and k <= max(1, |spp(x*)|).  The sum and
    domination tests fail on NaN.  Returns (ok, report); raises
    ValidationError unless every vector has length n and there is one
    weight per solution."""
    if len(cert.base_point) != n:
        raise ValidationError(f"base point has length {len(cert.base_point)}, expected {n}")
    if len(cert.weights) != len(cert.solutions):
        raise ValidationError("weights and solutions have different lengths")
    if any(len(z) != n for z in cert.solutions):
        raise ValidationError("solution with wrong dimension")
    report = [f"base point: {p}" for p in box_violations(cert.base_point, cap, tol)]
    report.extend(violations(cert.base_point))
    if not _finite(cert.factor):
        report.append(f"factor: {cert.factor} is not a finite number")
    report.extend(f"weights: weight {j} = {w} is not a finite number"
                  for j, w in enumerate(cert.weights) if not _finite(w))
    total = sum(cert.weights)
    if not abs(total - 1) <= tol:
        report.append(f"weights: sum is {num_str(total)}, expected 1")
    if any(w < -tol for w in cert.weights):
        report.append("weights: negative weight")

    for idx, z in enumerate(cert.solutions):
        problem = infeasibility(z)
        if problem is not None:
            report.append(f"solution {idx} {problem}")

    comb = cert.combination()
    for i, x in enumerate(cert.base_point):
        bound = min(cert.factor * x, cap)
        # a NaN coordinate of x* is the box check's report
        if x == x and not comb[i] <= bound + tol:
            report.append(
                f"domination fails at coordinate {i}: "
                f"{num_str(comb[i])} > min(C*x*, {cap}) = {num_str(bound)}"
            )

    if cert.k > solution_limit(cert.base_point):
        t = len(support(cert.base_point))
        bound = f"|spp(x*)| = {t}" if t else "1, as x* = 0"
        report.append(f"too many solutions: k = {cert.k} > {bound}")
    return not report, report


def box_violations(x, cap, tol):
    """One message per coordinate of x that is not a number in [0, cap]
    to within tol (NaN included)."""
    return [f"coordinate {i} = {num_str(v)} outside [0, {cap}]"
            for i, v in enumerate(x) if not -tol <= v <= cap + tol]


def cut_violations(graph, x, tol):
    """The subtour premise: a message for the minimum cut of x if its weight
    is below 2 - tol, else nothing.  The cuts of an x outside [0, 2]^E
    (NaN included) are not checked: box_violations reports it."""
    if graph.num_vertices < 2 or box_violations(x, 2, tol):
        return []
    value, side = global_min_cut(graph, x)
    if value >= 2 - tol:
        return []
    return [f"base point violates the cut of vertices {sorted(side)}: "
            f"{num_str(value)} < 2"]


def is_subtour_feasible(point, tol=SEP_TOL):
    """Is point.x in the subtour relaxation to within tol: every coordinate
    a number in [0, 2] and every cut at least 2?"""
    return (not box_violations(point.x, 2, tol)
            and not cut_violations(point.graph, point.x, tol))


def check_2ec(graph, multiplicity):
    """Global min cut of the multiplicity-weighted multigraph is >= 2."""
    if graph.num_vertices < 2:
        return True
    value, _ = global_min_cut(graph, [int(m) for m in multiplicity])
    return value >= 2


def base_point(x, n, cap, ar, tol):
    """x in ar's numbers, once it lies in [0, cap]^n to within tol; else ValidationError."""
    if len(x) != n:
        raise ValidationError(f"x* has length {len(x)}, expected {n}")
    problems = box_violations(x, cap, tol)
    if problems:
        raise ValidationError(f"x*: {problems[0]}")
    return tuple(map(ar.number, x))


def _num_out(rational):
    return (lambda v: str(Fraction(v))) if rational else float


def certificate_to_dict(cert):
    """The certificate's JSON document: exact strings, and mode "rational",
    exactly when its factor is a Fraction."""
    rational = isinstance(cert.factor, Fraction)
    conv = _num_out(rational)
    return {
        "name": cert.name,
        "mode": "rational" if rational else "float",
        "factor": conv(cert.factor),
        "weights": [conv(w) for w in cert.weights],
        "solutions": [[int(round(float(v))) for v in z] for z in cert.solutions],
        "base_point": [conv(v) for v in cert.base_point],
    }


def as_integer(v):
    """Parse a JSON-ish integer exactly, as as_fraction does a number."""
    f = as_fraction(v)
    if not is_integral(f):
        raise ValidationError(f"entry {v!r} is not an integer")
    return int(f)


def certificate_from_dict(d):
    try:
        rational = d.get("mode", "rational") == "rational"
        conv = as_fraction if rational else lambda v: float(as_fraction(v))
        return Certificate(
            factor=conv(d["factor"]),
            weights=tuple(conv(w) for w in d["weights"]),
            solutions=tuple(tuple(as_integer(v) for v in z) for z in d["solutions"]),
            base_point=tuple(conv(v) for v in d["base_point"]),
            name=d.get("name", ""),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed certificate: {exc}") from exc


def save_certificate(cert, path):
    write_json(certificate_to_dict(cert), path)


def load_certificate(path):
    return certificate_from_dict(read_json(path))


@dataclass(frozen=True)
class SubtourPoint:
    """A 2EC point: one value per edge of graph."""

    graph: Graph
    x: tuple

    def __post_init__(self):
        if len(self.x) != self.graph.num_edges:
            raise ValueError("edge value vector has wrong length")


def point_to_dict(point, rational=False):
    return {**graph_to_dict(point.graph), "x": list(map(_num_out(rational), point.x))}


def point_from_dict(d):
    try:
        graph = make_graph(as_integer(d["vertices"]), list(map(_endpoints, d["edges"])))
        return SubtourPoint(graph, tuple(as_fraction(v) for v in d["x"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed point: {exc}") from exc


def _endpoints(edge):
    """An edge's two endpoints as ints; ValidationError unless it is a pair."""
    try:
        u, v = edge
    except ValueError as exc:
        raise ValidationError(f"malformed point: edge {edge!r} is not a pair") from exc
    return as_integer(u), as_integer(v)


def load_point(path):
    return point_from_dict(read_json(path))


def save_point(point, path, rational=False):
    write_json(point_to_dict(point, rational=rational), path)
