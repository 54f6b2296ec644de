"""Instance and certificate data model.

An instance is a constraint system ``A x >= b`` over binary or {0,1,2}
variables, optionally with a nonnegative cost vector.  All coefficients are
kept as exact rationals internally; float views are produced on demand so
the same instance can be fed to either the exact or the floating-point LP
backend.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

ZERO_TOL = 1e-9

BINARY = "binary"
ZEROONETWO = "zeroonetwo"


class ValidationError(ValueError):
    pass


def as_fraction(v):
    """Parse a JSON-ish number (int, float, or string like '1/3') exactly."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        return Fraction(v)
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
    if isinstance(v, Fraction) or isinstance(v, int):
        return v == 0
    return abs(v) <= tol


def is_integral(v, tol=ZERO_TOL):
    if isinstance(v, Fraction) or isinstance(v, int):
        return Fraction(v).denominator == 1
    return abs(v - round(v)) <= tol


def support(x, tol=ZERO_TOL):
    """Indices of nonzero coordinates, sorted ascending."""
    return [i for i, v in enumerate(x) if not is_zero(v, tol)]


@dataclass(frozen=True)
class Row:
    """A sparse constraint  sum_i coef[i] * x_i >= rhs."""

    coef: dict
    rhs: Fraction

    def value(self, x):
        return sum(c * x[i] for i, c in self.coef.items())

    def slack(self, x):
        return self.value(x) - self.rhs


@dataclass(frozen=True)
class IpInstance:
    num_vars: int
    rows: tuple
    kind: str = BINARY
    objective: tuple = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in (BINARY, ZEROONETWO):
            raise ValidationError(f"unknown variable kind {self.kind!r}")
        for k, row in enumerate(self.rows):
            for i in row.coef:
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

    def cost(self, x):
        if self.objective is None:
            raise ValueError("instance has no objective")
        return sum(c * v for c, v in zip(self.objective, x))


def make_instance(num_vars, rows, kind=BINARY, objective=None, name=""):
    """Build a validated instance from (coef, rhs[, sense]) triples.

    Senses '<=' and '==' are normalized away: a <= row is negated, an == row
    is split into a >= pair.
    """
    norm = []
    for k, row in enumerate(rows):
        if len(row) == 2:
            coef, rhs = row
            sense = ">="
        else:
            coef, rhs, sense = row
        coef = {int(i): as_fraction(c) for i, c in coef.items() if as_fraction(c) != 0}
        rhs = as_fraction(rhs)
        if sense == ">=":
            norm.append(Row(coef, rhs))
        elif sense == "<=":
            norm.append(Row({i: -c for i, c in coef.items()}, -rhs))
        elif sense in ("==", "="):
            norm.append(Row(coef, rhs))
            norm.append(Row({i: -c for i, c in coef.items()}, -rhs))
        else:
            raise ValidationError(f"row {k}: unknown sense {sense!r}")
    obj = None
    if objective is not None:
        obj = tuple(as_fraction(c) for c in objective)
    return IpInstance(int(num_vars), tuple(norm), kind=kind, objective=obj, name=name)


def instance_to_dict(inst, rational=True):
    conv = _num_out(rational)
    d = {
        "name": inst.name,
        "num_vars": inst.num_vars,
        "kind": inst.kind,
        "rows": [
            {"coef": {str(i): conv(c) for i, c in row.coef.items()}, "rhs": conv(row.rhs)}
            for row in inst.rows
        ],
    }
    if inst.objective is not None:
        d["objective"] = [conv(c) for c in inst.objective]
    return d


def instance_from_dict(d):
    try:
        num_vars = int(d["num_vars"])
        kind = d.get("kind", BINARY)
        rows = [
            ({int(i): v for i, v in r["coef"].items()}, r["rhs"], r.get("sense", ">="))
            for r in d["rows"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance: {exc}") from exc
    return make_instance(
        num_vars, rows, kind=kind, objective=d.get("objective"), name=d.get("name", "")
    )


def load_instance(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return instance_from_dict(d)


def save_instance(inst, path, rational=True):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst, rational=rational), fh, indent=1)
        fh.write("\n")


def check_integer_feasible(z, inst, tol=ZERO_TOL):
    """Is z an integer-feasible point of the instance?

    Returns (ok, report) where report lists the violated rows / domain
    entries; a row may fall short of its right-hand side by at most tol
    (tol=0 checks exactly).  A non-integral z is a caller error and raises.
    """
    if len(z) != inst.num_vars:
        raise ValidationError(f"point has length {len(z)}, expected {inst.num_vars}")
    for i, v in enumerate(z):
        if not is_integral(v, tol):
            raise ValidationError(f"coordinate {i} = {v} is not integral")
    zi = [int(round(float(v))) for v in z]
    report = []
    for i, v in enumerate(zi):
        if not (0 <= v <= inst.var_upper):
            report.append(f"coordinate {i} = {v} outside {{0..{inst.var_upper}}}")
    for k, row in enumerate(inst.rows):
        if row.slack(zi) < -tol:
            report.append(f"row {k} violated: {float(row.value(zi)):g} < {float(row.rhs):g}")
    return not report, report


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
    rational data, pass tol=0.
    """
    def infeasibility(z):
        ok, sub = check_integer_feasible(z, inst, tol)
        return None if ok else f"infeasible: {sub[0]}"

    def violations(x):
        return [f"base point violates row {k}: {float(row.value(x)):.9g} < {float(row.rhs):.9g}"
                for k, row in enumerate(inst.rows) if row.slack(x) < -tol]

    return verify_solutions(cert, inst.num_vars, inst.var_upper, infeasibility,
                            violations, tol)


def verify_solutions(cert, n, cap, infeasibility, violations, tol):
    """The certificate checks shared by every verifier: the base point x*
    lies in [0, cap]^n and violations(x*) lists the relaxation constraints
    it breaks (none, when x* is in P), weights are nonnegative and sum to 1,
    no solution is infeasible (infeasibility(z) names the problem, or
    returns None), the combination is dominated by min(C * x*, cap), and
    k <= |spp(x*)|.  Returns (ok, report); raises ValidationError unless
    every vector has length n and there is one weight per solution."""
    if len(cert.base_point) != n:
        raise ValidationError(f"base point has length {len(cert.base_point)}, expected {n}")
    if len(cert.weights) != len(cert.solutions):
        raise ValidationError("weights and solutions have different lengths")
    if any(len(z) != n for z in cert.solutions):
        raise ValidationError("solution with wrong dimension")
    report = [f"base point: coordinate {i} = {float(v):.9g} outside [0, {cap}]"
              for i, v in enumerate(cert.base_point) if v < -tol or v > cap + tol]
    report.extend(violations(cert.base_point))
    total = sum(cert.weights)
    if abs(total - 1) > tol:
        report.append(f"weights: sum is {float(total):.9g}, expected 1")
    if any(w < -tol for w in cert.weights):
        report.append("weights: negative weight")

    for idx, z in enumerate(cert.solutions):
        problem = infeasibility(z)
        if problem is not None:
            report.append(f"solution {idx} {problem}")

    comb = cert.combination()
    for i in range(n):
        bound = min(cert.factor * cert.base_point[i], cap)
        if comb[i] > bound + tol:
            report.append(
                f"domination fails at coordinate {i}: "
                f"{float(comb[i]):.9g} > min(C*x*, {cap}) = {float(bound):.9g}"
            )

    t = len(support(cert.base_point))
    if cert.k > t:
        report.append(f"too many solutions: k = {cert.k} > |spp(x*)| = {t}")
    return not report, report


def _num_out(rational):
    if rational:
        return lambda v: str(Fraction(v) if not isinstance(v, Fraction) else v)
    return float


def certificate_to_dict(cert, rational=True):
    conv = _num_out(rational)
    return {
        "name": cert.name,
        "mode": "rational" if rational else "float",
        "factor": conv(cert.factor),
        "weights": [conv(w) for w in cert.weights],
        "solutions": [[int(round(float(v))) for v in z] for z in cert.solutions],
        "base_point": [conv(v) for v in cert.base_point],
    }


def _integer(v):
    f = as_fraction(v)
    if not is_integral(f):
        raise ValidationError(f"solution entry {v!r} is not an integer")
    return int(f)


def certificate_from_dict(d):
    try:
        rational = d.get("mode", "rational") == "rational"
        conv = as_fraction if rational else float
        return Certificate(
            factor=conv(d["factor"]),
            weights=tuple(conv(w) for w in d["weights"]),
            solutions=tuple(tuple(_integer(v) for v in z) for z in d["solutions"]),
            base_point=tuple(conv(v) for v in d["base_point"]),
            name=d.get("name", ""),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed certificate: {exc}") from exc


def save_certificate(cert, path, rational=True):
    with open(path, "w") as fh:
        json.dump(certificate_to_dict(cert, rational=rational), fh, indent=1)
        fh.write("\n")


def load_certificate(path):
    with open(path) as fh:
        d = json.load(fh)
    return certificate_from_dict(d)
