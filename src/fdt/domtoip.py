"""Turn an integral point dominating the LP relaxation into a feasible
integer solution, one coordinate at a time.

Each iteration asks a helper LP whether the next support coordinate can be
pushed to 0 while honoring all earlier decisions; a strictly positive
optimum pins it at 1.  On covering rows (every coefficient >= 0) the helper
LP's optimum has a closed form and no LP is solved; other instances solve
it.  An infeasible LP along the way certifies that either the input
did not dominate the relaxation or the instance's integrality gap is
unbounded -- the two cases are indistinguishable here, so one error covers
both.
"""

import math
from fractions import Fraction

from . import lp
from .model import (ZERO_TOL, ValidationError, arithmetic, check_integer_feasible,
                    is_integral, support)


class UnboundedGapOrInfeasible(RuntimeError):
    """Witness that the input point dominates no feasible region with finite gap."""


def helper_lp(inst, x_cur, finalized, target, mode="float"):
    """min x_target over the relaxation, with `finalized` coordinates pinned
    and everything else capped by the current point.

    On covering rows the optimum has a closed form (_covering_optimum);
    other instances solve the LP."""
    if inst.covering:
        return _covering_helper(inst, x_cur, finalized, target, mode)
    return _helper_by_lp(inst, x_cur, finalized, target, mode)


def _covering_helper(inst, x_cur, finalized, target, mode):
    """helper_lp on an instance whose coefficients are all >= 0, without an
    LP: its optimal value, exact in both modes, and the optimal point x_cur
    with the target coordinate lowered to it."""
    number = arithmetic(mode).number
    # x_cur exactly, with ints where integral
    u = [p if q == 1 else Fraction(p, q)
         for p, q in (v.as_integer_ratio() for v in x_cur)]
    value = _covering_optimum(inst, u, target in finalized, target)
    if value is None:
        return lp.LpOutcome(lp.INFEASIBLE, mode=mode)
    solution = list(map(number, x_cur))
    solution[target] = value = number(value)
    return lp.LpOutcome(lp.OPTIMAL, solution=solution, objective=value, mode=mode)


def _covering_optimum(inst, u, pinned, target):
    """min x_t over covering rows with x_i in [0, u_i] for i != t and x_t in
    [u_t if pinned else 0, u_t], as a Fraction, or None when that is empty.
    Pinning other coordinates at u_i changes neither.

    Raising a coordinate never breaks a row with coefficients >= 0, so every
    other coordinate may sit at its cap, and x_t needs only what each capped
    row still lacks: v* = max over rows r with c_rt > 0 of
    (b_r - sum_{i != t} c_ri u_i) / c_rt, and at least x_t's lower bound.
    A row without t that u misses, or v* > u_t, makes the LP infeasible."""
    num, den = u[target] if pinned else 0, 1  # v* so far, as num / den
    for index, values, rhs in inst.row_matrix:
        rest, c_t = rhs, 0
        for i, c in zip(index, values):
            if i == target:
                c_t = c
            else:
                rest -= c * u[i]
        if c_t:
            if rest * den > num * c_t:
                num, den = rest, c_t
        elif rest > 0:
            return None
    return None if num > u[target] * den else Fraction(num, den)


def _helper_by_lp(inst, x_cur, finalized, target, mode):
    """helper_lp by solving the LP, for instances with negative coefficients.
    The LP has every column; a zero-capped one is fixed at 0 by its bounds."""
    lower = [0] * inst.num_vars
    for j in finalized:
        lower[j] = x_cur[j]
    objective = [0] * inst.num_vars
    objective[target] = 1
    prob = lp.LpProblem(num_cols=inst.num_vars, lower=lower, upper=list(x_cur),
                        objective=objective)
    # the instance's exact rows in both modes, so that a float failure
    # falls back on its own numbers
    m = inst.row_matrix
    prob.add_rows(m.start, m.index, m.values, lp.GE, m.rhs)
    return lp.solve(prob, mode=mode)


def relaxation_lp(inst):
    """The instance's LP relaxation: min objective . x (0 without an
    objective) over its rows and [0, cap]^n."""
    prob = lp.LpProblem(
        num_cols=inst.num_vars,
        upper=[inst.var_upper] * inst.num_vars,
        objective=list(inst.objective) if inst.objective else [0] * inst.num_vars,
    )
    m = inst.row_matrix  # exact in both modes, as in _helper_by_lp
    prob.add_rows(m.start, m.index, m.values, lp.GE, m.rhs)
    return prob


def dom_to_ip(inst, x_tilde, mode="float"):
    """Algorithmic core: returns x in S with x <= x_tilde, a list of ints,
    or raises UnboundedGapOrInfeasible.  Rational mode reads the helper
    LP optima exactly."""
    ar = arithmetic(mode)
    if len(x_tilde) != inst.num_vars:
        raise ValueError("point has wrong dimension")
    for i, v in enumerate(x_tilde):
        # above the cap is fine: dom(P) is unbounded above
        if isinstance(v, float) and not math.isfinite(v):
            raise ValidationError(f"coordinate {i} = {v} is not finite")
        if not is_integral(v, ZERO_TOL):
            raise ValueError(f"coordinate {i} = {v} is not integral")
        if round(v) < 0:
            raise ValidationError(f"coordinate {i} = {v} is negative")
    x = list(map(round, x_tilde))
    supp = support(x)
    finalized = []
    for target in supp:
        out = helper_lp(inst, x, finalized, target, mode=mode)
        if out.status == lp.INFEASIBLE:
            if not ar.exact:
                # a misread zero optimum earlier can manufacture infeasibility;
                # rule that out before declaring the gap unbounded
                return dom_to_ip(inst, x_tilde, mode="rational")
            raise UnboundedGapOrInfeasible(
                "helper LP infeasible: input outside dom(P) or unbounded gap")
        if out.status != lp.OPTIMAL:
            raise lp.LpError(f"unexpected helper LP status {out.status}")
        if abs(out.objective) <= ar.tol(lp.ZERO_OBJ_TOL):
            x[target] = 0
        else:
            # smallest integer the coordinate can reach, never above its cap
            x[target] = min(x[target], math.ceil(out.objective - ar.tol(ZERO_TOL)))
        finalized.append(target)
    ok, report = check_integer_feasible(x, inst)
    if not ok:
        if not ar.exact:
            return dom_to_ip(inst, x_tilde, mode="rational")
        # with exact arithmetic this means the premises fail: the input does
        # not dominate a finite-gap feasible region
        raise UnboundedGapOrInfeasible(f"no dominated solution: {report[0]}")
    return x


def dom_to_ip_from_fractional(inst, x, mode="float"):
    """Round a relaxation point up to dom(P) and run the main routine."""
    tol = arithmetic(mode).tol(ZERO_TOL)
    ceil = [min(inst.var_upper, math.ceil(v - tol)) for v in x]
    return dom_to_ip(inst, [max(0, v) for v in ceil], mode=mode)
