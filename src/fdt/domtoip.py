"""Turn an integral point dominating the LP relaxation into a feasible
integer solution, one coordinate at a time.

Each iteration asks a helper LP whether the next support coordinate can be
pushed to 0 while honoring all earlier decisions; a strictly positive
optimum pins it at 1.  On covering rows (every coefficient >= 0) the helper
LP's optimum has a closed form, exact in every mode, and no LP is solved;
other instances solve it.  Each answer is read in its own outcome's mode,
and a refusal that read a float answer is checked once in rational mode.
An infeasible LP along the way certifies that either the input did not
dominate the relaxation or the instance's integrality gap is unbounded --
the two cases are indistinguishable here, so one error covers both.
"""

import math
from fractions import Fraction

from . import lp
from .model import (RATIONAL, ZERO_TOL, ValidationError, arithmetic,
                    check_integer_feasible, is_integral, support)


class UnboundedGapOrInfeasible(RuntimeError):
    """Witness that the input point dominates no feasible region with finite gap."""


def helper_lp(inst, x_cur, finalized, target, mode="float"):
    """min x_target over the relaxation, with `finalized` coordinates pinned
    and everything else capped by the current point.

    On covering rows the optimum has a closed form (_covering_optimum),
    exact in both modes; other instances solve the LP in mode.  The
    outcome's mode says which numbers it holds."""
    arithmetic(mode)  # ValueError for an unknown mode
    if inst.covering:
        return _covering_helper(inst, x_cur, finalized, target)
    return _helper_by_lp(inst, x_cur, finalized, target, mode)


def _covering_helper(inst, x_cur, finalized, target):
    """helper_lp on an instance whose coefficients are all >= 0, without an
    LP: its optimal value and the optimal point, x_cur with the target
    coordinate lowered to it, both exact and so in mode "rational"."""
    # x_cur exactly, with ints where integral
    u = [p if q == 1 else Fraction(p, q)
         for p, q in (v.as_integer_ratio() for v in x_cur)]
    value = _covering_optimum(inst, u, target in finalized, target)
    if value is None:
        return lp.LpOutcome(lp.INFEASIBLE, mode=RATIONAL.name)
    u[target] = value
    return lp.LpOutcome(lp.OPTIMAL, solution=u, objective=value, mode=RATIONAL.name)


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
    # the CSR lists themselves: a Row tuple per row costs more than this loop
    start, index, values = inst.rows.start, inst.rows.index, inst.rows.values
    for a, b, rhs in zip(start, start[1:], inst.rows.rhs):
        rest, c_t = rhs, 0
        for i, c in zip(index[a:b], values[a:b]):
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
    # the instance's own exact rows in both modes, so that a float failure
    # falls back on its own numbers
    prob = lp.LpProblem(inst.num_vars, inst.rows, [lp.GE] * len(inst.rows), lower=lower,
                        upper=list(x_cur), objective=objective)
    return lp.solve(prob, mode=mode)


def relaxation_lp(inst):
    """The instance's LP relaxation: min objective . x (0 without an
    objective) over its rows and [0, cap]^n."""
    return lp.LpProblem(
        inst.num_vars, inst.rows, [lp.GE] * len(inst.rows),  # as in _helper_by_lp
        upper=[inst.var_upper] * inst.num_vars,
        objective=list(inst.objective) if inst.objective else [0] * inst.num_vars,
    )


def dom_to_ip(inst, x_tilde, mode="float"):
    """Algorithmic core: returns x in S with x <= x_tilde, a list of ints,
    or raises UnboundedGapOrInfeasible.  Each helper LP optimum is read in
    its outcome's mode: exactly, unless it is a float one; a refusal after
    reading a float optimum is checked once more in rational mode."""
    arithmetic(mode)  # ValueError for an unknown mode
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
    read_float = False
    for target in supp:
        out = helper_lp(inst, x, finalized, target, mode=mode)
        ar = arithmetic(out.mode)
        read_float |= not ar.exact
        if out.status == lp.INFEASIBLE:
            refusal = "helper LP infeasible: input outside dom(P) or unbounded gap"
            break
        if out.status != lp.OPTIMAL:
            raise lp.LpError(f"unexpected helper LP status {out.status}")
        if abs(out.objective) <= ar.tol(lp.ZERO_OBJ_TOL):
            x[target] = 0
        else:
            # smallest integer the coordinate can reach, never above its cap
            x[target] = min(x[target], math.ceil(out.objective - ar.tol(ZERO_TOL)))
        finalized.append(target)
    else:
        ok, report = check_integer_feasible(x, inst)
        if ok:
            return x
        refusal = f"no dominated solution: {report[0]}"
    if not read_float:  # the premises fail: input outside dom(P), or an unbounded gap
        raise UnboundedGapOrInfeasible(refusal)
    # a float misread (a zero optimum, a rounding) can manufacture either
    # failure: rule that out, once, before declaring the gap unbounded
    return dom_to_ip(inst, x_tilde, mode="rational")


def dom_to_ip_from_fractional(inst, x, mode="float"):
    """Round a relaxation point up to dom(P) and run the main routine."""
    tol = arithmetic(mode).tol(ZERO_TOL)
    for i, v in enumerate(x):
        if isinstance(v, float) and not math.isfinite(v):
            raise ValidationError(f"coordinate {i} = {v} is not finite")
    ceil = [min(inst.var_upper, math.ceil(v - tol)) for v in x]
    return dom_to_ip(inst, [max(0, v) for v in ceil], mode=mode)
