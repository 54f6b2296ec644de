"""Turn an integral point dominating the LP relaxation into a feasible
integer solution, one coordinate at a time.

Each iteration asks an LP whether the next support coordinate can be pushed
to 0 while honoring all earlier decisions; a strictly positive optimum pins
it at 1.  An infeasible LP along the way certifies that either the input
did not dominate the relaxation or the instance's integrality gap is
unbounded -- the two cases are indistinguishable here, so one error covers
both.
"""

import math
from fractions import Fraction

from . import lp
from .model import ZERO_TOL, check_integer_feasible, is_integral, is_zero, support


class UnboundedGapOrInfeasible(RuntimeError):
    """Witness that the input point dominates no feasible region with finite gap."""


def helper_lp(inst, x_cur, finalized, target, mode="float"):
    """min x_target over the relaxation, with `finalized` coordinates pinned
    and everything else capped by the current point."""
    exact = mode == "rational"
    zero = Fraction(0) if exact else 0.0
    lower = [zero] * inst.num_vars
    upper = list(x_cur)
    for j in finalized:
        lower[j] = x_cur[j]
    # zero-capped columns are fixed at 0 and dropped from the LP outright
    active = [j for j in range(inst.num_vars) if not is_zero(upper[j])]
    col_of = {j: k for k, j in enumerate(active)}
    prob = lp.LpProblem(
        num_cols=len(active),
        lower=[lower[j] for j in active],
        upper=[upper[j] for j in active],
        objective=[1 if j == target else 0 for j in active],
    )
    for row in inst.rows:
        coef = {col_of[i]: c for i, c in row.coef.items() if i in col_of}
        rhs = row.rhs
        # zero-fixed columns contribute nothing
        prob.add_row(coef, ">=", rhs)
    out = lp.solve(prob, mode=mode)
    if out.status == lp.OPTIMAL and out.solution is not None:
        full = [zero] * inst.num_vars
        for j, k in col_of.items():
            full[j] = out.solution[k]
        out.solution = full
    return out


def dom_to_ip(inst, x_tilde, mode="float"):
    """Algorithmic core: returns x in S with x <= x_tilde, or raises
    UnboundedGapOrInfeasible."""
    if len(x_tilde) != inst.num_vars:
        raise ValueError("point has wrong dimension")
    for i, v in enumerate(x_tilde):
        if not is_integral(v, ZERO_TOL):
            raise ValueError(f"coordinate {i} = {v} is not integral")
    exact = mode == "rational"
    x = [Fraction(int(round(float(v)))) if exact else float(round(float(v)))
         for v in x_tilde]
    supp = support(x)
    finalized = []
    for target in supp:
        out = helper_lp(inst, x, finalized, target, mode=mode)
        if out.status == lp.INFEASIBLE:
            if not exact:
                # a misread zero optimum earlier can manufacture infeasibility;
                # rule that out before declaring the gap unbounded
                return dom_to_ip(inst, x_tilde, mode="rational")
            raise UnboundedGapOrInfeasible(
                "helper LP infeasible: input outside dom(P) or unbounded gap"
            )
        if out.status != lp.OPTIMAL:
            raise lp.LpError(f"unexpected helper LP status {out.status}")
        if _is_zero_objective(out.objective, exact):
            x[target] = Fraction(0) if exact else 0.0
        else:
            # smallest integer the coordinate can reach, never above its cap
            pinned = min(int(round(float(x[target]))),
                         math.ceil(float(out.objective) - ZERO_TOL))
            x[target] = Fraction(pinned) if exact else float(pinned)
        finalized.append(target)
    ok, report = check_integer_feasible(x, inst)
    if not ok:
        if not exact:
            return dom_to_ip(inst, x_tilde, mode="rational")
        # with exact arithmetic this means the premises fail: the input does
        # not dominate a finite-gap feasible region
        raise UnboundedGapOrInfeasible(f"no dominated solution: {report[0]}")
    return [int(round(float(v))) for v in x]


def dom_to_ip_from_fractional(inst, x, mode="float"):
    """Round a relaxation point up to dom(P) and run the main routine."""
    ceil = [min(inst.var_upper, math.ceil(float(v) - ZERO_TOL)) for v in x]
    return dom_to_ip(inst, [max(0, v) for v in ceil], mode=mode)


def _is_zero_objective(v, exact):
    return v == 0 if exact else abs(v) <= lp.ZERO_OBJ_TOL
