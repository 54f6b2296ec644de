"""Fractional decomposition tree for binary and {0,1,2} IPs.

Level by level, every node not yet integral on the level's coordinate is
split by a branching LP into one branch per value 0..cap of that coordinate
(two branches for binary programs, three for {0,1,2} ones), each scaled by
a multiplier, whose weighted sum stays below the node.  The level is then
trimmed back to at most t nodes by a pruning LP whose vertex optimum cannot
lose total mass.  Leaves are floored to integer points dominating the
relaxation, and each is pushed down into an actual feasible solution.

The level loop, the level check and the certificate assembly here are
shared with the 2-edge-connectivity tree in ``fdt.twoec``.
"""

import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat

from . import lp
from .domtoip import UnboundedGapOrInfeasible, dom_to_ip, relaxation_lp
from .model import (RATIONAL, ZERO_TOL, Certificate, ValidationError, arithmetic,
                    base_point, check_integer_feasible, is_integral, num_str,
                    row_violations, solution_limit, support)

# float mode's tolerances; rational mode reads each as 0 (Arithmetic.tol)
CHECK_TOL = 1e-6
GAMMA_TOL = 1e-9


class InvariantError(AssertionError):
    """A level invariant failed; indicates a solver tolerance breach."""


@dataclass
class BranchResult:
    gammas: tuple  # one multiplier per branch value 0..cap; 0 where absent
    x_hats: tuple  # the matching scaled points, None where gamma is 0

    @property
    def total(self):
        return sum(self.gammas)


def branch_lpc(inst, x_prime, ell, integral_prefix=(), mode="float"):
    """Split x' on coordinate ell, one branch per value 0..inst.var_upper.

    Solves the branching LP over the instance's rows and rescales each copy
    by its multiplier.  The already-branched prefix coordinates keep their
    integer values: on binary instances they are rounded up after the
    solve, on {0,1,2} instances the LP fixes them.  Branches with zero
    multiplier are reported absent.
    """
    ar = arithmetic(mode)
    binary = inst.var_upper == 1
    fixed = {} if binary else {i: x_prime[i] for i in integral_prefix}
    gammas, copies, active = _branching_lp(x_prime, ell, inst.var_upper,
                                           inst.row_matrix, (), fixed, ar)
    return _split(gammas, copies, active, x_prime, inst.var_upper, ar,
                  prefix=integral_prefix if binary else ())


def _branching_lp(x, ell, cap, rows, pinned, fixed, ar):
    """Build and solve the branching LP of node x on coordinate ell; returns
    (gammas, copies, active): the multipliers lambda_0..lambda_cap, each 0
    unless above GAMMA_TOL, the unscaled copies x^0..x^cap, each with one
    value per active coordinate, and the active coordinates of x (> ZERO_TOL).

    One copy x^j of the active coordinates per value j = 0..cap, each with a
    multiplier lambda_j: x^j satisfies every covering row of rows (a
    RowMatrix) scaled by lambda_j, x^j <= cap * lambda_j, x^j_i >= lambda_j
    for pinned i, x^j_i = v * lambda_j for fixed {i: v}, and x^j_ell = j *
    lambda_j; the copies sum to at most x, and sum lambda_j <= 1 is
    maximised.  Columns are the copies' blocks, then the multipliers; rows
    are each copy's block (covering, cap, pinned, then fixed rows), then the
    x^j_ell rows, the sum rows and the multiplier row.  The rows are CSR
    lists, built the same way in both modes: the matrix's exact numbers
    and x's, which the float backend converts to floats for HiGHS.
    """
    active = [i for i, v in enumerate(x) if v > ar.tol(ZERO_TOL)]
    if ell not in active:
        raise ValueError("branch coordinate has value 0; nothing to split")
    a = len(active)
    arity = cap + 1
    lam = arity * a  # column of lambda_0
    col = [-1] * len(x)
    for k, i in enumerate(active):
        col[i] = k
    fixed = {i: v for i, v in fixed.items() if col[i] >= 0}

    # one copy's rows, over local columns 0..a-1 and a for its lambda: the
    # covering rows cut down to the active columns, each ending in lambda,
    # then one two-entry row per active, pinned and fixed coordinate
    start, index, values, rhs = rows.start, rows.index, rows.values, rows.rhs
    local = [col[i] for i in index]
    if -1 in local:
        keep = [k >= 0 for k in local]
        local = list(compress(local, keep))
        values = list(compress(values, keep))
        kept = [0, *accumulate(keep)]
        start = [kept[s] for s in start]
    t_index, t_value, t_start = [], [], [0]
    for lo, hi, r in zip(start, start[1:], rhs):
        t_index += local[lo:hi]
        t_index.append(a)
        t_value += values[lo:hi]
        t_value.append(-r)
        t_start.append(len(t_index))
    pair_col = [*range(a), *(col[i] for i in pinned), *(col[i] for i in fixed)]
    pair_coef = [-cap] * a + [-1] * len(pinned) + [-v for v in fixed.values()]
    t_index += chain.from_iterable(zip(pair_col, repeat(a)))
    t_value += chain.from_iterable(zip(repeat(1), pair_coef))
    nz = len(t_index)
    t_start += range(t_start[-1] + 2, nz + 1, 2)
    m = len(rhs)
    t_sense = [lp.GE] * m + [lp.LE] * a + [lp.GE] * len(pinned) + [lp.EQ] * len(fixed)

    # the copies, then x^j_ell = j lambda_j for j >= 1 (two entries each),
    # the sums over the copies of each active coordinate and the sum of the
    # multipliers (arity entries each); copy j shifts local column k to
    # j * a + k and its lambda to lam + j
    row_start = [0]
    row_index = []
    for j in range(arity):
        row_start += [s + j * nz for s in t_start[1:]]
        row_index += map([*range(j * a, j * a + a), lam + j].__getitem__, t_index)
    row_value = t_value * arity
    row_sense = t_sense * arity
    for j in range(1, arity):
        row_index += (j * a + col[ell], lam + j)
        row_value += (1, -j)
    row_sense += [lp.EQ] * cap
    for k in range(a):
        row_index += range(k, lam, a)
    row_index += range(lam, lam + arity)
    row_value += [1] * (arity * (a + 1))
    row_sense += [lp.LE] * (a + 1)
    row_start += range(row_start[-1] + 2, row_start[-1] + 2 * cap + 1, 2)
    row_start += range(row_start[-1] + arity, len(row_index) + 1, arity)
    row_rhs = [0] * (arity * len(t_sense) + cap) + [x[i] for i in active] + [1]

    upper = [None] * lam + [1] * arity
    upper[col[ell]] = 0  # x^0_ell = 0
    prob = lp.LpProblem(num_cols=lam + arity, upper=upper,
                        objective=[0] * lam + [1] * arity, maximize=True)
    prob.add_rows(row_start, row_index, row_value, row_sense, row_rhs)
    out = lp.solve(prob, mode=ar.name)
    if out.status != lp.OPTIMAL:
        raise lp.LpError(f"branching LP unexpectedly {out.status}")
    sol, tol = out.solution, ar.tol(GAMMA_TOL)
    gammas = tuple(g if g > tol else 0 for g in sol[lam:])
    return gammas, tuple(sol[j * a:(j + 1) * a] for j in range(arity)), active


def _split(gammas, copies, active, x, cap, ar, prefix=()):
    """The BranchResult of node x from _branching_lp's gammas, copies and
    active coordinates: each copy with a nonzero multiplier rescaled by it
    (float values clamped to [0, cap]), the prefix rounded up to 0/1."""
    zero, one, top = ar.number(0), ar.number(1), ar.number(cap)
    if sum(gammas) <= ar.tol(GAMMA_TOL):
        raise UnboundedGapOrInfeasible(
            "branching LP optimum is 0: point outside dom(P) or unbounded gap")
    x_hats = []
    for gamma, copy in zip(gammas, copies):
        if not gamma:
            x_hats.append(None)
            continue
        xh = [zero] * len(x)
        for i, v in zip(active, copy):
            xh[i] = v / gamma if ar.exact else min(max(v / gamma, zero), top)
        for i in prefix:
            xh[i] = zero if xh[i] <= ar.tol(ZERO_TOL) else one
        x_hats.append(tuple(xh))
    return BranchResult(gammas=gammas, x_hats=tuple(x_hats))


def prune(nodes, x_star, supp=None, mode="float"):
    """Trim a level with the pruning LP; returns (kept_nodes, old_total, new_total).

    The optimum is a vertex, so at most |supp| multipliers survive; total
    mass never drops because the incoming weights are themselves feasible.
    Entries x^j_i and multipliers of 0 are dropped (in float mode, up to
    ZERO_TOL and GAMMA_TOL).
    """
    ar = arithmetic(mode)
    if supp is None:
        supp = support(x_star)
    # row i of the LP: sum_j theta_j x^j_i <= x*_i over the nodes with x^j_i > tol
    tol = ar.tol(ZERO_TOL)
    points = [x for x, _ in nodes]
    start, index, value = [0], [], []
    for i in supp:
        for j, x in enumerate(points):
            if x[i] > tol:
                index.append(j)
                value.append(x[i])
        start.append(len(index))
    prob = lp.LpProblem(num_cols=len(nodes), maximize=True, objective=[1] * len(nodes))
    prob.add_rows(start, index, value, lp.LE, [x_star[i] for i in supp])
    out = lp.solve(prob, mode=ar.name)
    if out.status == lp.UNBOUNDED:
        raise lp.LpError("pruning LP unbounded: a node has empty support; "
                         "the zero vector dominates the relaxation")
    if out.status != lp.OPTIMAL:
        raise lp.LpError(f"pruning LP unexpectedly {out.status}")
    old_total = sum(w for _, w in nodes)
    kept = [(x, th) for (x, _), th in zip(nodes, out.solution) if th > ar.tol(GAMMA_TOL)]
    return kept, old_total, sum(w for _, w in kept)


def fdt_tree(inst, x_star, mode="float", branch_order=None, trace=None):
    """Full decomposition: returns a certificate of feasible solutions whose
    convex combination is dominated by factor * x_star componentwise.
    x_star must lie in the relaxation P (see _base_point).  Levels follow
    the coordinates of branch_order, a sequence, that are in spp(x*), or
    else spp(x*) in index order: a zero coordinate splits no node.  An
    order that misses a coordinate of spp(x*), or holds one outside
    [0, n), is a ValueError, raised before any LP.  A float run that breaks
    an invariant is retried once in rational mode."""

    def run(ar):
        x0 = _base_point(inst, x_star, ar)
        supp = support(x0)
        order = _branch_order(branch_order, supp, inst.num_vars)
        return _decompose(
            x0, order, ar, trace,
            settle=lambda x, coord: _settle(x, coord, ar),
            branch=lambda x, depth: branch_lpc(inst, x, order[depth],
                                               integral_prefix=order[:depth], mode=ar.name),
            prune_level=lambda nodes: prune(nodes, x0, supp, mode=ar.name),
            finish=lambda x: _leaf_solution(inst, x, ar.name),
            name=inst.name,
        )

    return exact_on_failure(run, mode, trace)


def _branch_order(branch_order, supp, n):
    """The coordinates of branch_order in supp, in its order, or supp when
    branch_order is None; a ValueError names those of supp it misses and
    those outside [0, n)."""
    if branch_order is None:
        return supp
    outside = [i for i in branch_order if not 0 <= i < n]
    if outside:
        raise ValueError(f"branch_order: coordinates {outside} are outside [0, {n})")
    missed = sorted(set(supp).difference(branch_order))
    if missed:
        raise ValueError(f"branch_order misses coordinates {missed} of spp(x*)")
    return list(filter(set(supp).__contains__, branch_order))


def exact_on_failure(run, mode, trace):
    """run(ar) in mode's Arithmetic.  A float run that breaks an invariant runs
    once more in rational mode, premise check included, after dropping the
    records it added to trace, so that trace describes the result."""
    ar = arithmetic(mode)
    mark = 0 if trace is None else len(trace)
    try:
        return run(ar)
    except InvariantError:
        if ar.exact:
            raise
        if trace is not None:
            del trace[mark:]
        return run(RATIONAL)


def _base_point(inst, x_star, ar):
    """x* in the mode's numbers, once those are known to lie in P to within
    the tree's tolerance (exactly in rational mode).  A ValidationError
    names the first bound or row it misses; an empty P, decided by one exact
    LP only when x* misses a row, raises UnboundedGapOrInfeasible instead."""
    tol = ar.tol(CHECK_TOL)
    x = base_point(x_star, inst.num_vars, inst.var_upper, ar, tol)
    missed = row_violations(x, inst.row_matrix, tol)
    if missed:
        if lp.solve(relaxation_lp(inst), mode="rational").status == lp.INFEASIBLE:
            raise UnboundedGapOrInfeasible("the relaxation has no point")
        k, value, rhs = missed[0]
        raise ValidationError(f"x*: violates row {k}: {num_str(value)} < {num_str(rhs)}")
    return x


def _decompose(x0, order, ar, trace, settle, branch, prune_level, finish, name=""):
    """The level loop and certificate assembly shared by both trees, in ar's numbers.

    At level d every node either settles on coordinate order[d] (settle
    returns the node to carry, or None) or is split by branch(x, d) into
    weighted children; prune_level(nodes) trims the level, which is then checked
    and traced.  finish(x) turns each leaf into a feasible solution.
    """
    t = solution_limit(x0)
    L = [(x0, ar.number(1))]
    pruned_points = None  # the node points of the last pruning LP
    for depth, coord in enumerate(order):
        grown = []
        branch_totals = []
        for x, w in L:
            settled = settle(x, coord)
            if settled is not None:
                grown.append((settled, w))
                continue
            br = branch(x, depth)
            branch_totals.append(float(br.total))
            grown.extend((xh, w * g) for g, xh in zip(br.gammas, br.x_hats) if g)
        points = [x for x, _ in grown]
        if points == pruned_points:
            # the same points give the same LP, and the nodes carry its weights
            L, old_total = grown, sum(w for _, w in grown)
            new_total = old_total
        else:
            L, old_total, new_total = prune_level(grown)
            pruned_points = points
        _check_level(L, x0, order[: depth + 1], t, old_total, new_total,
                     ar.tol(CHECK_TOL))
        if trace is not None:
            trace.append({
                "level": depth + 1, "coordinate": coord,
                "pre_prune_size": len(grown), "size": len(L),
                "pre_prune_mass": float(old_total), "mass": float(new_total),
                "branch_totals": branch_totals,
            })

    solutions = tuple(tuple(finish(x)) for x, _ in L)
    total = sum(w for _, w in L)
    if total <= 0:
        raise UnboundedGapOrInfeasible("no leaf mass survived")
    factor = ar.number(1) / total
    return Certificate(
        factor=factor,
        weights=tuple(w * factor for _, w in L),
        solutions=solutions,
        base_point=x0,
        name=name,
    )


def fdt_dive(inst, x_star, seed=0, mode="float", trace=None):
    """One random root-to-leaf walk of the tree; deterministic given seed.  A
    float walk that breaks an invariant walks again in rational mode."""

    def run(ar):
        y = _base_point(inst, x_star, ar)
        rng = random.Random(seed)
        order = support(y)
        for depth, coord in enumerate(order):
            settled = _settle(y, coord, ar)
            if settled is not None:
                y = settled
                continue
            br = branch_lpc(inst, y, coord, integral_prefix=order[:depth], mode=ar.name)
            j = _pick(br.gammas, rng.random())
            if trace is not None:
                trace.append({"coordinate": coord, "p0": float(br.gammas[0] / br.total),
                              "branch": j})
            y = br.x_hats[j]
        return _leaf_solution(inst, y, ar.name)

    return exact_on_failure(run, mode, trace)


def _pick(gammas, u):
    """The branch a uniform draw u in [0, 1) lands in; branch j has
    probability gamma_j / total."""
    total, acc = sum(gammas), 0
    for j, g in enumerate(gammas):
        acc += g
        if u < acc / total:
            return j


def _leaf_solution(inst, x, mode):
    """Floor a leaf and push it down to a feasible solution with dom_to_ip.

    A leaf lies in the relaxation, so a floored leaf that misses a row means
    an invariant broke, not that the gap is unbounded.
    """
    z = floor_round(x, arithmetic(mode).tol(CHECK_TOL))
    ok, report = check_integer_feasible(z, inst)
    if not ok:
        raise InvariantError(f"floored leaf is infeasible: {report[0]}")
    return dom_to_ip(inst, z, mode=mode)


def floor_round(x, tol=ZERO_TOL):
    """Floor a leaf point to multiplicities, capping at 2.

    Every coordinate must already be 0 or >= 1 to within tol; one inside
    (tol, 1 - tol) means an upstream invariant broke.  tol=0 is exact.
    """
    out = []
    for i, v in enumerate(x):
        if tol < v < 1 - tol:
            raise InvariantError(f"leaf coordinate {i} = {float(v)} is in (0, 1)")
        out.append(min(2, math.floor(v + tol)))
    return tuple(out)


def _check_level(L, x_star, branched, t, old_total, new_total, tol):
    if len(L) > t:
        raise InvariantError(f"level has {len(L)} nodes, limit {t}")
    if new_total < old_total - tol:
        raise InvariantError(f"prune lost mass: {float(old_total)} -> {float(new_total)}")
    for x, _ in L:
        for i in branched:
            if tol < x[i] < 1 - tol:
                raise InvariantError(f"coordinate {i} has value {float(x[i])} in (0, 1)")
    for i, bound in enumerate(x_star):
        mass = sum(w * x[i] for x, w in L)
        if mass > bound + tol:
            raise InvariantError(
                f"mass exceeds base point at {i}: {float(mass)} > {float(bound)}")


def _settle(x, coord, ar):
    """x with coordinate coord snapped to its integer value, in ar's
    numbers, or None while it is fractional there."""
    if not is_integral(x[coord]):
        return None
    return x[:coord] + (ar.number(round(x[coord])),) + x[coord + 1:]
