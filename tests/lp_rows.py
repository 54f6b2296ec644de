"""LPs for the tests, written and read as (coef dict, sense, rhs) triples.

sense is "<=", ">=" or "==" ("=" also reads as "=="); each row's entries
keep the dict's order, and every number is kept as given.
"""

from fdt import lp
from fdt.model import RowMatrix

SENSE = {"<=": lp.LE, ">=": lp.GE, "==": lp.EQ, "=": lp.EQ}
SENSE_NAME = {lp.LE: "<=", lp.GE: ">=", lp.EQ: "=="}


def prob(num_cols, rows, lower=None, upper=None, objective=None, maximize=False):
    """The LpProblem with the given triples as its rows."""
    start, index, values = [0], [], []
    for coef, _, _ in rows:
        index += coef
        values += coef.values()
        start.append(len(index))
    matrix = RowMatrix(start, index, values, [rhs for _, _, rhs in rows])
    return lp.LpProblem(num_cols, matrix, [SENSE[sense] for _, sense, _ in rows],
                        lower=lower, upper=upper, objective=objective, maximize=maximize)


def row_triples(problem):
    """The problem's rows as triples, in order."""
    return [(dict(zip(index, values)), SENSE_NAME[sense], rhs)
            for (index, values, rhs), sense in zip(problem.rows, problem.sense)]
