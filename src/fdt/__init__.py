"""Certified convex decompositions of LP relaxation points.

Given a covering-style integer program and a point of its LP relaxation,
the decomposition tree produces feasible integer solutions and convex
weights whose combination is dominated, coordinate by coordinate, by a
scaled copy of the input point.  The scaling factor certifies an upper
bound on the integrality gap of that instance.
"""

from .binary import BranchResult, InvariantError, branch_lpc, fdt_dive, fdt_tree, prune
from .domtoip import (UnboundedGapOrInfeasible, dom_to_ip,
                      dom_to_ip_from_fractional, helper_lp)
from .generators import (CvGenerationError, CvInstance, TapInstance,
                         canonical_matchings, enumerate_cv, gen_cv, gen_tap,
                         gen_vc, read_pace_graph)
from .graphs import Graph, GraphError, global_min_cut, make_graph
from .lp import LpError, LpOutcome, LpProblem, solve
from .model import (BINARY, ZEROONETWO, Certificate, IpInstance, Row, SubtourPoint,
                    ValidationError, check_2ec, check_integer_feasible,
                    is_subtour_feasible, load_certificate, load_instance, load_point,
                    make_instance, save_certificate, save_instance, save_point, support,
                    verify_certificate, verify_certificate_2ec)
from .twoec import branch_lpc_2ec, fdt_2ec, separate_subtour

__version__ = "0.1.0"

__all__ = [
    "BINARY", "ZEROONETWO", "BranchResult", "Certificate", "CvGenerationError",
    "CvInstance", "Graph", "GraphError", "InvariantError", "IpInstance",
    "LpError", "LpOutcome", "LpProblem", "Row", "SubtourPoint",
    "TapInstance", "UnboundedGapOrInfeasible", "ValidationError",
    "branch_lpc", "branch_lpc_2ec", "canonical_matchings", "check_2ec",
    "check_integer_feasible", "dom_to_ip", "dom_to_ip_from_fractional",
    "enumerate_cv", "fdt_2ec", "fdt_dive", "fdt_tree", "gen_cv", "gen_tap",
    "gen_vc", "global_min_cut", "helper_lp", "is_subtour_feasible",
    "load_certificate", "load_instance", "load_point", "make_graph",
    "make_instance", "prune", "read_pace_graph", "save_certificate",
    "save_instance", "save_point", "separate_subtour", "solve", "support",
    "verify_certificate", "verify_certificate_2ec",
]
