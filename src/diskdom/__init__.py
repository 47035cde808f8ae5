"""Exact dominating-set solvers for disk graphs with centers in convex position."""

from .geometry import (
    DuplicateCenter,
    GeometryError,
    Instance,
    NonFiniteValue,
    NonPositiveWeight,
    NotConsecutive,
    NotStrictlyConvex,
    Point,
    WeightedDisk,
    canonicalize,
    intersects,
)
from .instance_io import (
    BadParams,
    InstanceDocument,
    SolutionDocument,
    gen_figure1,
    gen_random,
    instance_document,
    load_instance_document,
    load_solution_document,
    render_svg,
    solution_document,
)
from .neighbor_index import build_neighbor_index
from .oracle import (
    Assignment,
    brute_force_min,
    check_domination_of_assignment,
    check_line_separable,
    verify,
    voronoi_assignment,
)
from .solution import Infeasible, InvalidK, Solution, SolverInvariantError, TooLarge
from .unweighted_greedy import solve_unweighted
from .weighted_dp import solve_weighted, solve_weighted_all_k, solve_weighted_unbounded

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BadParams",
    "DuplicateCenter",
    "GeometryError",
    "Infeasible",
    "Instance",
    "InstanceDocument",
    "InvalidK",
    "NonFiniteValue",
    "NonPositiveWeight",
    "NotConsecutive",
    "NotStrictlyConvex",
    "Point",
    "Solution",
    "SolutionDocument",
    "SolverInvariantError",
    "TooLarge",
    "WeightedDisk",
    "brute_force_min",
    "build_neighbor_index",
    "canonicalize",
    "check_domination_of_assignment",
    "check_line_separable",
    "gen_figure1",
    "gen_random",
    "instance_document",
    "intersects",
    "load_instance_document",
    "load_solution_document",
    "render_svg",
    "solution_document",
    "solve_unweighted",
    "solve_weighted",
    "solve_weighted_all_k",
    "solve_weighted_unbounded",
    "verify",
    "voronoi_assignment",
]
