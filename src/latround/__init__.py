"""latround: exact discrete convexity on the integer lattice.

Minkowski sums of lattice sets with stored witnesses, hole detection,
integral/exchange/midpoint convexity predicates, and rounding pipelines
that move a hull point of a sum to an actual sum point within exact,
certified distance bounds.
"""

from ._kernel import BACKEND
from .bounds import (
    BoundPair,
    Comparison,
    alpha_beta_compare,
    bound_pair,
    bounds_table,
    theta,
    unit_cube_radius_sq,
)
from .discrete_sets import (
    IntegralNeighborhood,
    LatticeSet,
    find_hole,
    integral_convexity_witness,
    integral_neighborhood,
    is_hole_free,
    is_integrally_convex,
    is_lnat_convex,
    is_mnat_convex,
    lnat_violation,
    mnat_violation,
)
from .errors import BudgetError, DomainError, InternalError, UsageError
from .exact_geometry import (
    ConvexCombination,
    Rational,
    RationalPoint,
    caratheodory_reduce,
    hull_membership,
    solve_linear_feasibility,
)
from .minkowski import WitnessedSum, find_holes, minkowski_sum
from .shapley_folkman import (
    RoundingResult,
    SfDecomposition,
    cube_round,
    decompose_into_summand_hulls,
    lnat_round,
    local_restrictions,
    mnat_round,
    round_point,
    sf_decompose,
    sf_round_l2,
    sf_round_linf,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BoundPair",
    "BudgetError",
    "Comparison",
    "ConvexCombination",
    "DomainError",
    "IntegralNeighborhood",
    "InternalError",
    "LatticeSet",
    "Rational",
    "RationalPoint",
    "RoundingResult",
    "SfDecomposition",
    "UsageError",
    "WitnessedSum",
    "alpha_beta_compare",
    "bound_pair",
    "bounds_table",
    "caratheodory_reduce",
    "cube_round",
    "decompose_into_summand_hulls",
    "find_hole",
    "find_holes",
    "hull_membership",
    "integral_convexity_witness",
    "integral_neighborhood",
    "is_hole_free",
    "is_integrally_convex",
    "is_lnat_convex",
    "is_mnat_convex",
    "lnat_round",
    "lnat_violation",
    "local_restrictions",
    "minkowski_sum",
    "mnat_round",
    "mnat_violation",
    "round_point",
    "sf_decompose",
    "sf_round_l2",
    "sf_round_linf",
    "solve_linear_feasibility",
    "theta",
    "unit_cube_radius_sq",
]
