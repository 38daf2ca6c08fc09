"""Exact computations on s-lecture hall polytopes.

Library layers: `polytope` (vertices, facets, membership, lattice points,
point counts, the work budget), `delta` (ascent-statistic delta-vectors),
`ehrhart` (independent counting oracle), `classify`
(Fano/reflexive/Gorenstein), `idp` (integer decomposition property),
`triangulate` (unimodular chimney triangulations), `freesum` (composition
constructions), `cli` (command line and sweep store).
"""

__version__ = "0.1.0"

from .classify import (
    Classification,
    SequenceClass,
    classify,
    dual_is_lattice,
    gorenstein_index,
    sequence_class,
    translated_hrep,
)
from .delta import ascent_count, delta_vector, is_symmetric, is_unimodal
from .ehrhart import (
    EhrhartData,
    count,
    delta_from_counts,
    ehrhart_data,
    ehrhart_polynomial,
)
from .errors import (
    BudgetExceededError,
    DimensionError,
    HallwalkError,
    InconsistentCountsError,
    MathematicalInconsistencyError,
    OriginNotInteriorError,
    PreconditionError,
    UnsupportedSequenceError,
)
from .freesum import (
    braun_condition,
    check_decomposition,
    free_sum,
    gorenstein_compose,
    idp_compose,
)
from .idp import Decomposition, IdpResult, decompose, greedy_peel, is_idp
from .intlinalg import determinant, simplex_is_unimodular
from .polytope import (
    DEFAULT_BUDGET,
    HalfSpace,
    check_s,
    contains,
    dilate,
    hrep,
    lattice_points,
    parse_s,
    reverse,
    vertices,
)
from .triangulate import Triangulation, chimney_triangulation, verify_triangulation

__all__ = [
    "BudgetExceededError",
    "Classification",
    "DEFAULT_BUDGET",
    "Decomposition",
    "DimensionError",
    "EhrhartData",
    "HalfSpace",
    "HallwalkError",
    "IdpResult",
    "InconsistentCountsError",
    "MathematicalInconsistencyError",
    "OriginNotInteriorError",
    "PreconditionError",
    "SequenceClass",
    "Triangulation",
    "UnsupportedSequenceError",
    "ascent_count",
    "braun_condition",
    "check_decomposition",
    "check_s",
    "chimney_triangulation",
    "classify",
    "contains",
    "count",
    "decompose",
    "delta_from_counts",
    "delta_vector",
    "determinant",
    "dilate",
    "dual_is_lattice",
    "ehrhart_data",
    "ehrhart_polynomial",
    "free_sum",
    "gorenstein_compose",
    "gorenstein_index",
    "greedy_peel",
    "hrep",
    "idp_compose",
    "is_idp",
    "is_symmetric",
    "is_unimodal",
    "lattice_points",
    "parse_s",
    "reverse",
    "sequence_class",
    "simplex_is_unimodular",
    "translated_hrep",
    "verify_triangulation",
    "vertices",
]
