"""Exact computations on s-lecture hall polytopes.

Library layers: `polytope` (membership and tight facets along the chain,
lattice points, point counts, the reversal map, the work budget), `delta`
(ascent-statistic delta-vectors), `ehrhart` (independent counting oracle)
and `classify` (Fano/reflexive/Gorenstein), whose results are the dicts
that their commands print, `idp` (the layer split of a point
of k*P and the IDP cross-check, which returns the largest k it checked or
raises), `triangulate` (unimodular chimney triangulations), `intlinalg`
(exact determinants), `freesum` (Gorenstein and IDP compositions, which
return the composite with its index k + l or the largest k checked, or
raise), `cli` (command line and sweep store).
"""

__version__ = "0.1.0"

from .classify import classify, gorenstein_index, sequence_class
from .delta import delta_vector, is_symmetric
from .ehrhart import count, delta_from_counts, ehrhart_data
from .errors import (
    BudgetExceededError,
    DimensionError,
    HallwalkError,
    InconsistentCountsError,
    MathematicalInconsistencyError,
    PreconditionError,
    UnsupportedSequenceError,
)
from .freesum import gorenstein_compose, idp_compose
from .idp import decompose, is_idp
from .intlinalg import determinant
from .polytope import DEFAULT_BUDGET, check_s, contains, lattice_points, parse_s, reverse
from .triangulate import Triangulation, chimney_triangulation, verify_triangulation

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "DimensionError",
    "HallwalkError",
    "InconsistentCountsError",
    "MathematicalInconsistencyError",
    "PreconditionError",
    "Triangulation",
    "UnsupportedSequenceError",
    "check_s",
    "chimney_triangulation",
    "classify",
    "contains",
    "count",
    "decompose",
    "delta_from_counts",
    "delta_vector",
    "determinant",
    "ehrhart_data",
    "gorenstein_compose",
    "gorenstein_index",
    "idp_compose",
    "is_idp",
    "is_symmetric",
    "lattice_points",
    "parse_s",
    "reverse",
    "sequence_class",
    "verify_triangulation",
]
