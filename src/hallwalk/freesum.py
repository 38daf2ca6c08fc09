"""Free-sum constructions: splitting and composing lecture hall polytopes.

A composite sequence (s, t) decomposes as a free sum: translating
P^((s,t)) by its vertex (0,...,0, t_1,...,t_e) and then negating and
reversing the trailing block maps it onto the free sum of P^(s) and
P^(reverse(t)) by an integral affine unimodular map, so lattice point
sets match exactly.  The constructions below use it only through the
theorems; the test suite checks it point by point.

Composites (s, 1, t) inherit Gorenstein and IDP properties from their
factors; the middle 1 makes the left factor a pyramid whose facets all
have right-hand side 0 or 1, which is the product condition for
delta-polynomials of free sums.  IDP inheritance also needs the lattice
points of each factor to span the lattice, which holds for every s: the
points p_j = (0, ..., 0, 1, x_{j+1}, ..., x_d) with
x_i = ceil(s_i x_{i-1} / s_{i-1}) lie in P^(s) and are unit triangular.

Both compositions re-verify the composite and return it with what they
proved (the index k + l, or the largest k checked for IDP); a failed
re-verification raises MathematicalInconsistencyError.
"""

from .classify import gorenstein_index
from .delta import delta_vector
from .errors import MathematicalInconsistencyError, PreconditionError
from .idp import is_idp
from .polytope import check_s


def poly_mul(a, b) -> tuple[int, ...]:
    """Coefficient convolution of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def composite_sequence(s, t) -> tuple[int, ...]:
    return check_s(s) + (1,) + check_s(t)


def gorenstein_compose(s, t, budget=None) -> tuple[tuple[int, ...], int]:
    """Compose two Gorenstein sequences into (s, 1, t) and return (composite, k + l).

    By the free-sum product condition the composite's delta is
    delta_s * delta_t (padded to its dimension) and its index is k + l.
    Both are re-derived from the composite; a disagreement would be a bug,
    not a verdict, and raises MathematicalInconsistencyError.  A factor
    that is not Gorenstein raises PreconditionError.
    """
    s = check_s(s)
    t = check_s(t)
    delta_s = delta_vector(s, budget=budget)
    k = gorenstein_index(s, budget=budget, _delta=delta_s)
    delta_t = delta_vector(t, budget=budget)
    l = gorenstein_index(t, budget=budget, _delta=delta_t)
    if k is None or l is None:
        side = "left" if k is None else "right"
        raise PreconditionError(f"{side} sequence is not Gorenstein")
    composite = composite_sequence(s, t)
    product = poly_mul(delta_s, delta_t)
    product = product + (0,) * (len(composite) + 1 - len(product))
    delta_composite = delta_vector(composite, budget=budget)
    if delta_composite != product:
        raise MathematicalInconsistencyError(
            f"the delta of P^{composite} is {delta_composite}, not the product {product} of its factors' deltas"
        )
    index = gorenstein_index(composite, budget=budget, _delta=delta_composite)
    if index != k + l:
        raise MathematicalInconsistencyError(
            f"P^{composite} has Gorenstein index {index}, not {k} + {l} from its factors"
        )
    return composite, index


def idp_compose(s, t, k_max=None, budget=None) -> tuple[tuple[int, ...], int]:
    """Compose two sequences into (s, 1, t), re-verify the composite and return (composite, K).

    Every s is IDP by the layer split (see `hallwalk.idp`), so the factors
    need no check of their own, and the composite's check raises rather
    than fails.
    """
    composite = composite_sequence(s, t)
    return composite, is_idp(composite, k_max=k_max, budget=budget)
