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
"""

from dataclasses import dataclass

from .classify import gorenstein_index
from .delta import delta_vector
from .errors import PreconditionError
from .idp import IdpResult, is_idp
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


@dataclass(frozen=True)
class GorensteinComposition:
    composite: tuple[int, ...]
    predicted_index: int
    confirmed_index: int | None
    delta_product_ok: bool

    @property
    def ok(self) -> bool:
        return self.delta_product_ok and self.confirmed_index == self.predicted_index

    def to_json(self) -> dict:
        return {
            "composite": list(self.composite),
            "predicted_index": self.predicted_index,
            "confirmed_index": self.confirmed_index,
            "delta_product_ok": self.delta_product_ok,
            "ok": self.ok,
        }


def gorenstein_compose(s, t, budget=None) -> GorensteinComposition:
    """Compose two Gorenstein sequences into (s, 1, t) with index k + l."""
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
    predicted = k + l
    product = poly_mul(delta_s, delta_t)
    product = product + (0,) * (len(composite) + 1 - len(product))
    delta_composite = delta_vector(composite, budget=budget)
    delta_ok = delta_composite == product
    confirmed = gorenstein_index(composite, budget=budget, _delta=delta_composite)
    return GorensteinComposition(composite, predicted, confirmed, delta_ok)


@dataclass(frozen=True)
class IdpComposition:
    composite: tuple[int, ...]
    result: IdpResult

    @property
    def ok(self) -> bool:
        return self.result.ok

    def to_json(self) -> dict:
        return {"composite": list(self.composite), **self.result.to_json(), "ok": self.ok}


def idp_compose(s, t, k_max=None, budget=None) -> IdpComposition:
    """Compose two sequences into (s, 1, t) and re-verify the composite.

    Every s is IDP by the layer split (see `hallwalk.idp`), so the factors
    need no check of their own.
    """
    composite = composite_sequence(s, t)
    return IdpComposition(composite, is_idp(composite, k_max=k_max, budget=budget))
