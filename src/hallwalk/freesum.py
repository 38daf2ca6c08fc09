"""Free-sum constructions: splitting and composing lecture hall polytopes.

A composite sequence (s, t) decomposes as a free sum: translating
P^((s,t)) by its vertex (0,...,0, t_1,...,t_e) and then negating and
reversing the trailing block maps it onto

    free_sum(P^(s), P^(reverse(t)))

by an integral affine unimodular map, so lattice point sets match exactly.
The identification is re-verified point by point here rather than assumed.

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
from .ehrhart import delta_from_counts
from .errors import PreconditionError
from .idp import IdpResult, is_idp
from .polytope import check_budget, check_s, hrep, lattice_points, reverse


def free_sum(p_vertices, q_vertices) -> list[tuple[int, ...]]:
    """Vertices of the free sum of two vertex sets containing their origins."""
    if not p_vertices or not q_vertices:
        raise PreconditionError("free sum needs nonempty vertex sets")
    dim_p = len(p_vertices[0])
    dim_q = len(q_vertices[0])
    origin_p = tuple([0] * dim_p)
    origin_q = tuple([0] * dim_q)
    if origin_p not in {tuple(v) for v in p_vertices}:
        raise PreconditionError("left polytope does not contain its origin")
    if origin_q not in {tuple(v) for v in q_vertices}:
        raise PreconditionError("right polytope does not contain its origin")
    out = [tuple(v) + origin_q for v in p_vertices]
    out.extend(origin_p + tuple(w) for w in q_vertices if tuple(w) != origin_q)
    return out


def _free_sum_counts(s, t_rev, kmax, budget) -> list[int]:
    """Dilate counts of free_sum(P^(s), P^(t_rev)) from its split membership.

    (x, y) lies in the k-th dilate of the free sum iff both blocks satisfy
    their inner chains and x_d/s_d + y_e/u_e <= k; enumerating both blocks
    at dilation k and testing the coupling gives the count without any
    hull machinery.
    """
    counts = [1]
    sd = s[-1]
    ue = t_rev[-1]
    for k in range(1, kmax + 1):
        left = lattice_points(s, k, budget=budget)
        right = lattice_points(t_rev, k, budget=budget)
        check_budget(len(left) * len(right), budget, f"the free-sum count at k={k}")
        total = 0
        for x in left:
            room = k * sd * ue - x[-1] * ue
            total += sum(1 for y in right if y[-1] * sd <= room)
        counts.append(total)
    return counts


def split_map(s, t, point) -> tuple[int, ...]:
    """Image of a point of P^((s,t)) under the free-sum identification."""
    s = check_s(s)
    t = check_s(t)
    d, e = len(s), len(t)
    if len(point) != d + e:
        raise PreconditionError(f"point has length {len(point)}, expected {d + e}")
    head = tuple(point[:d])
    tail = tuple(t[e - 1 - m] - point[d + e - 1 - m] for m in range(e))
    return head + tail


def check_decomposition(s, t, budget=None) -> bool:
    """Verify the free-sum split of P^((s,t)): lattice points and delta agree."""
    s = check_s(s)
    t = check_s(t)
    composite = s + t
    t_rev = reverse(t)
    dim = len(composite)

    mapped = {split_map(s, t, p) for p in lattice_points(composite, 1, budget=budget)}
    left = lattice_points(s, 1, budget=budget)
    right = lattice_points(t_rev, 1, budget=budget)
    check_budget(len(left) * len(right), budget, f"splitting P^{composite}")
    direct = set()
    sd, ue = s[-1], t_rev[-1]
    for x in left:
        for y in right:
            if x[-1] * ue + y[-1] * sd <= sd * ue:
                direct.add(x + y)
    if mapped != direct:
        return False

    counts = _free_sum_counts(s, t_rev, dim, budget)
    return delta_from_counts(counts) == delta_vector(composite, budget=budget)


def braun_condition(s) -> bool:
    """Every facet right-hand side is 0 or 1 (holds exactly when s_d = 1)."""
    return all(row.b in (0, 1) for row in hrep(check_s(s), 1))


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
