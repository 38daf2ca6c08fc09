"""Brute-force references that the tests compare hallwalk against.

Production never calls these: the ascent statistic of one inversion
sequence, unimodality of a delta-vector, the determinant test of one
simplex, the paper's greedy peel of a point of k*P (its closed form, not
the layer split), the free-sum split of P^((s,t)) checked point by point,
the vertices and the half-space rows of P^(s) and of its dilates, the
reversal map with its checks, and the reflexive test on the rows
translated to the interior point (the dual is a lattice polytope), which
production decides by the facet index.
Tests import them with `from oracles import ...`.
"""

from math import gcd
from typing import NamedTuple

from hallwalk.classify import (
    _fano_condition,
    _interior_point_formula,
    _theorem_orientations,
    sequence_class,
)
from hallwalk.delta import delta_vector
from hallwalk.ehrhart import delta_from_counts
from hallwalk.errors import (
    DimensionError,
    HallwalkError,
    MathematicalInconsistencyError,
    PreconditionError,
    UnsupportedSequenceError,
)
from hallwalk.intlinalg import determinant, edge_matrix
from hallwalk.polytope import _reflect, check_budget, check_s, lattice_points, reverse


def ascent_count(e, s) -> int:
    """Number of ascents of the inversion sequence e against s."""
    seq = check_s(s)
    if len(e) != len(seq):
        raise ValueError(f"inversion sequence has length {len(e)}, expected {len(seq)}")
    for ei, si in zip(e, seq):
        if not 0 <= ei < si:
            raise ValueError(f"entry {ei} out of range [0, {si})")
    count = 0
    prev_e, prev_s = 0, 1
    for ei, si in zip(e, seq):
        if prev_e * si < ei * prev_s:
            count += 1
        prev_e, prev_s = ei, si
    return count


def is_unimodal(dv) -> bool:
    """Weakly rises to a peak, then weakly falls."""
    rising = True
    for prev, cur in zip(dv, dv[1:]):
        if rising:
            if cur < prev:
                rising = False
        elif cur > prev:
            return False
    return True


def simplex_is_unimodular(vertices) -> bool:
    """True iff the d+1 points span a simplex of normalized volume 1."""
    if not vertices:
        raise DimensionError("empty vertex list")
    d = len(vertices[0])
    if len(vertices) != d + 1 or any(len(v) != d for v in vertices):
        raise DimensionError(f"need exactly {d + 1} points of dimension {d}")
    return abs(determinant(edge_matrix(vertices))) == 1


def greedy_peel(s, k: int, x) -> tuple[int, ...]:
    """The paper's peel of x in k*P^(s): y in P with x - y in (k-1)*P.

    Zero below the least j with x_j > (k-1)*s_j, and x_i - (k-1)*s_i from j
    on.  The paper states it for weakly increasing s, but x_i / s_i is
    nondecreasing for every s, so those i form a suffix and the tail is the
    top layer of the split for every s.
    """
    seq = check_s(s)
    j = next((i for i, (a, v) in enumerate(zip(x, seq)) if a > (k - 1) * v), len(seq))
    return (0,) * j + tuple(a - (k - 1) * v for a, v in zip(x[j:], seq[j:]))


def _free_sum_counts(s, t_rev, kmax, budget) -> list[int]:
    """Dilate counts of the free sum of P^(s) and P^(t_rev) from its split membership.

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


class OriginNotInteriorError(HallwalkError):
    """A half-space system expected to contain the origin strictly does not."""


class HalfSpace(NamedTuple):
    """Inequality a . x <= b with integer data."""

    a: tuple[int, ...]
    b: int

    def slack(self, point):
        if len(point) != len(self.a):
            raise DimensionError(f"point has length {len(point)}, expected {len(self.a)}")
        return self.b - sum(c * x for c, x in zip(self.a, point))


def dilate(s, r: int) -> tuple[int, ...]:
    """Sequence of the r-th dilate: r*P^(s) = P^(r*s)."""
    if r < 1:
        raise ValueError(f"dilation factor must be >= 1, got {r}")
    return tuple(r * v for v in check_s(s))


def vertices(s) -> list[tuple[int, ...]]:
    """All d+1 vertices: vertex j turns on the top j coordinates at s_i."""
    seq = check_s(s)
    d = len(seq)
    return [
        tuple(seq[i] if i >= d - j else 0 for i in range(d))
        for j in range(d + 1)
    ]


def hrep(s, t: int = 1) -> list[HalfSpace]:
    """The d+1 defining half-spaces of the dilate t*P^(s).

    Rows: -x_1 <= 0, then s_{i+1} x_i - s_i x_{i+1} <= 0 for each adjacent
    pair, then x_d <= t*s_d.  Dilation scales only the final bound.
    """
    seq = check_s(s)
    if t < 1:
        raise ValueError(f"dilation factor must be >= 1, got {t}")
    d = len(seq)
    rows = [HalfSpace(tuple(-1 if i == 0 else 0 for i in range(d)), 0)]
    for i in range(d - 1):
        a = [0] * d
        a[i] = seq[i + 1]
        a[i + 1] = -seq[i]
        rows.append(HalfSpace(tuple(a), 0))
    rows.append(HalfSpace(tuple(1 if i == d - 1 else 0 for i in range(d)), t * seq[d - 1]))
    return rows


def translated_hrep(s) -> list[HalfSpace]:
    """Facet system of P^(s) translated so its unique interior point is 0.

    Only defined when s (or reverse(s)) lies in a characterized class and
    is Fano there.  The rows are those of `hrep`, in its order, each divided
    by the gcd of its coefficients, so a row's bound is its lattice distance
    from the class formula's interior point.  For a reversed match the rows
    describe the increasing representative reverse(s), whose translated
    polytope is unimodularly equivalent.
    """
    seq = check_s(s)
    tags = sequence_class(seq)
    orientations = _theorem_orientations(tags)
    if not orientations:
        raise UnsupportedSequenceError(f"s={seq} is in no characterized class")
    name, rev = orientations[0]
    oriented = reverse(seq) if rev else seq
    if not _fano_condition(name, oriented):
        raise UnsupportedSequenceError(f"s={seq} is not Fano, no translated facet system")
    p = _interior_point_formula(name, oriented)
    rows = []
    for row in hrep(oriented):
        g = gcd(*row.a)
        translated = HalfSpace(tuple(c // g for c in row.a), row.slack(p) // g)
        if translated.b < 1:
            raise MathematicalInconsistencyError(
                f"{p} is not interior to {row} for s={oriented}"
            )
        rows.append(translated)
    return rows


def dual_is_lattice(halfspaces) -> bool:
    """True iff each facet a.x <= b yields an integral dual vertex a/b."""
    for row in halfspaces:
        if row.b <= 0:
            raise OriginNotInteriorError(f"row {row} has b <= 0; origin is not interior")
        if any(c % row.b for c in row.a):
            return False
    return True


def reflect(s, point, t: int = 1) -> tuple:
    """`polytope._reflect` behind the checks of s and of the point's length."""
    seq = check_s(s)
    if len(point) != len(seq):
        raise DimensionError(f"point has length {len(point)}, expected {len(seq)}")
    return _reflect(seq, point, t)
