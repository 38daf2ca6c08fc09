"""Brute-force references that the tests compare hallwalk against.

Production never calls these: the ascent statistic of one inversion
sequence, unimodality of a delta-vector, the determinant test of one
simplex, and the free-sum split of P^((s,t)) checked point by point.
Tests import them with `from oracles import ...`.
"""

from hallwalk.delta import delta_vector
from hallwalk.ehrhart import delta_from_counts
from hallwalk.errors import DimensionError, PreconditionError
from hallwalk.intlinalg import determinant, edge_matrix
from hallwalk.polytope import check_budget, check_s, lattice_points, reverse


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
