"""Independent brute-force Ehrhart oracle.

Counts lattice points of dilates directly from the defining chain
(`polytope.count`, re-exported here), recovers the delta-vector by the
alternating binomial transform of the first d+1 counts, and interpolates
the counting polynomial with exact rationals.
This module never looks at inversion sequences, so it cross-checks the
ascent route in `delta`.
"""

from fractions import Fraction
from math import comb, factorial

from .errors import InconsistentCountsError, PreconditionError
from .polytope import _count_cells, check_budget, check_s, count


def dilate_counts(s, tmax=None, budget=None) -> list[int]:
    """[i(P, 0), i(P, 1), ..., i(P, tmax)]; tmax defaults to d.  Charged once, up front, for every dilate."""
    seq = check_s(s)
    top = len(seq) if tmax is None else int(tmax)
    if top < 0:
        raise ValueError("tmax must be >= 0")
    cells = _count_cells(seq, top * (top + 1) // 2, top)
    check_budget(cells, budget, f"counting the points of t*P^{seq} for t = 1..{top}")
    return [count(seq, t, budget=budget) for t in range(top + 1)]


def delta_from_counts(counts) -> tuple[int, ...]:
    """Recover (delta_0, ..., delta_d) from the d+1 counts i(P, 0..d).

    delta_j = sum_{i=0}^{j} (-1)^i * C(d+1, i) * counts[j-i].  Any negative
    entry means the counts cannot come from a lattice polytope.
    """
    vals = []
    for c in counts:
        if c != int(c):
            raise PreconditionError(f"counts must be integers, got {c!r}")
        vals.append(int(c))
    if not vals:
        raise PreconditionError("need at least one count")
    if vals[0] != 1:
        raise PreconditionError(f"counts[0] must be 1, got {vals[0]}")
    d = len(vals) - 1
    delta = []
    for j in range(d + 1):
        v = sum((-1) ** i * comb(d + 1, i) * vals[j - i] for i in range(j + 1))
        if v < 0:
            raise InconsistentCountsError(
                f"delta_{j} = {v} < 0; counts {vals} are not Ehrhart counts"
            )
        delta.append(v)
    return tuple(delta)


def _interpolate(counts) -> tuple[Fraction, ...]:
    """Polynomial through (t, counts[t]) for t = 0..len(counts)-1, by Newton forward differences.

    On the counts at t = 0..d this is the counting polynomial (c_0, ..., c_d),
    whose leading coefficient is the volume (prod s_i) / d!.
    """
    d = len(counts) - 1
    table = [Fraction(c) for c in counts]
    diffs = []
    for _ in range(d + 1):
        diffs.append(table[0])
        table = [b - a for a, b in zip(table, table[1:])]
    # expand sum_j diffs[j] * C(t, j) into monomial coefficients
    coeffs = [Fraction(0)] * (d + 1)
    basis = [Fraction(1)]  # falling factorial t(t-1)...(t-j+1), as coefficients
    for j, dj in enumerate(diffs):
        scale = dj / factorial(j)
        for power, c in enumerate(basis):
            coeffs[power] += scale * c
        basis = [Fraction(0)] + basis
        for power in range(len(basis) - 1):
            basis[power] -= j * basis[power + 1]
    return tuple(coeffs)


def evaluate(coeffs, t) -> Fraction:
    """Exact value of a coefficient-list polynomial at t."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def ehrhart_data(s, tmax=None, budget=None) -> dict:
    """The dict that `ehrhart` prints: counts at t = 0..max(tmax, d), the polynomial as
    (numerator, denominator) pairs, which must match the counts past t = d, and delta."""
    seq = check_s(s)
    d = len(seq)
    top = d if tmax is None else int(tmax)
    if top < 0:
        raise ValueError("tmax must be >= 0")
    counts = dilate_counts(seq, tmax=max(top, d), budget=budget)
    poly = _interpolate(counts[: d + 1])
    for t in range(d + 1, top + 1):
        value = evaluate(poly, t)
        if value != counts[t]:
            raise InconsistentCountsError(
                f"polynomial predicts {value} at t={t} but direct count is {counts[t]}"
            )
    return {
        "s": seq,
        "counts": tuple(counts),
        "polynomial": tuple((c.numerator, c.denominator) for c in poly),
        "delta": delta_from_counts(counts[: d + 1]),
    }
