"""Delta-vectors (h*-vectors) of lecture hall polytopes via ascent counting.

The delta-vector of P^(s) is obtained without any geometry: enumerate the
inversion sequences e with 0 <= e_i < s_i and histogram their ascent
statistic.  An ascent at position i (0 <= i < d) means e_i/s_i < e_{i+1}/s_{i+1},
compared exactly by cross-multiplication, with the boundary convention
e_0 = 0, s_0 = 1.
"""

from itertools import product
from math import prod

from .polytope import check_budget, check_s


def inversion_sequences(s):
    """Iterator over all inversion sequences of s (mixed-radix counter)."""
    return product(*(range(v) for v in check_s(s)))


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


def delta_vector(s, budget=None) -> tuple[int, ...]:
    """(delta_0, ..., delta_d): ascent histogram over all inversion sequences.

    Refuses up front when the prod(s_i) inversion sequences exceed `budget`;
    None means unlimited.
    """
    seq = check_s(s)
    d = len(seq)
    check_budget(prod(seq), budget, f"enumerating the inversion sequences of {seq}")
    hist = [0] * (d + 1)
    for e in product(*(range(v) for v in seq)):
        count = 0
        prev_e, prev_s = 0, 1
        for ei, si in zip(e, seq):
            if prev_e * si < ei * prev_s:
                count += 1
            prev_e, prev_s = ei, si
        hist[count] += 1
    return tuple(hist)


def degree(dv) -> int:
    """Largest index with a nonzero entry (0 for the all-trailing-zero case)."""
    deg = 0
    for i, v in enumerate(dv):
        if v != 0:
            deg = i
    return deg


def is_symmetric(dv) -> bool:
    """Palindromic after trimming trailing zeros."""
    m = degree(dv)
    return all(dv[i] == dv[m - i] for i in range(m // 2 + 1))


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
