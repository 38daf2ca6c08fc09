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
