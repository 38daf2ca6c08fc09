from itertools import product
from math import prod

import pytest

from hallwalk.delta import degree, delta_vector, is_symmetric
from hallwalk.ehrhart import count
from hallwalk.polytope import contains, lattice_points, reverse
from oracles import ascent_count, is_unimodal


def all_sequences(dmax, smax):
    for d in range(1, dmax + 1):
        yield from product(range(1, smax + 1), repeat=d)


def test_ascent_examples():
    assert ascent_count((1,), (2,)) == 1  # 0/1 < 1/2
    assert ascent_count((0,), (2,)) == 0
    assert ascent_count((1, 2), (2, 3)) == 2  # 0 < 1/2 and 1/2 < 2/3


def test_ascent_rejects_out_of_range():
    with pytest.raises(ValueError):
        ascent_count((2,), (2,))
    with pytest.raises(ValueError):
        ascent_count((0, 0), (2,))


def test_delta_examples():
    assert delta_vector((1, 1, 1)) == (1, 0, 0, 0)
    assert delta_vector((2, 3)) == (1, 4, 1)
    # four inversion sequences, histogram (1+x)^2
    assert delta_vector((2, 1, 2)) == (1, 2, 1, 0)
    assert delta_vector((2,)) == (1, 1)


def test_delta_matches_explicit_ascent_histogram():
    for s in [(3, 2), (2, 2, 2), (1, 4)]:
        hist = [0] * (len(s) + 1)
        for e in product(*map(range, s)):
            hist[ascent_count(e, s)] += 1
        assert delta_vector(s) == tuple(hist)


def test_symmetry():
    assert is_symmetric((1, 4, 1))
    assert is_symmetric((1, 2, 1, 0))  # trailing zero trimmed
    assert not is_symmetric((1, 3, 0))
    assert is_symmetric((1, 0))


def test_unimodality():
    assert is_unimodal((1, 4, 1))
    assert is_unimodal((1, 0, 0))
    assert not is_unimodal((1, 0, 2))
    assert is_unimodal((1, 2, 2, 1))


def test_degree():
    assert degree((1, 0, 0)) == 0
    assert degree((1, 2, 1, 0)) == 2
    assert degree((1, 1)) == 1


def test_delta_identities_small_exhaustive():
    for s in all_sequences(3, 4):
        d = len(s)
        dv = delta_vector(s)
        assert dv[0] == 1
        assert sum(dv) == prod(s)
        assert dv[1] == count(s, 1) - (d + 1)
        interior = sum(1 for p in lattice_points(s, 1) if contains(s, p, strict=True))
        assert dv[d] == interior
        assert delta_vector(reverse(s)) == dv
        assert is_unimodal(dv)
        if dv[d] != 0:
            assert all(dv[1] <= dv[i] for i in range(1, d))
