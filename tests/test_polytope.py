from fractions import Fraction
from itertools import product

import pytest

from hallwalk.errors import BudgetExceededError, DimensionError
from hallwalk.polytope import (
    _chain,
    check_s,
    contains,
    lattice_points,
    parse_s,
    reverse,
)
from oracles import HalfSpace, dilate, hrep, reflect, vertices


def all_sequences(dmax, smax):
    for d in range(1, dmax + 1):
        yield from product(range(1, smax + 1), repeat=d)


def test_check_s_rejects_bad_input():
    with pytest.raises(ValueError):
        check_s(())
    with pytest.raises(ValueError):
        check_s((1, 0, 2))


def test_parse_s():
    assert parse_s("2,3,4") == (2, 3, 4)
    with pytest.raises(ValueError):
        parse_s("2,x")
    with pytest.raises(ValueError):
        parse_s("0,2")


def test_vertices_examples():
    assert vertices((2,)) == [(0,), (2,)]
    assert vertices((1, 2)) == [(0, 0), (0, 2), (1, 2)]
    assert vertices((2, 3, 4)) == [(0, 0, 0), (0, 0, 4), (0, 3, 4), (2, 3, 4)]


def test_vertices_satisfy_defining_chain():
    for s in all_sequences(4, 5):
        for v in vertices(s):
            assert contains(s, v)


def test_each_vertex_tight_on_at_least_d_facets():
    for s in all_sequences(4, 5):
        rows = hrep(s)
        for v in vertices(s):
            tight = sum(1 for row in rows if row.slack(v) == 0)
            assert tight >= len(s), (s, v)


def test_hrep_examples():
    assert hrep((2,), 1) == [HalfSpace((-1,), 0), HalfSpace((1,), 2)]
    assert hrep((2, 3), 1) == [
        HalfSpace((-1, 0), 0),
        HalfSpace((3, -2), 0),
        HalfSpace((0, 1), 3),
    ]
    # dilation scales only the top bound
    assert hrep((2, 3), 2) == [
        HalfSpace((-1, 0), 0),
        HalfSpace((3, -2), 0),
        HalfSpace((0, 1), 6),
    ]


def test_contains_examples():
    assert contains((2, 3), (1, 2))
    assert contains((2, 3), (1, 2), strict=True)
    assert not contains((2, 3), (2, 3), strict=True)  # vertex is on the boundary
    assert contains((2, 3), (2, 3))


def test_chain_matches_the_slacks_of_hrep():
    # every integer point of the box [-1, t*s_i + 1]^d, so points outside too
    for s in all_sequences(3, 4):
        for t in (1, 2):
            rows = hrep(s, t)
            for p in product(*(range(-1, t * v + 2) for v in s)):
                slacks = [row.slack(p) for row in rows]
                inside, tight = _chain(s, p, t)
                assert inside == all(x >= 0 for x in slacks), (s, t, p)
                assert [tight >> r & 1 for r in range(len(rows) + 1)] == [x == 0 for x in slacks] + [0], (s, t, p)
                assert contains(s, p, t=t) == inside, (s, t, p)
                assert contains(s, p, t=t, strict=True) == all(x > 0 for x in slacks), (s, t, p)


def test_contains_rational_points():
    assert contains((2, 3), (Fraction(1, 2), Fraction(3, 4)))
    assert not contains((2, 3), (Fraction(5, 2), Fraction(3)))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionError):
        contains((2, 3), (1, 2, 3))


def test_lattice_point_counts_hand_checked():
    assert len(lattice_points((2, 3), 1)) == 7
    assert len(lattice_points((2, 3), 2)) == 19
    for d in range(1, 5):
        assert len(lattice_points((1,) * d, 1)) == d + 1


def test_lattice_point_golden_order():
    # outermost coordinate ascends first; order is part of the contract
    assert lattice_points((2, 3), 1) == [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 3),
        (1, 3),
        (2, 3),
    ]


def test_lattice_points_are_members_and_deterministic():
    for s in [(2, 3), (3, 1, 2), (4, 2)]:
        pts = lattice_points(s, 2)
        assert pts == lattice_points(s, 2)
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert contains(s, p, t=2)


def test_lattice_points_monotone_in_dilation():
    for s in all_sequences(3, 3):
        sizes = [len(lattice_points(s, t)) for t in range(4)]
        assert sizes == sorted(sizes)


def test_reverse_examples_and_count_invariance():
    assert reverse((2, 3, 4)) == (4, 3, 2)
    assert reverse((5,)) == (5,)
    assert reverse((1, 2, 1)) == (1, 2, 1)
    for s in all_sequences(3, 4):
        for t in (1, 2):
            assert len(lattice_points(s, t)) == len(lattice_points(reverse(s), t))


def test_dilate():
    assert dilate((1, 2, 4), 2) == (2, 4, 8)
    assert dilate((2, 3), 1) == (2, 3)
    assert dilate((2, 3), 3) == (6, 9)
    with pytest.raises(ValueError):
        dilate((2, 3), 0)


def test_dilated_sequence_has_same_point_set():
    for s in all_sequences(3, 3):
        for r in (1, 2, 3):
            assert set(lattice_points(dilate(s, r), 1)) == set(lattice_points(s, r))


def test_reflect_is_membership_preserving_involution():
    for s in [(2, 3), (4, 1, 2), (3, 3)]:
        for t in (1, 2):
            for p in lattice_points(s, t):
                q = reflect(s, p, t=t)
                assert contains(reverse(s), q, t=t)
                assert reflect(reverse(s), q, t=t) == p


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        lattice_points((9, 9, 9, 9), 3, budget=100)


def test_lattice_points_budget_is_the_point_count():
    n = len(lattice_points((9, 9, 9, 9), 3))
    with pytest.raises(BudgetExceededError):
        lattice_points((9, 9, 9, 9), 3, budget=n - 1)
    assert len(lattice_points((9, 9, 9, 9), 3, budget=n)) == n


def test_lattice_points_charges_its_count_too():
    # P^(1000,1) has 1002 points, but counting them fills 2004 cells
    assert len(lattice_points((1000, 1), 1, budget=2004)) == 1002
    with pytest.raises(BudgetExceededError):
        lattice_points((1000, 1), 1, budget=2003)
