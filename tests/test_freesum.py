from itertools import product

import pytest

from hallwalk.classify import gorenstein_index
from hallwalk.delta import delta_vector, degree, is_symmetric
from hallwalk.errors import BudgetExceededError, PreconditionError
from hallwalk.freesum import composite_sequence, gorenstein_compose, idp_compose, poly_mul
from hallwalk.idp import is_idp
from hallwalk.intlinalg import determinant
from hallwalk.polytope import contains, count, lattice_points
from oracles import check_decomposition, split_map


def small_sequences(dmax, smax):
    for d in range(1, dmax + 1):
        yield from product(range(1, smax + 1), repeat=d)


def test_split_map_is_a_lattice_bijection():
    s, t = (2, 3), (2,)
    points = lattice_points(s + t, 1)
    images = {split_map(s, t, p) for p in points}
    assert len(images) == len(points)


def test_check_decomposition_examples():
    assert check_decomposition((2,), (2,))
    assert check_decomposition((2, 3), (2,))
    assert check_decomposition((1,), (1,))


def test_check_decomposition_small_exhaustive():
    for s in small_sequences(2, 3):
        for t in small_sequences(2, 3):
            assert check_decomposition(s, t), (s, t)


def test_check_decomposition_budget_is_the_largest_pairing():
    # the count of the third dilate pairs all 37 points of 3*P^(2,3) with all 7 of 3*P^(2)
    cost = count((2, 3), 3) * count((2,), 3)
    with pytest.raises(BudgetExceededError):
        check_decomposition((2, 3), (2,), budget=cost - 1)
    assert check_decomposition((2, 3), (2,), budget=cost)
    # P^(2,3,2) has 10 points, but splitting it pairs the 7 points of P^(2,3) with the 3 of P^(2)
    with pytest.raises(BudgetExceededError, match="splitting"):
        check_decomposition((2, 3), (2,), budget=20)


def test_poly_mul():
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_mul((1, 4, 1), (1, 1)) == (1, 5, 5, 1)


def test_delta_of_composite_is_product():
    for s in small_sequences(2, 3):
        for t in small_sequences(2, 3):
            comp = composite_sequence(s, t)
            expect = poly_mul(delta_vector(s), delta_vector(t))
            expect = expect + (0,) * (len(comp) + 1 - len(expect))
            assert delta_vector(comp) == expect, (s, t)


def test_gorenstein_compose_examples():
    result = gorenstein_compose((2,), (2,))
    assert result.composite == (2, 1, 2)
    assert result.predicted_index == 2
    assert delta_vector((2, 1, 2)) == (1, 2, 1, 0)
    assert result.ok

    result = gorenstein_compose((2, 3), (2,))
    assert result.composite == (2, 3, 1, 2)
    assert result.predicted_index == 2
    assert delta_vector((2, 3, 1, 2)) == (1, 5, 5, 1, 0)
    assert result.ok

    result = gorenstein_compose((1,), (1,))
    assert result.composite == (1, 1, 1)
    assert result.predicted_index == 4
    assert result.confirmed_index == 4
    assert result.ok


def test_gorenstein_compose_computes_each_delta_once(delta_calls):
    result = gorenstein_compose((2, 3, 4), (3, 3, 4))
    assert (result.ok, result.predicted_index) == (True, 2)
    assert delta_calls == [(2, 3, 4), (3, 3, 4), (2, 3, 4, 1, 3, 3, 4)]


def test_gorenstein_compose_requires_gorenstein_inputs():
    with pytest.raises(PreconditionError):
        gorenstein_compose((3,), (2,))  # delta (1,2) is not symmetric


def test_gorenstein_compose_index_and_symmetry():
    pairs = [((2,), (1, 2)), ((1, 2), (1, 2)), ((2, 2), (2,))]
    for s, t in pairs:
        k = gorenstein_index(s)
        l = gorenstein_index(t)
        if k is None or l is None:
            continue
        result = gorenstein_compose(s, t)
        assert result.ok
        dv = delta_vector(result.composite)
        dim = len(result.composite)
        assert is_symmetric(dv) and degree(dv) == dim - result.predicted_index + 1


def test_idp_compose_examples():
    assert idp_compose((2, 3), (2,)) == ((2, 3, 1, 2), 3)
    assert idp_compose((1,), (1,)) == ((1, 1, 1), 2)
    assert idp_compose((2,), (2,)) == ((2, 1, 2), 2)


def test_idp_compose_verdict_matches_direct_check():
    comp, k_checked = idp_compose((2,), (3, 2))
    assert is_idp(comp) == k_checked == 3


def test_lattice_points_span_the_lattice():
    # why idp_compose need not check the span: p_j = (0, ..., 0, 1, x_{j+1}, ..., x_d)
    # with x_i = ceil(s_i x_{i-1} / s_{i-1}) lies in P, and these d points are unit triangular
    for s in small_sequences(4, 6):
        d = len(s)
        rows = []
        for j in range(d):
            p = [0] * d
            p[j] = 1
            for i in range(j + 1, d):
                p[i] = -(-s[i] * p[i - 1] // s[i - 1])
            assert contains(s, tuple(p)), (s, p)
            rows.append(p)
        assert determinant(rows) == 1, s
