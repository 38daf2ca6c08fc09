from itertools import product

import pytest

import hallwalk.freesum as freesum
from hallwalk.classify import gorenstein_index
from hallwalk.delta import delta_vector, degree, is_symmetric
from hallwalk.errors import BudgetExceededError, MathematicalInconsistencyError, PreconditionError
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
    assert gorenstein_compose((2,), (2,)) == ((2, 1, 2), 2)
    assert delta_vector((2, 1, 2)) == (1, 2, 1, 0)

    assert gorenstein_compose((2, 3), (2,)) == ((2, 3, 1, 2), 2)
    assert delta_vector((2, 3, 1, 2)) == (1, 5, 5, 1, 0)

    assert gorenstein_compose((1,), (1,)) == ((1, 1, 1), 4)


def test_gorenstein_compose_computes_each_delta_once(delta_calls):
    assert gorenstein_compose((2, 3, 4), (3, 3, 4)) == ((2, 3, 4, 1, 3, 3, 4), 2)
    assert delta_calls == [(2, 3, 4), (3, 3, 4), (2, 3, 4, 1, 3, 3, 4)]


@pytest.mark.parametrize(
    "name, broken, refusal",
    [
        # only the composite (2, 3, 1, 2) has dimension 4; its index becomes 3
        ("gorenstein_index", lambda real: lambda s, **kw: real(s, **kw) + (len(s) == 4), r"index 3, not 1 \+ 1"),
        # the one product taken is the factors' delta product (1, 5, 5, 1)
        ("poly_mul", lambda real: lambda a, b: (2,) + real(a, b)[1:], "not the product"),
    ],
    ids=["index", "delta-product"],
)
def test_gorenstein_compose_raises_when_the_theorem_fails(monkeypatch, name, broken, refusal):
    monkeypatch.setattr(freesum, name, broken(getattr(freesum, name)))
    with pytest.raises(MathematicalInconsistencyError, match=refusal):
        gorenstein_compose((2, 3), (2,))


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
        composite, index = gorenstein_compose(s, t)
        assert index == k + l
        dv = delta_vector(composite)
        dim = len(composite)
        assert is_symmetric(dv) and degree(dv) == dim - index + 1


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
