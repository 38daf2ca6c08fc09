from itertools import product

import pytest

from hallwalk import DEFAULT_BUDGET, idp
from hallwalk.errors import BudgetExceededError, PreconditionError, UnsupportedSequenceError
from hallwalk.idp import decompose, first_undecomposable, greedy_peel, is_idp
from hallwalk.polytope import contains, lattice_points


def weakly_monotone(dmax, smax):
    for d in range(1, dmax + 1):
        for s in product(range(1, smax + 1), repeat=d):
            inc = all(a <= b for a, b in zip(s, s[1:]))
            dec = all(a >= b for a, b in zip(s, s[1:]))
            if inc or dec:
                yield s


def test_greedy_peel_examples():
    assert greedy_peel((1, 2), 2, (1, 3)) == (0, 1)  # only x_2 exceeds (k-1)s
    assert greedy_peel((1, 2), 2, (2, 4)) == (1, 2)  # x_1 already exceeds
    assert greedy_peel((2, 3), 3, (0, 0)) == (0, 0)  # nothing to peel


def test_greedy_peel_preconditions():
    with pytest.raises(UnsupportedSequenceError):
        greedy_peel((3, 2), 2, (0, 0))
    with pytest.raises(PreconditionError):
        greedy_peel((1, 2), 2, (5, 5))
    with pytest.raises(PreconditionError):
        greedy_peel((1, 2), 1, (0, 0))


def test_greedy_peel_postconditions_exhaustive_small():
    for s in weakly_monotone(3, 4):
        if any(a > b for a, b in zip(s, s[1:])):
            continue  # peel is defined on the increasing representative
        for k in (2, 3):
            for x in lattice_points(s, k):
                y = greedy_peel(s, k, x)
                rest = tuple(a - b for a, b in zip(x, y))
                assert contains(s, y)
                assert contains(s, rest, t=k - 1)


def test_decompose_examples():
    assert decompose((1, 2), 2, (1, 3)).parts == ((0, 1), (1, 2))
    assert decompose((2, 3), 1, (1, 2)).parts == ((1, 2),)
    result = decompose((2, 2), 2, (2, 4))
    assert tuple(sum(c) for c in zip(*result.parts)) == (2, 4)
    assert all(contains((2, 2), p) for p in result.parts)


def test_decompose_handles_decreasing_sequences():
    s = (4, 2, 1)
    for k in (2, 3):
        for x in lattice_points(s, k):
            result = decompose(s, k, x)
            assert len(result.parts) == k
            assert tuple(sum(c) for c in zip(*result.parts)) == x
            assert all(contains(s, p) for p in result.parts)


def test_decompose_rejects_non_monotone():
    with pytest.raises(UnsupportedSequenceError):
        decompose((2, 1, 2), 2, (0, 0, 0))


def test_is_idp_examples():
    assert is_idp((1, 1, 1)).ok
    assert is_idp((2, 3)).ok
    assert is_idp((2, 1, 2)).ok  # composition of two IDP segments


def test_is_idp_monotone_small_range():
    for s in weakly_monotone(3, 4):
        assert is_idp(s).ok, s


def test_is_idp_default_and_custom_k():
    assert is_idp((2, 3, 4, 5)).k_checked == 3  # d - 1
    assert is_idp((2, 3), k_max=4).k_checked == 4
    with pytest.raises(PreconditionError):
        is_idp((2, 3), k_max=1)


def test_is_idp_budget():
    with pytest.raises(BudgetExceededError):
        is_idp((6, 6, 6, 6), budget=500)


def test_is_idp_budget_is_the_sumset_size():
    # P^(2,3) has 7 points, so the sumset at k=2 forms 49 sums
    with pytest.raises(BudgetExceededError):
        is_idp((2, 3), budget=48)
    assert is_idp((2, 3), budget=49).ok


def test_default_budget_refuses_no_small_sequence(monkeypatch):
    # the guards alone are under test, so the sumset itself is skipped
    monkeypatch.setattr(idp, "first_undecomposable", lambda targets, lower, ground: None)
    for s in product(range(1, 4), repeat=6):
        assert is_idp(s, budget=DEFAULT_BUDGET).ok, s


def test_first_undecomposable_is_order_independent():
    ground = [(0, 0), (1, 0), (0, 1)]
    targets = [(2, 0), (1, 1), (0, 2), (2, 2)]  # (2,2) has no two-part split
    forward = first_undecomposable(targets, ground, ground)
    backward = first_undecomposable(list(reversed(targets)), list(reversed(ground)), ground)
    assert forward == backward == (2, 2)
    assert first_undecomposable([(1, 1)], ground, ground) is None
