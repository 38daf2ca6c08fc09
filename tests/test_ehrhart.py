from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from hallwalk import ehrhart
from hallwalk.delta import delta_vector
from hallwalk.ehrhart import (
    count,
    delta_from_counts,
    dilate_counts,
    ehrhart_data,
    evaluate,
)
from hallwalk.errors import BudgetExceededError, InconsistentCountsError, PreconditionError
from hallwalk.polytope import lattice_points


def all_sequences(dmax, smax):
    for d in range(1, dmax + 1):
        yield from product(range(1, smax + 1), repeat=d)


def test_count_examples():
    assert count((2, 3), 1) == 7
    assert count((2, 3), 2) == 19
    assert count((2, 3), 0) == 1
    assert count((5, 1, 4), 0) == 1


def test_count_agrees_with_enumeration():
    for s in all_sequences(3, 4):
        for t in range(4):
            assert count(s, t) == len(lattice_points(s, t)), (s, t)


def test_delta_from_counts_examples():
    assert delta_from_counts((1, 3)) == (1, 1)  # segment [0, 2]
    assert delta_from_counts((1, 7, 19)) == (1, 4, 1)
    assert delta_from_counts((1, 3, 6)) == (1, 0, 0)  # standard triangle


def test_delta_from_counts_errors():
    with pytest.raises(PreconditionError):
        delta_from_counts((2, 3))
    with pytest.raises(InconsistentCountsError):
        delta_from_counts((1, 9, 10))  # too many points at t=1 to be convex


def test_polynomial_examples():
    assert ehrhart_data((2,))["polynomial"] == ((1, 1), (2, 1))
    assert ehrhart_data((2, 3))["polynomial"] == ((1, 1), (3, 1), (3, 1))
    assert ehrhart_data((1, 1))["polynomial"] == ((1, 1), (3, 2), (1, 2))


def test_polynomial_out_of_sample_and_leading_coefficient():
    for s in all_sequences(3, 3):
        d = len(s)
        poly = [Fraction(*c) for c in ehrhart_data(s)["polynomial"]]
        for t in range(d + 1):
            assert evaluate(poly, t) == count(s, t)
        assert evaluate(poly, d + 1) == count(s, d + 1), s
        assert poly[-1] * factorial(d) == prod(s)


def test_oracle_equivalence_small():
    for s in all_sequences(3, 3):
        assert delta_from_counts(dilate_counts(s)) == delta_vector(s), s


def test_ehrhart_data_bundle():
    data = ehrhart_data((2, 3), tmax=4)
    assert data["counts"] == (1, 7, 19, 37, 61)
    assert data["delta"] == (1, 4, 1)
    assert data["polynomial"] == ((1, 1), (3, 1), (3, 1))
    assert data["counts"][:3] == (1, 7, 19)


def test_ehrhart_data_counts_each_dilate_once(monkeypatch):
    counted = []

    def counting(s, t, budget=None):
        counted.append(t)
        return count(s, t, budget=budget)

    monkeypatch.setattr(ehrhart, "count", counting)
    data = ehrhart_data((2, 3), tmax=4)
    assert counted == [0, 1, 2, 3, 4]
    assert data["polynomial"] == ((1, 1), (3, 1), (3, 1))


def test_budget_refusal():
    # the count of 4*P^(30,30,30,30) fills 4 levels and 3 prefix arrays of 4*30 + 1 cells
    with pytest.raises(BudgetExceededError):
        count((30, 30, 30, 30), 4, budget=846)
    assert count((30, 30, 30, 30), 4, budget=847) == count((30, 30, 30, 30), 4)


def test_no_budget_means_unlimited():
    assert count((1000, 1000, 1000, 1000, 1000), 5) == 26119880255219751
