import random
from fractions import Fraction

import pytest

from hallwalk.errors import DimensionError
from hallwalk.intlinalg import determinant
from oracles import simplex_is_unimodular


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_determinant_identity():
    assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_determinant_triangular():
    assert determinant([[1, 2], [0, 1]]) == 1


def test_determinant_hand_expansion():
    # 2*5 - 3*4
    assert determinant([[2, 3], [4, 5]]) == -2


def test_determinant_singular_and_swaps():
    assert determinant([[0, 1], [0, 5]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 2], [1, 0, 0], [0, 3, 0]]) == 6


def test_determinant_rejects_non_square():
    with pytest.raises(DimensionError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_leaves_its_input_alone():
    # the elimination swaps and overwrites rows of its own copy only
    matrix = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    before = [row[:] for row in matrix]
    assert determinant(matrix) == -3
    assert matrix == before
    assert determinant(tuple(map(tuple, matrix))) == -3


def test_determinant_multiplicative_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)


def test_determinant_of_transpose():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(a) == determinant(list(zip(*a)))


def test_rational_comparison_matches_cross_multiplication():
    # a/b < c/d iff a*d < c*b whenever b, d > 0
    for a in range(-4, 5):
        for b in range(1, 5):
            for c in range(-4, 5):
                for d in range(1, 5):
                    assert (Fraction(a, b) < Fraction(c, d)) == (a * d < c * b)


def test_simplex_unimodularity():
    assert simplex_is_unimodular([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not simplex_is_unimodular([(0, 0), (2, 0), (0, 1)])  # determinant 2
    assert simplex_is_unimodular([(0, 0), (1, 2), (0, 1)])


def test_simplex_wrong_count():
    with pytest.raises(DimensionError):
        simplex_is_unimodular([(0, 0), (1, 0)])
