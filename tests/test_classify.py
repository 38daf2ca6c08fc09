import sys
from itertools import combinations, product
from math import gcd

import pytest

from hallwalk.classify import (
    CONSTANT_THEN_STRICT,
    GENERAL,
    INCREMENT_AT_MOST_ONE,
    STRICTLY_INCREASING,
    WEAKLY_MONOTONE,
    _interior_chain,
    classify,
    gorenstein_index,
    sequence_class,
)
from hallwalk.delta import delta_vector, degree, is_symmetric
from hallwalk.errors import MathematicalInconsistencyError, UnsupportedSequenceError
from hallwalk.polytope import contains, lattice_points
from oracles import HalfSpace, OriginNotInteriorError, dilate, dual_is_lattice, translated_hrep


def test_sequence_class_examples():
    assert sequence_class((2, 3, 4))[0][0] == STRICTLY_INCREASING
    assert sequence_class((3, 3, 4))[0][0] == CONSTANT_THEN_STRICT
    assert sequence_class((3, 4, 4, 5))[0][0] == INCREMENT_AT_MOST_ONE
    assert sequence_class((5, 3, 1))[0][0] == STRICTLY_INCREASING
    assert sequence_class((5, 3, 1))[0][1] is True
    assert sequence_class((2, 4, 4))[0][0] == WEAKLY_MONOTONE
    assert sequence_class((2, 1, 2))[0][0] == GENERAL


def test_sequence_class_reports_all_tags():
    tags = dict.fromkeys(sequence_class((2, 3, 4)))
    assert (STRICTLY_INCREASING, False) in tags
    assert (CONSTANT_THEN_STRICT, False) in tags
    assert (INCREMENT_AT_MOST_ONE, False) in tags
    assert (WEAKLY_MONOTONE, False) in tags


def test_fano_examples():
    c = classify((2, 3, 4))
    assert c["fano_theorem"] is True and c["fano_delta"] is True
    assert c["interior_point"] == (1, 2, 3)

    assert classify((3, 4, 5))["fano_theorem"] is False
    assert classify((2, 5))["fano_theorem"] is False

    c = classify((3, 3, 4))
    assert c["fano_theorem"] is True
    assert c["interior_point"] == (1, 2, 3)

    c = classify((3, 4, 4, 5))
    assert c["fano_theorem"] is True
    assert c["interior_point"] == (1, 2, 3, 4)


def test_fano_for_reversed_sequences():
    c = classify((4, 3, 2))
    assert c["fano_theorem"] is True
    assert c["interior_point"] == (1, 1, 1)
    assert contains((4, 3, 2), (1, 1, 1), strict=True)


def test_reflexive_examples():
    assert classify((2, 3, 4))["reflexive_theorem"] is True
    assert classify((2, 4, 8))["reflexive_theorem"] is True
    c = classify((3, 4, 4, 5))
    assert c["fano_theorem"] is True and c["reflexive_theorem"] is False

    c = classify((3, 4, 5))
    assert c["reflexive_theorem"] is False
    assert c["reflexive_reason"] == "not Fano"


def test_gorenstein_examples():
    assert gorenstein_index((2, 3, 4)) == 1
    assert gorenstein_index((1, 2, 4)) == 2
    assert gorenstein_index((1, 1, 1)) == 4  # dilate check: (4,4,4) is reflexive
    assert gorenstein_index((3,)) is None
    assert delta_vector((1, 2, 4)) == (1, 6, 1, 0)


def test_gorenstein_index_confirmed_by_dilate():
    # the oracle: delta(s) symmetric of degree m proposes c = d - m + 1, and
    # c*P must then be reflexive, i.e. delta(c*s) symmetric of degree d
    found = set()
    for d in range(1, 5):
        for s in product(range(1, 6), repeat=d):
            dv = delta_vector(s)
            oracle = d - degree(dv) + 1 if is_symmetric(dv) else None
            if oracle is not None:
                scaled = delta_vector(dilate(s, oracle))
                assert is_symmetric(scaled) and degree(scaled) == d, (s, oracle)
            assert gorenstein_index(s) == oracle, s
            found.add(oracle)
    assert found == {None, 1, 2, 3, 4, 5}


@pytest.mark.parametrize(
    "delta, says",
    [
        ((1, 2, 3, 0), None),  # not symmetric
        ((1, 6, 1, 0), 2),  # symmetric of degree 2
    ],
)
def test_routes_must_agree_on_the_index(delta, says):
    # the facets of P^(2,3,4) give index 1
    with pytest.raises(MathematicalInconsistencyError, match=f"gives {says}$"):
        gorenstein_index((2, 3, 4), _delta=delta)


def test_translated_hrep_examples():
    rows = translated_hrep((2, 3))
    assert rows == [
        HalfSpace((-1, 0), 1),
        HalfSpace((3, -2), 1),
        HalfSpace((0, 1), 1),
    ]
    assert HalfSpace((2, -1), 1) in translated_hrep((2, 4))  # the primitive chain row
    rows = translated_hrep((3, 3, 4))
    assert HalfSpace((1, -1, 0), 1) in rows
    rows = translated_hrep((2, 3, 4, 5))
    assert all(row.b == 1 for row in rows)


def test_translated_rows_are_primitive_at_lattice_distance_at_least_one():
    fano = 0
    for d in range(1, 5):
        for s in product(range(1, 9), repeat=d):
            try:
                rows = translated_hrep(s)
            except UnsupportedSequenceError:
                continue
            fano += 1
            assert all(gcd(*row.a) == 1 and row.b >= 1 for row in rows), (s, rows)
            dv = delta_vector(s)
            reflexive = is_symmetric(dv) and degree(dv) == d
            assert dual_is_lattice(rows) == reflexive == all(row.b == 1 for row in rows), s
    assert fano == 94


def test_translated_hrep_requires_fano_class():
    with pytest.raises(UnsupportedSequenceError):
        translated_hrep((2, 1, 2))  # no characterized class
    with pytest.raises(UnsupportedSequenceError):
        translated_hrep((3, 4, 5))  # classed but not Fano


def test_dual_is_lattice():
    assert dual_is_lattice([HalfSpace((0, 1), 1), HalfSpace((3, -2), 1), HalfSpace((-1, 0), 1)])
    assert not dual_is_lattice([HalfSpace((2, -1), 2)])
    assert dual_is_lattice([HalfSpace((-1,), 1), HalfSpace((1,), 1)])
    with pytest.raises(OriginNotInteriorError):
        dual_is_lattice([HalfSpace((1,), 0)])


def _strictly_increasing(dmax, vmax):
    for d in range(1, dmax + 1):
        yield from combinations(range(1, vmax + 1), d)


def test_theorem_oracle_agreement_strictly_increasing_small():
    # the classify() constructor itself asserts agreement; exercise it
    for s in _strictly_increasing(3, 6):
        c = classify(s)
        expected = s[0] == 2 and all(b <= 2 * a for a, b in zip(s, s[1:]))
        assert c["fano_theorem"] == expected == c["fano_delta"]
        if c["fano_theorem"]:
            interior = [p for p in lattice_points(s, 1) if contains(s, p, strict=True)]
            assert interior == [c["interior_point"]]
            assert c["reflexive_theorem"] == dual_is_lattice(translated_hrep(s))


def test_increment_at_most_one_agreement_small():
    for start in range(1, 5):
        for steps in product((0, 1), repeat=3):
            s = [start]
            for step in steps:
                s.append(s[-1] + step)
            c = classify(tuple(s))
            assert c["fano_theorem"] == (s[-1] == len(s) + 1) == c["fano_delta"]


def _interior_oracle(s):
    return [p for p in lattice_points(s, 1) if contains(s, p, strict=True)]


def test_interior_chain_bounds_the_interior_points():
    for d in range(1, 5):
        for s in product(range(1, 7), repeat=d):
            inside = _interior_oracle(s)
            least, greatest = _interior_chain(s)
            if inside:
                assert (least, greatest) == (min(inside), max(inside)), s
            else:
                assert (least, greatest) == (None, None), s
            assert (least is not None and least == greatest) == (delta_vector(s)[d] == 1), s


def test_classify_general_sequence_interior_point():
    # no class theorem applies, so the interior point comes from the chain alone
    general = fano = 0
    for d in range(1, 5):
        for s in product(range(1, 7), repeat=d):
            if sequence_class(s)[0][0] != GENERAL:
                continue
            inside = _interior_oracle(s)
            c = classify(s)
            assert c["fano_theorem"] is None
            assert c["interior_point"] == (inside[0] if len(inside) == 1 else None), s
            general += 1
            fano += c["interior_point"] is not None
    assert (general, fano) == (1160, 135)
    assert classify((3, 5, 2, 6, 4))["interior_point"] == (1, 2, 1, 4, 3)


@pytest.mark.parametrize(
    "s, inside, planted",
    [
        ((5, 2, 7, 3, 6), 2, 1),  # delta_d says one interior point
        ((3, 5, 2, 6, 4), 1, 0),  # delta_d says none
    ],
)
def test_delta_must_agree_with_the_chain_on_the_interior_point(s, inside, planted):
    assert len(_interior_oracle(s)) == inside
    with pytest.raises(MathematicalInconsistencyError, match="interior points"):
        classify(s, _delta=delta_vector(s)[:-1] + (planted,))


def test_interior_point_formula_must_agree_with_the_chain(monkeypatch):
    # the package attribute hallwalk.classify is the function, not the module
    module = sys.modules["hallwalk.classify"]
    monkeypatch.setattr(module, "_interior_point_formula", lambda name, seq: (1, 1, 1))
    with pytest.raises(MathematicalInconsistencyError):
        classify((2, 3, 4))
