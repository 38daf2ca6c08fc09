from math import prod

import pytest

from hallwalk.errors import UnsupportedSequenceError
from hallwalk.intlinalg import simplex_is_unimodular
from hallwalk.polytope import contains
from hallwalk.triangulate import Triangulation, chimney_triangulation, verify_triangulation


def test_base_case_segments():
    tri = chimney_triangulation((2,))
    assert tri.simplices == (((0,), (1,)), ((1,), (2,)))


def test_golden_triangulation_1_2():
    tri = chimney_triangulation((1, 2))
    assert tri.simplices == (
        ((0, 0), (1, 2), (0, 1)),
        ((0, 1), (1, 2), (0, 2)),
    )


def test_golden_triangulation_2_2():
    # raise order within the first cell: column (0,) twice (keys 1/2, 1),
    # then column (1,) (key 1, larger tiebreak vertex)
    tri = chimney_triangulation((2, 2))
    assert tri.simplices == (
        ((0, 0), (1, 1), (0, 1)),
        ((0, 1), (1, 1), (0, 2)),
        ((0, 2), (1, 1), (1, 2)),
        ((1, 1), (2, 2), (1, 2)),
    )


def test_simplex_count_is_normalized_volume():
    for s in [(1, 2), (2, 4), (3, 3), (2, 2, 2), (1, 2, 4), (2, 4, 8), (1, 1, 2, 4)]:
        tri = chimney_triangulation(s)
        assert len(tri.simplices) == prod(s), s


def test_all_cells_unimodular_and_inside():
    for s in [(2, 4), (1, 3, 3), (2, 2, 4)]:
        tri = chimney_triangulation(s)
        for simplex in tri.simplices:
            assert simplex_is_unimodular(simplex)
            assert all(contains(s, v) for v in simplex)


def test_verification_passes():
    for s in [(1, 2), (2, 4), (2, 4, 8), (3,), (1, 1, 2, 4)]:
        tri = chimney_triangulation(s)
        report = verify_triangulation(s, tri)
        assert report.ok, report.to_json()


def test_reversed_ratio_case():
    # ratios are integral downward; handled through the reversal equivalence
    for s in [(2, 1), (4, 2, 1), (8, 4, 2), (9, 3, 3, 1)]:
        tri = chimney_triangulation(s)
        assert len(tri.simplices) == prod(s)
        report = verify_triangulation(s, tri)
        assert report.ok, (s, report.to_json())


def test_reversed_cells_fail_against_the_unreversed_sequence():
    # (8, 4, 2) is built by reflecting the cells of (2, 4, 8); the two
    # polytopes differ, so each set of cells is certified for its own only
    tri = chimney_triangulation((8, 4, 2))
    assert verify_triangulation((8, 4, 2), tri).ok
    report = verify_triangulation((2, 4, 8), Triangulation((2, 4, 8), tri.simplices))
    assert not report.ok
    assert report.outside


def test_unsupported_sequences():
    with pytest.raises(UnsupportedSequenceError):
        chimney_triangulation((2, 3))
    with pytest.raises(UnsupportedSequenceError):
        chimney_triangulation((2, 4, 2))


def test_corrupted_triangulation_is_rejected():
    tri = chimney_triangulation((2, 4))
    moved = list(tri.simplices)
    bad = tuple(tuple(c + 4 if i == len(moved[0][0]) - 1 else c for i, c in enumerate(v)) for v in moved[0])
    moved[0] = bad
    report = verify_triangulation((2, 4), Triangulation((2, 4), tuple(moved)))
    assert not report.ok
    assert report.outside == [0]  # the shifted cell left the polytope
    assert report.unmatched_walls  # and its old neighbours lost a partner


def test_every_cell_with_an_outside_vertex_is_listed():
    # a vertex is tested once, but every cell that holds it must be reported
    s = (2, 4, 8)
    shifted = tuple(
        tuple(v[:-1] + (v[-1] + 1,) for v in simplex) for simplex in chimney_triangulation(s).simplices
    )
    expected = [i for i, cell in enumerate(shifted) if not all(contains(s, v) for v in cell)]
    report = verify_triangulation(s, Triangulation(s, shifted))
    assert len(expected) > 1
    assert report.outside == expected


def test_dropped_cell_breaks_count_and_coverage():
    tri = chimney_triangulation((2, 4))
    report = verify_triangulation((2, 4), Triangulation((2, 4), tri.simplices[1:]))
    assert not report.ok
    assert report.simplex_count != report.expected_count
    assert report.unmatched_walls  # the gap leaves walls inside P on one cell
    assert not report.overfull_walls and not report.same_side_walls


def test_overlapping_cell_is_caught_by_walls():
    tri = chimney_triangulation((3, 3))
    # duplicate one cell: its walls are now held on the same side twice
    doubled = Triangulation((3, 3), tri.simplices + (tri.simplices[4],))
    report = verify_triangulation((3, 3), doubled)
    assert not report.ok
    assert report.simplex_count != report.expected_count
    # walls shared with a neighbour now hold three cells; the boundary wall two
    assert report.overfull_walls == [((0, 3), (1, 2)), ((1, 2), (1, 3))]
    assert report.same_side_walls == [((0, 3), (1, 3))]
    assert not report.unmatched_walls


def test_duplicated_cell_that_keeps_the_count_is_rejected():
    # a cell repeated in place of another keeps prod(s) unimodular cells
    # inside P, so only the walls can tell; sampling could miss it
    for s in [(3, 3), (2, 4, 8), (8, 4, 2)]:
        cells = chimney_triangulation(s).simplices
        for victim in (0, len(cells) // 2, len(cells) - 1):
            twin = cells[victim - 1]
            swapped = cells[:victim] + (twin,) + cells[victim + 1 :]
            report = verify_triangulation(s, Triangulation(s, swapped))
            assert report.simplex_count == report.expected_count
            assert not report.non_unimodular and not report.outside
            assert not report.ok, (s, victim)
            assert report.overfull_walls or report.same_side_walls


def test_folded_segment_is_caught_by_sides_alone():
    # [0, 1] twice covers [0, 1] twice and [1, 2] not at all, yet has the
    # right count and every wall is held by exactly two cells
    folded = Triangulation((2,), (((0,), (1,)), ((1,), (0,))))
    report = verify_triangulation((2,), folded)
    assert not report.ok
    assert report.simplex_count == report.expected_count
    assert sorted(report.same_side_walls) == [((0,),), ((1,),)]
    assert not report.unmatched_walls and not report.overfull_walls


def test_non_unimodular_and_malformed_cells_are_listed():
    # determinant 2, a repeated vertex, too few vertices, a vertex of the wrong length
    cells = (((0,), (2,)), ((1,), (1,)), ((0,),), ((0,), (1, 1)))
    report = verify_triangulation((2,), Triangulation((2,), cells))
    assert not report.ok
    assert report.non_unimodular == [0, 1, 2, 3]


def test_report_json_lists_walls_as_points():
    tri = chimney_triangulation((1, 2))
    payload = verify_triangulation((1, 2), Triangulation((1, 2), tri.simplices[:1])).to_json()
    assert payload["ok"] is False
    assert payload["unmatched_walls"] == [[[0, 1], [1, 2]]]
    assert set(payload) == {
        "ok", "simplex_count", "expected_count", "non_unimodular", "outside",
        "unmatched_walls", "overfull_walls", "same_side_walls",
    }
