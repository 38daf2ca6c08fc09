from collections import Counter
from functools import cache
from math import prod

import pytest

from hallwalk import polytope, triangulate
from hallwalk.errors import UnsupportedSequenceError
from hallwalk.intlinalg import determinant, edge_matrix
from hallwalk.polytope import check_s, contains, reverse
from hallwalk.triangulate import (
    Triangulation,
    VerificationReport,
    chimney_triangulation,
    verify_triangulation,
)
from oracles import reflect, simplex_is_unimodular
from test_acceptance import ratio_sequences


def reflected_per_occurrence(s, cells):
    """The reversed sequence's cells mapped one vertex occurrence at a time: the oracle for the cache."""
    rev = reverse(s)
    return tuple(tuple(reflect(rev, v) for v in simplex) for simplex in cells)


def _in_facet_all_rows(seq, wall):
    d = len(seq)
    if all(v[0] == 0 for v in wall) or all(v[-1] == seq[-1] for v in wall):
        return True
    return any(
        all(seq[i + 1] * v[i] == seq[i] * v[i + 1] for v in wall) for i in range(d - 1)
    )


def verified_by_slices(s, triangulation):
    """The verifier with walls cut by list slices and every facet row tested: the oracle for its reports."""
    seq = check_s(s)
    d = len(seq)
    report = VerificationReport(
        s=seq, simplex_count=len(triangulation.simplices), expected_count=prod(seq)
    )
    sides = {}
    inside = cache(lambda v: contains(seq, v))
    for idx, simplex in enumerate(triangulation.simplices):
        cell = sorted(simplex)
        if len(cell) != d + 1 or any(len(v) != d for v in cell):
            report.non_unimodular.append(idx)
            continue
        det = determinant(edge_matrix(cell))
        if abs(det) != 1:
            report.non_unimodular.append(idx)
            continue
        if not all(inside(v) for v in cell):
            report.outside.append(idx)
        for k in range(d + 1):
            side = det if (d - k) % 2 == 0 else -det
            sides.setdefault(tuple(cell[:k] + cell[k + 1 :]), []).append(side)
    for wall, held in sides.items():
        if len(held) > 2:
            report.overfull_walls.append(wall)
        elif len(held) == 2:
            if held[0] == held[1]:
                report.same_side_walls.append(wall)
        elif not _in_facet_all_rows(seq, wall):
            report.unmatched_walls.append(wall)
    return report


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


def test_reflection_cache_matches_the_per_occurrence_map(monkeypatch):
    # every sequence of criterion 7's range read backwards; a constant one reads the same
    built = []
    build = triangulate._build
    monkeypatch.setattr(triangulate, "_build", lambda seq: built.append(build(seq)) or built[-1])
    reflected = Counter()
    monkeypatch.setattr(triangulate, "_reflect", lambda rev, v: reflected.update([v]) or reflect(rev, v))
    checked = 0
    for forward in ratio_sequences(4, 512):
        s = forward[::-1]
        if s == forward:
            continue
        reflected.clear()
        tri = chimney_triangulation(s)
        (cells,) = built
        built.clear()
        assert tri.simplices == reflected_per_occurrence(s, cells), s
        # once per distinct vertex, and every vertex of the cells is one
        assert set(reflected.values()) == {1}, s
        assert len(reflected) == len({v for cell in cells for v in cell}), s
        checked += 1
    assert checked == 2746


def test_sequence_is_checked_once_per_call_not_per_vertex(monkeypatch):
    # (8, 4, 2) is built by reflecting the 64 cells of (2, 4, 8), then certified
    calls = []
    monkeypatch.setattr(polytope, "check_s", lambda s: calls.append(s) or check_s(s))
    monkeypatch.setattr(triangulate, "check_s", lambda s: calls.append(s) or check_s(s))
    tri = chimney_triangulation((8, 4, 2))
    assert verify_triangulation((8, 4, 2), tri).ok
    # chimney_triangulation and reverse, then verify_triangulation
    assert len(calls) <= 3, len(calls)


def planted(cells):
    """Broken copies of a triangulation: one or two cells moved up a step, a cell twice, a cell dropped."""
    def moved(cell):
        return tuple(v[:-1] + (v[-1] + 1,) for v in cell)

    middle = len(cells) // 2
    return {
        "one cell": cells[:middle] + (moved(cells[middle]),) + cells[middle + 1 :],
        "two cells": (moved(cells[0]),) + cells[1:-1] + (moved(cells[-1]),),
        "duplicated cell": cells[:middle] + (cells[middle - 1],) + cells[middle + 1 :],
        "dropped cell": cells[:middle] + cells[middle + 1 :],
    }


def test_reports_match_the_slice_verifier():
    valid = [s for forward in ratio_sequences(5, 48) for s in dict.fromkeys((forward, forward[::-1]))]
    for s in valid:
        tri = chimney_triangulation(s)
        assert verify_triangulation(s, tri).to_json() == verified_by_slices(s, tri).to_json(), s
    broken = 0
    for s in [(3, 3), (2, 4, 8), (8, 4, 2), (1, 2, 2, 4, 8), (9, 3, 3, 1)]:
        for kind, cells in planted(chimney_triangulation(s).simplices).items():
            tri = Triangulation(s, cells)
            report = verify_triangulation(s, tri).to_json()
            assert not report["ok"], (s, kind)
            assert report == verified_by_slices(s, tri).to_json(), (s, kind)
            broken += 1
    assert broken == 20
