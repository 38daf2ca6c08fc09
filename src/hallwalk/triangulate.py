"""Unimodular triangulation for sequences with integer consecutive ratios.

When each s_{i+1} is an integer multiple of s_i the polytope is an iterated
chimney: P^(s_1..s_d) sits over P^(s_1..s_{d-1}) between the graphs of
l(x) = (s_d/s_{d-1}) * x_{d-1} and the constant s_d.  Starting from the
unit segments of [0, s_1], each cell of the lower triangulation is lifted
by a staircase sweep:

* every cell vertex v becomes a column from height l(v) up to s_d;
* a level assignment (initially all zero) marks where each column sits;
* the raises "column at v goes from level j-1 to j" run in ascending order
  of the exact fraction j / height(v), ties broken by the coordinates of v;
* each raise emits the simplex spanned by the current column points plus
  the raised point, then records the new level.

Consecutive level assignments bound exactly one simplex, the sweep runs
from the bottom graph to the top, and the sort key depends only on global
data (v, level, height), so neighbouring cells cut their shared walls the
same way.  Every emitted simplex is unimodular because its edge matrix
reduces to the base cell's; `verify_triangulation` checks each determinant.

Sequences whose ratios are integral in the reverse direction are handled
by triangulating the reversed sequence and mapping back through the
reversal equivalence.

`verify_triangulation` certifies any claimed triangulation exactly, without
sampling: unimodular cells inside P, as many of them as the normalized
volume, and every wall either shared by two cells on opposite sides or
lying in a facet of P.  Membership and facet tightness are read off one
`polytope._chain` per distinct vertex; neither it nor the reversed build's
`_reflect` checks s again.
"""

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import combinations
from math import lcm, prod
from operator import and_

from .errors import UnsupportedSequenceError
from .intlinalg import determinant, edge_matrix
from .polytope import _chain, _reflect, check_s, reverse

Point = tuple[int, ...]
Simplex = tuple[Point, ...]
Wall = tuple[Point, ...]  # a simplex minus one vertex, sorted


@dataclass(frozen=True)
class Triangulation:
    s: tuple[int, ...]
    simplices: tuple[Simplex, ...]

    def to_json(self) -> dict:
        return {
            "s": list(self.s),
            "simplices": [[list(v) for v in simplex] for simplex in self.simplices],
        }


def _has_integer_ratios(seq) -> bool:
    return all(b % a == 0 for a, b in zip(seq, seq[1:]))


def chimney_triangulation(s) -> Triangulation:
    """Unimodular triangulation of P^(s); needs integer consecutive ratios."""
    seq = check_s(s)
    if _has_integer_ratios(seq):
        return Triangulation(seq, tuple(_build(seq)))
    rev = reverse(seq)
    if _has_integer_ratios(rev):
        mirror = cache(lambda v: _reflect(rev, v))  # cells share their vertices
        mapped = [tuple(map(mirror, simplex)) for simplex in _build(rev)]
        return Triangulation(seq, tuple(mapped))
    raise UnsupportedSequenceError(
        f"s={seq}: consecutive ratios are not integral in either direction"
    )


def _build(seq) -> list[Simplex]:
    cells: list[Simplex] = [((j - 1,), (j,)) for j in range(1, seq[0] + 1)]
    for level in range(1, len(seq)):
        ratio = seq[level] // seq[level - 1]
        top = seq[level]
        next_cells: list[Simplex] = []
        for cell in cells:
            next_cells.extend(_lift_cell(cell, ratio, top))
        cells = next_cells
    return cells


def _lift_cell(cell: Simplex, ratio: int, top: int) -> list[Simplex]:
    floors = [ratio * v[-1] for v in cell]
    heights = [top - f for f in floors]
    # j * (scale // h) orders the raises as j / h does, ties included, in exact integers
    scale = lcm(*(h for h in heights if h > 0))
    raises = sorted(
        (j * (scale // heights[idx]), cell[idx], idx, j)
        for idx in range(len(cell))
        if heights[idx] > 0
        for j in range(1, heights[idx] + 1)
    )
    columns = [v + (f,) for v, f in zip(cell, floors)]
    out: list[Simplex] = []
    for _, base_vertex, idx, j in raises:
        raised = base_vertex + (floors[idx] + j,)
        out.append(tuple(columns) + (raised,))
        columns[idx] = raised
    return out


@dataclass
class VerificationReport:
    s: tuple[int, ...]
    simplex_count: int
    expected_count: int
    non_unimodular: list[int] = field(default_factory=list)
    outside: list[int] = field(default_factory=list)
    unmatched_walls: list[Wall] = field(default_factory=list)
    overfull_walls: list[Wall] = field(default_factory=list)
    same_side_walls: list[Wall] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.simplex_count == self.expected_count
            and not self.non_unimodular
            and not self.outside
            and not self.unmatched_walls
            and not self.overfull_walls
            and not self.same_side_walls
        )

    def to_json(self) -> dict:
        def walls(found):
            return [[list(v) for v in wall] for wall in found]

        return {
            "ok": self.ok,
            "simplex_count": self.simplex_count,
            "expected_count": self.expected_count,
            "non_unimodular": self.non_unimodular,
            "outside": self.outside,
            "unmatched_walls": walls(self.unmatched_walls),
            "overfull_walls": walls(self.overfull_walls),
            "same_side_walls": walls(self.same_side_walls),
        }


def verify_triangulation(s, triangulation: Triangulation) -> VerificationReport:
    """Exact certificate that the simplices triangulate P^(s).

    Every simplex must have determinant +-1 and its vertices must lie in P,
    and there must be prod(s_i) of them, the normalized volume of P.  Each
    wall (a simplex minus one vertex) must then either be shared by exactly
    two simplices with their apexes on opposite sides, or belong to one
    simplex and lie in a facet of P.  Cells that agree on every wall cover
    P with constant multiplicity, and equal volume makes it one, so this
    proves a triangulation (De Loera, Rambau and Santos, Triangulations,
    2010, ch. 4).  Since P is convex, vertices inside P put the whole
    simplex inside.  `_chain` runs once per distinct vertex: a one-cell wall
    lies in a facet iff the AND of its vertices' masks of tight rows is nonzero.
    """
    seq = check_s(s)
    d = len(seq)
    report = VerificationReport(
        s=seq,
        simplex_count=len(triangulation.simplices),
        expected_count=prod(seq),
    )
    # wall -> apex sides; the side is the sign of det(wall_1 - wall_0, ...,
    # apex - wall_0) for the sorted wall, read off the sorted cell's sign
    sides: dict[Wall, list[int]] = {}
    chain = cache(lambda v: _chain(seq, v))  # (inside, tight rows); cells share their vertices
    # combinations(cell, d) drops vertex d first and vertex 0 last; the walls
    # are taken in reverse, dropping vertex k as the k-th, which keeps the
    # reports' order.  Moving vertex k to the end takes d - k transpositions.
    signs = [(-1) ** (d - k) for k in range(d + 1)]
    for idx, simplex in enumerate(triangulation.simplices):
        cell = sorted(simplex)
        if len(cell) != d + 1 or any(len(v) != d for v in cell):
            report.non_unimodular.append(idx)
            continue
        det = determinant(edge_matrix(cell))
        if abs(det) != 1:
            report.non_unimodular.append(idx)
            continue
        if not all(chain(v)[0] for v in cell):
            report.outside.append(idx)
        for wall, sign in zip(list(combinations(cell, d))[::-1], signs):
            sides.setdefault(wall, []).append(sign * det)
    for wall, held in sides.items():
        if len(held) > 2:
            report.overfull_walls.append(wall)
        elif len(held) == 2:
            if held[0] == held[1]:
                report.same_side_walls.append(wall)
        elif not reduce(and_, (chain(v)[1] for v in wall)):
            report.unmatched_walls.append(wall)
    return report
