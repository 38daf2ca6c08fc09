"""Integer decomposition property: greedy peeling and brute-force checking.

For weakly increasing s, a lattice point x of k*P peels greedily: take the
smallest index j with x_j > (k-1)*s_j and subtract (k-1)*s from the tail
starting at j (nothing to peel means the point already sits in (k-1)*P).
The peeled part lies in P and the remainder in (k-1)*P, which gives a full
k-part decomposition by iteration.  Decreasing sequences are handled by
reversing first; the reversal equivalence is affine, so mapped parts still
sum to the original point.

The decision procedure is independent of the peel: it checks the identity
kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d)  level by level, which is
equivalent to full decomposability by induction on k.  No sumset is
formed.  Both memberships y in P and z - y in (k-1)P are chains that
couple only adjacent coordinates, so one walk over the targets z decides
every z at once: each node of the walk keeps the set of y_i that extend
to a split of the suffix fixed so far (`undecomposable_targets`).  The
brute-force sumset `first_undecomposable` stays as the tests' oracle.
"""

from dataclasses import dataclass
from itertools import accumulate

from .errors import MathematicalInconsistencyError, PreconditionError, UnsupportedSequenceError
from .polytope import check_budget, check_s, contains, count, reflect, reverse


def _require_weakly_increasing(seq) -> None:
    if any(a > b for a, b in zip(seq, seq[1:])):
        raise UnsupportedSequenceError(
            f"greedy peel needs a weakly increasing sequence, got {seq}"
        )


def greedy_peel(s, k: int, x) -> tuple[int, ...]:
    """Peel one part off x in k*P^(s); returns y with y in P, x-y in (k-1)*P."""
    seq = check_s(s)
    _require_weakly_increasing(seq)
    if k < 2:
        raise PreconditionError(f"peeling needs k >= 2, got {k}")
    point = tuple(int(v) for v in x)
    if not contains(seq, point, t=k):
        raise PreconditionError(f"{point} is not a lattice point of {k}*P^{seq}")
    d = len(seq)
    j = next((i for i in range(d) if point[i] > (k - 1) * seq[i]), None)
    if j is None:
        y = tuple([0] * d)
    else:
        y = tuple(0 if i < j else point[i] - (k - 1) * seq[i] for i in range(d))
    rest = tuple(a - b for a, b in zip(point, y))
    if not contains(seq, y, t=1) or not contains(seq, rest, t=k - 1):
        raise MathematicalInconsistencyError(
            f"peel of {point} from {k}*P^{seq} produced {y} + {rest}"
        )
    return y


@dataclass(frozen=True)
class Decomposition:
    s: tuple[int, ...]
    target: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]


def decompose(s, k: int, x) -> Decomposition:
    """Write x in k*P^(s) as a sum of k lattice points of P^(s)."""
    seq = check_s(s)
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    point = tuple(int(v) for v in x)
    increasing = all(a <= b for a, b in zip(seq, seq[1:]))
    decreasing = all(a >= b for a, b in zip(seq, seq[1:]))
    if not increasing and not decreasing:
        raise UnsupportedSequenceError(f"decompose needs a weakly monotone sequence, got {seq}")
    if not contains(seq, point, t=k):
        raise PreconditionError(f"{point} is not a lattice point of {k}*P^{seq}")

    if increasing:
        work_s, work_x = seq, point
    else:
        work_s, work_x = reverse(seq), reflect(seq, point, t=k)

    parts = []
    current = work_x
    for level in range(k, 1, -1):
        y = greedy_peel(work_s, level, current)
        parts.append(y)
        current = tuple(a - b for a, b in zip(current, y))
    parts.append(current)

    if not increasing:
        # map each part back; the affine offsets telescope so sums survive
        parts = [reflect(work_s, p, t=1) for p in parts]

    total = tuple(sum(col) for col in zip(*parts))
    if total != point or any(not contains(seq, p, t=1) for p in parts):
        raise MathematicalInconsistencyError(
            f"decomposition of {point} in {k}*P^{seq} failed: parts {parts}"
        )
    return Decomposition(seq, point, tuple(parts))


@dataclass(frozen=True)
class IdpResult:
    ok: bool
    k_checked: int
    witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "verdict": self.ok,
            "k_checked": self.k_checked,
            "witness": None if self.witness is None else list(self.witness),
        }


def first_undecomposable(targets, lower, ground) -> tuple[int, ...] | None:
    """Lexicographically least target not expressible as lower + ground.

    The brute-force sumset; `is_idp` does not call it, the tests use it as
    the oracle for `undecomposable_targets`.
    """
    sums = {tuple(a + b for a, b in zip(u, v)) for u in lower for v in ground}
    missing = [z for z in targets if z not in sums]
    return min(missing) if missing else None


def _spans(seq, k: int) -> list[list[range]]:
    """spans[i][z]: the values of y_i that 0 <= y_i <= s_i and 0 <= z - y_i <= (k-1)*s_i allow."""
    return [
        [range(max(0, z - (k - 1) * v), min(v, z) + 1) for z in range(k * v + 1)]
        for v in seq
    ]


def reachability_tests(s, k: int) -> int:
    """Exact number of interval tests `undecomposable_targets(s, k)` makes.

    A node of its walk at level i < d makes one test per candidate y_i.
    The nodes with z_i = v are the suffixes (z_i, ..., z_d) of points of
    k*P ending there, counted level by level with suffix sums over the
    chain bounds, the mirror of the prefix sums of `count`.
    """
    seq = check_s(s)
    spans = _spans(seq, k)
    nodes = [1] * (k * seq[-1] + 1)
    tests = 0
    for i in range(len(seq) - 2, -1, -1):
        suffix = list(accumulate(reversed(nodes)))[::-1]
        nodes = [suffix[-(-seq[i + 1] * v // seq[i])] for v in range(k * seq[i] + 1)]
        tests += sum(n * len(span) for n, span in zip(nodes, spans[i]))
    return tests


def undecomposable_targets(s, k: int) -> list[tuple[int, ...]]:
    """All z in k*P^(s) cap Z^d with no y in P cap Z^d such that z - y is in (k-1)*P.

    Walks the targets from z_d down, as `lattice_points` does.  Each node
    carries a bitmask of the y_i for which some y_i, ..., y_d satisfies
    both chains on the suffix fixed so far.  Below level d, y_i stays in
    the mask when the parent's mask meets
    [ceil(s_{i+1} y_i / s_i), z_{i+1} - ceil(s_{i+1} (z_i - y_i) / s_i)].
    A leaf whose mask is empty is a target that does not decompose.
    Unguarded: its work is `reachability_tests(s, k)`, which `is_idp`
    charges first.
    """
    seq = check_s(s)
    d = len(seq)
    spans = _spans(seq, k)
    # windows[i][z]: (bit of y_i, ceil(s_{i+1} y_i / s_i), ceil(s_{i+1} (z - y_i) / s_i))
    # per candidate y_i; at most one entry per test, so the budget bounds it too
    windows = [
        [[(1 << y, -(-seq[i + 1] * y // seq[i]), -(-seq[i + 1] * (z - y) // seq[i])) for y in span]
         for z, span in enumerate(spans[i])]
        for i in range(d - 1)
    ]
    missing: list[tuple[int, ...]] = []
    point = [0] * d

    def descend(i: int, z_up: int, reach_up: int) -> None:
        # i is 0-based; z_up and reach_up belong to the parent at level i + 1
        level = windows[i]
        for z in range(seq[i] * z_up // seq[i + 1] + 1):
            reach = 0
            for bit, low, high in level[z]:
                if (reach_up & ((2 << (z_up - high)) - 1)) >> low:
                    reach |= bit
            point[i] = z
            if i:
                descend(i - 1, z, reach)
            elif not reach:
                missing.append(tuple(point))

    for z, span in enumerate(spans[-1]):
        point[-1] = z
        reach = (1 << span.stop) - (1 << span.start) if span else 0
        if d > 1:
            descend(d - 2, z, reach)
        elif not reach:
            missing.append(tuple(point))
    return missing


def is_idp(s, k_max=None, budget=None) -> IdpResult:
    """Decide kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d) for k = 2..K (default K = max(2, d-1)).

    Each level is decided by `undecomposable_targets`, one reachability
    walk over the targets with no sumset.  Before it, `count` refuses a
    dilate too large to walk and the walk's exact test count is charged
    to `budget`.  Generators of the cone over a d-polytope live in
    degrees <= d-1, so a first failure beyond that cannot occur; larger K
    is available for paranoid sweeps.  On failure the smallest failing k
    and the lexicographically least undecomposable target are reported.
    """
    seq = check_s(s)
    d = len(seq)
    top = max(2, d - 1) if k_max is None else int(k_max)
    if top < 2:
        raise PreconditionError(f"k_max must be >= 2, got {k_max}")
    for k in range(2, top + 1):
        count(seq, k, budget=budget)
        check_budget(reachability_tests(seq, k), budget, f"the reachability walk of {k}*P^{seq}")
        missing = undecomposable_targets(seq, k)
        if missing:
            return IdpResult(False, k, min(missing))
    return IdpResult(True, top, None)
