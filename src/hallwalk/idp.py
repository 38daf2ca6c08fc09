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
formed: y in P and z - y in (k-1)P are chains that couple only adjacent
coordinates, so a transfer from z_d down, memoized on what the suffix
leaves open, finds the least target that does not split.
"""

from dataclasses import dataclass

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

    The brute-force sumset, kept as the tests' oracle; `is_idp` does not call it.
    """
    sums = {tuple(a + b for a, b in zip(u, v)) for u in lower for v in ground}
    missing = [z for z in targets if z not in sums]
    return min(missing) if missing else None


def _span(seq, k: int, i: int, z: int) -> range:
    """The values of y_i that 0 <= y_i <= s_i and 0 <= z - y_i <= (k-1)*s_i allow."""
    return range(max(0, z - (k - 1) * seq[i]), min(seq[i], z) + 1)


def least_undecomposable(s, k: int, budget=None, spent: int = 0):
    """Least z in k*P^(s) cap Z^d with no y in P cap Z^d such that z - y is in (k-1)*P.

    A node fixes (z_i, ..., z_d) and masks the y_i that extend to a split:
    below level d, y_i stays when the parent's mask meets
    [ceil(s_{i+1} y_i / s_i), z_{i+1} - ceil(s_{i+1} (z_i - y_i) / s_i)].
    Each state (i, z_{i+1}, parent mask) is solved once, for its least missing
    prefix, after its tests (with d = 1, one per target) join the running
    total `spent` charged to `budget`, so all it keeps is paid for first.
    Returns (z or None, spent).
    """
    seq = check_s(s)
    d = len(seq)
    # windows[i][z]: (bit of y_i, ceil(s_{i+1} y_i / s_i), ceil(s_{i+1} (z - y_i) / s_i)) per y_i
    windows: list[list[list[tuple[int, int, int]]]] = [[] for _ in seq]
    memo: dict[tuple[int, int, int], tuple[int, ...] | None] = {}

    def least(i: int, z_up: int, reach_up: int) -> tuple[int, ...] | None:
        # i is 0-based; z_up and reach_up belong to the parent at level i + 1
        nonlocal spent
        if i < 0:
            return None if reach_up else ()
        if (i, z_up, reach_up) in memo:
            return memo[i, z_up, reach_up]
        top = seq[i] * z_up // seq[i + 1]
        spent += sum(len(_span(seq, k, i, z)) for z in range(top + 1))
        check_budget(spent, budget, f"the IDP transfer of P^{seq} up to {k}*P")
        level = windows[i]
        level += (
            [(1 << y, -(-seq[i + 1] * y // seq[i]), -(-seq[i + 1] * (z - y) // seq[i]))
             for y in _span(seq, k, i, z)]
            for z in range(len(level), top + 1)
        )
        best = None
        for z in range(top + 1):
            reach = 0
            for bit, low, high in level[z]:
                if (reach_up & ((2 << (z_up - high)) - 1)) >> low:
                    reach |= bit
            below = least(i - 1, z, reach)
            if below is not None and (best is None or below + (z,) < best):
                best = below + (z,)
        memo[i, z_up, reach_up] = best
        return best

    if d == 1:
        spent += k * seq[0] + 1
        check_budget(spent, budget, f"the IDP transfer of P^{seq} up to {k}*P")
    best = None
    for z in range(k * seq[-1] + 1):
        span = _span(seq, k, d - 1, z)
        below = least(d - 2, z, (1 << span.stop) - (1 << span.start) if span else 0)
        if below is not None and (best is None or below + (z,) < best):
            best = below + (z,)
    return best, spent


def is_idp(s, k_max=None, budget=None) -> IdpResult:
    """Decide kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d) for k = 2..K (default K = max(2, d-1)).

    One budget covers the call: `count` of K*P, then the tests of
    `least_undecomposable` at every k as one running total.  Generators of
    the cone over a d-polytope live in degrees <= d-1, so a first failure
    beyond that cannot occur; larger K is for paranoid sweeps.  On failure
    the smallest failing k and its least undecomposable target are reported.
    """
    seq = check_s(s)
    top = max(2, len(seq) - 1) if k_max is None else int(k_max)
    if top < 2:
        raise PreconditionError(f"k_max must be >= 2, got {k_max}")
    count(seq, top, budget=budget)
    spent = 0
    for k in range(2, top + 1):
        witness, spent = least_undecomposable(seq, k, budget, spent)
        if witness is not None:
            return IdpResult(False, k, witness)
    return IdpResult(True, top, None)
