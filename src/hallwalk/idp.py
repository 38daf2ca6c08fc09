"""Integer decomposition property: the layer split and its cross-check.

Every s-lecture hall polytope has the IDP, whatever the order of s.  A
lattice point x of k*P splits into the k layers

    y^(l)_i = min(max(x_i - (l-1)*s_i, 0), s_i),    l = 1, ..., k.

Each layer is an integer point, and y^(l)_i / s_i = clamp(x_i/s_i - l + 1, 0, 1)
is nondecreasing in i because x_i / s_i is, so y^(l) lies in P.  The layers
sum to x because the clamps of t - l + 1 over l = 1..k sum to t for every
t in [0, k].  For weakly increasing s the top layer is the greedy peel:
zero below the least j with x_j > (k-1)*s_j, and x_i - (k-1)*s_i from j on.

The cross-check `is_idp` is independent of the split: it checks the identity
kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d)  level by level, which is
equivalent to full decomposability by induction on k.  No sumset is
formed: y in P and z - y in (k-1)P are chains that couple only adjacent
coordinates, so a transfer from z_d down, memoized on what the suffix
leaves open, finds the least target that does not split.  By the proof
above that target does not exist, so a witness is an inconsistency.
"""

from dataclasses import dataclass

from .errors import MathematicalInconsistencyError, PreconditionError
from .polytope import check_budget, check_s, contains, count


def _lattice_point(seq, k: int, x) -> tuple[int, ...]:
    point = tuple(int(v) for v in x)
    if not contains(seq, point, t=k):
        raise PreconditionError(f"{point} is not a lattice point of {k}*P^{seq}")
    return point


def _layer(seq, point, level: int) -> tuple[int, ...]:
    """y^(level): the part of point between heights level - 1 and level."""
    return tuple(min(max(a - (level - 1) * v, 0), v) for a, v in zip(point, seq))


def greedy_peel(s, k: int, x) -> tuple[int, ...]:
    """The top layer of x in k*P^(s): y in P with x - y in (k-1)*P, for every s.

    For weakly increasing s this is the greedy peel, which subtracts
    (k-1)*s from the tail that starts at the least j with x_j > (k-1)*s_j.
    """
    seq = check_s(s)
    if k < 2:
        raise PreconditionError(f"peeling needs k >= 2, got {k}")
    point = _lattice_point(seq, k, x)
    y = _layer(seq, point, k)
    rest = tuple(a - b for a, b in zip(point, y))
    if not contains(seq, y) or not contains(seq, rest, t=k - 1):
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
    """Write x in k*P^(s) as its k layers, top layer (l = k) first, for every s.

    The parts are lattice points of P^(s) that sum to x; the sum and each
    part's membership are checked once at the end.
    """
    seq = check_s(s)
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    point = _lattice_point(seq, k, x)
    parts = tuple(_layer(seq, point, level) for level in range(k, 0, -1))
    if tuple(map(sum, zip(*parts))) != point or not all(contains(seq, p) for p in parts):
        raise MathematicalInconsistencyError(
            f"decomposition of {point} in {k}*P^{seq} failed: parts {parts}"
        )
    return Decomposition(seq, point, parts)


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
    # tests[i][t]: candidate y_i over z_i < t; a state whose z_i runs to top makes tests[i][top + 1]
    tests = [[0] for _ in seq]
    memo: dict[tuple[int, int, int], tuple[int, ...] | None] = {}

    def least(i: int, z_up: int, reach_up: int) -> tuple[int, ...] | None:
        # i is 0-based; z_up and reach_up belong to the parent at level i + 1
        nonlocal spent
        if i < 0:
            return None if reach_up else ()
        if (i, z_up, reach_up) in memo:
            return memo[i, z_up, reach_up]
        top = seq[i] * z_up // seq[i + 1]
        made = tests[i]
        for z in range(len(made) - 1, top + 1):
            made.append(made[-1] + len(_span(seq, k, i, z)))
        spent += made[top + 1]
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
    """Check kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d) for k = 2..K (default K = max(2, d-1)).

    The layer split proves the identity for every s and k; the transfer
    re-derives it independently.  One budget covers the call: `count` of
    K*P, then the tests of `least_undecomposable` at every k as one running
    total.  Generators of the cone over a d-polytope live in degrees <= d-1,
    so a first failure beyond that cannot occur; larger K is for paranoid
    sweeps.  A witness contradicts the proof and raises
    MathematicalInconsistencyError naming the least target of the smallest
    failing k.
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
            raise MathematicalInconsistencyError(
                f"the layer split proves {k}*P^{seq} = {k - 1}*P + P, but the "
                f"transfer finds no split of {witness}"
            )
    return IdpResult(True, top, None)
