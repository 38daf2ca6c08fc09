"""Integer decomposition property: greedy peeling and brute-force checking.

For weakly increasing s, a lattice point x of k*P peels greedily: take the
smallest index j with x_j > (k-1)*s_j and subtract (k-1)*s from the tail
starting at j (nothing to peel means the point already sits in (k-1)*P).
The peeled part lies in P and the remainder in (k-1)*P, which gives a full
k-part decomposition by iteration.  Decreasing sequences are handled by
reversing first; the reversal equivalence is affine, so mapped parts still
sum to the original point.

The decision procedure is independent of the peel: it checks the sumset
identity  kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d)  level by level,
which is equivalent to full decomposability by induction on k.
"""

from dataclasses import dataclass

from .errors import MathematicalInconsistencyError, PreconditionError, UnsupportedSequenceError
from .polytope import check_budget, check_s, contains, lattice_points, reflect, reverse


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
    """Lexicographically least target not expressible as lower + ground."""
    sums = {tuple(a + b for a, b in zip(u, v)) for u in lower for v in ground}
    missing = [z for z in targets if z not in sums]
    return min(missing) if missing else None


def is_idp(s, k_max=None, budget=None) -> IdpResult:
    """Check the sumset identity for k = 2..K (default K = max(2, d-1)).

    Generators of the cone over a d-polytope live in degrees <= d-1, so a
    first sumset failure beyond that cannot occur; larger K is available
    for paranoid sweeps.  On failure the smallest failing k and the least
    witness point are reported.
    """
    seq = check_s(s)
    d = len(seq)
    top = max(2, d - 1) if k_max is None else int(k_max)
    if top < 2:
        raise PreconditionError(f"k_max must be >= 2, got {k_max}")
    ground = lattice_points(seq, 1, budget=budget)
    lower = ground
    for k in range(2, top + 1):
        check_budget(len(lower) * len(ground), budget, f"the sumset of {seq} at k={k}")
        targets = lattice_points(seq, k, budget=budget)
        witness = first_undecomposable(targets, lower, ground)
        if witness is not None:
            return IdpResult(False, k, witness)
        lower = targets
    return IdpResult(True, top, None)
