"""s-sequences and their lecture hall polytopes.

The polytope of a positive integer sequence s = (s_1, ..., s_d) is

    { x in R^d : 0 <= x_1/s_1 <= x_2/s_2 <= ... <= x_d/s_d <= 1 },

cut out by d+1 facet rows: -x_1 <= 0, then s_{i+1} x_i - s_i x_{i+1} <= 0
for each adjacent pair, then x_d <= s_d (t*s_d for the dilate t*P^(s)).
Points are stored in ascending index order (x_1, ..., x_d) everywhere;
vertex matrices displayed elsewhere with x_d on top are re-indexed at the
boundary.  All arithmetic is exact.  `contains` checks s, then calls
`_chain`, the one evaluator of the facet rows, which callers with many
points of one checked s call directly, as they call `_reflect`.
"""

from itertools import accumulate, repeat
from operator import floordiv, mul, sub

from .errors import BudgetExceededError, DimensionError


def check_s(s) -> tuple[int, ...]:
    """Validate and normalize an s-sequence to a tuple of positive ints."""
    seq = tuple(map(int, s))
    if not seq:
        raise ValueError("s-sequence must have length >= 1")
    if min(seq) < 1:
        raise ValueError(f"s-sequence entries must be positive, got {seq}")
    return seq


def parse_s(text: str) -> tuple[int, ...]:
    """Parse a comma-separated sequence such as '2,3,4'."""
    try:
        return check_s(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse s-sequence from {text!r}: {exc}") from None


def reverse(s) -> tuple[int, ...]:
    """The reversed sequence; its polytope is unimodularly equivalent."""
    return tuple(check_s(s)[::-1])


def contains(s, point, t: int = 1, strict: bool = False) -> bool:
    """Membership of a point (ints or Fractions) in t*P^(s), or its interior if strict, by `_chain`."""
    seq = check_s(s)
    if t < 1:
        raise ValueError(f"dilation factor must be >= 1, got {t}")
    if len(point) != len(seq):
        raise DimensionError(f"point has length {len(point)}, expected {len(seq)}")
    inside, tight = _chain(seq, point, t)
    return inside and not (strict and tight)


def _chain(seq, point, t: int = 1) -> tuple[bool, int]:
    """(inside, tight) of a point of length d against the d+1 facet rows of t*P^(seq), for a checked seq.

    The d+1 slacks, row r at bit r, are x_1, then s_i x_{i+1} - s_{i+1} x_i
    for each adjacent pair, then t*s_d - x_d.  inside: every slack is >= 0.
    tight: the bitmask of the rows whose slack is 0, outside points included.
    """
    slacks = [point[0], *map(sub, map(mul, seq, point[1:]), map(mul, seq[1:], point)), t * seq[-1] - point[-1]]
    tight = 0
    for row, slack in enumerate(slacks):
        if not slack:
            tight |= 1 << row
    return min(slacks) >= 0, tight


DEFAULT_BUDGET = 10_000_000


def check_budget(cost: int, budget, what: str) -> None:
    """Refuse work of `cost` steps over `budget` before doing it; None means unlimited.

    Every guard in the package calls this with the exact size of the work
    it is about to do, or with a running total that already includes it.
    """
    if budget is not None and cost > budget:
        raise BudgetExceededError(f"{what} takes {cost} steps, over budget {budget}")


def _count_cells(seq, t: int, dilates: int = 1) -> int:
    """Cells that `count` fills for `dilates` dilates whose factors sum to t: t*s_i + 1 per level, and per prefix array but the last."""
    return t * (2 * sum(seq) - seq[-1]) + dilates * (2 * len(seq) - 1)


def _charge_count(seq, t: int, budget) -> None:
    """Refuse `count(seq, t)` over budget, t >= 1, by `_count_cells`."""
    check_budget(_count_cells(seq, t), budget, f"counting the points of {t}*P^{seq}")


def count(s, t: int, budget=None) -> int:
    """Number of lattice points of t*P^(s); 1 for t = 0.

    Computed level by level with prefix sums over the chain bounds, which
    agrees with len(lattice_points(s, t)) but never materializes points.
    Charged by `_charge_count` before anything is allocated.
    """
    seq = check_s(s)
    if t < 0:
        raise ValueError(f"dilation factor must be >= 0, got {t}")
    if t == 0:
        return 1
    _charge_count(seq, t, budget)
    # counts[v] = number of admissible prefixes (x_1, ..., x_i) with x_i = v
    counts = [1] * (t * seq[0] + 1)
    for a, b in zip(seq, seq[1:]):
        prefix = list(accumulate(counts))
        # counts[w] = prefix[w * a // b] for w = 0..t*b, with the loops in C
        counts = list(map(prefix.__getitem__, map(floordiv, range(0, t * b * a + 1, a), repeat(b))))
    return sum(counts)


def lattice_points(s, t: int = 1, budget=None) -> list[tuple[int, ...]]:
    """All integer points of t*P^(s), in ascending (x_d, ..., x_1) lex order.

    Recursion descends from x_d with the chain bound
    x_i <= floor(s_i * x_{i+1} / s_{i+1}); only feasible nodes are visited.
    Refused when the number of points, found by `count`, exceeds `budget`.
    """
    seq = check_s(s)
    if t < 0:
        raise ValueError(f"dilation factor must be >= 0, got {t}")
    d = len(seq)
    if t == 0:
        return [tuple([0] * d)]
    check_budget(count(seq, t, budget=budget), budget, f"listing the points of {t}*P^{seq}")
    out: list[tuple[int, ...]] = []
    point = [0] * d

    def descend(i: int, bound: int) -> None:
        # i is 1-based; bound is the integer cap for x_i.
        if i == 1:
            for v in range(bound + 1):
                point[0] = v
                out.append(tuple(point))
            return
        for v in range(bound + 1):
            point[i - 1] = v
            descend(i - 1, seq[i - 2] * v // seq[i - 1])

    descend(d, t * seq[d - 1])
    return out


def _reflect(seq, point, t: int = 1) -> tuple:
    """Map a point of t*P^(seq) to t*P^(reverse(seq)) via y_i = t*s_{d+1-i} - x_{d+1-i}, for a checked seq.

    This is the standard affine unimodular equivalence between a lecture
    hall polytope and its reversed-sequence twin; it is an involution when
    composed with itself across the two sequences.
    """
    return tuple(t * v - x for v, x in zip(reversed(seq), reversed(point)))
