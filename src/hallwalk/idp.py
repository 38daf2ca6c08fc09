"""Integer decomposition property: the layer split and its cross-check.

Every s-lecture hall polytope has the IDP, whatever the order of s.  A
lattice point x of k*P splits into the k layers

    y^(l)_i = min(max(x_i - (l-1)*s_i, 0), s_i),    l = 1, ..., k.

Each layer is an integer point, and y^(l)_i / s_i = clamp(x_i/s_i - l + 1, 0, 1)
is nondecreasing in i because x_i / s_i is, so y^(l) lies in P.  The layers
sum to x because the clamps of t - l + 1 over l = 1..k sum to t for every
t in [0, k].  The top layer is the paper's greedy peel: zero below the
least j with x_j > (k-1)*s_j, and x_i - (k-1)*s_i from j on.  The paper
states it for weakly increasing s, but the i with x_i > (k-1)*s_i form a
suffix for every s, because x_i / s_i is nondecreasing.

The cross-check `is_idp` is independent of the split: it checks the identity
kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d)  level by level, which is
equivalent to full decomposability by induction on k.  No sumset is
formed: y in P and z - y in (k-1)P are chains that couple only adjacent
coordinates, so one pass from z_d down, which keeps per coordinate only
the distinct pairs (z_i, the y_i the suffix leaves open), finds the least
target that does not split.  By the proof above that target does not
exist, so a witness is an inconsistency: `is_idp` returns the largest k it
checked, or raises.  What a state of that pass hands down depends only on
(s_i, s_{i+1}, k) and the state, and a level only on the suffix
(s_i, ..., s_d) and k, so a sweep may share both between its sequences
(`_levels`); each is still charged as if it were built.
"""

from itertools import accumulate

from .errors import MathematicalInconsistencyError, PreconditionError
from .polytope import _chain, check_budget, check_s, contains, count


def _layer(seq, point, level: int) -> tuple[int, ...]:
    """y^(level): the part of point between heights level - 1 and level."""
    return tuple(min(max(a - (level - 1) * v, 0), v) for a, v in zip(point, seq))


def decompose(s, k: int, x) -> tuple[tuple[int, ...], ...]:
    """The k layers of x in k*P^(s), top layer (l = k) first, for every s.

    The parts are lattice points of P^(s) that sum to x; the sum and each
    part's membership are checked once at the end.
    """
    seq = check_s(s)
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    point = tuple(int(v) for v in x)
    if not contains(seq, point, t=k):
        raise PreconditionError(f"{point} is not a lattice point of {k}*P^{seq}")
    parts = tuple(_layer(seq, point, level) for level in range(k, 0, -1))
    if tuple(map(sum, zip(*parts))) != point or not all(_chain(seq, p)[0] for p in parts):
        raise MathematicalInconsistencyError(
            f"decomposition of {point} in {k}*P^{seq} failed: parts {parts}"
        )
    return parts


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


def _roots(seq, k: int):
    """The states the last coordinate hands down, one per value z of it: (z, mask of the y in its span)."""
    for z in range(k * seq[-1] + 1):
        span = _span(seq, k, len(seq) - 1, z)
        yield z, (1 << span.stop) - (1 << span.start) if span else 0


_WORD = 30  # mask bits per charged step: CPython's digit, fixed so that refusals do not depend on the build


def _tests(seq, k: int, i: int, z_ups, budget, spent: int, what: str) -> int:
    """spent plus the tests of level i: a state at z_{i+1} tests every y_i in the spans of z_i = 0..top.

    `z_ups` gives z_{i+1} once per state, in ascending order.  The span
    lengths are summed in step with top, with no table, and the running
    total is checked at each new z_i and after each state, so a refusal
    names at most twice the budget.  A test works on masks of y_{i+1}, of
    up to s_{i+1} + 1 bits, so it is charged 1 + s_{i+1} // _WORD steps.
    Once a memo stores the windows of (s_i, s_{i+1}, k), the prefix sums of
    these tests over z_i stored with them give a level's total instead, and
    this count runs only to refuse a total that would pass the budget, so
    that the refusal names the same partial total.
    """
    width = 1 + seq[i + 1] // _WORD
    tests = z = 0  # tests: the span lengths summed over z_i < z, times width
    for z_up in z_ups:
        while z <= seq[i] * z_up // seq[i + 1]:
            tests += len(_span(seq, k, i, z)) * width
            z += 1
            check_budget(spent + tests, budget, what)
        spent += tests
        check_budget(spent, budget, what)
    return spent


def _window(seq, k: int, i: int, z: int) -> list[tuple[int, int, int]]:
    """(bit of y_i, ceil(s_{i+1} y_i / s_i), ceil(s_{i+1} (z - y_i) / s_i)) per candidate y_i at z_i = z."""
    return [
        (1 << y, -(-seq[i + 1] * y // seq[i]), -(-seq[i + 1] * (z - y) // seq[i]))
        for y in _span(seq, k, i, z)
    ]


def _masks(windows, z_up: int, reach_up: int, top: int) -> list[int]:
    """Per z_i = 0..top, the mask of the y_i that extend the state (z_{i+1}, mask) = (z_up, reach_up).

    y_i extends it when reach_up meets
    [ceil(s_{i+1} y_i / s_i), z_{i+1} - ceil(s_{i+1} (z_i - y_i) / s_i)].
    """
    masks = []
    for window in windows[: top + 1]:
        reach = 0
        for bit, low, high in window:
            if (reach_up & ((2 << (z_up - high)) - 1)) >> low:
                reach |= bit
        masks.append(reach)
    return masks


def _keep(levels: dict, key, entry, weight: int, budget) -> None:
    """Store entry in the memo `levels`, first emptying it if the weight it holds would pass budget.

    `levels["held"]` is the weight of the stored entries: a level's test
    charge, or a window list's number of candidates.
    """
    held = levels.get("held", 0) + weight
    if budget is not None and held > budget:
        levels.clear()
        held = weight
    levels[key] = entry
    levels["held"] = held


def least_undecomposable(s, k: int, budget=None, spent: int = 0, _levels=None):
    """Least z in k*P^(s) cap Z^d with no y in P cap Z^d such that z - y is in (k-1)*P.

    A state (z_i, mask) stands for the suffixes (z_i, ..., z_d) that leave
    the y_i in mask able to extend to a split.  One pass from z_d down keeps
    each coordinate's distinct states and solves each once with `_masks`.
    A state at z_{i+1} tests every candidate y_i over z_i = 0..top, and a
    level's tests join the running total `spent`, charged to `budget`,
    before the level builds anything (with d = 1, one test per target).
    Each test is charged by the width of its masks (`_tests`).  The first
    coordinate's states are not kept: a state with an empty mask is a
    target with no split, and only then does a pass back up name the least
    one.  Returns (z or None, spent).

    `_levels`, a dict the caller creates empty, shares work between calls.
    The masks a state (z_{i+1}, mask) of level i hands down depend only on
    (s_i, s_{i+1}, k, z_{i+1}, mask), so each state is solved once, at every
    level; the windows of (s_i, s_{i+1}, k) are stored with the prefix sums
    of their tests over z_i, and a level i >= 1 with its states and tests,
    since it depends only on (s_i, ..., s_d) and k.  A stored level is
    charged its tests as if it were built, and a level whose windows are
    stored is charged from their prefix sums; one that would pass the
    budget has its tests run again by `_tests`, so that the refusal names
    the same partial total: every (z, spent) and every refusal is the same
    with or without the memo.  The memo's weight, its levels' tests, its
    windows' candidates and its states' masks, never passes `budget`: it
    is emptied before an entry would pass it.
    """
    seq = check_s(s)
    d = len(seq)
    what = f"the IDP transfer of P^{seq} up to {k}*P"
    # i is 0-based.  states[i]: the distinct (z_i, mask of y_i) that level i hands down, for
    # 0 < i < d - 1; the last coordinate alone fixes a root, so roots are produced again, not kept
    states: dict[int, set[tuple[int, int]]] = {}
    windows: dict[int, list[list[tuple[int, int, int]]]] = {}
    shared = _levels is not None

    def handed(i: int):
        return _roots(seq, k) if i == d - 1 else states[i]

    def z_ups(i: int):
        """z_{i+1} once per state that level i + 1 hands down."""
        return range(k * seq[-1] + 1) if i == d - 2 else (z for z, _ in states[i + 1])

    def charged(i: int, tests=None) -> int:
        """spent plus the tests of level i.

        `tests`, or else the stored prefix sums of the level's windows, give
        them in one step if the total stays within budget; otherwise `_tests`
        counts them, and refuses at the same partial total.
        """
        if tests is None and shared and (table := _levels.get((seq[i], seq[i + 1], k))) is not None:
            windows[i], prefix = table
            tests = sum(prefix[seq[i] * z_up // seq[i + 1] + 1] for z_up in z_ups(i))
        if tests is not None and (budget is None or spent + tests <= budget):
            return spent + tests
        return _tests(seq, k, i, sorted(z_ups(i)), budget, spent, what)

    def windows_of(i: int):
        if i not in windows:
            key = (seq[i], seq[i + 1], k)
            if shared and key in _levels:
                windows[i] = _levels[key][0]
            else:
                # z_{i+1} runs up to k*s_{i+1}, so z_i up to k*s_i
                windows[i] = [_window(seq, k, i, z) for z in range(k * seq[i] + 1)]
                if shared:
                    width = 1 + seq[i + 1] // _WORD
                    prefix = list(accumulate((len(window) * width for window in windows[i]), initial=0))
                    _keep(_levels, key, (windows[i], prefix), sum(map(len, windows[i])), budget)
        return windows[i]

    def solver(i: int):
        """`_masks` for level i, or with a memo a function of the same arguments that solves a state once."""
        if not shared:
            return _masks
        low, high = seq[i], seq[i + 1]

        def solve_once(level_windows, z_up: int, reach_up: int, top: int) -> list[int]:
            key = (low, high, k, z_up, reach_up)
            masks = _levels.get(key)
            if masks is None:
                masks = _masks(level_windows, z_up, reach_up, top)
                _keep(_levels, key, masks, len(masks), budget)
            return masks

        return solve_once

    for i in range(d - 2, 0, -1):
        key = (seq[i:], k)
        if shared and key in _levels:
            states[i], tests = _levels[key]
            spent = charged(i, tests)
            continue
        before = spent
        spent = charged(i)
        below = states[i] = set()
        level_windows, solve = windows_of(i), solver(i)
        for z_up, reach_up in handed(i + 1):
            below.update(enumerate(solve(level_windows, z_up, reach_up, seq[i] * z_up // seq[i + 1])))
        if shared:
            _keep(_levels, key, (below, spent - before), spent - before, budget)
    if d == 1:
        spent += (k * seq[0] + 1) * (1 + seq[0] // _WORD)
        check_budget(spent, budget, what)
        empty = {z for z, reach in _roots(seq, k) if not reach}
    else:
        spent = charged(0)
        empty = set()
        level_windows, solve = windows_of(0), solver(0)
        for z_up, reach_up in handed(1):
            masks = solve(level_windows, z_up, reach_up, seq[0] * z_up // seq[1])
            if not all(masks):
                empty.update(z for z, reach in enumerate(masks) if not reach)
    if not empty:
        return None, spent
    # least[state]: the least missing prefix (z_0, ..., z_i) below a state at z_{i+1}, if it has one
    least = {(z, 0): () for z in empty}
    for i in range(d - 1):
        solved = {}
        level_windows, solve = windows_of(i), solver(i)
        for z_up, reach_up in handed(i + 1):
            masks = solve(level_windows, z_up, reach_up, seq[i] * z_up // seq[i + 1])
            found = [least[z, reach] + (z,) for z, reach in enumerate(masks) if (z, reach) in least]
            if found:
                solved[z_up, reach_up] = min(found)
        least = solved
    return min(prefix + (z,) for (z, _), prefix in least.items()), spent


def is_idp(s, k_max=None, budget=None, _levels=None) -> int:
    """Check kP cap Z^d == ((k-1)P cap Z^d) + (P cap Z^d) for k = 2..K (default K = max(2, d-1)); return K.

    The layer split proves the identity for every s and k; the transfer
    re-derives it independently.  One budget covers the call: `count` of
    K*P, then the tests of `least_undecomposable` at every k as one running
    total, charged a level at a time before the level builds anything.
    `_levels` is the transfer's memo, which `search` shares between the
    records of one run; it changes no result, charge or refusal.
    Generators of the cone over a d-polytope live in degrees <= d-1, so a
    first failure beyond that cannot occur; larger K is for paranoid sweeps.
    A witness contradicts the proof and raises MathematicalInconsistencyError
    naming the least target of the smallest failing k.
    """
    seq = check_s(s)
    top = max(2, len(seq) - 1) if k_max is None else int(k_max)
    if top < 2:
        raise PreconditionError(f"k_max must be >= 2, got {k_max}")
    count(seq, top, budget=budget)
    spent = 0
    for k in range(2, top + 1):
        witness, spent = least_undecomposable(seq, k, budget, spent, _levels=_levels)
        if witness is not None:
            raise MathematicalInconsistencyError(
                f"the layer split proves {k}*P^{seq} = {k - 1}*P + P, but the "
                f"transfer finds no split of {witness}"
            )
    return top
