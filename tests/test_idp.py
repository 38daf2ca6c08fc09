import random
import re
import tracemalloc
from itertools import product

import pytest

from hallwalk import DEFAULT_BUDGET, idp
from hallwalk.errors import BudgetExceededError, MathematicalInconsistencyError, PreconditionError
from hallwalk.idp import (
    decompose,
    first_undecomposable,
    is_idp,
    least_undecomposable,
)
from hallwalk.polytope import check_s, contains, lattice_points
from oracles import greedy_peel


def small_sequences(dmax, smax):
    for d in range(1, dmax + 1):
        yield from product(range(1, smax + 1), repeat=d)


def weakly_monotone(dmax, smax):
    for d in range(1, dmax + 1):
        for s in product(range(1, smax + 1), repeat=d):
            inc = all(a <= b for a, b in zip(s, s[1:]))
            dec = all(a >= b for a, b in zip(s, s[1:]))
            if inc or dec:
                yield s


def test_greedy_peel_examples():
    assert greedy_peel((1, 2), 2, (1, 3)) == (0, 1)  # only x_2 exceeds (k-1)s
    assert greedy_peel((1, 2), 2, (2, 4)) == (1, 2)  # x_1 already exceeds
    assert greedy_peel((2, 3), 3, (0, 0)) == (0, 0)  # nothing to peel


def test_decompose_preconditions():
    with pytest.raises(PreconditionError):
        decompose((1, 2), 2, (5, 5))
    with pytest.raises(PreconditionError):
        decompose((1, 2), 0, (0, 0))


def test_greedy_peel_postconditions_exhaustive_small():
    for s in small_sequences(3, 4):
        for k in (2, 3):
            for x in lattice_points(s, k):
                y = greedy_peel(s, k, x)
                rest = tuple(a - b for a, b in zip(x, y))
                assert contains(s, y)
                assert contains(s, rest, t=k - 1)


def test_decompose_examples():
    assert decompose((1, 2), 2, (1, 3)) == ((0, 1), (1, 2))
    assert decompose((2, 3), 1, (1, 2)) == ((1, 2),)
    parts = decompose((2, 2), 2, (2, 4))
    assert tuple(sum(c) for c in zip(*parts)) == (2, 4)
    assert all(contains((2, 2), p) for p in parts)


def test_decompose_handles_decreasing_sequences():
    s = (4, 2, 1)
    for k in (2, 3):
        for x in lattice_points(s, k):
            parts = decompose(s, k, x)
            assert len(parts) == k
            assert tuple(sum(c) for c in zip(*parts)) == x
            assert all(contains(s, p) for p in parts)


def test_decompose_splits_non_monotone_sequences():
    # layer l clamps x_i/s_i - l + 1 to [0, 1]; the ratios x_i/s_i here are 1/2, 1, 3/2 and 4/3, 2, 5/2
    assert decompose((2, 1, 2), 2, (1, 1, 3)) == ((0, 0, 1), (1, 1, 2))
    assert decompose((3, 1, 2), 3, (4, 2, 5)) == ((0, 0, 1), (1, 1, 2), (3, 1, 2))


def test_layers_split_every_point_for_every_s():
    for s in small_sequences(3, 4):
        for k in (1, 2, 3):
            for x in lattice_points(s, k):
                parts = decompose(s, k, x)
                assert len(parts) == k
                assert all(contains(s, p) for p in parts), (s, k, x)
                assert tuple(sum(c) for c in zip(*parts)) == x
                if k > 1:
                    assert parts[0] == greedy_peel(s, k, x)


def test_is_idp_examples():
    assert is_idp((1, 1, 1)) == 2
    assert is_idp((2, 3)) == 2
    assert is_idp((2, 1, 2)) == 2  # composition of two IDP segments


def test_is_idp_monotone_small_range():
    for s in weakly_monotone(3, 4):
        assert is_idp(s) == max(2, len(s) - 1), s


def test_is_idp_default_and_custom_k():
    assert is_idp((2, 3, 4, 5)) == 3  # d - 1
    assert is_idp((2, 3), k_max=4) == 4
    with pytest.raises(PreconditionError):
        is_idp((2, 3), k_max=1)


def test_is_idp_budget():
    with pytest.raises(BudgetExceededError):
        is_idp((6, 6, 6, 6), budget=500)


def undecomposable_targets(s, k: int) -> list[tuple[int, ...]]:
    """All z in k*P^(s) cap Z^d with no y in P cap Z^d such that z - y is in (k-1)*P.

    The unmemoized walk, kept as a second oracle: it visits every target
    from z_d down and carries the bitmask of y_i for which some y_i, ...,
    y_d satisfies both chains on the suffix fixed so far.  It reads the
    same `idp._span` as `least_undecomposable`.
    """
    seq = check_s(s)
    d = len(seq)
    spans = [[idp._span(seq, k, i, z) for z in range(k * v + 1)] for i, v in enumerate(seq)]
    # windows[i][z]: (bit of y_i, ceil(s_{i+1} y_i / s_i), ceil(s_{i+1} (z - y_i) / s_i))
    # per candidate y_i
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


def memoized_least(s, k: int, spent: int = 0):
    """The recursive transfer that the level pass replaced, kept as the oracle of its witness and charges.

    least(i, z_{i+1}, mask) is solved on its first visit, depth first, and
    memoized; its tests over z_i = 0..top join `spent` when it is first visited.
    It reads the same `idp._span` as `least_undecomposable`.
    """
    seq = check_s(s)
    d = len(seq)

    def window(i, z):
        # (bit of y_i, ceil(s_{i+1} y_i / s_i), ceil(s_{i+1} (z - y_i) / s_i)) per candidate y_i
        return [
            (1 << y, -(-seq[i + 1] * y // seq[i]), -(-seq[i + 1] * (z - y) // seq[i]))
            for y in idp._span(seq, k, i, z)
        ]

    windows = [[window(i, z) for z in range(k * seq[i] + 1)] for i in range(d - 1)]
    memo = {}

    def least(i, z_up, reach_up):
        # i is 0-based; z_up and reach_up belong to the parent at level i + 1
        nonlocal spent
        if i < 0:
            return None if reach_up else ()
        if (i, z_up, reach_up) not in memo:
            top = seq[i] * z_up // seq[i + 1]
            spent += sum(len(idp._span(seq, k, i, z)) for z in range(top + 1))
            best = None
            for z in range(top + 1):
                reach = 0
                for bit, low, high in windows[i][z]:
                    if (reach_up & ((2 << (z_up - high)) - 1)) >> low:
                        reach |= bit
                below = least(i - 1, z, reach)
                if below is not None and (best is None or below + (z,) < best):
                    best = below + (z,)
            memo[i, z_up, reach_up] = best
        return memo[i, z_up, reach_up]

    if d == 1:
        spent += k * seq[0] + 1
    found = []
    for z in range(k * seq[-1] + 1):
        span = idp._span(seq, k, d - 1, z)
        below = least(d - 2, z, (1 << span.stop) - (1 << span.start) if span else 0)
        if below is not None:
            found.append(below + (z,))
    return min(found, default=None), spent


def least_of(missing):
    return min(missing) if missing else None


def walk_tests(s, k):
    """Tests the walk makes: one per candidate y_i at each node (z_i, ..., z_d), i < d."""
    return sum(
        len(idp._span(s, k, i, z[0]))
        for i in range(len(s) - 1)
        for z in {p[i:] for p in lattice_points(s, k)}
    )


@pytest.mark.parametrize("s, tests, walk", [((2, 3), 34, 34), ((2, 2, 2, 2), 261, 831)], ids=["d2", "d4"])
def test_is_idp_budget_is_the_running_total(s, tests, walk):
    # one total over k = 2..K; the count of K*P charges fewer cells (17 and 49).
    # Below a node the transfer depends only on (i, z_{i+1}, mask), so at d = 4
    # its states make fewer tests than the walk's nodes.
    assert sum(walk_tests(s, k) for k in range(2, max(2, len(s) - 1) + 1)) == walk
    with pytest.raises(BudgetExceededError, match="IDP transfer"):
        is_idp(s, budget=tests - 1)
    assert is_idp(s, budget=tests) == max(2, len(s) - 1)


def test_default_budget_refuses_no_small_sequence():
    for s in product(range(1, 4), repeat=6):
        assert is_idp(s, budget=DEFAULT_BUDGET) == 5, s


def oracle_missing(targets, lower, ground):
    """Every target the sumset oracle cannot reach, peeled off one least witness at a time."""
    missing = set()
    while (z := first_undecomposable([t for t in targets if t not in missing], lower, ground)) is not None:
        missing.add(z)
    return missing


def test_walk_matches_the_sumset_oracle():
    for s in small_sequences(4, 4):
        ground = lattice_points(s, 1)
        lower = ground
        for k in (2, 3):
            targets = lattice_points(s, k)
            expected = oracle_missing(targets, lower, ground)
            assert set(undecomposable_targets(s, k)) == expected, (s, k)
            assert least_undecomposable(s, k)[0] == least_of(expected), (s, k)
            lower = targets


@pytest.fixture
def ground_below_top(monkeypatch):
    """Plant a failure: parts y must have y_d < s_d, so P loses its points with x_d = s_d."""
    span = idp._span

    def planted(seq, k, i, z):
        r = span(seq, k, i, z)
        return range(r.start, min(r.stop, seq[i]))

    monkeypatch.setattr(idp, "_span", planted)


def raises_witness(s, k, witness):
    """is_idp's refusal when the transfer finds `witness` at level k, against the layer split."""
    return pytest.raises(
        MathematicalInconsistencyError,
        match=re.escape(f"proves {k}*P^{s} = {k - 1}*P + P, but the transfer finds no split of {witness}"),
    )


@pytest.mark.parametrize("s", [(2, 3), (1, 2, 3), (3, 1, 2), (2, 2)])
def test_planted_failure_matches_the_oracle(ground_below_top, s):
    ground = [p for p in lattice_points(s, 1) if p[-1] < s[-1]]
    for k in (2, 3):
        missing = undecomposable_targets(s, k)
        assert missing  # leaves with an empty mask
        assert set(missing) == oracle_missing(lattice_points(s, k), lattice_points(s, k - 1), ground)
        assert least_undecomposable(s, k)[0] == min(missing)
    least = first_undecomposable(lattice_points(s, 2), lattice_points(s, 1), ground)
    with raises_witness(s, 2, least):
        is_idp(s, k_max=3)


def test_planted_failure_reports_the_least_witness(ground_below_top):
    # the points of 2P^(2,3) with z_2 = 6 need y_2 = 3, which the planted ground lacks
    assert sorted(undecomposable_targets((2, 3), 2)) == [(0, 6), (1, 6), (2, 6), (3, 6), (4, 6)]
    with raises_witness((2, 3), 2, (0, 6)):
        is_idp((2, 3), k_max=3)


def narrow(r, rng):
    """r itself, or a random nonempty subrange of it."""
    if len(r) < 2 or rng.random() < 0.7:
        return r
    start = rng.randrange(r.start, r.stop)
    return range(start, rng.randrange(start, r.stop) + 1)


def test_walk_matches_brute_force_under_random_restrictions(monkeypatch):
    # Real polytopes miss no target, so the chain tests are checked here on
    # failures planted by narrowing random spans: y_i must also lie in a
    # random subrange chosen per (level, z_i).
    rng = random.Random(5)
    span = idp._span
    for s in small_sequences(3, 3):
        for k in (2, 3):
            narrowed = [[narrow(span(s, k, i, z), rng) for z in range(k * v + 1)] for i, v in enumerate(s)]
            monkeypatch.setattr(idp, "_span", lambda seq, k, i, z: narrowed[i][z])
            lower = set(lattice_points(s, k - 1))
            expected = {
                z for z in lattice_points(s, k)
                if not any(
                    all(y[i] in narrowed[i][z[i]] for i in range(len(s)))
                    and tuple(a - b for a, b in zip(z, y)) in lower
                    for y in lattice_points(s, 1)
                )
            }
            assert set(undecomposable_targets(s, k)) == expected, (s, k)
            assert least_undecomposable(s, k)[0] == least_of(expected), (s, k)


def test_level_pass_charges_as_the_memoized_transfer():
    # the same running total from any starting total, and the budget refuses exactly above it
    for s in small_sequences(4, 4):
        for k in (2, 3):
            witness, spent = memoized_least(s, k, spent=5)
            assert least_undecomposable(s, k, spent=5) == (witness, spent), (s, k)
            assert least_undecomposable(s, k, budget=spent, spent=5)[1] == spent
            with pytest.raises(BudgetExceededError, match="IDP transfer"):
                least_undecomposable(s, k, budget=spent - 1, spent=5)


@pytest.mark.parametrize("s, width", [((60,), 3), ((2, 60), 3), ((2, 30), 2), ((90, 29), 1)])
def test_transfer_charges_each_test_by_the_width_of_its_masks(s, width):
    # with d = 2 each test is charged 1 + s_2 // 30 steps, and with d = 1 each target 1 + s_1 // 30
    witness, tests = memoized_least(s, 2)
    assert least_undecomposable(s, 2) == (witness, width * tests)


def test_level_pass_matches_the_memoized_transfer_on_planted_failures(ground_below_top):
    for s in small_sequences(4, 4):
        for k in (2, 3):
            result = least_undecomposable(s, k)
            assert result[0] is not None
            assert result == memoized_least(s, k), (s, k)


def test_level_pass_matches_the_memoized_transfer_under_random_restrictions(monkeypatch):
    rng = random.Random(13)
    span = idp._span
    failures = 0
    for s in small_sequences(4, 4):
        for k in (2, 3):
            narrowed = [[narrow(span(s, k, i, z), rng) for z in range(k * v + 1)] for i, v in enumerate(s)]
            monkeypatch.setattr(idp, "_span", lambda seq, k, i, z: narrowed[i][z])
            result = least_undecomposable(s, k)
            assert result == memoized_least(s, k), (s, k)
            failures += result[0] is not None
    assert failures > 100  # most draws plant a failure somewhere


def shuffled_small(seed):
    seqs = list(small_sequences(4, 4))
    random.Random(seed).shuffle(seqs)
    return seqs


def assert_shared_levels_change_nothing(calls, seed):
    """Every s with d <= 4 and s_i <= 4 at k = 2, 3, in a shuffled order, with and without one memo.

    Returns how many (s, k) have a witness.  `calls` gains an entry per
    `_masks` call; the memo must save some, or the comparison would not
    reach a shared level.
    """
    memo = {}
    witnesses = saved = 0
    for s in shuffled_small(seed):
        for k in (2, 3):
            before = len(calls)
            plain = least_undecomposable(s, k, spent=5)
            middle = len(calls)
            assert least_undecomposable(s, k, spent=5, _levels=memo) == plain, (s, k)
            saved += 2 * middle - before - len(calls)
            witnesses += plain[0] is not None
    assert saved > 0
    return witnesses


def test_shared_levels_change_no_witness_or_charge(masks_calls):
    assert assert_shared_levels_change_nothing(masks_calls, seed=3) == 0


def test_shared_levels_name_the_same_planted_witness(ground_below_top, masks_calls):
    # the witness pass reads the stored levels' states and windows
    assert assert_shared_levels_change_nothing(masks_calls, seed=4) == 2 * 340


def test_shared_levels_under_random_restrictions(monkeypatch, masks_calls):
    # the narrowed span is drawn once per (s_i, k, z_i), so it is a function of what the memo's
    # keys fix, as the real span is
    rng = random.Random(21)
    span = idp._span
    narrowed = {}

    def restricted(seq, k, i, z):
        if (seq[i], k, z) not in narrowed:
            narrowed[seq[i], k, z] = narrow(span(seq, k, i, z), rng)
        return narrowed[seq[i], k, z]

    monkeypatch.setattr(idp, "_span", restricted)
    assert assert_shared_levels_change_nothing(masks_calls, seed=5) > 100


def test_shared_levels_refuse_at_the_same_partial_total():
    # a stored level that would pass the budget is refused where a built one is
    memo = {}
    rng = random.Random(8)
    for s in shuffled_small(6):
        for k in (2, 3):
            _, spent = least_undecomposable(s, k, spent=5, _levels=memo)
            for budget in {spent - 1, rng.randrange(5, spent)}:
                with pytest.raises(BudgetExceededError) as plain:
                    least_undecomposable(s, k, budget=budget, spent=5)
                with pytest.raises(BudgetExceededError) as shared:
                    least_undecomposable(s, k, budget=budget, spent=5, _levels=dict(memo))
                assert str(shared.value) == str(plain.value), (s, k, budget)


def level_totals(monkeypatch, s, k, spent):
    """level i -> the running totals before and after it, in the memo-free transfer from `spent`."""
    totals = {}
    tests = idp._tests

    def recorded(seq, k, i, z_ups, budget, spent, what):
        totals[i] = spent, tests(seq, k, i, z_ups, budget, spent, what)
        return totals[i][1]

    with monkeypatch.context() as patched:
        patched.setattr(idp, "_tests", recorded)
        least_undecomposable(s, k, spent=spent)
    return totals


@pytest.mark.parametrize(
    "s, level",
    [((3, 5), 0), ((2, 3, 4), 0), ((4, 2, 3), 1), ((2, 3, 2, 4), 0), ((2, 3, 2, 4), 1), ((3, 3, 4, 2), 2)],
)
def test_refusal_inside_a_level_charged_from_stored_prefix_sums(monkeypatch, s, level):
    # the memo holds the windows of (s_i, s_{i+1}, k) but not the level (s_i, ..., s_d), so the
    # level is charged from the stored prefix sums; any budget inside it is refused as without a memo
    for k in (2, 3):
        memo = {}
        least_undecomposable(s[level:], k, _levels=memo)
        assert (s[level], s[level + 1], k) in memo and (s[level:], k) not in memo
        before, after = level_totals(monkeypatch, s, k, spent=5)[level]
        assert after - before > 2
        for budget in (before, (before + after) // 2, after - 1):
            with pytest.raises(BudgetExceededError) as plain:
                least_undecomposable(s, k, budget=budget, spent=5)
            with pytest.raises(BudgetExceededError) as shared:
                least_undecomposable(s, k, budget=budget, spent=5, _levels=dict(memo))
            assert str(shared.value) == str(plain.value), (s, k, budget)


@pytest.mark.parametrize("s, tests", [((2, 3), 34), ((2, 2, 2, 2), 261)], ids=["d2", "d4"])
def test_shared_levels_keep_the_budget_boundary(s, tests):
    memo = {}
    for other in shuffled_small(7):
        is_idp(other, _levels=memo)
    assert ((2, 2, 2), 3) in memo
    with pytest.raises(BudgetExceededError) as plain:
        is_idp(s, budget=tests - 1)
    with pytest.raises(BudgetExceededError) as shared:
        is_idp(s, budget=tests - 1, _levels=dict(memo))
    assert str(shared.value) == str(plain.value)
    assert is_idp(s, budget=tests, _levels=dict(memo)) == max(2, len(s) - 1)


def memo_weight(key, entry) -> int:
    """What a memo entry weighs, read off its shape: a level (suffix, k) its tests, the windows of
    (s_i, s_{i+1}, k) their candidates, and a state (s_i, s_{i+1}, k, z_{i+1}, mask) its masks."""
    if len(key) == 2:
        return entry[1]
    if len(key) == 3:
        windows, prefix = entry
        assert len(prefix) == len(windows) + 1
        return sum(map(len, windows))
    assert len(key) == 5
    return len(entry)


def test_shared_levels_hold_at_most_the_budget():
    # the memo is emptied, not grown
    memo = {}
    emptied = 0
    for s in shuffled_small(9):
        held = memo.get("held", 0)
        try:
            least_undecomposable(s, 3, budget=500, _levels=memo)
        except BudgetExceededError:
            pass
        weights = [memo_weight(key, entry) for key, entry in memo.items() if key != "held"]
        assert memo.get("held", 0) == sum(weights) <= 500
        emptied += memo.get("held", 0) < held
    assert emptied > 10


def peak_bytes(work):
    """The peak of the memory Python allocates while work() runs."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transfer_refuses_before_it_allocates():
    # below z_2 = 1 a state tests y_1 over z_1 = 0..10^6; a table of its span
    # lengths alone would take about 40 MB
    def refused():
        with pytest.raises(BudgetExceededError, match="IDP transfer"):
            least_undecomposable((10**6, 1), 2, budget=1000)

    assert peak_bytes(refused) < 1_000_000


def test_transfer_keeps_no_root_masks():
    # the 8,001 roots of P^(1,4000) carry masks of up to 4,001 bits, 3 MB
    # together; only the states at z_1 = 0, 1, 2 need to be kept
    assert peak_bytes(lambda: least_undecomposable((1, 4000), 2)) < 1_000_000


def test_is_idp_reports_the_least_witness_of_the_first_failing_k(monkeypatch):
    witnesses = {2: None, 3: (1, 6)}
    monkeypatch.setattr(
        idp, "least_undecomposable", lambda s, k, budget, spent, _levels=None: (witnesses.get(k, (0, 0)), spent)
    )
    with raises_witness((2, 3), 3, (1, 6)):
        is_idp((2, 3), k_max=4)


def test_first_undecomposable_is_order_independent():
    ground = [(0, 0), (1, 0), (0, 1)]
    targets = [(2, 0), (1, 1), (0, 2), (2, 2)]  # (2,2) has no two-part split
    forward = first_undecomposable(targets, ground, ground)
    backward = first_undecomposable(list(reversed(targets)), list(reversed(ground)), ground)
    assert forward == backward == (2, 2)
    assert first_undecomposable([(1, 1)], ground, ground) is None
