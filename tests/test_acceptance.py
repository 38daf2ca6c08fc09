"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every check is exact (integer or rational equality, zero tolerance).  The
conditions the classification theorems assert are re-implemented locally
here, so the library is always compared against an independent reading.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json
import random
from itertools import combinations, product
from math import prod

from hallwalk.classify import classify, gorenstein_index
from hallwalk.cli import main as cli_main
from hallwalk.delta import degree, delta_vector, is_symmetric
from hallwalk.ehrhart import count, delta_from_counts, dilate_counts
from hallwalk.freesum import composite_sequence, gorenstein_compose, idp_compose, poly_mul
from hallwalk.idp import is_idp
from hallwalk.polytope import contains, lattice_points, reverse
from hallwalk.triangulate import chimney_triangulation, verify_triangulation
from oracles import check_decomposition, dilate, dual_is_lattice, greedy_peel, is_unimodal, translated_hrep

BUDGET = 10_000_000


def report(name: str, failures: list, checked: int) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status} ({checked} cases)")
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[0]}"


def exhaustive_sequences(dmax: int, smax: int):
    for d in range(1, dmax + 1):
        yield from product(range(1, smax + 1), repeat=d)


def random_budgeted_sequences(n: int, seed: int = 2026):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        d = rng.randint(1, 6)
        s = tuple(rng.randint(1, 9) for _ in range(d))
        if prod(s) * (d + 1) ** d <= BUDGET:
            out.append(s)
    return out


def criterion_range():
    yield from exhaustive_sequences(4, 4)
    yield from random_budgeted_sequences(100)


def test_criterion_1_oracle_equivalence():
    failures = []
    checked = 0
    for s in criterion_range():
        checked += 1
        ascent_route = delta_vector(s)
        counting_route = delta_from_counts(dilate_counts(s, budget=BUDGET))
        if ascent_route != counting_route:
            failures.append((s, ascent_route, counting_route))
    assert checked == 340 + 100
    report("criterion 1: oracle equivalence", failures, checked)


def test_criterion_2_delta_identities():
    failures = []
    checked = 0
    for s in criterion_range():
        checked += 1
        d = len(s)
        dv = delta_vector(s)
        interior = sum(1 for p in lattice_points(s, 1, budget=BUDGET) if contains(s, p, strict=True))
        ok = (
            dv[0] == 1
            and dv[1] == count(s, 1, budget=BUDGET) - (d + 1)
            and dv[d] == interior
            and sum(dv) == prod(s)
            and is_unimodal(dv)
            and (dv[d] == 0 or all(dv[1] <= dv[i] for i in range(1, d)))
        )
        if not ok:
            failures.append((s, dv))
    report("criterion 2: delta identities", failures, checked)


def _check_class_protocol(s, fano_expected, interior_expected, divisibility_expected, failures):
    dv = delta_vector(s)
    d = len(s)
    if fano_expected != (dv[d] == 1):
        failures.append((s, "fano", fano_expected, dv))
        return
    c = classify(s)  # internal cross-assertions must not raise
    if c["fano_theorem"] != fano_expected:
        failures.append((s, "fano_theorem", c["fano_theorem"]))
        return
    if not fano_expected:
        return
    interior = [p for p in lattice_points(s, 1) if contains(s, p, strict=True)]
    if interior != [interior_expected] or c["interior_point"] != interior_expected:
        failures.append((s, "interior", interior, interior_expected))
        return
    dual_lattice = dual_is_lattice(translated_hrep(s))
    symmetric = is_symmetric(dv) and degree(dv) == d
    if not (divisibility_expected == dual_lattice == symmetric == c["reflexive_theorem"]):
        failures.append((s, "reflexive", divisibility_expected, dual_lattice, symmetric))


def test_criterion_3_strictly_increasing_theorems():
    failures = []
    checked = 0
    for d in range(1, 5):
        for s in combinations(range(1, 9), d):
            checked += 1
            fano = s[0] == 2 and all(b <= 2 * a for a, b in zip(s, s[1:]))
            interior = tuple(v - 1 for v in s)
            divisibility = all(
                a % (b - a) == 0 and b % (b - a) == 0 for a, b in zip(s, s[1:])
            )
            _check_class_protocol(s, fano, interior, divisibility, failures)
    report("criterion 3: strictly increasing Fano/reflexive theorems", failures, checked)


def test_criterion_4_other_class_theorems():
    failures = []
    checked = 0
    # constant then strictly increasing, d <= 4, values <= 8
    for d in range(1, 5):
        for s in product(range(1, 9), repeat=d):
            run = 1
            while run < d and s[run] == s[0]:
                run += 1
            if not all(a < b for a, b in zip(s[run - 1 :], s[run:])):
                continue
            checked += 1
            fano = s[0] == run + 1 and all(b <= 2 * a for a, b in zip(s[run - 1 :], s[run:]))
            interior = tuple(i + 1 if i < run else s[i] - 1 for i in range(d))
            divisibility = all(
                a % (b - a) == 0 and b % (b - a) == 0
                for a, b in zip(s[run - 1 :], s[run:])
            )
            _check_class_protocol(s, fano, interior, divisibility, failures)
    # increasing by at most one, d <= 5, values <= 6
    for d in range(1, 6):
        for s in product(range(1, 7), repeat=d):
            if not all(0 <= b - a <= 1 for a, b in zip(s, s[1:])):
                continue
            checked += 1
            fano = s[-1] == d + 1
            interior = tuple(range(1, d + 1))
            divisibility = all(
                s[i] % ((i + 2) * s[i] - (i + 1) * s[i + 1]) == 0
                and s[i + 1] % ((i + 2) * s[i] - (i + 1) * s[i + 1]) == 0
                for i in range(d - 1)
            ) if fano else False
            _check_class_protocol(s, fano, interior, divisibility, failures)
    report("criterion 4: constant-then-strict and step-at-most-one theorems", failures, checked)


def test_criterion_5_gorenstein_corollaries():
    failures = []
    checked = 0
    for d in range(1, 5):
        for s in combinations(range(1, 9), d):
            checked += 1
            c = gorenstein_index(s)
            if c is None:
                continue
            if c > 2:
                failures.append((s, "index", c))
                continue
            dv = delta_vector(dilate(s, c))
            if not (is_symmetric(dv) and degree(dv) == d):
                failures.append((s, "dilate-not-reflexive", c, dv))
    report("criterion 5: strictly increasing Gorenstein index <= 2", failures, checked)


def weakly_monotone_sequences(dmax: int, smax: int):
    for d in range(1, dmax + 1):
        for s in product(range(1, smax + 1), repeat=d):
            if all(a <= b for a, b in zip(s, s[1:])) or all(a >= b for a, b in zip(s, s[1:])):
                yield s


def test_criterion_6_greedy_peel_and_idp():
    failures = []
    checked = 0
    peeled = set()
    for s in weakly_monotone_sequences(4, 5):
        checked += 1
        u = s if all(a <= b for a, b in zip(s, s[1:])) else reverse(s)
        if u not in peeled:
            peeled.add(u)
            for k in range(2, 5):
                for x in lattice_points(u, k, budget=BUDGET):
                    y = greedy_peel(u, k, x)
                    rest = tuple(a - b for a, b in zip(x, y))
                    if not (contains(u, y) and contains(u, rest, t=k - 1)):
                        failures.append((u, k, x, y))
        k_checked = is_idp(s, budget=BUDGET)
        if k_checked != max(2, len(s) - 1):
            failures.append((s, "idp", k_checked))
    report("criterion 6: greedy peel postconditions and monotone IDP", failures, checked)


def ratio_sequences(dmax: int, cap: int):
    result = []

    def grow(seq, volume):
        result.append(seq)
        if len(seq) == dmax:
            return
        step = seq[-1]
        k = 1
        while volume * step * k <= cap:
            grow(seq + (step * k,), volume * step * k)
            k += 1

    for s1 in range(1, cap + 1):
        grow((s1,), s1)
    return result


def test_criterion_7_chimney_triangulations():
    failures = []
    sequences = ratio_sequences(4, 512)
    for s in sequences:
        tri = chimney_triangulation(s)
        rep = verify_triangulation(s, tri)
        if not rep["ok"]:
            failures.append((s, rep))
    report("criterion 7: unimodular chimney triangulations", failures, len(sequences))


def test_criterion_8_compositions():
    failures = []
    checked = 0
    small = list(exhaustive_sequences(2, 3))
    for s in small:
        for t in small:
            checked += 1
            comp = composite_sequence(s, t)
            expected = poly_mul(delta_vector(s), delta_vector(t))
            expected = expected + (0,) * (len(comp) + 1 - len(expected))
            if delta_vector(comp) != expected:
                failures.append((s, t, "delta-product"))
                continue
            if not check_decomposition(s, t, budget=BUDGET):
                failures.append((s, t, "free-sum-split"))
                continue
            k = gorenstein_index(s)
            l = gorenstein_index(t)
            if k is not None and l is not None:
                g = gorenstein_compose(s, t, budget=BUDGET)
                if g != (comp, k + l):
                    failures.append((s, t, "gorenstein-compose", g))
                    continue
            i = idp_compose(s, t, budget=BUDGET)
            if i != (comp, max(2, len(comp) - 1)):
                failures.append((s, t, "idp-compose", i))
    report("criterion 8: free-sum composition theorems", failures, checked)


def test_criterion_9_conjecture_sweep(tmp_path, capsys):
    exhaustive = tmp_path / "exhaustive.jsonl"
    code_a = cli_main(["search", "--dmax", "3", "--smax", "4", "--out", str(exhaustive)])
    randomized = tmp_path / "random.jsonl"
    code_b = cli_main(
        ["search", "--random", "200", "--dmax", "4", "--smax", "6", "--seed", "2026", "--out", str(randomized)]
    )
    capsys.readouterr()
    failures = []
    records = 0
    for path, code in ((exhaustive, code_a), (randomized, code_b)):
        if code != 0:
            failures.append((str(path), "exit", code))
        for line in path.read_text().splitlines():
            records += 1
            record = json.loads(line)
            if "witness" in record or "error" in record:
                failures.append(record)
    if records != 4 + 16 + 64 + 200:
        failures.append(("record-count", records))
    report("criterion 9: conjecture sweep finds no witnesses", failures, records)
