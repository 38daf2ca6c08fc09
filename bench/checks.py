"""Reference computations that check hallwalk's answers.

Nothing here imports hallwalk.  Every routine is written apart from the
program and, where it can be, by another method: lattice points are
enumerated upward from x_1 (the program descends from x_d), membership is a
chain of exact fractions (the program uses facet inequalities),
determinants use fraction Gaussian elimination (the program uses Bareiss),
and the delta-vector comes from counting dilates (the program's ascent
route walks inversion sequences).

Each ``check_*`` function returns a list of problems; an empty list means
the answer passed.
"""

from fractions import Fraction
from math import comb, factorial, prod

STRICTLY_INCREASING = "strictly-increasing"
CONSTANT_THEN_STRICT = "constant-then-strict"
INCREMENT_AT_MOST_ONE = "increment-at-most-one"
WEAKLY_MONOTONE = "weakly-monotone"
GENERAL = "general"
THEOREM_CLASSES = (STRICTLY_INCREASING, CONSTANT_THEN_STRICT, INCREMENT_AT_MOST_ONE)
SPECIFICITY = THEOREM_CLASSES + (WEAKLY_MONOTONE, GENERAL)


# ---------------------------------------------------------------- geometry


def point_count(s, t):
    """Number of lattice points of t*P^(s).

    g[b] counts prefixes (x_1, ..., x_i) with x_i <= b; the chain condition
    x_{i-1} <= s_{i-1} * x_i / s_i links one level to the next.
    """
    g = [b + 1 for b in range(t * s[0] + 1)]
    for i in range(1, len(s)):
        nxt = []
        running = 0
        for b in range(t * s[i] + 1):
            running += g[(s[i - 1] * b) // s[i]]
            nxt.append(running)
        g = nxt
    return g[-1]


def in_polytope(s, x, t=1, strict=False):
    """0 <= x_1/s_1 <= ... <= x_d/s_d <= t, compared as exact fractions."""
    if len(x) != len(s):
        return False
    chain = [Fraction(0)] + [Fraction(v, si) for v, si in zip(x, s)] + [Fraction(t)]
    if strict:
        return all(a < b for a, b in zip(chain, chain[1:]))
    return all(a <= b for a, b in zip(chain, chain[1:]))


def lattice_points(s, t):
    """All lattice points of t*P^(s), built upward from x_1."""
    points = [()]
    for i, si in enumerate(s):
        grown = []
        for p in points:
            # x_i / s_i >= x_{i-1} / s_{i-1}, so x_i >= ceil(s_i * x_{i-1} / s_{i-1})
            low = 0 if i == 0 else -((-si * p[-1]) // s[i - 1])
            grown.extend(p + (v,) for v in range(low, t * si + 1))
        points = grown
    return points


def determinant(rows):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return int(det)


# ------------------------------------------------------------ delta-vectors


def delta_vector(s):
    """delta_j = sum_i (-1)^i C(d+1, i) i(P, j - i), from dilate counts."""
    d = len(s)
    counts = [point_count(s, t) for t in range(d + 1)]
    return tuple(
        sum((-1) ** i * comb(d + 1, i) * counts[j - i] for i in range(j + 1))
        for j in range(d + 1)
    )


def degree(dv):
    return max((i for i, v in enumerate(dv) if v), default=0)


def is_palindrome(dv):
    top = dv[: degree(dv) + 1]
    return list(top) == list(reversed(top))


def gorenstein_index(s, dv):
    """c with c*P reflexive: delta symmetric of degree d + 1 - c, else None."""
    if not is_palindrome(dv):
        return None
    return len(s) + 1 - degree(dv)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ------------------------------------------------- classes and the theorems


def constant_run(s):
    run = 1
    while run < len(s) and s[run] == s[0]:
        run += 1
    return run


def in_class(name, s):
    steps = [b - a for a, b in zip(s, s[1:])]
    if name == STRICTLY_INCREASING:
        return all(v > 0 for v in steps)
    if name == CONSTANT_THEN_STRICT:
        return all(v > 0 for v in steps[constant_run(s) - 1 :])
    if name == INCREMENT_AT_MOST_ONE:
        return all(v in (0, 1) for v in steps)
    raise ValueError(name)


def theorem_orientations(s):
    """(class, reversed, oriented sequence) for every class theorem that applies."""
    out = []
    for rev in (False, True):
        oriented = tuple(reversed(s)) if rev else tuple(s)
        if rev and oriented == tuple(s):
            continue
        out.extend((name, rev, oriented) for name in THEOREM_CLASSES if in_class(name, oriented))
    return out


def most_specific_class(s):
    """(tag, reversed) as the program should label s."""
    tags = [(name, rev) for name, rev, _ in theorem_orientations(s)]
    if all(a <= b for a, b in zip(s, s[1:])) or all(a >= b for a, b in zip(s, s[1:])):
        tags.append((WEAKLY_MONOTONE, False))
    if not tags:
        return GENERAL, False
    return min(tags, key=lambda tag: (SPECIFICITY.index(tag[0]), tag[1]))


def fano_condition(name, s):
    """The paper's conditions for a unique interior lattice point."""
    d = len(s)
    if name == STRICTLY_INCREASING:
        return s[0] == 2 and all(s[i + 1] <= 2 * s[i] for i in range(d - 1))
    if name == CONSTANT_THEN_STRICT:
        run = constant_run(s)
        return s[0] == run + 1 and all(s[j + 1] <= 2 * s[j] for j in range(run - 1, d - 1))
    return s[-1] == d + 1


def reflexive_condition(name, s):
    """The paper's divisibility conditions, on top of the Fano condition."""
    if not fano_condition(name, s):
        return False
    d = len(s)
    if name == INCREMENT_AT_MOST_ONE:
        steps = [((i + 2) * s[i] - (i + 1) * s[i + 1], i) for i in range(d - 1)]
    else:
        start = 0 if name == STRICTLY_INCREASING else constant_run(s) - 1
        steps = [(s[i + 1] - s[i], i) for i in range(start, d - 1)]
    return all(s[i] % k == 0 and s[i + 1] % k == 0 for k, i in steps)


# ------------------------------------------------------------------- IDP


def decomposable(s, k, z, ground):
    """Is z in k*P a sum of a lattice point of P and one of (k-1)*P?"""
    return any(
        in_polytope(s, tuple(a - b for a, b in zip(z, y)), t=k - 1) for y in ground
    )


def is_idp(s, k_max):
    """Brute-force sumset check for k = 2..k_max; small polytopes only."""
    ground = lattice_points(s, 1)
    return all(
        decomposable(s, k, z, ground) for k in range(2, k_max + 1) for z in lattice_points(s, k)
    )


def default_k(s):
    return max(2, len(s) - 1)


# ------------------------------------------------------------------ checks


def check_delta(s, dv):
    s = tuple(s)
    d = len(s)
    dv = list(dv)
    problems = []
    if len(dv) != d + 1:
        return [f"delta of {s} has {len(dv)} entries, expected {d + 1}"]
    if dv[0] != 1:
        problems.append(f"delta_0 of {s} is {dv[0]}")
    if sum(dv) != prod(s):
        problems.append(f"delta of {s} sums to {sum(dv)}, expected {prod(s)}")
    if dv[1] != point_count(s, 1) - (d + 1):
        problems.append(f"delta_1 of {s} is {dv[1]}, expected {point_count(s, 1) - (d + 1)}")
    if tuple(dv) != delta_vector(s):
        problems.append(f"delta of {s} is {dv}, counting gives {list(delta_vector(s))}")
    return problems


def check_classification(s, out):
    """Check the JSON of `classify s` (also the sweep records' classification)."""
    s = tuple(s)
    d = len(s)
    dv = delta_vector(s)
    problems = []

    def expect(field, value):
        if out.get(field) != value:
            problems.append(f"classify {s}: {field} is {out.get(field)!r}, expected {value!r}")

    if list(out.get("s", [])) != list(s):
        problems.append(f"classify {s}: record is for {out.get('s')}")
    tag, rev = most_specific_class(s)
    expect("class", tag)
    expect("class_reversed", rev)
    fano = dv[d] == 1
    reflexive = is_palindrome(dv) and degree(dv) == d
    expect("fano_delta", fano)
    expect("reflexive_delta", reflexive)
    orientations = theorem_orientations(s)
    for name, _, oriented in orientations:
        if fano_condition(name, oriented) != fano:
            problems.append(f"classify {s}: {name} Fano condition on {oriented} contradicts delta {dv}")
        if reflexive_condition(name, oriented) != reflexive:
            problems.append(f"classify {s}: {name} reflexive condition on {oriented} contradicts delta {dv}")
    expect("fano_theorem", fano if orientations else None)
    expect("reflexive_theorem", reflexive if orientations else None)
    point = out.get("interior_point")
    if fano:
        if point is None or not in_polytope(s, tuple(point), strict=True):
            problems.append(f"classify {s}: {point} is not the interior lattice point")
    elif point is not None:
        problems.append(f"classify {s}: interior point {point} reported but delta_d = {dv[d]}")
    index = gorenstein_index(s, dv)
    expect("gorenstein_index", index)
    if index is not None and in_class(STRICTLY_INCREASING, s) and index > 2:
        problems.append(f"classify {s}: strictly increasing Gorenstein of index {index} > 2")
    return problems


def check_idp_verdict(s, verdict, k_checked, witness):
    s = tuple(s)
    problems = []
    if k_checked != default_k(s):
        problems.append(f"idp {s}: checked k up to {k_checked}, expected {default_k(s)}")
    monotone = all(a <= b for a, b in zip(s, s[1:])) or all(a >= b for a, b in zip(s, s[1:]))
    if verdict is True:
        if witness is not None:
            problems.append(f"idp {s}: IDP verdict carries witness {witness}")
    elif verdict is False:
        if monotone:
            problems.append(f"idp {s}: weakly monotone sequence judged not IDP")
        elif witness is None or not in_polytope(s, tuple(witness), t=k_checked):
            problems.append(f"idp {s}: witness {witness} is not a lattice point of {k_checked}P")
        elif decomposable(s, k_checked, tuple(witness), lattice_points(s, 1)):
            problems.append(f"idp {s}: witness {witness} does decompose")
    else:
        problems.append(f"idp {s}: verdict {verdict!r} is not a boolean")
    return problems


def check_sweep_records(records, expected):
    """Every sequence of `expected` has exactly one clean, correct record."""
    problems = []
    seen = [tuple(r.get("s", ())) for r in records]
    if sorted(seen) != sorted(expected):
        problems.append(f"sweep holds {len(seen)} records for {len(set(seen))} sequences, expected {len(expected)}")
    for record in records:
        s = tuple(record.get("s", ()))
        for key in ("error", "witness"):
            if key in record:
                problems.append(f"sweep record {s} carries {key}: {record[key]}")
        if "error" in record:
            continue
        problems += check_delta(s, record.get("delta", []))
        problems += check_classification(s, record.get("classification", {}))
        witness = record.get("witness", {}).get("point")
        problems += check_idp_verdict(s, record.get("idp_verdict"), record.get("k_checked"), witness)
    return problems


def check_ehrhart(s, out, ascent_delta):
    """The counting route's answer, and its agreement with the ascent route."""
    s = tuple(s)
    d = len(s)
    problems = []
    counts = out.get("counts", [])
    if len(counts) < d + 1:
        return [f"ehrhart {s}: {len(counts)} counts, expected at least {d + 1}"]
    for t, c in enumerate(counts):
        if c != point_count(s, t):
            problems.append(f"ehrhart {s}: count at t={t} is {c}, expected {point_count(s, t)}")
    poly = [Fraction(num, den) for num, den in out.get("polynomial", [])]
    if len(poly) != d + 1 or poly[-1] != Fraction(prod(s), factorial(d)):
        problems.append(f"ehrhart {s}: polynomial {out.get('polynomial')} has the wrong degree or volume")
    else:
        for t, c in enumerate(counts):
            if sum(coef * t**p for p, coef in enumerate(poly)) != c:
                problems.append(f"ehrhart {s}: polynomial misses the count at t={t}")
    problems += check_delta(s, out.get("delta", []))
    if list(out.get("delta", [])) != list(ascent_delta):
        problems.append(f"ehrhart {s}: counting route {out.get('delta')} != ascent route {list(ascent_delta)}")
    return problems


def check_gorenstein_compose(left, right, out):
    left, right = tuple(left), tuple(right)
    composite = left + (1,) + right
    problems = []
    if tuple(out.get("composite", ())) != composite:
        problems.append(f"compose {left} {right}: composite {out.get('composite')}, expected {composite}")
    k = gorenstein_index(left, delta_vector(left))
    l = gorenstein_index(right, delta_vector(right))
    if k is None or l is None:
        return problems + [f"compose {left} {right}: a factor is not Gorenstein"]
    product = poly_mul(delta_vector(left), delta_vector(right))
    product += [0] * (len(composite) + 1 - len(product))
    dv = delta_vector(composite)
    if list(dv) != product:
        problems.append(f"compose {left} {right}: delta {list(dv)} is not the product {product}")
    if gorenstein_index(composite, dv) != k + l:
        problems.append(f"compose {left} {right}: composite index is not {k} + {l}")
    for field, value in (("predicted_index", k + l), ("confirmed_index", k + l),
                         ("delta_product_ok", True), ("ok", True)):
        if out.get(field) != value:
            problems.append(f"compose {left} {right}: {field} is {out.get(field)!r}, expected {value!r}")
    return problems


def check_idp_compose(left, right, out):
    left, right = tuple(left), tuple(right)
    composite = left + (1,) + right
    problems = []
    if tuple(out.get("composite", ())) != composite:
        problems.append(f"compose {left} {right}: composite {out.get('composite')}, expected {composite}")
    verdict = is_idp(composite, default_k(composite))
    for field, value in (("verdict", verdict), ("ok", verdict), ("k_checked", default_k(composite))):
        if out.get(field) != value:
            problems.append(f"compose {left} {right}: {field} is {out.get(field)!r}, expected {value!r}")
    return problems


def _facet_of_p(s, face):
    """Do all points of `face` lie on one common facet of P^(s)?"""
    d = len(s)
    tests = [lambda x: x[0] == 0, lambda x: x[d - 1] == s[d - 1]]
    tests += [lambda x, i=i: x[i] * s[i + 1] == x[i + 1] * s[i] for i in range(d - 1)]
    return any(all(test(v) for v in face) for test in tests)


def _side(face, apex):
    base = face[0]
    return determinant([[a - b for a, b in zip(v, base)] for v in face[1:] + (apex,)])


def check_triangulation(s, out):
    """A certificate that the cells triangulate P^(s).

    The cells are Π s_i distinct unimodular lattice simplices in P, so their
    volumes add up to the volume of P.  Every wall is shared by exactly two
    cells lying on opposite sides of it, or lies in a facet of P.  Together
    these rule out overlaps and gaps.
    """
    s = tuple(s)
    d = len(s)
    cells = [tuple(tuple(v) for v in cell) for cell in out.get("simplices", [])]
    problems = []
    if len(cells) != prod(s):
        problems.append(f"triangulate {s}: {len(cells)} cells, expected {prod(s)}")
    if len({frozenset(cell) for cell in cells}) != len(cells):
        problems.append(f"triangulate {s}: repeated cells")
    walls = {}
    for n, cell in enumerate(cells):
        if len(cell) != d + 1 or any(len(v) != d or not all(isinstance(c, int) for c in v) for v in cell):
            problems.append(f"triangulate {s}: cell {n} is not d+1 lattice points")
            continue
        if not all(in_polytope(s, v) for v in cell):
            problems.append(f"triangulate {s}: cell {n} leaves P")
        det = determinant([[a - b for a, b in zip(v, cell[0])] for v in cell[1:]])
        if abs(det) != 1:
            problems.append(f"triangulate {s}: cell {n} has determinant {det}")
        for drop in range(d + 1):
            wall = tuple(sorted(cell[:drop] + cell[drop + 1 :]))
            walls.setdefault(wall, []).append(cell[drop])
    for wall, apexes in walls.items():
        if len(apexes) == 1 and not _facet_of_p(s, wall):
            problems.append(f"triangulate {s}: wall {wall} is on one cell only, inside P")
        elif len(apexes) == 2 and _side(wall, apexes[0]) * _side(wall, apexes[1]) >= 0:
            problems.append(f"triangulate {s}: cells on wall {wall} are on the same side")
        elif len(apexes) > 2:
            problems.append(f"triangulate {s}: wall {wall} is shared by {len(apexes)} cells")
    if out.get("verification", {}).get("ok") is not True:
        problems.append(f"triangulate {s}: the program's own verification did not pass")
    return problems
