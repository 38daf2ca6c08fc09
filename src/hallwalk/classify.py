"""Fano / reflexive / Gorenstein classification of lecture hall polytopes.

Two independent verdicts are produced wherever possible:

* theorem verdicts from the arithmetic of s, available for three sequence
  classes (strictly increasing, constant then strictly increasing, and
  weakly increasing by at most one), applied to s or to reverse(s);
* delta verdicts from the ascent-enumerated delta-vector (delta_d = 1 for
  Fano; symmetric of degree d for reflexive-up-to-unimodular-equivalence).

The interior point is read off the chain of facet rows in O(d) steps, as
the least and the greatest interior lattice point (`_interior_chain`); it
exists exactly when the two are equal, which must agree with delta_d = 1.
One loop over the theorem orientations yields a (Fano, interior point,
divisible) verdict per orientation; the verdicts must all be equal and must
match delta and the chain, so a disagreement surfaces as an error instead
of a silent wrong answer.  The theorem verdict certifies the property after
translating the unique interior point to the origin; the delta verdict
certifies it only up to unimodular equivalence.

The Gorenstein index has two verdicts for every s: the facet route reads
it off the chain of facet rows in O(d) integer steps, and the delta route
reads it off the symmetry of the delta-vector.  No dilate is enumerated.
"""

from math import gcd

from . import delta as deltas
from .errors import MathematicalInconsistencyError, UnsupportedSequenceError
from .polytope import _reflect, check_s

STRICTLY_INCREASING = "strictly-increasing"
CONSTANT_THEN_STRICT = "constant-then-strict"
INCREMENT_AT_MOST_ONE = "increment-at-most-one"
WEAKLY_MONOTONE = "weakly-monotone"
GENERAL = "general"


def _constant_run(seq) -> int:
    i = 1
    while i < len(seq) and seq[i] == seq[0]:
        i += 1
    return i


def sequence_class(s) -> tuple[tuple[str, bool], ...]:
    """All applicable (class tag, reversed) pairs for s and reverse(s); most specific first.

    One pass over s takes its steps s_{i+1} - s_i.  With no negative step
    (up), s is strictly increasing when no step is 0, constant then strict
    when its 0 steps come first, and increments by at most one when no step
    passes 1.  reverse(s) has the negated steps in reverse order, so it is
    tested with no positive step, 0 steps last and none below -1 (down),
    and only when it differs from s, that is when s is not constant.
    """
    seq = check_s(s)
    steps = [b - a for a, b in zip(seq, seq[1:])]
    low, high, flat = min(steps, default=0), max(steps, default=0), steps.count(0)
    up, down = low >= 0, high <= 0 and flat < len(steps)
    return tuple(
        (name, back)
        for name, back, fit in (
            (STRICTLY_INCREASING, False, up and not flat),
            (STRICTLY_INCREASING, True, down and not flat),
            (CONSTANT_THEN_STRICT, False, up and not any(steps[:flat])),
            (CONSTANT_THEN_STRICT, True, down and not any(steps[len(steps) - flat :])),
            (INCREMENT_AT_MOST_ONE, False, up and high <= 1),
            (INCREMENT_AT_MOST_ONE, True, down and low >= -1),
            (WEAKLY_MONOTONE, False, up or high <= 0),
            (GENERAL, False, not (up or high <= 0)),
        )
        if fit
    )


def _fano_condition(name: str, seq) -> bool:
    d = len(seq)
    if name == STRICTLY_INCREASING:
        return seq[0] == 2 and all(seq[i + 1] <= 2 * seq[i] for i in range(d - 1))
    if name == CONSTANT_THEN_STRICT:
        run = _constant_run(seq)
        return seq[0] == run + 1 and all(
            seq[j + 1] <= 2 * seq[j] for j in range(run - 1, d - 1)
        )
    if name == INCREMENT_AT_MOST_ONE:
        return seq[-1] == d + 1
    raise UnsupportedSequenceError(f"no Fano characterization for class {name}")


def _interior_point_formula(name: str, seq) -> tuple[int, ...]:
    d = len(seq)
    if name == STRICTLY_INCREASING:
        return tuple(v - 1 for v in seq)
    if name == CONSTANT_THEN_STRICT:
        run = _constant_run(seq)
        return tuple(i + 1 if i < run else seq[i] - 1 for i in range(d))
    if name == INCREMENT_AT_MOST_ONE:
        return tuple(range(1, d + 1))
    raise UnsupportedSequenceError(f"no interior point formula for class {name}")


def _divisibility_condition(name: str, seq) -> bool:
    d = len(seq)
    if name in (STRICTLY_INCREASING, CONSTANT_THEN_STRICT):
        start = 0 if name == STRICTLY_INCREASING else _constant_run(seq) - 1
        for i in range(start, d - 1):
            k = seq[i + 1] - seq[i]
            if seq[i] % k or seq[i + 1] % k:
                return False
        return True
    if name == INCREMENT_AT_MOST_ONE:
        for i in range(d - 1):
            k = (i + 2) * seq[i] - (i + 1) * seq[i + 1]
            if seq[i] % k or seq[i + 1] % k:
                return False
        return True
    raise UnsupportedSequenceError(f"no reflexivity characterization for class {name}")


def _theorem_orientations(tags):
    return [
        (name, rev)
        for name, rev in tags
        if name in (STRICTLY_INCREASING, CONSTANT_THEN_STRICT, INCREMENT_AT_MOST_ONE)
    ]


def _theorem_verdict(name: str, rev: bool, seq):
    """(Fano, interior point of P^(seq), reflexive) by one class theorem.

    Reflexive means divisible for a Fano polytope; any other is not reflexive.
    """
    oriented = seq[::-1] if rev else seq
    if not _fano_condition(name, oriented):
        return False, None, False
    p = _interior_point_formula(name, oriented)
    return True, _reflect(oriented, p) if rev else p, _divisibility_condition(name, oriented)


def _interior_chain(seq):
    """The least and the greatest interior lattice point of P^(seq), or (None, None).

    Along the chain the strict row s_{i+1} x_i < s_i x_{i+1} bounds x_{i+1}
    below by floor(s_{i+1} x_i / s_i) + 1 and x_i above by
    ceil(s_i x_{i+1} / s_{i+1}) - 1.  Starting from x_1 = 1 upwards and from
    x_d = s_d - 1 downwards gives the two points; every interior point lies
    between them, so there is exactly one when they are equal.
    """
    least = [1]
    for a, b in zip(seq, seq[1:]):
        least.append(b * least[-1] // a + 1)
    if least[-1] >= seq[-1]:
        return None, None
    greatest = [seq[-1] - 1]
    for a, b in zip(seq[-2::-1], seq[::-1]):
        greatest.append(-(-a * greatest[-1] // b) - 1)
    return tuple(least), tuple(greatest[::-1])


def classify(s, budget=None, _delta=None) -> dict:
    """Full classification with theorem/delta cross-validation, as the JSON object `classify` prints."""
    seq = check_s(s)
    d = len(seq)
    tags = sequence_class(seq)
    dv = deltas.delta_vector(seq, budget=budget) if _delta is None else _delta
    fano_delta = dv[d] == 1

    least, greatest = _interior_chain(seq)
    interior_point = least if least == greatest else None
    if (interior_point is not None) != fano_delta:
        raise MathematicalInconsistencyError(
            f"delta_d = {dv[d]} but the interior points of s={seq} run from "
            f"{least} to {greatest}"
        )
    # the delta route of the index is d - m + 1 for delta symmetric of degree m, so 1 iff reflexive
    index = gorenstein_index(seq, budget=budget, _delta=dv)
    reflexive_delta = index == 1

    orientations = _theorem_orientations(tags)
    verdicts = {(name, rev): _theorem_verdict(name, rev, seq) for name, rev in orientations}
    fano_theorem: bool | None = None
    reflexive_theorem: bool | None = None
    reflexive_reason: str | None = None
    if verdicts:
        if len(set(verdicts.values())) != 1:
            raise MathematicalInconsistencyError(
                f"class theorems disagree for s={seq}: {verdicts}"
            )
        fano_theorem, point, reflexive_theorem = verdicts[orientations[0]]
        if (fano_theorem, point, reflexive_theorem) != (fano_delta, interior_point, reflexive_delta):
            raise MathematicalInconsistencyError(
                f"theorems say (Fano, interior point, reflexive) = "
                f"{(fano_theorem, point, reflexive_theorem)} but delta {dv} and the "
                f"chain say {(fano_delta, interior_point, reflexive_delta)} for s={seq}"
            )
        if not fano_theorem:
            reflexive_reason = "not Fano"

    return {
        "s": seq,
        "class": tags[0][0],
        "class_reversed": tags[0][1],
        "fano_theorem": fano_theorem,
        "fano_delta": fano_delta,
        "interior_point": interior_point,
        "reflexive_theorem": reflexive_theorem,
        "reflexive_reason": reflexive_reason,
        "reflexive_delta": reflexive_delta,
        "gorenstein_index": index,
    }


def gorenstein_index(s, budget=None, _delta=None) -> int | None:
    """Index c with c*P reflexive, or None.

    Two independent verdicts must agree.  The facet route is Hibi's
    criterion (Combinatorica 1992; De Negri and Hibi 1997): P is Gorenstein
    of index c iff c*P has an interior lattice point at lattice distance 1
    from every facet, see `_facet_index`.  The delta route is Stanley's:
    delta symmetric of degree m gives c = d - m + 1, otherwise None.
    """
    seq = check_s(s)
    d = len(seq)
    dv = deltas.delta_vector(seq, budget=budget) if _delta is None else _delta
    by_delta = d - deltas.degree(dv) + 1 if deltas.is_symmetric(dv) else None
    by_facets = _facet_index(seq)
    if by_facets != by_delta:
        raise MathematicalInconsistencyError(
            f"the facets of s={seq} give Gorenstein index {by_facets} but "
            f"delta {dv} gives {by_delta}"
        )
    return by_facets


def _facet_index(seq) -> int | None:
    """Hibi's index read off the chain of primitive facet rows, in O(d).

    The point p of c*P at distance 1 from every facet is forced row by row:
    -x_1 <= 0 gives p_1 = 1, the row (s_{i+1} x_i - s_i x_{i+1}) / g_i <= 0
    with g_i = gcd(s_i, s_{i+1}) gives s_i p_{i+1} = s_{i+1} p_i + g_i, and
    x_d <= c s_d gives c s_d = p_d + 1.  No index exists when a step is not
    integral.
    """
    p = 1
    for a, b in zip(seq, seq[1:]):
        p, rest = divmod(b * p + gcd(a, b), a)
        if rest:
            return None
    c, rest = divmod(p + 1, seq[-1])
    return None if rest else c
