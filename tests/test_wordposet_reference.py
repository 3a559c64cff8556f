"""The character-sum closed form of the weighted-surjection series against the
ideal-language route it replaced, kept here as the reference, and the series
expanded from it against the brute-force surjection count of
`oracles.surjection_series`.

The reference sums, over every ordering of the weights, the K_N form of the
reduced-star principal-ideal language, and gives up (None) as soon as one of
those languages fails its unambiguity certificate.  That happens for every
k >= 2 over Z/2, so the reference can only be compared where it certifies:
the trivial group and a single point over Z/2.

The memoized witness search `leq` is checked against the recursive
backtracking search it replaced, kept here as the reference: both must
return the same (lexicographically least) witness, or both None.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from quasilang.errors import AmbiguousExpressionError
from quasilang.genfun import FactoredRational, LinearForm, quasi_ordered_genfun
from quasilang.langkit import AbelianGroup, Norm
from quasilang.wordposet import (
    OrderedSurjection,
    WeightedWord,
    fws_principal_series,
    leq,
    principal_ideal_language,
    validate_witness,
    weight_invariant,
)

from oracles import surjection_series

TRIVIAL = AbelianGroup(())
Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z2Z2 = AbelianGroup((2, 2))

# ---------------------------------------------------------------------------
# the ordering-loop reference


def rename_variables(F: FactoredRational, mapping, nvars: int) -> FactoredRational:
    """F under t_i <- t_mapping[i], a variable-to-variable ring map into nvars
    variables."""

    def merged(terms) -> dict:
        out: dict = {}
        for key, c in terms:
            out[key] = out[key] + c if key in out else c
        return out

    def renamed(e) -> tuple:
        new_e = [0] * nvars
        for v, k in enumerate(e):
            new_e[mapping[v]] += k
        return tuple(new_e)

    num = [merged((renamed(e), x) for e, x in col.items()) for col in F.num]
    factors = [LinearForm(merged((mapping[v], c) for v, c in f.terms)) for f in F.factors]
    return FactoredRational(nvars, F.order, num, F.den, factors)


def ordering_loop_closed(weights, group: AbelianGroup):
    """Sum of the ideal-language forms over all orderings; None if one is ambiguous."""
    elements = group.elements()
    nvars = len(elements)
    closed = FactoredRational.zero(nvars)
    try:
        for ordering in sorted(set(itertools.permutations(weights))):
            x0 = WeightedWord(tuple(range(len(ordering))), ordering, group)
            q = principal_ideal_language(x0, letters=tuple(range(len(ordering))), reduced_stars=True)
            F = quasi_ordered_genfun(q, Norm.universal(q.cong.alphabet))
            mapping = [elements.index(w) for (_, w) in q.cong.alphabet]
            closed = closed + rename_variables(F, mapping, nvars)
    except AmbiguousExpressionError:
        return None
    return closed


@pytest.mark.parametrize(
    "weights, group",
    [([()], TRIVIAL), ([(0,)], Z2), ([(1,)], Z2)],
    ids=["trivial-k1", "z2-weight0", "z2-weight1"],
)
def test_character_sum_matches_the_ordering_loop_where_it_certifies(weights, group):
    series, closed = fws_principal_series(weights, group, 5)
    reference = ordering_loop_closed(weights, group)
    assert reference is not None
    assert reference.expand(series.bound) == series == surjection_series(weights, group, 5)


def test_the_ordering_loop_gives_up_where_the_character_sum_answers():
    series, closed = fws_principal_series([(1,), (0,)], Z2, 5)
    assert ordering_loop_closed([(1,), (0,)], Z2) is None
    assert series == surjection_series([(1,), (0,)], Z2, 5)


# ---------------------------------------------------------------------------
# exhaustive agreement with the brute-force count

# (group, largest k, degree, seconds).  Degree 5 everywhere except Z/2 x Z/2,
# whose brute-force oracle runs over 6^4 exponents at degree 5 (about 5 s for
# the ten multisets with k <= 2, three times the degree-4 run).
CASES = [
    (TRIVIAL, 3, 5, 5),
    (Z2, 3, 5, 5),
    (Z3, 3, 5, 30),
    (Z2Z2, 2, 4, 30),
]


@pytest.mark.parametrize("group, kmax, degree, seconds", CASES, ids=["trivial", "z2", "z3", "z2xz2"])
def test_closed_form_matches_brute_force_for_every_weight_multiset(group, kmax, degree, seconds):
    start = time.monotonic()
    cases = 0
    for k in range(1, kmax + 1):
        for weights in itertools.combinations_with_replacement(group.elements(), k):
            series, closed = fws_principal_series(weights, group, degree)
            assert closed is not None, weights
            assert series == surjection_series(weights, group, degree), weights
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{cases} multisets took {elapsed:.1f} s"


def test_z3_three_zero_weights_within_ten_seconds():
    # the ordering loop took about 59 s here before giving up
    start = time.monotonic()
    series, closed = fws_principal_series([(0,), (0,), (0,)], Z3, 3)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"took {elapsed:.1f} s"
    # one factor per nonempty multiset of at most 3 of the 3 characters
    assert len(closed.factors) == 3 + 6 + 10
    assert series == surjection_series([(0,), (0,), (0,)], Z3, 3)


# ---------------------------------------------------------------------------
# the recursive witness search


def recursive_leq(x: WeightedWord, y: WeightedWord):
    """Backtracking over the fiber of each position of y, left to right,
    pruned when the rest of y lacks the letters of the unopened fibers."""
    group = x.group
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        return OrderedSurjection((), 0) if n == m else None
    if n > m:
        return None
    letters = set(x.letters) | set(y.letters)
    if weight_invariant(x, letters) != weight_invariant(y, letters):
        return None
    suffix: list[dict] = [dict() for _ in range(m + 1)]
    for j in range(m - 1, -1, -1):
        suffix[j] = dict(suffix[j + 1])
        suffix[j][y.letters[j]] = suffix[j].get(y.letters[j], 0) + 1
    needed: list[dict] = [dict() for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        needed[i] = dict(needed[i + 1])
        needed[i][x.letters[i]] = needed[i].get(x.letters[i], 0) + 1
    assignment = [0] * m
    sums = [group.identity()] * n

    def rec(j: int, opened: int) -> bool:
        if j == m:
            return opened == n and tuple(sums) == x.weights
        if any(suffix[j].get(a, 0) < need for a, need in needed[opened].items()):
            return False
        a, w = y.letters[j], y.weights[j]
        for i in range(opened):
            if x.letters[i] == a:
                assignment[j] = i
                old = sums[i]
                sums[i] = group.add(old, w)
                if rec(j + 1, opened):
                    return True
                sums[i] = old
        if opened < n and x.letters[opened] == a:
            assignment[j] = opened
            sums[opened] = w
            if rec(j + 1, opened + 1):
                return True
            sums[opened] = group.identity()
        return False

    return OrderedSurjection(tuple(assignment), n) if rec(0, 0) else None


def _random_word(rng, group, n):
    return WeightedWord(
        tuple(rng.choice("ab") for _ in range(n)),
        tuple(rng.choice(group.elements()) for _ in range(n)),
        group,
    )


def _inflated(rng, x, m):
    """A word of length m above x: a random ordered surjection onto x pulls
    the letters back, and random weights on each fiber sum to x's weight."""
    group, n = x.group, len(x)
    mapping = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
    rng.shuffle(mapping)
    order = {}
    for v in mapping:
        order.setdefault(v, len(order))
    mapping = [order[v] for v in mapping]
    weights = [rng.choice(group.elements()) for _ in mapping]
    for i in range(n):
        fiber = [j for j, v in enumerate(mapping) if v == i]
        rest = group.identity()
        for j in fiber[1:]:
            rest = group.add(rest, weights[j])
        weights[fiber[0]] = group.add(x.weights[i], group.neg(rest))
    letters = tuple(x.letters[v] for v in mapping)
    y = WeightedWord(letters, tuple(weights), group)
    assert validate_witness(OrderedSurjection(tuple(mapping), n), x, y)
    return y


@pytest.mark.parametrize(
    "group", [TRIVIAL, Z2, Z3, Z2Z2], ids=["trivial", "z2", "z3", "z2xz2"]
)
def test_memoized_leq_matches_the_recursive_search(group):
    rng = random.Random(1410)
    found = 0
    for k in range(1500):
        x = _random_word(rng, group, rng.randint(k % 2, 4))
        if k % 2:
            y = _inflated(rng, x, rng.randint(len(x), 10))
        else:
            y = _random_word(rng, group, rng.randint(0, 10))
        expect, got = recursive_leq(x, y), leq(x, y)
        assert (None if got is None else got.to_json()) == (
            None if expect is None else expect.to_json()
        ), (x, y)
        found += got is not None
    assert found >= 750
