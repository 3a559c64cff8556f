"""The character-sum closed form of the weighted-surjection series against the
ideal-language route it replaced, kept here as the reference, and against the
brute-force surjection count.

The reference sums, over every ordering of the weights, the K_N form of the
reduced-star principal-ideal language, and gives up (None) as soon as one of
those languages fails its unambiguity certificate.  That happens for every
k >= 2 over Z/2, so the reference can only be compared where it certifies:
the trivial group and a single point over Z/2.
"""

from __future__ import annotations

import itertools
import time

import pytest

from quasilang.errors import AmbiguousExpressionError
from quasilang.genfun import FactoredRational, quasi_ordered_genfun
from quasilang.langkit import AbelianGroup, Norm
from quasilang.wordposet import WeightedWord, fws_principal_series, principal_ideal_language

TRIVIAL = AbelianGroup(())
Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
Z2Z2 = AbelianGroup((2, 2))

# ---------------------------------------------------------------------------
# the ordering-loop reference


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
            closed = closed + F.rename_variables(mapping, nvars)
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
    assert closed.expand(series.bound) == reference.expand(series.bound) == series


def test_the_ordering_loop_gives_up_where_the_character_sum_answers():
    series, closed = fws_principal_series([(1,), (0,)], Z2, 5)
    assert ordering_loop_closed([(1,), (0,)], Z2) is None
    assert closed.expand(series.bound) == series


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
            assert closed.expand(series.bound) == series, weights
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
    assert closed.expand(series.bound) == series
