import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from quasilang.cyclotomic import CyclotomicNumber
from quasilang.errors import NoWitnessError, PreconditionError, ValidationError
from quasilang.genfun import FactoredRational, LinearForm, SeriesTruncation
from quasilang.langkit import AbelianGroup, compile_quasi_ordered
from quasilang.wordposet import (
    OrderedSurjection,
    UpsetRecognizer,
    WeightedWord,
    deletion_lift,
    find_deletable_block,
    fws_principal_series,
    leq,
    minimal_fiber_words,
    minimal_words_over,
    principal_ideal_language,
    refine_witness,
    special_indices,
    validate_witness,
    weight_invariant,
    zero_sum_block,
)

from oracles import IdealRecognizer, surjection_series

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
TRIVIAL = AbelianGroup(())


def word(letters: str, weights, group=Z2) -> WeightedWord:
    if group.orders == ():
        ws = tuple(() for _ in letters)
    else:
        ws = tuple((w,) if isinstance(w, int) else tuple(w) for w in weights)
    return WeightedWord(tuple(letters), ws, group)


def brute_leq(x: WeightedWord, y: WeightedWord) -> bool:
    """Independent oracle: try every ordered surjection [m] -> [n]."""
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        return n == m
    for mapping in itertools.product(range(n), repeat=m):
        try:
            f = OrderedSurjection(mapping, n)
        except ValidationError:
            continue
        if validate_witness(f, x, y):
            return True
    return False


def all_words(letters, group, length):
    symbols = [(a, w) for a in letters for w in group.elements()]
    for combo in itertools.product(symbols, repeat=length):
        yield WeightedWord(
            tuple(a for a, _ in combo), tuple(w for _, w in combo), group
        )


def test_weight_invariant_examples():
    x = word("xxx", (1, 0, 1))
    assert weight_invariant(x) == {"x": (0,)}
    empty = WeightedWord((), (), Z2)
    assert weight_invariant(empty, ("a",)) == {"a": (0,)}
    y = word("ab", (1, 1))
    assert weight_invariant(y) == {"a": (1,), "b": (1,)}


def test_leq_examples():
    x = word("a", (1,))
    y = word("aa", (0, 1))
    f = leq(x, y)
    assert f is not None and f.mapping == (0, 0)
    assert validate_witness(f, x, y)

    assert leq(word("a", (1,)), word("aa", (1, 1))) is None

    x2 = word("ab", (1, 0))
    y2 = word("aab", (1, 0, 0))
    f2 = leq(x2, y2)
    assert f2 is not None and f2.mapping == (0, 0, 1)


def test_leq_empty_word():
    empty = WeightedWord((), (), Z2)
    assert leq(empty, empty) is not None
    assert leq(empty, word("a", (0,))) is None
    assert leq(word("a", (0,)), empty) is None


def test_leq_against_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        group = rng.choice([Z2, Z3])
        letters = rng.choice(["a", "ab"])
        n = rng.randint(0, 3)
        m = rng.randint(0, 5)
        x = WeightedWord(
            tuple(rng.choice(letters) for _ in range(n)),
            tuple(rng.choice(group.elements()) for _ in range(n)),
            group,
        )
        y = WeightedWord(
            tuple(rng.choice(letters) for _ in range(m)),
            tuple(rng.choice(group.elements()) for _ in range(m)),
            group,
        )
        got = leq(x, y)
        assert (got is not None) == brute_leq(x, y)
        if got is not None:
            assert validate_witness(got, x, y)


def test_leq_reflexive_and_transitive():
    rng = random.Random(5)
    for _ in range(100):
        group = rng.choice([Z2, Z3])
        n = rng.randint(1, 4)
        x = WeightedWord(
            tuple(rng.choice("ab") for _ in range(n)),
            tuple(rng.choice(group.elements()) for _ in range(n)),
            group,
        )
        f = leq(x, x)
        assert f is not None and f.mapping == tuple(range(n))
    # witnesses compose: f: y->x positions, g: z->y positions
    for _ in range(60):
        group = Z2
        n = rng.randint(1, 3)
        x = WeightedWord(
            tuple(rng.choice("ab") for _ in range(n)),
            tuple(rng.choice(group.elements()) for _ in range(n)),
            group,
        )
        ys = [y for y in all_words("ab", group, rng.randint(n, 4)) if leq(x, y)]
        if not ys:
            continue
        y = rng.choice(ys)
        zs = [z for z in all_words("ab", group, rng.randint(len(y), 5)) if leq(y, z)]
        if not zs:
            continue
        z = rng.choice(zs)
        f, g = leq(x, y), leq(y, z)
        composite = OrderedSurjection(tuple(f.mapping[v] for v in g.mapping), len(x))
        assert validate_witness(composite, x, z)


def _interleaved_inflation(rng, x: WeightedWord, m: int) -> WeightedWord:
    """A word of length m above x: each position of x becomes a fiber of the
    same letter whose weights sum to its weight; fibers open in order and
    otherwise interleave at random."""
    group, n = x.group, len(x)
    sizes = [1] * n
    for _ in range(m - n):
        sizes[rng.randrange(n)] += 1
    fibers = []
    for w, size in zip(x.weights, sizes):
        ws = [rng.choice(group.elements()) for _ in range(size - 1)]
        fibers.append(ws + [group.add(w, group.neg(group.sum(ws)))])
    letters, weights, opened = [], [], 0
    while len(letters) < m:
        i = rng.choice([i for i in range(opened) if fibers[i]] + ([opened] if opened < n else []))
        opened = max(opened, i + 1)
        letters.append(x.letters[i])
        weights.append(fibers[i].pop(0))
    return WeightedWord(tuple(letters), tuple(weights), group)


def test_leq_on_long_inflated_pairs_is_fast():
    # each failed (position, fiber sums) state is searched once; backtracking
    # without that memo took seconds on pairs like these
    x = word("abab", (1, 0, 1, 0))
    for seed in range(5):
        y = _interleaved_inflation(random.Random(seed), x, 130)
        start = time.monotonic()
        f = leq(x, y)
        assert time.monotonic() - start < 2.0, seed
        assert f is not None and validate_witness(f, x, y)


def test_leq_implies_equal_invariants():
    for x in all_words("ab", Z2, 2):
        for y in all_words("ab", Z2, 3):
            if leq(x, y) is not None:
                assert weight_invariant(x, "ab") == weight_invariant(y, "ab")


def test_special_indices():
    assert special_indices(word("abab", (0, 0, 0, 0))) == {1, 2}
    assert special_indices(word("aaaa", (0, 0, 0, 0))) == {1}
    assert special_indices(WeightedWord((), (), Z2)) == set()


def test_refine_witness_identity():
    x = word("aba", (1, 0, 1))
    f = refine_witness(x, x, len(x))
    assert f.mapping == (0, 1, 2)


def test_refine_witness_pins_last_fiber():
    x = word("aa", (0, 1))
    y = word("aaa", (0, 0, 1))
    f = refine_witness(x, y, 1)
    assert f.fiber(1) == (2,)
    assert f.mapping == (0, 0, 1)
    assert validate_witness(f, x, y)


def test_refine_witness_precondition_error():
    x = word("a", (1,))
    y = word("aa", (0, 1))
    with pytest.raises(PreconditionError):
        refine_witness(x, y, 1)


def test_refine_witness_no_witness_error():
    x = word("ab", (1, 1))
    y = word("ab", (1, 1))
    ydiff = word("bb", (1, 1))
    with pytest.raises(NoWitnessError):
        refine_witness(word("aa", (1, 1)), word("aa", (1, 0)), 0)
    assert refine_witness(x, y, 2).mapping == (0, 1)
    with pytest.raises(PreconditionError):
        refine_witness(x, ydiff, 1)


def _random_inflation(rng, x: WeightedWord, keep_suffix: int):
    """Grow a word above x by a random witness, pinning the final letters."""
    group = x.group
    n = len(x)
    head = n - keep_suffix
    mapping = []
    weights = []
    opened = 0
    for i in range(head):
        mapping.append(i)
        weights.append(None)
        opened = i + 1
        extra = rng.randint(0, 2)
        for _ in range(extra):
            mapping.append(rng.randrange(opened))
            weights.append(None)
    # distribute weights so each fiber sums to x's weight
    fibers = {}
    for j, v in enumerate(mapping):
        fibers.setdefault(v, []).append(j)
    for i, positions in fibers.items():
        rest = group.identity()
        for j in positions[:-1]:
            w = rng.choice(group.elements())
            weights[j] = w
            rest = group.add(rest, w)
        weights[positions[-1]] = group.add(x.weights[i], group.neg(rest))
    letters = [x.letters[v] for v in mapping]
    for i in range(head, n):
        mapping.append(i)
        letters.append(x.letters[i])
        weights.append(x.weights[i])
    y = WeightedWord(tuple(letters), tuple(weights), group)
    f = OrderedSurjection(tuple(mapping), n)
    assert validate_witness(f, x, y)
    return y


def test_refine_witness_randomized():
    rng = random.Random(23)
    for _ in range(150):
        group = rng.choice([Z2, Z3])
        n = rng.randint(1, 4)
        x = WeightedWord(
            tuple(rng.choice("ab") for _ in range(n)),
            tuple(rng.choice(group.elements()) for _ in range(n)),
            group,
        )
        r = rng.randint(0, n)
        y = _random_inflation(rng, x, r)
        # prefix inflation preserves the letter set, so specialness matches
        f = refine_witness(x, y, r)
        assert validate_witness(f, x, y)
        m = len(y)
        for i in range(r):
            assert f.fiber(n - 1 - i) == (m - 1 - i,)


def test_deletion_lift_example():
    x = word("ab", (1, 1))
    y = word("aab", (1, 0, 1))
    sub = OrderedSurjection((0, 0), 1)  # witnesses a/1 <= aa/(1,0)
    f = deletion_lift(x, y, 1, (1,), sub)
    assert f.mapping == (0, 0, 1)
    assert validate_witness(f, x, y)


def test_deletion_lift_empty_betas():
    x = word("ab", (0, 1))
    y = word("aab", (0, 0, 1))
    sub = leq(x, y)
    f = deletion_lift(x, y, 1, (), sub)
    assert validate_witness(f, x, y)


def test_deletion_lift_rejects_bad_subwitness():
    x = word("ab", (1, 1))
    y = word("aab", (1, 0, 1))
    bad = OrderedSurjection((0,), 1)
    with pytest.raises(ValidationError):
        deletion_lift(x, y, 1, (1,), bad)


def test_zero_sum_block_contract():
    block = zero_sum_block([(1,), (1,), (1,)], Z2)
    i, j = block
    assert 1 <= i <= j <= 3
    assert Z2.sum([(1,), (1,), (1,)][i - 1 : j]) == (0,)

    assert zero_sum_block([(0,), (1,)], Z2)[0] == 1

    block3 = zero_sum_block([(1,), (1,), (1,), (1,)], Z3)
    i, j = block3
    assert Z3.sum([(1,)] * (j - i + 1)) == (0,)
    # guaranteed existence above the group size
    rng = random.Random(3)
    for _ in range(50):
        seq = [rng.choice(Z3.elements()) for _ in range(4)]
        blk = zero_sum_block(seq, Z3)
        assert blk is not None
        i, j = blk
        assert Z3.sum(seq[i - 1 : j]) == (0, )


def test_zero_sum_block_may_fail_short():
    assert zero_sum_block([(1,)], Z2) is None


def test_find_deletable_block_examples():
    x = word("aaaa", (1, 0, 1, 1))
    betas, gamma = find_deletable_block(x)
    assert betas == (1, 2) and gamma == 3
    assert Z2.sum(x.weights[len(x) - b] for b in betas) == (0,)

    y = WeightedWord(("a", "a", "a"), ((), (), ()), TRIVIAL)
    betas, gamma = find_deletable_block(y)
    assert betas == (1,) and gamma == 2


def test_find_deletable_block_contract_randomized():
    rng = random.Random(9)
    for _ in range(100):
        group = rng.choice([Z2, Z3])
        letters = rng.choice(["a", "ab"])
        r = len(letters) * (group.size + 2)
        n = r + rng.randint(0, 3)
        x = WeightedWord(
            tuple(rng.choice(letters) for _ in range(n)),
            tuple(rng.choice(group.elements()) for _ in range(n)),
            group,
        )
        betas, gamma = find_deletable_block(x, letters=tuple(letters))
        assert all(1 <= b < gamma <= r for b in betas)
        target = x.letters[n - gamma]
        assert all(x.letters[n - b] == target for b in betas)
        assert group.sum(x.weights[n - b] for b in betas) == group.identity()


def test_find_deletable_block_too_short():
    with pytest.raises(PreconditionError):
        find_deletable_block(word("aaa", (1, 1, 1)))


def test_minimal_fiber_words():
    assert set(minimal_fiber_words(Z2, (1,))) == {((1,),), ((0,), (1,))}
    assert set(minimal_fiber_words(Z2, (0,))) == {((0,),), ((1,), (1,))}
    assert minimal_fiber_words(TRIVIAL, ()) == (((),),)


def test_minimal_words_over_examples():
    x = word("a", (1,))
    assert minimal_words_over(x) == {word("a", (1,)), word("aa", (0, 1))}
    x0 = word("a", (0,))
    assert minimal_words_over(x0) == {word("a", (0,)), word("aa", (1, 1))}
    t = WeightedWord(("a", "b"), ((), ()), TRIVIAL)
    assert minimal_words_over(t) == {t}


def test_minimal_words_are_above_x_with_bounded_length():
    for x in all_words("ab", Z2, 2):
        for t in minimal_words_over(x):
            assert len(t) <= len(x) * (Z2.size + 1)
            assert leq(x, t) is not None


def test_principal_ideal_language_examples():
    x = word("a", (1,))
    q = principal_ideal_language(x)
    dfa = compile_quasi_ordered(q)

    y1 = word("aaa", (1, 0, 0))
    assert dfa.accepts(y1.symbols()) and leq(x, y1) is not None
    y2 = word("aa", (0, 1))
    assert dfa.accepts(y2.symbols()) and leq(x, y2) is not None
    y3 = word("aa", (1, 1))
    assert not dfa.accepts(y3.symbols()) and leq(x, y3) is None


def test_ideal_recognizer_matches_compiled_dfa():
    for x in [word("a", (1,)), word("ab", (1, 0)), word("ba", (0, 1))]:
        q = principal_ideal_language(x, letters=("a", "b"))
        dfa = compile_quasi_ordered(q)
        rec = IdealRecognizer(x, letters=("a", "b"))
        for length in range(5):
            for y in all_words("ab", Z2, length):
                assert dfa.accepts(y.symbols()) == rec.accepts(y), (x, y)


def test_upset_recognizer_matches_leq():
    for x in [word("a", (1,)), word("ab", (1, 1)), word("aa", (0, 1))]:
        rec = UpsetRecognizer(x)
        for length in range(5):
            for y in all_words("ab", Z2, length):
                assert rec.accepts(y) == (leq(x, y) is not None)


def test_ideal_equivalence_small():
    # the compiled ideal agrees with the direct order on a small block
    for x in all_words("ab", Z2, 2):
        rec = IdealRecognizer(x, letters=("a", "b"))
        for length in range(5):
            for y in all_words("ab", Z2, length):
                assert rec.accepts(y) == (leq(x, y) is not None), (x, y)


def test_reduced_stars_preserve_language():
    for x in [word("a", (1,)), word("a", (0,)), word("ab", (1, 0)), word("aa", (1, 1))]:
        full = compile_quasi_ordered(principal_ideal_language(x, letters=("a", "b")))
        reduced = compile_quasi_ordered(
            principal_ideal_language(x, letters=("a", "b"), reduced_stars=True)
        )
        for length in range(5):
            for y in all_words("ab", Z2, length):
                assert full.accepts(y.symbols()) == reduced.accepts(y.symbols())


def geometric(nvars, coeffs):
    return FactoredRational.geometric(nvars, LinearForm(coeffs))


def test_fws_series_trivial_group_point():
    series, closed = fws_principal_series([()], TRIVIAL, 6)
    for n in range(7):
        assert series.coefficient((n,)) == (1 if n >= 1 else 0)
    assert closed is not None
    assert series == surjection_series([()], TRIVIAL, 6)


def test_fws_series_z2_point_weight_one():
    series, closed = fws_principal_series([(1,)], Z2, 5)
    one = CyclotomicNumber.one()
    base = geometric(2, {0: one, 1: one})
    flipped = base.translate((0, 1), 2)
    target = base.scale(Fraction(1, 2)) + flipped.scale(Fraction(-1, 2))
    assert series == target.expand((5, 5))
    assert closed is not None and series == surjection_series([(1,)], Z2, 5)


def test_fws_series_z2_point_weight_zero():
    series, closed = fws_principal_series([(0,)], Z2, 5)
    one = CyclotomicNumber.one()
    base = geometric(2, {0: one, 1: one})
    flipped = base.translate((0, 1), 2)
    target = (
        base.scale(Fraction(1, 2))
        + flipped.scale(Fraction(1, 2))
        + FactoredRational.constant(2, -1)
    )
    assert series == target.expand((5, 5))
    assert closed is not None and series == surjection_series([(0,)], Z2, 5)


def test_fws_series_counts_by_enumeration():
    # coefficient = multinomial * number of weight-preserving surjections
    series, _ = fws_principal_series([(1,), (0,)], Z2, 3)
    # n = (1 zero, 1 one): maps from {p0, p1} onto two points with weights 1, 0
    assert series.coefficient((1, 1)) == 2  # C_n = 2, exactly one surjection each way
    assert series.coefficient((0, 1)) == 0  # cannot cover two targets with one point


def test_fws_series_ints_serialize_as_the_boxed_counts():
    for weights in ([(1,), (0,)], [(0,), (0,), (1,)], [(1,), (1,)]):
        series, _ = fws_principal_series(weights, Z2, 4)
        assert series.coefficients and all(type(c) is int for c in series.coefficients.values())
        boxed = SeriesTruncation(
            1, series.bound, {e: CyclotomicNumber.from_rational(c) for e, c in series.coefficients.items()}
        )
        assert json.dumps(series.to_json()) == json.dumps(boxed.to_json())


def test_weighted_word_json_round_trip():
    x = word("ab", (1, 0), Z2)
    blob = x.to_json()
    assert WeightedWord.from_json(blob) == x
