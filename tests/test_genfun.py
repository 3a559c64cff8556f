import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilang.cyclotomic import CyclotomicNumber
from quasilang.errors import AmbiguousExpressionError, ValidationError
from quasilang.genfun import (
    FactoredRational,
    LinearForm,
    SeriesTruncation,
    certify_unambiguous,
    congruence_filter,
    ordered_genfun,
    quasi_ordered_genfun,
    series_from_dfa,
)
from quasilang.langkit import (
    AbelianGroup,
    Concat,
    CongruenceSpec,
    Dfa,
    Empty,
    Epsilon,
    Norm,
    QuasiOrderedExpr,
    Star,
    Sym,
    Union,
    compile_congruence,
    compile_ordered,
    intersect_dfa,
)

AB = ("a", "b")


def one_form(nvars, *vars_):
    coeffs = {}
    for v in vars_:
        coeffs[v] = coeffs.get(v, CyclotomicNumber.zero()) + CyclotomicNumber.one()
    return LinearForm(coeffs)


def geom(nvars, *vars_):
    return FactoredRational.geometric(nvars, one_form(nvars, *vars_))


def even_a_spec():
    return CongruenceSpec(AbelianGroup((2,)), {"a": (1,), "b": (0,)}, {(0,)}, AB)


def test_series_from_dfa_even_a_by_length():
    d = compile_congruence(even_a_spec())
    series = series_from_dfa(d, Norm.length(AB), (4,))
    assert [series.coefficient((n,)).rational_value() for n in range(5)] == [1, 1, 2, 4, 8]


def test_series_from_dfa_multinomial():
    d = compile_ordered(Star(AB), AB)
    series = series_from_dfa(d, Norm.universal(AB), (3, 3))
    assert series.coefficient((2, 1)) == 3
    assert series.coefficient((3, 2)) == 10


def test_series_from_dfa_empty_language():
    d = compile_ordered(Empty(), AB)
    series = series_from_dfa(d, Norm.universal(AB), (4, 4))
    assert series.coefficients == {}


def series_by_exponent_table(dfa, norm, bound) -> SeriesTruncation:
    """Reference counter: the dense dynamic program over every exponent of the
    box in graded order, each holding a count per state, that
    series_from_dfa used before it counted by word length."""
    sym_norm = [(dfa.symbol_index(s), norm.index(s)) for s in dfa.alphabet]
    exponents = sorted(itertools.product(*(range(b + 1) for b in bound)), key=lambda e: (sum(e), e))
    n = dfa.n_states
    start_row = [0] * n
    start_row[dfa.start] = 1
    table = {(0,) * len(bound): start_row}
    for e in exponents:
        row = table.get(e)
        if row is None:
            continue
        for si, ni in sym_norm:
            ne = list(e)
            ne[ni] += 1
            if ne[ni] > bound[ni]:
                continue
            target = table.setdefault(tuple(ne), [0] * n)
            for q, cnt in enumerate(row):
                if cnt:
                    target[dfa.delta[q][si]] += cnt
    coeffs = {}
    for e, row in table.items():
        total = sum(row[q] for q in dfa.accepting)
        if total:
            coeffs[e] = CyclotomicNumber.from_rational(total)
    return SeriesTruncation(1, bound, coeffs)


@st.composite
def counting_cases(draw):
    """A random total DFA (cycles and dead states allowed), a norm that may
    send several symbols to one index and leave indices unused, and an
    uneven bound whose coordinates may be 0."""
    alphabet = tuple("abcd"[: draw(st.integers(0, 4))])
    n = draw(st.integers(1, 6))
    delta = [[draw(st.integers(0, n - 1)) for _ in alphabet] for _ in range(n)]
    accepting = draw(st.sets(st.integers(0, n - 1)))
    dfa = Dfa(alphabet, delta, draw(st.integers(0, n - 1)), accepting)
    size = draw(st.integers(1, 4))
    norm = Norm({s: draw(st.integers(0, size - 1)) for s in alphabet}, size)
    bound = tuple(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)))
    return dfa, norm, bound


@settings(max_examples=300, deadline=None)
@given(counting_cases())
def test_series_from_dfa_matches_the_exponent_table(case):
    dfa, norm, bound = case
    assert series_from_dfa(dfa, norm, bound).to_json() == series_by_exponent_table(dfa, norm, bound).to_json()


def test_series_from_dfa_counts_past_64_bits():
    # 5^60 fills one slot of three 64-bit limbs (the length norm has no block)
    five = tuple("abcde")
    series = series_from_dfa(compile_ordered(Star(five), five), Norm.length(five), (60,))
    assert list(series.coefficients.items()) == [((n,), 5**n) for n in range(61)]
    assert series.coefficients[(60,)] > 2**139
    # at (40, 40) the block is coordinate 0, 41 slots of two limbs for binom(80, 40)
    series = series_from_dfa(compile_ordered(Star(AB), AB), Norm.universal(AB), (40, 40))
    box = itertools.product(range(41), repeat=2)
    assert list(series.coefficients.items()) == [((i, j), math.comb(i + j, i)) for i, j in box]
    assert series.coefficients[(40, 40)] > 2**76
    # a and b step along coordinate 0 and c along 2, none along 1: the largest
    # count is binom(60, 20) 2^40 at (40, 0, 20), two limbs per slot of the
    # block (coordinate 1), and every slot with e_1 > 0 stays empty
    abc = ("a", "b", "c")
    norm = Norm({"a": 0, "b": 0, "c": 2}, 3)
    series = series_from_dfa(compile_ordered(Star(abc), abc), norm, (40, 3, 20))
    box = itertools.product(range(41), range(1), range(21))
    assert list(series.coefficients.items()) == [((i, j, k), math.comb(i + k, k) * 2**i) for i, j, k in box]
    assert series.coefficients[(40, 0, 20)] > 2**91


def test_series_from_dfa_of_the_zero_variable_norm():
    # over the empty alphabet the box is the one exponent (), the empty word's
    for accepting, coefficients in (({0}, {(): 1}), (set(), {})):
        dfa = Dfa((), [[]], 0, accepting)
        for bound in ((), 5):
            assert series_from_dfa(dfa, Norm({}, 0), bound).coefficients == coefficients


def test_series_from_dfa_with_an_empty_block():
    # a coordinate before the last with more than 64 values leaves no block,
    # so every coordinate but the last is in the key: (2, 70, 2), (70, 3) and
    # (64, 2); (3, 70) and (63, 2) keep coordinate 0 as a block of 4 and 64 slots
    abc = ("a", "b", "c")
    series = series_from_dfa(compile_ordered(Star(abc), abc), Norm.universal(abc), (2, 70, 2))
    box = itertools.product(range(3), range(71), range(3))
    assert list(series.coefficients.items()) == [
        (e, math.factorial(sum(e)) // math.prod(map(math.factorial, e))) for e in box
    ]
    even_a = compile_congruence(even_a_spec())
    for bound in ((70, 3), (3, 70), (64, 2), (63, 2)):
        expected = series_by_exponent_table(even_a, Norm.universal(AB), bound)
        assert series_from_dfa(even_a, Norm.universal(AB), bound).to_json() == expected.to_json()


def test_series_from_dfa_of_a_negative_bound_is_empty():
    d = compile_ordered(Star(AB), AB)
    assert series_from_dfa(d, Norm.universal(AB), (2, -1)).coefficients == {}


def test_series_from_dfa_refuses_a_bound_of_the_wrong_length():
    # as FactoredRational.expand does: (3,) indexed past the bound, and
    # (2, 2, 2) gave a 3-variable series over a 2-symbol norm
    d = compile_ordered(Star(AB), AB)
    for bound in ((3,), (2, 2, 2)):
        with pytest.raises(ValidationError, match="^bound must have one coordinate per variable$"):
            series_from_dfa(d, Norm.universal(AB), bound)
        with pytest.raises(ValidationError, match="^bound must have one coordinate per variable$"):
            ordered_genfun(Star(AB), AB).expand(bound)


def test_ordered_genfun_star():
    F = ordered_genfun(Star(AB), AB)
    d = compile_ordered(Star(AB), AB)
    assert F.expand((8, 8)) == series_from_dfa(d, Norm.universal(AB), (8, 8))
    assert len(F.factors) == 1 and F.is_integral_denominator()


def test_ordered_genfun_concat():
    expr = Concat(Sym("a"), Star(("a",)))
    F = ordered_genfun(expr, ("a",))
    d = compile_ordered(expr, ("a",))
    assert F.expand((8,)) == series_from_dfa(d, Norm.universal(("a",)), (8,))


def test_ordered_genfun_empty_and_epsilon():
    assert ordered_genfun(Empty(), AB).is_zero()
    F = ordered_genfun(Epsilon(), AB)
    assert F.expand((3, 3)).coefficient((0, 0)) == 1


def test_ordered_genfun_rejects_non_universal_norm():
    with pytest.raises(ValidationError):
        ordered_genfun(Star(AB), AB, Norm.length(AB))


def test_certificate_union_overlap():
    with pytest.raises(AmbiguousExpressionError):
        certify_unambiguous(Union(Star(("a",)), Concat(Sym("a"), Star(("a",)))), AB)


def test_certificate_concat_ambiguous():
    with pytest.raises(AmbiguousExpressionError):
        certify_unambiguous(Concat(Star(("a",)), Star(("a",))), AB)
    with pytest.raises(AmbiguousExpressionError):
        ordered_genfun(Concat(Star(AB), Star(AB)), AB)


def test_certificate_accepts_unambiguous():
    certify_unambiguous(Concat(Star(("a",)), Sym("b"), Star(AB)), AB)
    certify_unambiguous(Union(Epsilon(), Concat(Sym("a"), Star(AB)), Concat(Sym("b"), Star(("b",)))), AB)


def test_translate_examples():
    F = geom(1, 0)  # 1/(1-t)
    G = F.translate((1,), 2)  # t -> -t
    assert [G.expand((5,)).coefficient((n,)) == (-1) ** n for n in range(6)]
    for n in range(6):
        assert G.expand((5,)).coefficient((n,)) == (-1) ** n

    same = F.translate((0,), 2)
    assert same.expand((6,)) == F.expand((6,))

    H = FactoredRational.monomial(2, 0) * geom(2, 0, 1)  # t/(1-t-u)
    HT = H.translate((1, 0), 2)  # t -> -t, u -> u
    exp = HT.expand((4, 4))
    for e, c in H.expand((4, 4)).coefficients.items():
        assert exp.coefficient(e) == c * (-1) ** e[0]


def test_translate_law_random_exponents():
    F = (FactoredRational.one(2) + FactoredRational.monomial(2, 1)) * geom(2, 0) * geom(2, 0, 1)
    for exps, order in [((1, 2), 3), ((2, 3), 4), ((0, 1), 6)]:
        G = F.translate(exps, order)
        se, sf = G.expand((6, 6)), F.expand((6, 6))
        for e in itertools.product(range(7), repeat=2):
            mult = CyclotomicNumber.root(order, sum(k * n for k, n in zip(exps, e)))
            assert se.coefficient(e) == sf.coefficient(e) * mult


def test_congruence_filter_parity():
    F = geom(1, 0)
    G = congruence_filter(F, [(1,)], AbelianGroup((2,)), [(0,)])
    series = G.expand((10,))
    for n in range(11):
        assert series.coefficient((n,)) == (1 if n % 2 == 0 else 0)


def test_congruence_filter_even_a():
    F = geom(2, 0, 1)  # 1/(1-ta-tb)
    G = congruence_filter(F, [(1,), (0,)], AbelianGroup((2,)), [(0,)])
    assert G.expand((4, 4)).coefficient((2, 1)) == 3
    assert G.expand((4, 4)).coefficient((1, 1)) == 0


def test_congruence_filter_full_target_is_identity():
    group = AbelianGroup((3,))
    F = geom(2, 0) * geom(2, 1)
    G = congruence_filter(F, [(1,), (2,)], group, group.elements())
    assert G.expand((5, 5)) == F.expand((5, 5))


def test_filter_law_on_seeds():
    group = AbelianGroup((2, 2))
    psi = [(1, 0), (0, 1)]
    target = [(0, 0), (1, 1)]
    seeds = [
        geom(2, 0, 1),
        FactoredRational.monomial(2, 0) * geom(2, 0),
        (FactoredRational.one(2) + FactoredRational.monomial(2, 0)) * geom(2, 1),
        geom(2, 0) * geom(2, 1),
        FactoredRational.constant(2, Fraction(1, 2)) * geom(2, 0, 0),
    ]
    for F in seeds:
        G = congruence_filter(F, psi, group, target)
        se, sf = G.expand((6, 6)), F.expand((6, 6))
        for e in itertools.product(range(7), repeat=2):
            keep = tuple((e[0] % 2, e[1] % 2)) in set(target)
            assert se.coefficient(e) == (sf.coefficient(e) if keep else 0)


def test_quasi_ordered_even_a():
    q = QuasiOrderedExpr(Star(AB), even_a_spec())
    F = quasi_ordered_genfun(q)
    dfa = intersect_dfa(compile_ordered(Star(AB), AB), compile_congruence(even_a_spec()))
    assert F.expand((8, 8)) == series_from_dfa(dfa, Norm.universal(AB), (8, 8))
    assert F.is_integral_denominator()


def test_quasi_ordered_empty_target():
    spec = CongruenceSpec(AbelianGroup((2,)), {"a": (1,), "b": (0,)}, [], AB)
    F = quasi_ordered_genfun(QuasiOrderedExpr(Star(AB), spec))
    assert F.expand((6, 6)).coefficients == {}


def test_quasi_ordered_mod3():
    spec = CongruenceSpec(AbelianGroup((3,)), {"a": (1,)}, {(0,)}, ("a",))
    F = quasi_ordered_genfun(QuasiOrderedExpr(Star(("a",)), spec))
    series = F.expand((9,))
    for n in range(10):
        assert series.coefficient((n,)) == (1 if n % 3 == 0 else 0)


def test_expand_rational_examples():
    assert FactoredRational.zero(2).expand((3, 3)).coefficients == {}
    F = geom(1, 0)
    s = F.expand((3,))
    assert [s.coefficient((n,)).rational_value() for n in range(4)] == [1, 1, 1, 1]

    half = FactoredRational.constant(2, Fraction(1, 2))
    mixed = half * geom(2, 0, 1) + half * geom(2, 0, 1).translate((1, 0), 2)
    assert mixed.expand((4, 4)).coefficient((2, 1)) == 3


def test_addition_cancels_common_factors():
    F = geom(2, 0) * geom(2, 1)
    G = FactoredRational.monomial(2, 0) * geom(2, 1)
    H = F + G
    # the shared factor (1 - t1) must appear exactly once
    assert len(H.factors) == 2
    s = H.expand((5, 5))
    for e in itertools.product(range(6), repeat=2):
        assert s.coefficient(e) == F.expand((5, 5)).coefficient(e) + G.expand((5, 5)).coefficient(e)


def test_factored_rational_json_round_trip():
    F = congruence_filter(geom(2, 0, 1), [(1,), (0,)], AbelianGroup((2,)), [(0,)])
    blob = F.to_json()
    G = FactoredRational.from_json(blob)
    assert G.to_json() == blob
    assert G.expand((5, 5)) == F.expand((5, 5))


def test_series_json_round_trip():
    s = geom(2, 0, 1).expand((3, 3))
    blob = s.to_json()
    t = SeriesTruncation.from_json(blob)
    assert t == s and t.to_json() == blob


def test_series_truncation_rejects_an_exponent_outside_the_bound():
    # the first offending exponent in payload order is named, whatever the
    # coefficient type, and a zero coefficient outside the bound counts too
    message = r"^series\.coefficients\[1\]\[0\] must be an exponent within the bound \[3, 3\], got \[1, 4\]$"
    for value in ([1, ["2"]], [1, ["1/2"]], [4, ["0", "1"]], [1, ["0"]]):
        blob = {"order": 1, "bound": [3, 3], "coefficients": [[[0, 0], value], [[1, 4], value], [[5, 0], value]]}
        with pytest.raises(ValidationError, match=message):
            SeriesTruncation.from_json(blob)
    blob = {"order": 1, "bound": [3, 3], "coefficients": [[[3, 3], [1, ["1"]]], [[4, 0], [4, ["0", "1"]]]]}
    with pytest.raises(ValidationError, match=r"^series\.coefficients\[1\]\[0\] must be .*, got \[4, 0\]$"):
        SeriesTruncation.from_json(blob)
    # the corner of the box is inside it, and a zero coefficient is dropped
    blob = {"order": 1, "bound": [3, 3], "coefficients": [[[3, 3], [1, ["1"]]], [[0, 3], [1, ["0"]]]]}
    series = SeriesTruncation.from_json(blob)
    assert series.coefficient((3, 3)) == 1 and list(series.coefficients) == [(3, 3)]


def test_series_truncation_rejects_an_exponent_of_the_wrong_length():
    # zipped against the bound, (1,) and (0, 1, 5) passed the bound check
    one, zero = [1, ["1"]], [1, ["0"]]
    for e in ([1], [0, 1, 5]):
        message = "^" + re.escape(f"series.coefficients[1][0] must have 2 entries, got {len(e)}") + "$"
        for value in (one, zero):
            blob = {"order": 1, "bound": [2, 2], "coefficients": [[[0, 0], one], [e, value]]}
            with pytest.raises(ValidationError, match=message):
                SeriesTruncation.from_json(blob)


def test_series_from_dfa_stores_ints_and_reads_cyclotomics():
    d = compile_ordered(Star(AB), AB)
    series = series_from_dfa(d, Norm.universal(AB), (3, 3))
    assert all(type(c) is int for c in series.coefficients.values())
    for e, count in [((2, 1), 3), ((0, 0), 1), ((3, 3), 20)]:
        c = series.coefficient(e)
        assert isinstance(c, CyclotomicNumber) and c.order == 1 and c.rational_value() == count
    zero = series_from_dfa(compile_ordered(Empty(), AB), Norm.universal(AB), (3, 3)).coefficient((1, 1))
    assert isinstance(zero, CyclotomicNumber) and zero.is_zero()


def test_int_backed_series_equals_the_cyclotomic_expansion():
    F = quasi_ordered_genfun(QuasiOrderedExpr(Star(AB), even_a_spec()))
    expanded = F.expand((5, 5))
    dfa = intersect_dfa(compile_ordered(Star(AB), AB), compile_congruence(even_a_spec()))
    counted = series_from_dfa(dfa, Norm.universal(AB), (5, 5))
    assert all(type(c) is CyclotomicNumber and c.order == 2 for c in expanded.coefficients.values())
    assert counted == expanded and expanded == counted
    off_by_one = dict(counted.coefficients)
    off_by_one[(2, 1)] += 1
    assert SeriesTruncation(1, (5, 5), off_by_one) != expanded
    missing = dict(counted.coefficients)
    del missing[(0, 5)]
    assert SeriesTruncation(1, (5, 5), missing) != expanded


def test_series_from_dfa_json_round_trip():
    d = compile_ordered(Concat((Star(AB), Sym("a"), Star(("b",)))), AB)
    series = series_from_dfa(d, Norm.universal(AB), (4, 3))
    blob = series.to_json()
    back = SeriesTruncation.from_json(blob)
    assert back == series and series == back and back.to_json() == blob
    assert [e for e, _ in blob["coefficients"]] == sorted(e for e, _ in blob["coefficients"])


def test_geometric_sum_equals_pairwise_addition():
    rng = random.Random(7)
    for order, nvars in [(1, 2), (3, 3), (4, 2), (6, 2)]:
        terms = []
        seen = set()
        while len(terms) < 5:
            form = LinearForm(
                {v: CyclotomicNumber.root(order, rng.randrange(order)) * rng.randint(-1, 2) for v in range(nvars)}
            )
            if form.terms and form.key(order) not in seen:
                seen.add(form.key(order))
                terms.append((form, CyclotomicNumber.root(order, rng.randrange(order)) * Fraction(rng.randint(1, 4), 3)))
        # a zero form adds no factor, wherever it comes
        terms.insert(2, (LinearForm({}), CyclotomicNumber.from_rational(Fraction(rng.randint(1, 3), 2))))
        pairwise = FactoredRational.zero(nvars)
        for form, c in terms:
            term = FactoredRational.geometric(nvars, form) if form.terms else FactoredRational.one(nvars)
            pairwise = pairwise + term.scale(c)
        # the same distinct factors, hence the same numerator and the same JSON
        assert FactoredRational.geometric_sum(nvars, terms).to_json() == pairwise.to_json()
    assert FactoredRational.geometric_sum(2, []).to_json() == FactoredRational.zero(2).to_json()
