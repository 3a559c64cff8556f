"""The integer polynomial kernel of `FactoredRational` against the
dict-of-CyclotomicNumber arithmetic it replaced, kept here as the reference.

The reference keeps a numerator as a dict from exponent tuples to
`CyclotomicNumber`s and allocates one of them per coefficient operation:
products and sums of such dicts, `geometric_sum` by repeated products with
1 - form, `+` over the multiset lcm of the factors, `translate` by a root of
unity per coefficient, and `expand` by the graded recursion over exponent
tuples.  The kernel under test runs the same operations on integer
power-basis vectors over one common denominator.  Both must give the same
JSON, byte for byte, on random rationals over Q(zeta_N) for N in 1, 2, 3, 4,
5, 6, 8, 9 and 12 (mixed orders included, fractional coefficients in the
numerator and in the factors), on `geometric_sum` with zero forms, and on
`congruence_filter` and `wreath.diag_induced_series`.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from quasilang import grouptheory, wreath
from quasilang.cyclotomic import CyclotomicNumber, cyclotomic_from_json, cyclotomic_to_json, euler_phi
from quasilang.genfun import FactoredRational, LinearForm, congruence_filter
from quasilang.langkit import AbelianGroup

# ---------------------------------------------------------------------------
# the dict-of-CyclotomicNumber reference


def _pstrip(p: dict) -> dict:
    return {e: c for e, c in p.items() if not c.is_zero()}


def _padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out[e] + c if e in out else c
    return _pstrip(out)


def _pscale(p: dict, c) -> dict:
    return _pstrip({e: v * c for e, v in p.items()})


def _pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _pstrip(out)


def _form_poly(form: LinearForm, nvars: int) -> dict:
    def unit(v):
        e = [0] * nvars
        e[v] = 1
        return tuple(e)

    return {unit(v): c for v, c in form.terms}


class RefRational:
    """numerator / prod_k (1 - lambda_k), the numerator a dict of
    CyclotomicNumbers lifted to the order."""

    def __init__(self, nvars: int, order: int, numerator: dict, factors=()):
        self.nvars = nvars
        self.order = order
        self.numerator = {e: c.lift(order) for e, c in numerator.items() if not c.is_zero()}
        self.factors = tuple(sorted((f.lift(order) for f in factors), key=lambda f: f.key(order)))

    @classmethod
    def zero(cls, nvars: int) -> "RefRational":
        return cls(nvars, 1, {})

    @classmethod
    def geometric_sum(cls, nvars: int, terms) -> "RefRational":
        order = 1
        for form, c in terms:
            order = lcm(order, c.order, *(v.order for _, v in form.terms))
        one = {(0,) * nvars: CyclotomicNumber.one(order)}
        num: dict = {}
        den = one
        factors = []
        for form, c in terms:
            if not form.terms:
                num = _padd(num, _pscale(den, c))
                continue
            factor = _padd(one, _pscale(_form_poly(form, nvars), -1))
            num = _padd(_pmul(num, factor), _pscale(den, c))
            den = _pmul(den, factor)
            factors.append(form)
        return cls(nvars, order, num, factors)

    def __add__(self, other: "RefRational") -> "RefRational":
        order = lcm(self.order, other.order)
        ca = Counter(f.key(order) for f in self.factors)
        cb = Counter(f.key(order) for f in other.factors)
        common = ca & cb
        extra_a = ca - common
        extra_b = cb - common
        forms = {}
        for f in itertools.chain(self.factors, other.factors):
            forms.setdefault(f.key(order), f.lift(order))

        def poly_of(counter) -> dict:
            p = {(0,) * self.nvars: CyclotomicNumber.one(order)}
            for key, mult in counter.items():
                factor_poly = _padd(
                    {(0,) * self.nvars: CyclotomicNumber.one(order)},
                    _pscale(_form_poly(forms[key], self.nvars), -1),
                )
                for _ in range(mult):
                    p = _pmul(p, factor_poly)
            return p

        num = _padd(
            _pmul(self.numerator, poly_of(extra_b)),
            _pmul(other.numerator, poly_of(extra_a)),
        )
        all_factors = list(common.elements()) + list(extra_a.elements()) + list(extra_b.elements())
        return RefRational(self.nvars, order, num, tuple(forms[k] for k in all_factors))

    def __mul__(self, other: "RefRational") -> "RefRational":
        order = lcm(self.order, other.order)
        return RefRational(
            self.nvars, order, _pmul(self.numerator, other.numerator), self.factors + other.factors
        )

    def scale(self, c) -> "RefRational":
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(c)
        order = lcm(self.order, c.order)
        return RefRational(self.nvars, order, _pscale(self.numerator, c), self.factors)

    def translate(self, exponents, root_order: int | None = None) -> "RefRational":
        ro = root_order or self.order
        order = lcm(self.order, ro)
        scale = {i: CyclotomicNumber.root(ro, k).lift(order) for i, k in enumerate(exponents)}
        num = {}
        for e, c in self.numerator.items():
            num[e] = c * CyclotomicNumber.root(ro, sum(k * n for k, n in zip(exponents, e)))
        factors = tuple(f.lift(order).scaled_vars(scale) for f in self.factors)
        return RefRational(self.nvars, order, num, factors)

    def expand(self, bound) -> dict:
        """The JSON of the truncated series."""
        poly = {e: c for e, c in self.numerator.items() if all(x <= b for x, b in zip(e, bound))}
        exponents = sorted(itertools.product(*(range(b + 1) for b in bound)), key=lambda e: (sum(e), e))
        for f in self.factors:
            new: dict = {}
            for e in exponents:
                acc = poly.get(e)
                for v, c in f.terms:
                    if e[v]:
                        prev = new.get(e[:v] + (e[v] - 1,) + e[v + 1 :])
                        if prev is not None:
                            contrib = prev * c
                            acc = contrib if acc is None else acc + contrib
                if acc is not None and not acc.is_zero():
                    new[e] = acc
            poly = new
        return {
            "order": self.order,
            "bound": list(bound),
            "coefficients": [[list(e), cyclotomic_to_json(c)] for e, c in sorted(poly.items())],
        }

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "order": self.order,
            "numerator": [[list(e), cyclotomic_to_json(c)] for e, c in sorted(self.numerator.items())],
            "factors": [[[v, cyclotomic_to_json(c)] for v, c in f.terms] for f in self.factors],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RefRational":
        num = {tuple(e): cyclotomic_from_json(c) for e, c in data["numerator"]}
        factors = [LinearForm({v: cyclotomic_from_json(c) for v, c in terms}) for terms in data["factors"]]
        return cls(data["nvars"], data["order"], num, factors)


def ref_congruence_filter(F: RefRational, psi, group: AbelianGroup, target) -> RefRational:
    n_mod = group.exponent
    result = RefRational.zero(F.nvars)
    for chi in group.elements():
        weight = CyclotomicNumber.zero(n_mod)
        for s in target:
            weight = weight + CyclotomicNumber.root(n_mod, -group.char_exponent(chi, s, n_mod))
        coeff = weight * Fraction(1, group.size)
        if coeff.is_zero():
            continue
        exps = [group.char_exponent(chi, g, n_mod) for g in psi]
        result = result + F.translate(exps, n_mod).scale(coeff)
    return result


def same(kernel: dict, reference: dict) -> bool:
    return json.dumps(kernel) == json.dumps(reference)


# ---------------------------------------------------------------------------
# random rationals

ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cyclotomics(draw, order: int, fractional: bool = True) -> CyclotomicNumber:
    """An element of Q(zeta_k) for a divisor k of order."""
    k = draw(st.sampled_from([k for k in range(1, order + 1) if order % k == 0]))
    coords = st.integers(-2, 2) if not fractional else small
    return CyclotomicNumber(k, draw(st.lists(coords, min_size=euler_phi(k), max_size=euler_phi(k))))


@st.composite
def forms(draw, nvars: int, order: int) -> LinearForm:
    variables = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars))
    return LinearForm({v: draw(cyclotomics(order)) for v in sorted(variables)})


@st.composite
def rational_blobs(draw, nvars: int, order: int | None = None) -> dict:
    """The JSON of a random rational in nvars variables."""
    order = order or draw(st.sampled_from(ORDERS))
    exponents = draw(st.sets(st.tuples(*[st.integers(0, 3)] * nvars), max_size=4))
    numerator = [[list(e), cyclotomic_to_json(draw(cyclotomics(order)))] for e in sorted(exponents)]
    factors = draw(st.lists(forms(nvars, order), max_size=3))
    return {
        "nvars": nvars,
        "order": order,
        "numerator": numerator,
        "factors": [[[v, cyclotomic_to_json(c)] for v, c in f.terms] for f in factors],
    }


def pair(blob: dict) -> tuple[FactoredRational, RefRational]:
    return FactoredRational.from_json(blob), RefRational.from_json(blob)


bounds = st.integers(1, 3).flatmap(lambda n: st.tuples(*[st.integers(0, 3)] * n))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_json_and_expand_match_the_reference(data):
    bound = data.draw(bounds)
    F, R = pair(data.draw(rational_blobs(len(bound))))
    assert same(F.to_json(), R.to_json())
    assert same(F.expand(bound).to_json(), R.expand(bound))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_product_scale_and_translate_match_the_reference(data):
    bound = data.draw(bounds)
    nvars = len(bound)
    F, R = pair(data.draw(rational_blobs(nvars)))
    G, S = pair(data.draw(rational_blobs(nvars)))
    assert same((F + G).to_json(), (R + S).to_json())
    assert same((F + F).to_json(), (R + R).to_json())
    assert same((F * G).to_json(), (R * S).to_json())
    c = data.draw(cyclotomics(12))
    assert same(F.scale(c).to_json(), R.scale(c).to_json())
    exps = data.draw(st.lists(st.integers(-12, 12), min_size=nvars, max_size=nvars))
    root_order = data.draw(st.sampled_from((None,) + ORDERS))
    T, U = F.translate(exps, root_order), R.translate(exps, root_order)
    assert same(T.to_json(), U.to_json())
    assert same((T + G).expand(bound).to_json(), (U + S).expand(bound))


@st.composite
def geometric_terms(draw, nvars: int, order: int) -> list:
    """Distinct forms with weights; a zero form may come anywhere."""
    terms, seen = [], set()
    for form in draw(st.lists(forms(nvars, order), max_size=5)):
        if form.key(order) not in seen:
            seen.add(form.key(order))
            terms.append((form, draw(cyclotomics(order))))
    return terms


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_geometric_sum_matches_the_reference(data):
    bound = data.draw(bounds)
    order = data.draw(st.sampled_from(ORDERS))
    terms = data.draw(geometric_terms(len(bound), order))
    F, R = FactoredRational.geometric_sum(len(bound), terms), RefRational.geometric_sum(len(bound), terms)
    assert same(F.to_json(), R.to_json())
    assert same(F.expand(bound).to_json(), R.expand(bound))


GROUPS = ((2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 3), (2, 4))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_congruence_filter_matches_the_reference(data):
    bound = data.draw(bounds)
    group = AbelianGroup(data.draw(st.sampled_from(GROUPS)))
    elements = group.elements()
    psi = [data.draw(st.sampled_from(elements)) for _ in bound]
    target = data.draw(st.sets(st.sampled_from(elements), min_size=1))
    F, R = pair(data.draw(rational_blobs(len(bound), data.draw(st.sampled_from((1, 2, 3, 4))))))
    G, S = congruence_filter(F, psi, group, target), ref_congruence_filter(R, psi, group, target)
    assert same(G.to_json(), S.to_json())
    assert same(G.expand(bound).to_json(), S.expand(bound))


Z2 = grouptheory.FiniteGroup.cyclic(2)
TABLE_GROUPS = [grouptheory.FiniteGroup.cyclic(n) for n in range(1, 7)] + [
    grouptheory.FiniteGroup.symmetric(3),
    grouptheory.FiniteGroup.symmetric(4),
    grouptheory.FiniteGroup.direct_product(Z2, Z2),
]


def ref_diag_induced_series(table, i: int) -> RefRational:
    nvars = len(table.rows)
    terms = []
    for c in range(table.n_classes):
        form = LinearForm({j: table.rows[j][c] for j in range(nvars)})
        weight = table.rows[i][c].conjugate() * Fraction(table.class_sizes[c], table.group_order)
        terms.append((form, weight))
    return RefRational.geometric_sum(nvars, terms)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TABLE_GROUPS), st.data())
def test_diag_induced_series_matches_the_reference(group, data):
    table = grouptheory.character_table(group)
    i = data.draw(st.integers(0, len(table.rows) - 1))
    F, R = wreath.diag_induced_series(table, i), ref_diag_induced_series(table, i)
    assert same(F.to_json(), R.to_json())
    bound = (2,) * len(table.rows)
    assert same(F.expand(bound).to_json(), R.expand(bound))
