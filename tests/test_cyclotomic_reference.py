"""The integer cyclotomic kernel against the Fraction kernel it replaced,
kept here as the reference.

The reference stores one `Fraction` per power-basis coordinate, lifts both
operands to their lcm order on every operation, reduces modulo Phi_N by
long division and inverts by the extended Euclidean algorithm over Q[x].
The kernel under test stores integer numerators over one common
denominator and reduces with a per-order table.  Every operation is
compared coordinate by coordinate, through `coeffs`, `key()` and the JSON
form, on random elements of orders 1-12, 15 and 24, including mixed orders.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilang.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_from_json,
    cyclotomic_polynomial,
    cyclotomic_to_json,
    euler_phi,
)
from quasilang.errors import ValidationError

# ---------------------------------------------------------------------------
# Fraction reference


def _reduce_mod_phi(coeffs: list[Fraction], order: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in z modulo Phi_order; result has length phi(order)."""
    phi = list(cyclotomic_polynomial(order))
    deg = len(phi) - 1
    work = list(coeffs)
    while len(work) > deg:
        lead = work.pop()
        if lead:
            shift = len(work) - deg
            for i in range(deg):
                work[shift + i] -= lead * phi[i]
    work += [Fraction(0)] * (deg - len(work))
    return tuple(work)


class RefCyclotomic:
    """An element of Q(zeta_N) in the power basis of Q[x]/Phi_N(x).

    Values are immutable; all operations return fresh instances.  Mixed-order
    arithmetic lifts both operands into Q(zeta_lcm) via zeta_a = zeta_lcm^(lcm/a).
    Instances are not hashable (equality is order-insensitive); use `key()` for
    dictionary keys at a fixed order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if order < 1:
            raise ValidationError(f"cyclotomic order must be >= 1, got {order}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValidationError(
                f"need {euler_phi(order)} coordinates for order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "RefCyclotomic":
        coeffs = [Fraction(value)] + [Fraction(0)] * (euler_phi(order) - 1)
        return cls(order, coeffs)

    @classmethod
    def zero(cls, order: int = 1) -> "RefCyclotomic":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "RefCyclotomic":
        return cls.from_rational(1, order)

    @classmethod
    def root(cls, order: int, power: int = 1) -> "RefCyclotomic":
        """zeta_order^power, reduced into the power basis."""
        power %= order
        poly = [Fraction(0)] * power + [Fraction(1)]
        return cls(order, _reduce_mod_phi(poly, order))

    # -- representation helpers -------------------------------------------

    def lift(self, order: int) -> "RefCyclotomic":
        """Embed into Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValidationError(f"cannot lift order {self.order} into order {order}")
        step = order // self.order
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return RefCyclotomic(order, _reduce_mod_phi(poly, order))

    def key(self, order: int | None = None):
        """Hashable canonical key at a fixed order (for dict/multiset use)."""
        v = self.lift(order) if order is not None else self
        return (v.order, v.coeffs)

    @staticmethod
    def _coerce(a, b) -> tuple["RefCyclotomic", "RefCyclotomic"]:
        if not isinstance(a, RefCyclotomic):
            a = RefCyclotomic.from_rational(a)
        if not isinstance(b, RefCyclotomic):
            b = RefCyclotomic.from_rational(b)
        n = lcm(a.order, b.order)
        return a.lift(n), b.lift(n)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce(self, other)
        return RefCyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        a, b = self._coerce(self, other)
        return RefCyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        a, b = self._coerce(other, self)
        return RefCyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return RefCyclotomic(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefCyclotomic(self.order, [c * other for c in self.coeffs])
        a, b = self._coerce(self, other)
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        return RefCyclotomic(a.order, _reduce_mod_phi(prod, a.order))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = RefCyclotomic.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "RefCyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # Invariants: r0 = u0*a + v0*Phi, r1 = u1*a + v1*Phi (v's not tracked).
        r0, u0 = list(self.coeffs), [Fraction(1)]
        r1, u1 = phi, [Fraction(0)]

        def _deg(p):
            d = len(p) - 1
            while d > 0 and not p[d]:
                d -= 1
            return d if any(p) else -1

        while _deg(r1) >= 0:
            d0, d1 = _deg(r0), _deg(r1)
            if d0 < d1:
                r0, r1, u0, u1 = r1, r0, u1, u0
                continue
            factor = r0[_deg(r0)] / r1[_deg(r1)]
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[shift + i] -= factor * r1[i]
            u0 += [Fraction(0)] * (shift + len(u1) - len(u0))
            for i in range(len(u1)):
                u0[shift + i] -= factor * u1[i]
            if _deg(r0) < _deg(r1):
                r0, r1, u0, u1 = r1, r0, u1, u0
        # r0 is now a nonzero constant g with g = u0 * self (mod Phi).
        g = r0[0]
        inv = [c / g for c in u0]
        return RefCyclotomic(self.order, _reduce_mod_phi(inv, self.order))

    def conjugate(self) -> "RefCyclotomic":
        """Complex conjugate: the Galois map zeta -> zeta^(-1)."""
        if self.order <= 2:
            return self
        poly = [Fraction(0)] * self.order
        for i, c in enumerate(self.coeffs):
            poly[(-i) % self.order] += c
        return RefCyclotomic(self.order, _reduce_mod_phi(poly, self.order))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_integral(self) -> bool:
        """Whether the value lies in Z[zeta_N] (integer power-basis coordinates)."""
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, RefCyclotomic):
            return NotImplemented
        n = lcm(self.order, other.order)
        return self.lift(n).coeffs == other.lift(n).coeffs

    __hash__ = None  # equality is order-insensitive; use key() for dict keys

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"({c})*z{self.order}")
            else:
                terms.append(f"({c})*z{self.order}^{i}")
        return " + ".join(terms)


def reference_to_json(c: RefCyclotomic) -> list:
    return [
        c.order,
        [str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}" for q in c.coeffs],
    ]


# ---------------------------------------------------------------------------
# random elements: the same coordinates built in both kernels

ORDERS = list(range(1, 13)) + [15, 24]

coordinates = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)


@st.composite
def pairs(draw, order=None):
    """(reference, kernel) elements with equal coordinates."""
    if order is None:
        order = draw(st.sampled_from(ORDERS))
    coeffs = draw(st.lists(coordinates, min_size=euler_phi(order), max_size=euler_phi(order)))
    return RefCyclotomic(order, coeffs), CyclotomicNumber(order, coeffs)


@st.composite
def two_pairs(draw):
    """Two elements whose orders are equal, rational on one side, or unrelated."""
    first = draw(pairs())
    how = draw(st.sampled_from(["same", "rational", "any"]))
    order = {"same": first[0].order, "rational": 1, "any": None}[how]
    second = draw(pairs(order))
    return (first, second) if draw(st.booleans()) else (second, first)


def assert_same(ref: RefCyclotomic, new: CyclotomicNumber) -> None:
    assert isinstance(new, CyclotomicNumber)
    assert new.order == ref.order
    assert new.coeffs == ref.coeffs
    assert all(type(q) is Fraction for q in new.coeffs)
    assert new.key() == ref.key()
    blob = cyclotomic_to_json(new)
    assert blob == reference_to_json(ref)
    back = cyclotomic_from_json(blob)
    assert back.key() == new.key() and back == new
    assert new.is_zero() == ref.is_zero()
    assert new.is_rational() == ref.is_rational()
    assert new.is_integral() == ref.is_integral()
    if ref.is_rational():
        assert new.rational_value() == ref.rational_value()


@given(two_pairs(), st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
@settings(max_examples=200, deadline=None)
def test_binary_operations_match_reference(operands, k, q):
    (ra, na), (rb, nb) = operands
    assert_same(ra + rb, na + nb)
    assert_same(ra - rb, na - nb)
    assert_same(ra * rb, na * nb)
    assert_same(ra + k, na + k)
    assert_same(k - ra, k - na)
    assert_same(ra * k, na * k)
    assert_same(q * ra, q * na)
    assert_same(ra - q, na - q)
    assert (na == nb) == (ra == rb)
    assert (na == k) == (ra == k) and (na == q) == (ra == q)
    n = lcm(ra.order, rb.order)
    assert na.key(n) == ra.key(n) and nb.key(n) == rb.key(n)


@given(pairs(), st.integers(-3, 5), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_unary_operations_match_reference(pair, k, m):
    ref, new = pair
    assert_same(ref, new)
    assert_same(-ref, -new)
    assert_same(ref.conjugate(), new.conjugate())
    target = ref.order * m
    assert_same(ref.lift(target), new.lift(target))
    assert new.key(target) == ref.key(target)
    assert new.lift(target) == new
    if ref.is_zero():
        for op in (ref.inverse, new.inverse):
            with pytest.raises(ZeroDivisionError):
                op()
        if k >= 0:
            assert_same(ref**k, new**k)
    else:
        assert_same(ref.inverse(), new.inverse())
        assert_same(ref**k, new**k)


@given(st.sampled_from(ORDERS), st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_roots_match_reference(order, power):
    assert_same(RefCyclotomic.root(order, power), CyclotomicNumber.root(order, power))


def test_mismatched_lift_and_length_are_rejected():
    a = CyclotomicNumber.root(4, 1)
    for bad in (lambda: a.lift(6), lambda: CyclotomicNumber(5, [1, 2]), lambda: CyclotomicNumber(0, [])):
        with pytest.raises(ValidationError):
            bad()
