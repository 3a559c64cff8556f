"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are represented in the power basis 1, z, ..., z^(phi(N)-1) of
Q[x]/Phi_N(x), where Phi_N is the N-th cyclotomic polynomial.  Working
modulo Phi_N (rather than x^N - 1) keeps the ring a field, so zero testing
is plain coordinate comparison.

An element stores integer numerators over one positive common denominator,
in lowest terms (the denominator and the numerators have gcd 1), so each
value has exactly one representation at a given order.  For each order a
cached table holds x^k mod Phi_N as sparse integer rows for every k below
max(N, 2 phi(N) - 1).  Products are reduced with it, and lifts into a
larger order, powers of zeta and Galois conjugates (complex conjugation
among them) are integer combinations of its rows.  The inverse is the
product of the other Galois conjugates over the field norm.  A product with
a rational operand (order 1) scales the other operand instead of lifting it.
`coeffs` reads the coordinates back as `fractions.Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import Payload, ValidationError


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValidationError(f"euler_phi needs n >= 1, got {n}")
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials (coefficients low to high); den must be monic."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(1, len(num) - deg_d)
    while len(num) - 1 >= deg_d and any(num):
        shift = len(num) - 1 - deg_d
        lead = num[-1]
        quot[shift] = lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of Phi_n, computed by exact division of x^n - 1."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            quot, rem = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise AssertionError(f"Phi_{d} does not divide current quotient for n={n}")
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _field(order: int) -> tuple[int, tuple]:
    """(phi(order), rows) with rows[k] = x^k mod Phi_order as sparse
    (index, coefficient) pairs, for 0 <= k < max(order, 2 phi(order) - 1):
    enough for every power of zeta and for the product of two reduced
    elements."""
    d = euler_phi(order)
    phi = cyclotomic_polynomial(order)
    row = [1] + [0] * (d - 1)
    rows = []
    for _ in range(max(order, 2 * d - 1)):
        rows.append(tuple([(i, c) for i, c in enumerate(row) if c]))
        # times x, folding x^d = -(phi_0 + phi_1 x + ... + phi_(d-1) x^(d-1))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for i in range(d):
                row[i] -= top * phi[i]
    return d, tuple(rows)


_new = object.__new__


def _make(order: int, num, den: int = 1) -> "CyclotomicNumber":
    """The element with integer numerators `num` over den > 0, in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    x = _new(CyclotomicNumber)
    x.order = order
    x._num = tuple(num)
    x._den = den
    x._coeffs = None
    return x


def _mul_num(a, b, rows) -> list[int]:
    """Product of two reduced integer coordinate vectors, reduced."""
    d = len(a)
    if d == 1:
        return [a[0] * b[0]]
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            for i, r in rows[k]:
                prod[i] += c * r
    del prod[d:]
    return prod


def _substitute(num, rows, step: int, order: int, d: int) -> list[int]:
    """sum_i num[i] x^(i * step mod order), reduced: a lift when step is
    target/source order, a Galois map when step is a unit mod order."""
    out = [0] * d
    for i, c in enumerate(num):
        if c:
            for j, r in rows[i * step % order]:
                out[j] += c * r
    return out


class CyclotomicNumber:
    """An element of Q(zeta_N) in the power basis of Q[x]/Phi_N(x).

    Values are immutable; all operations return fresh instances.  Mixed-order
    arithmetic lifts both operands into Q(zeta_lcm) via zeta_a = zeta_lcm^(lcm/a);
    a product with a rational (order 1) operand scales the other one instead.
    Instances are not hashable (equality is order-insensitive); use `key()` for
    dictionary keys at a fixed order.
    """

    __slots__ = ("order", "_num", "_den", "_coeffs")

    def __init__(self, order: int, coeffs) -> None:
        coeffs = tuple([Fraction(c) for c in coeffs])
        if len(coeffs) != euler_phi(order):
            raise ValidationError(
                f"need {euler_phi(order)} coordinates for order {order}, got {len(coeffs)}"
            )
        den = lcm(*[q.denominator for q in coeffs])
        self.order = order
        self._num = tuple([q.numerator * (den // q.denominator) for q in coeffs])
        self._den = den
        self._coeffs = coeffs

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (built on first use)."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple([Fraction(n, den) for n in self._num])
        return self._coeffs

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        d = _field(order)[0]
        return _make(order, (value.numerator,) + (0,) * (d - 1), value.denominator)

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def root(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        """zeta_order^power, reduced into the power basis."""
        d, rows = _field(order)
        out = [0] * d
        for i, c in rows[power % order]:
            out[i] = c
        return _make(order, out)

    # -- representation helpers -------------------------------------------

    def lift(self, order: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValidationError(f"cannot lift order {self.order} into order {order}")
        d, rows = _field(order)
        return _make(order, _substitute(self._num, rows, order // self.order, order, d), self._den)

    def key(self, order: int | None = None):
        """Hashable canonical key at a fixed order (for dict/multiset use)."""
        v = self.lift(order) if order is not None else self
        return (v.order, v.coeffs)

    # -- field operations ---------------------------------------------------

    def _add(self, other, sign: int) -> "CyclotomicNumber":
        """self + sign * other."""
        if type(other) is not CyclotomicNumber:
            other = CyclotomicNumber.from_rational(other)
        a, b = self, other
        if a.order != b.order:
            n = lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        an, ad, bn, bd = a._num, a._den, b._num, b._den
        return _make(a.order, [x * bd + sign * y * ad for x, y in zip(an, bn)], ad * bd)

    def __add__(self, other):
        return self._add(other, 1)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return -self._add(other, -1)

    def __neg__(self):
        return _make(self.order, [-c for c in self._num], self._den)

    def _scale(self, p: int, q: int) -> "CyclotomicNumber":
        """self * p / q for integers p and q > 0."""
        return _make(self.order, [c * p for c in self._num], self._den * q)

    def __mul__(self, other):
        if type(other) is not CyclotomicNumber:
            if not isinstance(other, (int, Fraction)):
                other = Fraction(other)
            return self._scale(other.numerator, other.denominator)
        if other.order == 1:
            return self._scale(other._num[0], other._den)
        if self.order == 1:
            return other._scale(self._num[0], self._den)
        a, b = self, other
        if a.order != b.order:
            n = lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        rows = _field(a.order)[1]
        return _make(a.order, _mul_num(a._num, b._num, rows), a._den * b._den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CyclotomicNumber.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the field norm (the product of all of them, a nonzero rational)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.order
        d, rows = _field(n)
        others = [1] + [0] * (d - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                others = _mul_num(others, _substitute(self._num, rows, k, n, d), rows)
        norm = _mul_num(self._num, others, rows)[0]
        sign = 1 if norm > 0 else -1
        return _make(n, [sign * self._den * c for c in others], sign * norm)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugate: the Galois map zeta -> zeta^(-1)."""
        n = self.order
        if n <= 2:
            return self
        d, rows = _field(n)
        return _make(n, _substitute(self._num, rows, -1, n, d), self._den)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    def is_integral(self) -> bool:
        """Whether the value lies in Z[zeta_N] (integer power-basis coordinates)."""
        return self._den == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self._num[0] == other * self._den
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self, other
        if a.order != b.order:
            n = lcm(a.order, b.order)
            a, b = a.lift(n), b.lift(n)
        return a._den == b._den and a._num == b._num

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


# -- integer coordinates, for kernels that sum many products ---------------


def integer_coordinates(values, order: int = 1, conjugate: bool = False) -> tuple[int, list, int]:
    """(N, nums, den) for a sequence of values: N the lcm of `order` and their
    orders, and nums[i] / den the coordinates in Q(zeta_N) of values[i], or of
    its complex conjugate, integer vectors over one common den."""
    # lists, not generators: *args from a generator builds a resized tuple that
    # leaves the cyclic GC's allocation count raised, so collections come sooner
    n, den = lcm(order, *[x.order for x in values]), lcm(*[x._den for x in values])
    d, rows = _field(n)
    step = -n if conjugate else n  # zeta_m -> zeta_n^(+-n/m), the identity when n <= 2
    nums = [x._num if n <= 2 or step == x.order else _substitute(x._num, rows, step // x.order, n, d) for x in values]
    if den > 1:
        nums = [[c * (den // x._den) for c in num] for x, num in zip(values, nums)]
    return n, nums, den


def sum_of_products(terms, order: int) -> list[int]:
    """The integer coordinates in Q(zeta_order) of the sum of s * a * b over
    the (s, a, b) in terms, a and b integer coordinate vectors there."""
    d, rows = _field(order)
    total = [0] * d
    for s, a, b in terms:
        total = [t + s * p for t, p in zip(total, _mul_num(a, b, rows))]
    return total


def from_coordinates(order: int, num, den: int = 1) -> CyclotomicNumber:
    """The number num / den of Q(zeta_order), num integer coordinates."""
    return _make(order, num, den)


# -- JSON serialization: [N, ["p/q", ...]] with rationals as strings --------


def fraction_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cyclotomic_to_json(c: CyclotomicNumber | int) -> list:
    if type(c) is int:  # the order-1 number c
        return [1, [str(c)]]
    if c._den == 1:  # integral coordinates: no Fractions to build
        return [c.order, [str(n) for n in c._num]]
    return [c.order, [fraction_to_str(x) for x in c.coeffs]]


def cyclotomic_from_json(data) -> CyclotomicNumber:
    """[N, coordinates], each coordinate an int or a "p/q" string."""
    order, coeffs = Payload.of(data, "cyclotomic").list(2)
    return coeffs.check(CyclotomicNumber, order.int(1), coeffs.rationals())
