import random
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
    from_coordinates,
    integer_coordinates,
    sum_of_products,
)
from quasilang.errors import ValidationError


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_examples():
    assert CyclotomicNumber.root(4, 2) == -1
    assert CyclotomicNumber.root(6, 3) == -1
    assert CyclotomicNumber.root(5, 5) == 1
    assert CyclotomicNumber.root(7, 0) == 1


def test_root_of_unity_and_phi_vanishing():
    # zeta_N^N = 1 and Phi_N(zeta_N) = 0 for all N <= 24, exactly.
    for n in range(1, 25):
        z = CyclotomicNumber.root(n, 1)
        assert z**n == 1
        acc = CyclotomicNumber.zero(n)
        for k, c in enumerate(cyclotomic_polynomial(n)):
            acc = acc + z**k * c
        assert acc.is_zero()


def test_arith_examples():
    z3 = CyclotomicNumber.root(3, 1)
    assert z3 + z3 * z3 == -1
    z4 = CyclotomicNumber.root(4, 1)
    assert z4 * z4 == -1
    one_plus_z5 = CyclotomicNumber.one(5) + CyclotomicNumber.root(5, 1)
    assert one_plus_z5 * CyclotomicNumber.one() == one_plus_z5


def test_mixed_order_embedding():
    assert CyclotomicNumber.root(2, 1).lift(6) == CyclotomicNumber.root(6, 3)
    # equality already lifts to the lcm order
    assert CyclotomicNumber.root(2, 1) == CyclotomicNumber.root(6, 3)
    assert CyclotomicNumber.root(3, 1) + CyclotomicNumber.root(2, 1) == CyclotomicNumber.root(6, 2) - 1


def test_inverse_examples():
    two = CyclotomicNumber.from_rational(2)
    assert two.inverse() == Fraction(1, 2)
    for n in (3, 4, 5, 12):
        z = CyclotomicNumber.root(n, 1)
        assert z.inverse() == CyclotomicNumber.root(n, n - 1)
    # oracle: extended Euclid result must multiply back to 1
    a = CyclotomicNumber.one(3) + CyclotomicNumber.root(3, 1)
    inv = a.inverse()
    assert a * inv == 1
    assert inv == -CyclotomicNumber.root(3, 1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(5).inverse()


def _random_element(rng: random.Random, order: int) -> CyclotomicNumber:
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(order))]
    return CyclotomicNumber(order, coeffs)


@given(st.integers(min_value=1, max_value=12), st.integers())
@settings(max_examples=60, deadline=None)
def test_field_axioms_random(order, seed):
    rng = random.Random(seed)
    a = _random_element(rng, order)
    b = _random_element(rng, order)
    c = _random_element(rng, order)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not a.is_zero():
        assert a * a.inverse() == 1


def test_cross_order_distributivity():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_element(rng, rng.choice([2, 3, 4]))
        b = _random_element(rng, rng.choice([3, 4, 6]))
        c = _random_element(rng, rng.choice([2, 6]))
        assert a * (b + c) == a * b + a * c
        assert (a + b).order == lcm(a.order, b.order)


def test_conjugate():
    z5 = CyclotomicNumber.root(5, 1)
    assert z5.conjugate() == CyclotomicNumber.root(5, 4)
    a = _random_element(random.Random(3), 7)
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).conjugate() == a * a.conjugate()


def test_integrality_flag():
    assert CyclotomicNumber.root(8, 3).is_integral()
    assert not CyclotomicNumber.from_rational(Fraction(1, 2)).is_integral()
    assert (CyclotomicNumber.root(4, 1) + 3).is_integral()


def test_integer_coordinates_lift_conjugate_and_sum():
    values = [
        CyclotomicNumber.root(4),
        CyclotomicNumber.from_rational(Fraction(-1, 2)),
        CyclotomicNumber.root(3, 2) * Fraction(2, 3),
        CyclotomicNumber.from_rational(5, 2),
    ]
    for conjugate in (False, True):
        n, nums, den = integer_coordinates(values, 2, conjugate)
        assert (n, den) == (12, 6)
        assert all(type(c) is int for num in nums for c in num)
        for x, num in zip(values, nums):
            assert from_coordinates(n, num, den) == (x.conjugate() if conjugate else x)
    n, xs, den = integer_coordinates(values)
    _, ys, _ = integer_coordinates(values, conjugate=True)
    total = from_coordinates(n, sum_of_products(zip((1, 2, -3, 4), xs, ys), n), den * den)
    assert total == sum((s * x * x.conjugate() for s, x in zip((1, 2, -3, 4), values)), CyclotomicNumber.zero())
    assert integer_coordinates([]) == (1, [], 1) and sum_of_products([], 5) == [0, 0, 0, 0]


def test_json_round_trip():
    vals = [
        CyclotomicNumber.from_rational(Fraction(-7, 3)),
        CyclotomicNumber.root(12, 5) + Fraction(1, 2),
        CyclotomicNumber.zero(9),
    ]
    for v in vals:
        blob = cyclotomic_to_json(v)
        back = cyclotomic_from_json(blob)
        assert back == v and back.order == v.order
        assert cyclotomic_to_json(back) == blob


def test_an_int_serializes_as_the_order_one_number():
    for n in (0, 1, -7, 3**40):
        assert cyclotomic_to_json(n) == cyclotomic_to_json(CyclotomicNumber.from_rational(n)) == [1, [str(n)]]
    with pytest.raises(ValidationError, match=r"cyclotomic\[0\] must be an integer, got 1.7"):
        cyclotomic_from_json([1.7, ["1"]])


def test_package_exports_import():
    import quasilang

    for name in quasilang.__all__:
        assert getattr(quasilang, name) is not None, name


def test_json_coordinates_are_exact():
    """A float coordinate was read through str(), so [1, [0.5]] was 1/2."""
    assert cyclotomic_from_json([1, ["1/2"]]) == Fraction(1, 2)
    assert cyclotomic_from_json([1, [3]]) == 3
    assert cyclotomic_from_json([3, ["-4", "2/6"]]) == CyclotomicNumber(3, [-4, Fraction(1, 3)])
    for coordinate in (0.5, 1.0, True, "0.5", "1e3", " 1", "+1", "1/0", "1/-2", None, [1]):
        with pytest.raises(ValidationError, match=r'^cyclotomic\[1\]\[0\] must be an integer or a "p/q" string'):
            cyclotomic_from_json([1, [coordinate]])
    with pytest.raises(ValidationError, match=r"^cyclotomic must have 2 entries, got 3"):
        cyclotomic_from_json([1, ["1"], 2])
