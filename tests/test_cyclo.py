import random
from fractions import Fraction
from math import gcd

import pytest

from qcenters.angles import AngleQZ
from qcenters.cyclo import (
    CycloError,
    CycloNum,
    cyclotomic_poly,
    qbinom,
    qfact,
    qint,
    root_of_unity,
)


def test_cyclotomic_poly_examples():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)


def test_cyclotomic_poly_product_recovers_xn_minus_1():
    for n in (6, 8, 12):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = [Fraction(c) for c in cyclotomic_poly(d)]
                new = [Fraction(0)] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        expected = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        assert prod == expected


def test_root_of_unity_examples():
    assert root_of_unity(AngleQZ(0, 1), 4) == 1
    assert root_of_unity(AngleQZ(1, 2), 4) == -1
    i = root_of_unity(AngleQZ(1, 4), 4)
    assert i * i == -1
    with pytest.raises(CycloError):
        root_of_unity(AngleQZ(1, 3), 4)


def test_root_of_unity_multiplicative():
    rng = random.Random(0)
    for _ in range(25):
        d1, d2 = rng.randint(1, 12), rng.randint(1, 12)
        a = AngleQZ.of(Fraction(rng.randint(0, d1 - 1), d1)) if d1 > 1 else AngleQZ(0, 1)
        b = AngleQZ.of(Fraction(rng.randint(0, d2 - 1), d2)) if d2 > 1 else AngleQZ(0, 1)
        from math import lcm

        n = lcm(a.den, b.den)
        assert root_of_unity(a, n) * root_of_unity(b, n) == root_of_unity(a + b, n)


def test_qint_examples():
    i = root_of_unity(AngleQZ(1, 4), 4)
    assert qint(2, i).is_zero()
    one = CycloNum.one(1)
    assert qint(5, one) == 5
    minus = root_of_unity(AngleQZ(1, 2), 2)
    assert qint(4, minus) == -4
    assert qint(-3, minus) == -qint(3, minus)
    assert qint(0, i).is_zero()


def test_qfact_vanishing_boundary():
    # [n]_v! = 0 exactly when n >= ord(v^2); swept for orders up to 6, n <= 12.
    for den, ell in ((4, 2), (6, 3), (3, 3), (8, 4), (5, 5), (10, 5), (12, 6)):
        v = root_of_unity(AngleQZ(1, den), den)
        v2_order = AngleQZ(1, den).scaled(2).order
        assert v2_order == ell
        for n in range(0, 13):
            assert qfact(n, v).is_zero() == (n >= ell)


def test_qbinom_examples_and_identity():
    assert qbinom(4, 2, CycloNum.one(1)) == 6
    minus = root_of_unity(AngleQZ(1, 2), 2)
    for m in range(1, 11):
        assert qbinom(m, 1, minus) == ((-1) ** (m + 1)) * m
    plus = CycloNum.one(1)
    for m in range(1, 11):
        assert qbinom(m, 1, plus) == m


def test_qbinom_multiply_back():
    rng = random.Random(1)
    for _ in range(20):
        den = rng.randint(1, 10)
        v = root_of_unity(AngleQZ.of(Fraction(rng.randrange(den), den)), den)
        m = rng.randint(0, 7)
        n = rng.randint(0, m)
        # [m]! = qbinom(m, n) [n]! [m-n]! holds in the ring, zero cases included.
        assert qfact(m, v) == qbinom(m, n, v) * qfact(n, v) * qfact(m - n, v)


def test_qint_laurent_identity():
    rng = random.Random(2)
    for _ in range(25):
        den = rng.randint(3, 24)
        num = rng.choice([k for k in range(1, den) if gcd(k, den) == 1])
        angle = AngleQZ(num, den)
        if angle.is_half():
            continue
        v = root_of_unity(angle, den)
        n = rng.randint(0, 12)
        assert qint(n, v) * (v - v.inverse()) == v.power(n) - v.power(-n)


def test_conductor_lift_invariance():
    v3 = root_of_unity(AngleQZ(1, 3), 3)
    v12 = root_of_unity(AngleQZ(1, 3), 12)
    assert v3 == v12
    assert qfact(4, v3) == qfact(4, v12)
    assert qbinom(6, 2, v3) == qbinom(6, 2, v12)
    x = qint(5, v3)
    assert x.lift(12).lift(24) == x


def test_inverse_and_arithmetic():
    z8 = root_of_unity(AngleQZ(1, 8), 8)
    assert z8 * z8.inverse() == 1
    with pytest.raises(CycloError):
        CycloNum.zero(8).inverse()
    assert (z8 + (-z8)).is_zero()
    assert z8.power(8) == 1
    assert z8.power(-1) == z8.inverse()
    half = CycloNum.from_rational(8, Fraction(1, 2))
    assert half * 2 == 1


def test_equal_across_conductors_and_unhashable():
    assert CycloNum.one(2) == CycloNum.one(4)
    with pytest.raises(TypeError):
        hash(CycloNum.one(2))
