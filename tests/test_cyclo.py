import operator
import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest

from helpers import (
    count_calls,
    count_inverses,
    fraction_cyclo,
    fraction_inverse,
    fraction_lift,
    phi_remainder,
    poly_mul,
    qbinom,
    qint,
    schoolbook_mul_vecs,
)
from qcenters import cyclo
from qcenters.angles import AngleQZ
from qcenters.cyclo import (
    CycloError,
    CycloNum,
    cyclotomic_poly,
    qfact,
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


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in [*range(1, 301), 3000]:
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic_poly(n)) == expected, n


def test_cyclotomic_poly_raises_on_a_remainder(monkeypatch):
    # With the Moebius signs flipped, the product is no longer a polynomial.
    real = cyclo._mobius
    monkeypatch.setattr(cyclo, "_mobius", lambda n: -real(n))
    cyclotomic_poly.cache_clear()
    try:
        with pytest.raises(AssertionError, match="remainder"):
            cyclotomic_poly(7)
    finally:
        cyclotomic_poly.cache_clear()


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


def _random_coeffs(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    d = len(cyclotomic_poly(n)) - 1
    return tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 7))) for _ in range(d))


def _num(n: int, coeffs) -> CycloNum:
    den = lcm(*(c.denominator for c in coeffs))
    return CycloNum(n, tuple(int(c * den) for c in coeffs), den)


def _oracle_power(n: int, base, k: int) -> tuple[Fraction, ...]:
    out = fraction_cyclo(n, [Fraction(1)])
    for _ in range(k):
        out = fraction_cyclo(n, poly_mul(out, base))
    return out


@pytest.mark.parametrize("n", range(1, 49))
def test_arithmetic_matches_the_fraction_oracle(n):
    rng = random.Random(n)
    a, b = _random_coeffs(rng, n), _random_coeffs(rng, n)
    a = a if any(a) else (Fraction(1, 2),) + a[1:]
    x, y = _num(n, a), _num(n, b)
    assert x.coeffs == a
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (x * y).coeffs == fraction_cyclo(n, poly_mul(a, b))
    assert (x * Fraction(-3, 4)).coeffs == tuple(p * Fraction(-3, 4) for p in a)
    inv = fraction_inverse(n, a)
    assert x.inverse().coeffs == inv
    assert x * x.inverse() == 1
    for k in (0, 1, 2, 3):
        assert x.power(k).coeffs == _oracle_power(n, a, k), k
        assert x.power(-k).coeffs == _oracle_power(n, inv, k), -k
    m = n * rng.choice((2, 3))
    assert x.lift(m).coeffs == fraction_lift(n, a, m)
    assert x.lift(m) == x and x == x.lift(m)


def test_mixed_conductors_match_the_fraction_oracle():
    rng = random.Random(48)
    for _ in range(40):
        n1, n2 = rng.randint(1, 48), rng.randint(1, 48)
        m = lcm(n1, n2)
        if m > 120:
            continue
        a, b = _random_coeffs(rng, n1), _random_coeffs(rng, n2)
        x, y = _num(n1, a), _num(n2, b)
        la, lb = fraction_lift(n1, a, m), fraction_lift(n2, b, m)
        assert (x + y).coeffs == tuple(p + q for p, q in zip(la, lb))
        assert (x - y).coeffs == tuple(p - q for p, q in zip(la, lb))
        assert (x * y).coeffs == fraction_cyclo(m, poly_mul(la, lb))
        assert (x == y) == (la == lb)


def test_equality_across_conductors_matches_the_fraction_oracle():
    # One value of Q(zeta_n0), written in two fields neither of which contains
    # the other, is equal to itself and to nothing nearby.
    rng = random.Random(7)
    for n0, k1, k2 in ((1, 2, 3), (3, 2, 5), (4, 3, 5), (5, 2, 3), (6, 4, 5), (2, 7, 9)):
        a = _random_coeffs(rng, n0)
        n1, n2 = n0 * k1, n0 * k2
        x1, x2 = _num(n1, fraction_lift(n0, a, n1)), _num(n2, fraction_lift(n0, a, n2))
        assert x1 == x2 and x2 == x1
        assert x1 == _num(n0, a)
        z = root_of_unity(AngleQZ(1, n2), n2)
        assert x1 != x2 + CycloNum.from_rational(n2, Fraction(1, 3))
        assert x1 != x2 * z


def test_inverse_raises_when_the_norm_is_not_rational(monkeypatch):
    z5 = root_of_unity(AngleQZ(1, 5), 5)
    monkeypatch.setattr(cyclo, "_substitute", lambda a, k, n: list(a))
    with pytest.raises(AssertionError, match="norm"):
        z5.inverse()


def test_quantum_numbers_invert_v_at_most_once(monkeypatch):
    calls = count_inverses(monkeypatch)
    for den in (1, 2, 5, 12, 19):
        v = root_of_unity(AngleQZ(1, den) if den > 1 else AngleQZ(0, 1), 2 * den)
        for n in range(-4, 13):
            calls[0] = 0
            qint(n, v)
            assert calls[0] <= 1, (den, n)
        for m in range(9):
            for n in range(m + 1):
                calls[0] = 0
                qbinom(m, n, v)
                assert calls[0] <= 1, (den, m, n)
            calls[0] = 0
            qfact(m, v)
            assert calls[0] <= 1, (den, m)


def test_constructing_values_reads_the_cached_degree(monkeypatch):
    CycloNum.one(60)
    root_of_unity(AngleQZ(1, 60), 60)  # builds the fold table of 60
    polys = count_calls(monkeypatch, cyclo, "cyclotomic_poly")
    z = root_of_unity(AngleQZ(1, 60), 60)
    assert (z * z - CycloNum.from_rational(60, 3)).conductor == 60
    assert polys[0] == 0


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


_WIDE = [401, 802, 1000, 2000]


@pytest.mark.parametrize("n", [*range(1, 121), *_WIDE])
def test_the_fold_table_holds_a_row_from_the_degree_to_the_fold(n):
    # x^(n/2) = -1 for even n and x^n = 1 for odd n; rows x^j for j < d are
    # the power basis itself, so only [d, m) needs one.
    m, rows = cyclo._fold(n)
    assert m == (n // 2 if n % 2 == 0 else n)
    assert len(rows) == m - _totient(n)


@pytest.mark.parametrize("n", [*range(1, 121), *_WIDE])
def test_reduce_matches_long_division(n):
    rng = random.Random(n)
    for _ in range(3):
        js = [rng.randrange(3 * n) for _ in range(rng.randint(1, 40))]
        js += rng.sample(js, len(js) // 2) + [n, 2 * n - 1, n // 2]  # repeats, and j >= n
        terms = [(j, rng.randint(-9, 9)) for j in js]
        poly = [0] * (3 * n)
        for j, c in terms:
            poly[j] += c
        assert cyclo._reduce(terms, n) == phi_remainder(poly, n), n


@pytest.mark.parametrize(
    "n, angle, shift, sign, den",
    [
        (15, Fraction(2, 15), Fraction(0), 1, 1),
        (21, Fraction(1, 7), Fraction(1, 3), -1, 5),
        (22, Fraction(3, 11), Fraction(1, 2), -1, 1),
        (24, Fraction(5, 12), Fraction(1, 8), 1, 3),
        (60, Fraction(7, 60), Fraction(11, 20), -1, 7),
        (802, Fraction(1, 401), Fraction(3, 802), 1, 2),
        (1000, Fraction(3, 500), Fraction(0), -1, 1),
    ],
)
def test_binomial_walk_matches_running_products_by_long_division(n, angle, shift, sign, den):
    # Factor k is sign (x^s - x^(s - 2ka)) with zeta^s the shift and v = x^a.
    a, s = angle * n, shift * n
    ks = range(1, 40)
    walk = cyclo.binomial_walk(AngleQZ.of(angle), ks, n, shift=AngleQZ.of(shift), sign=sign, den=den)
    entry = [1]
    assert len(walk) == len(ks) + 1 and walk[0] == Fraction(1, den)
    for k, value in zip(ks, walk[1:]):
        full = [0] * (len(entry) + n)
        for i, c in enumerate(entry):
            full[i + int(s % n)] += sign * c
            full[i + int((s - 2 * k * a) % n)] -= sign * c
        entry = phi_remainder(full, n)
        assert value == CycloNum(n, entry, den), (n, k)


def test_binomial_walk_rejects_a_sign_other_than_plus_or_minus_one():
    with pytest.raises(CycloError):
        cyclo.binomial_walk(AngleQZ(1, 5), [1], 10, sign=2)


def _random_vecs(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """m signed vectors of length deg Phi_n, each with its own coefficient
    size (from one bit to past 64) and density."""
    d = len(cyclotomic_poly(n)) - 1
    vecs = []
    for _ in range(m):
        size, density = rng.choice((1, 6, 1000, 2**40, 2**70)), rng.choice((0.2, 1.0))
        vecs.append([rng.randint(-size, size) if rng.random() < density else 0 for _ in range(d)])
    return vecs


@pytest.mark.parametrize("n", [*range(1, 49), 500, 1000, 2000])
def test_kronecker_product_matches_the_schoolbook_oracle(n):
    rng = random.Random(n)
    for m in range(6):
        a, b = _random_vecs(rng, n, 2)
        assert cyclo._mul_vecs(a, b, n) == schoolbook_mul_vecs([a, b], n), (n, m)


@pytest.mark.parametrize("k", [8, 16, 32, 64, 72, 128])
def test_kronecker_product_reads_digits_at_the_edge_of_the_width(k):
    # Monomial factors are the ones whose product has a coefficient equal to
    # the bound ||a||_1 ||b||_1; the coefficients 2^(k-1) - 1, 2^(k-1) and
    # 2^k - 1 sit at each power of two, past one machine word from k = 64 on.
    n = 7
    for top in (2 ** (k - 1) - 1, 2 ** (k - 1), 2**k - 1):
        for a, b in ((top, 1), (-top, 1), (top, -1), (-top, -1)):
            vecs = [[0, 0, a, 0, 0, 0], [0, 0, 0, 0, 0, b]]
            expected = schoolbook_mul_vecs(vecs, n)
            assert cyclo._mul_vecs(*vecs, n) == expected, (k, a, b)
            # x^7 = 1, so the product sits on x^0: one digit at +-top.
            assert expected == [a * b, 0, 0, 0, 0, 0]


def test_kronecker_product_of_no_factors_and_of_a_zero_factor():
    for n in (1, 2, 5, 12):
        d = len(cyclotomic_poly(n)) - 1
        one = [1] + [0] * (d - 1)
        assert CycloNum.product([], n).num == tuple(one)
        ones = [1] * d
        assert cyclo._mul_vecs(ones, [0] * d, n) == cyclo._mul_vecs([0] * d, ones, n) == [0] * d
        assert cyclo._mul_vecs(ones, one, n) == schoolbook_mul_vecs([ones], n)


def test_product_matches_repeated_multiplication():
    rng = random.Random(11)
    for n in (1, 2, 5, 8, 12, 30):
        factors = [_num(n, _random_coeffs(rng, n)) for _ in range(rng.randint(2, 5))]
        assert any(f.den != 1 for f in factors)
        assert CycloNum.product(factors, n) == reduce(operator.mul, factors)
        assert CycloNum.product(factors, 2 * n) == reduce(operator.mul, factors)
        assert CycloNum.product(factors, 2 * n).conductor == 2 * n
    assert CycloNum.product([], 6) == 1 and CycloNum.product([], 6).conductor == 6
    z = root_of_unity(AngleQZ(1, 5), 5)
    assert CycloNum.product([z], 5) is z
    assert CycloNum.product([z], 10) == z and CycloNum.product([z], 10).conductor == 10


def test_product_multiplies_two_vectors_at_a_time(monkeypatch):
    # A product of k factors is a left fold of k - 1 two-vector products.
    arities, mul_vecs = [], cyclo._mul_vecs

    def recording(*args):
        arities.append(len(args) - 1)
        return mul_vecs(*args)

    monkeypatch.setattr(cyclo, "_mul_vecs", recording)
    rng = random.Random(15)
    for k in range(9):
        factors = [_num(12, _random_coeffs(rng, 12)) for _ in range(k)]
        arities.clear()
        CycloNum.product(factors, 24)
        assert arities == [2] * max(k - 1, 0), k


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 30, 47, 60])
def test_multiplication_matrix_matches_the_schoolbook_product(n):
    # The canonical (num, den) of a * e must come out field for field, so
    # the comparison is of the stored pair, not only of the value.
    rng = random.Random(n)
    for _ in range(6):
        a, e = _num(n, _random_coeffs(rng, n)), _num(n, _random_coeffs(rng, n))
        out = cyclo.MulMatrix.of(e).times(a)
        expected = CycloNum(n, schoolbook_mul_vecs([a.num, e.num], n), a.den * e.den)
        assert (out.conductor, out.num, out.den) == (expected.conductor, expected.num, expected.den)
    with pytest.raises(CycloError, match="its own field"):
        cyclo.MulMatrix.of(CycloNum.one(n)).times(CycloNum.one(2 * n))


def test_constructor_stores_num_as_a_tuple():
    assert CycloNum(4, [1, 0]) == CycloNum(4, (1, 0))
    assert type(CycloNum(4, [1, 0]).num) is tuple
    x = CycloNum(4, [2, 4], 6)
    assert (x.num, x.den) == ((1, 2), 3) and type(x.num) is tuple
    with pytest.raises(CycloError):
        CycloNum(4, [1, 0, 0])
    with pytest.raises(CycloError):
        CycloNum(4, [1, 0], 0)
