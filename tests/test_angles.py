import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import fraction_angle
from qcenters.angles import HALF, ZERO, AngleQZ, from_int_gram

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=48)


def test_normalization_and_convention():
    assert AngleQZ.of(Fraction(0)) == ZERO
    assert AngleQZ.of(Fraction(1, 2)) == HALF
    assert AngleQZ.of(Fraction(5, 4)) == AngleQZ(1, 4)
    assert AngleQZ.of(Fraction(-1, 3)) == AngleQZ(2, 3)
    assert ZERO.is_zero() and HALF.is_half()


def test_group_law_examples():
    assert AngleQZ(1, 4) + AngleQZ(1, 4) == HALF
    assert AngleQZ(2, 3) + AngleQZ(2, 3) == AngleQZ(1, 3)
    assert -AngleQZ(1, 4) == AngleQZ(3, 4)
    assert AngleQZ(1, 6).scaled(6) == ZERO


def test_order_is_denominator():
    assert AngleQZ(1, 4).order == 4
    assert AngleQZ(2, 3).order == 3
    assert ZERO.order == 1


def test_rejects_unreduced():
    with pytest.raises(ValueError):
        AngleQZ(2, 4)
    with pytest.raises(ValueError):
        AngleQZ(3, 2)
    with pytest.raises(ValueError):
        AngleQZ(1, -2)


@given(rationals, rationals)
def test_addition_matches_fractions(a, b):
    left = AngleQZ.of(a) + AngleQZ.of(b)
    assert left == AngleQZ.of(a + b)


@given(rationals)
def test_order_kills_angle(a):
    angle = AngleQZ.of(a)
    assert angle.scaled(angle.order).is_zero()
    if not angle.is_zero():
        assert not angle.scaled(angle.order - 1).is_zero() or angle.order == 1


numerators = st.integers(min_value=-(10**12), max_value=10**12)
moduli = st.integers(min_value=1, max_value=10**6)


@given(numerators, moduli)
@example(0, 1)
@example(0, 12)
@example(12, 12)
@example(-12, 12)
@example(-1, 12)
@example(25, 12)
@example(7, 1)
def test_ratio_matches_the_fraction_route(x, n):
    angle = AngleQZ.ratio(x, n)
    assert angle == fraction_angle(Fraction(x, n))
    if x % n == 0:
        assert (angle.num, angle.den) == (0, 1)
    assert from_int_gram(n, [[x, -x]]) == ((angle, fraction_angle(Fraction(-x, n))),)


@given(numerators, moduli, numerators, moduli, st.integers(min_value=-(10**6), max_value=10**6))
@example(0, 1, 0, 1, 0)
@example(1, 2, 1, 2, 2)
@example(-3, 4, 7, 6, -5)
def test_group_law_matches_the_fraction_route(x, n, y, m, k):
    a, b = AngleQZ.ratio(x, n), AngleQZ.ratio(y, m)
    fa, fb = Fraction(a.num, a.den), Fraction(b.num, b.den)
    assert a + b == fraction_angle(fa + fb)
    assert a - b == fraction_angle(fa - fb)
    assert -a == fraction_angle(-fa)
    assert a.scaled(k) == fraction_angle(fa * k)
    assert AngleQZ.of(Fraction(x, n)) == a and AngleQZ.of(x) == fraction_angle(x)


def test_angles_carry_no_order():
    # Ordering by the stored pair put 1/3 after 1/2; angles compare by
    # equality only.
    with pytest.raises(TypeError):
        AngleQZ(1, 3) < AngleQZ(1, 2)
    with pytest.raises(TypeError):
        AngleQZ(1, 2) >= AngleQZ(1, 3)
    with pytest.raises(TypeError):
        sorted([HALF, AngleQZ(1, 3)])


@pytest.mark.parametrize("seed", range(4))
def test_ratio_angles_are_the_validated_angles(seed):
    rng = random.Random(f"ratio-angles:{seed}")
    pairs = [(0, 1), (0, 7), (7, 7), (-7, 7), (-1, 7), (15, 7), (-15, 7)]
    pairs += [(rng.randint(-10**9, 10**9), rng.randint(1, 60)) for _ in range(200)]
    for x, n in pairs:
        f = Fraction(x, n) % 1
        direct = AngleQZ(f.numerator, f.denominator)
        angle = AngleQZ.ratio(x, n)
        assert type(angle) is AngleQZ
        assert angle == direct and hash(angle) == hash(direct) and repr(angle) == repr(direct)
        assert (angle.num, angle.den) == (direct.num, direct.den) and str(angle) == str(direct)
        assert {angle: 1}[direct] == 1


def test_a_direct_angle_is_validated():
    for args in [(0, 0), (1, 0), (0, -1), (1, -2)]:
        with pytest.raises(ValueError, match="^denominator must be positive$"):
            AngleQZ(*args)
    for args in [(2, 4), (0, 2), (3, 9)]:
        with pytest.raises(ValueError, match="^angle must be in lowest terms$"):
            AngleQZ(*args)
    for args in [(3, 2), (1, 1), (-1, 2), (5, 3)]:
        with pytest.raises(ValueError, match=r"^angle must be reduced into \[0, 1\)$"):
            AngleQZ(*args)


def test_ratio_refuses_a_modulus_below_one():
    for x in (-3, 0, 1, 5):
        with pytest.raises(ValueError, match="^denominator must be positive$"):
            AngleQZ.ratio(x, -4)
        with pytest.raises(ZeroDivisionError):
            AngleQZ.ratio(x, 0)


def test_an_angle_is_frozen_slotted_and_copies_as_itself():
    angle = AngleQZ.ratio(-5, 12)
    assert not hasattr(angle, "__dict__")
    with pytest.raises(FrozenInstanceError):
        angle.num = 1
    for twin in (copy.copy(angle), copy.deepcopy(angle), pickle.loads(pickle.dumps(angle))):
        assert twin == angle and repr(twin) == "AngleQZ(num=7, den=12)"
