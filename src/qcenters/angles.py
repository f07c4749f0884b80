"""Angles in Q/Z: exact stand-ins for roots of unity.

The angle a/b represents exp(2*pi*i*a/b), so 0 is the unit 1 and 1/2 is -1.
The group law is addition mod 1 and the order of a/b is b.  Forms are
computed as integer Gram matrices over one modulus N; `from_int_gram` reads
such a matrix back as angles where values leave the integer pipeline.
`AngleQZ.ratio(x, n)` is the one constructor from integers: x mod n, reduced
by one gcd.  The group law and every integer-to-angle read go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence


@dataclass(frozen=True, order=True)
class AngleQZ:
    """Element of Q/Z stored as a reduced fraction num/den in [0, 1)."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if not (0 <= self.num < self.den):
            raise ValueError("angle must be reduced into [0, 1)")
        if gcd(self.num, self.den) != 1 and not (self.num == 0 and self.den == 1):
            raise ValueError("angle must be in lowest terms")

    @staticmethod
    def ratio(x: int, n: int) -> "AngleQZ":
        """The angle x/n mod 1 for integers x and n > 0 (0 is 0/1)."""
        x %= n
        g = gcd(x, n)
        return AngleQZ(x // g, n // g)

    @staticmethod
    def of(value: Fraction | int) -> "AngleQZ":
        """The angle of a rational, through `ratio` on its numerator and denominator."""
        return AngleQZ.ratio(value.numerator, value.denominator)

    def __add__(self, other: "AngleQZ") -> "AngleQZ":
        return AngleQZ.ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "AngleQZ") -> "AngleQZ":
        return AngleQZ.ratio(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "AngleQZ":
        return AngleQZ.ratio(-self.num, self.den)

    def scaled(self, k: int) -> "AngleQZ":
        """k-fold sum of the angle (the k-th power of the root of unity)."""
        return AngleQZ.ratio(self.num * k, self.den)

    @property
    def order(self) -> int:
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def is_half(self) -> bool:
        return self.num * 2 == self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def from_int_gram(n: int, m: Sequence[Sequence[int]]) -> tuple[tuple[AngleQZ, ...], ...]:
    """The angle matrix m[i][j] / N mod 1."""
    return tuple(tuple(AngleQZ.ratio(x, n) for x in row) for row in m)


ZERO = AngleQZ(0, 1)
HALF = AngleQZ(1, 2)
