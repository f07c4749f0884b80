"""Angles in Q/Z: exact stand-ins for roots of unity.

The angle a/b represents exp(2*pi*i*a/b), so 0 is the unit 1 and 1/2 is -1.
The group law is addition mod 1 and the order of a/b is b.  Forms are
computed as integer Gram matrices over one modulus N; `from_int_gram` reads
such a matrix back as angles where values leave the integer pipeline.
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
    def of(value: Fraction | int) -> "AngleQZ":
        f = Fraction(value) % 1
        return AngleQZ(f.numerator, f.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "AngleQZ") -> "AngleQZ":
        return AngleQZ.of(self.as_fraction() + other.as_fraction())

    def __sub__(self, other: "AngleQZ") -> "AngleQZ":
        return AngleQZ.of(self.as_fraction() - other.as_fraction())

    def __neg__(self) -> "AngleQZ":
        return AngleQZ.of(-self.as_fraction())

    def scaled(self, k: int) -> "AngleQZ":
        """k-fold sum of the angle (the k-th power of the root of unity)."""
        return AngleQZ.of(self.as_fraction() * k)

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
    return tuple(tuple(AngleQZ.of(Fraction(x, n)) for x in row) for row in m)


ZERO = AngleQZ(0, 1)
HALF = AngleQZ(1, 2)
