"""Exact arithmetic in cyclotomic fields plus balanced quantum numbers.

Elements of Q(zeta_N) are residues modulo the N-th cyclotomic polynomial, so
equality is coefficient equality.  Quantum integers use the symmetric Laurent
form [n]_v = v^(n-1) + v^(n-3) + ... + v^(1-n), which is the right definition
at v = +-1, and Gaussian binomials are computed by a Pascal recursion that
never divides, so they stay exact at roots of unity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence, Union

from .angles import AngleQZ


class CycloError(ValueError):
    """Raised on conductor mismatches and non-invertible divisions."""


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = _poly_trim(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coeff = r[-1] / b[-1]
        q[shift] = coeff
        for i, y in enumerate(b):
            r[shift + i] -= coeff * y
        r = _poly_trim(r)
    return _poly_trim(q), r


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise CycloError("conductor must be >= 1")
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n.
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(num, [Fraction(c) for c in cyclotomic_poly(d)])
            if r:
                raise AssertionError("cyclotomic division left a remainder")
            num = q
    coeffs = []
    for c in num:
        if c.denominator != 1:
            raise AssertionError("cyclotomic polynomial has non-integer coefficient")
        coeffs.append(int(c))
    return tuple(coeffs)


def _phi_degree(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@dataclass(frozen=True, eq=False)
class CycloNum:
    """Element of Q(zeta_N): rational coefficients modulo Phi_N.

    Equality lifts across conductors, so one(2) == one(4); no hash agrees
    with that, so CycloNum is unhashable.
    """

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != _phi_degree(self.conductor):
            raise CycloError("coefficient vector length must equal deg Phi_N")

    @staticmethod
    def from_poly(conductor: int, poly: Sequence[Union[int, Fraction]]) -> "CycloNum":
        phi = [Fraction(c) for c in cyclotomic_poly(conductor)]
        _q, r = _poly_divmod([Fraction(c) for c in poly], phi)
        deg = _phi_degree(conductor)
        r = list(r) + [Fraction(0)] * (deg - len(r))
        return CycloNum(conductor, tuple(r))

    @staticmethod
    def from_rational(conductor: int, value: Union[int, Fraction]) -> "CycloNum":
        return CycloNum.from_poly(conductor, [Fraction(value)])

    @staticmethod
    def zero(conductor: int) -> "CycloNum":
        return CycloNum.from_rational(conductor, 0)

    @staticmethod
    def one(conductor: int) -> "CycloNum":
        return CycloNum.from_rational(conductor, 1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def lift(self, conductor: int) -> "CycloNum":
        """Embed into Q(zeta_M) for N | M via zeta_N = zeta_M^(M/N)."""
        if conductor % self.conductor != 0:
            raise CycloError("can only lift along divisibility of conductors")
        if conductor == self.conductor:
            return self
        step = conductor // self.conductor
        poly: list[Fraction] = []
        for i, c in enumerate(self.coeffs):
            if c != 0:
                while len(poly) <= i * step:
                    poly.append(Fraction(0))
                poly[i * step] = c
        return CycloNum.from_poly(conductor, poly)

    def _align(self, other: "CycloNum") -> tuple["CycloNum", "CycloNum"]:
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def __add__(self, other: "CycloNum") -> "CycloNum":
        a, b = self._align(other)
        return CycloNum(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        a, b = self._align(other)
        return CycloNum(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.conductor, tuple(-x for x in self.coeffs))

    def __mul__(self, other: Union["CycloNum", int, Fraction]) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.conductor, tuple(x * other for x in self.coeffs))
        a, b = self._align(other)
        return CycloNum.from_poly(a.conductor, _poly_mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self.conductor, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def inverse(self) -> "CycloNum":
        """Field inverse via the extended Euclidean algorithm mod Phi_N."""
        if self.is_zero():
            raise CycloError("zero is not invertible")
        phi = [Fraction(c) for c in cyclotomic_poly(self.conductor)]
        r0, r1 = phi, _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant: Phi_N is irreducible over Q.
        if len(r0) != 1:
            raise AssertionError("gcd with the cyclotomic polynomial is not constant")
        scale = 1 / r0[0]
        return CycloNum.from_poly(self.conductor, [c * scale for c in s0])

    def power(self, k: int) -> "CycloNum":
        if k < 0:
            return self.inverse().power(-k)
        out = CycloNum.one(self.conductor)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def root_of_unity(angle: AngleQZ, conductor: int) -> CycloNum:
    """The root of unity exp(2*pi*i*angle) inside Q(zeta_conductor)."""
    if conductor % angle.den != 0:
        raise CycloError(f"angle denominator {angle.den} does not divide conductor {conductor}")
    k = angle.num * (conductor // angle.den)
    poly = [Fraction(0)] * k + [Fraction(1)]
    return CycloNum.from_poly(conductor, poly)


def qint(n: int, v: CycloNum) -> CycloNum:
    """Balanced quantum integer [n]_v = v^(n-1) + v^(n-3) + ... + v^(1-n).

    Defined for all integers via [-n] = -[n]; the Laurent-sum form is the
    correct specialization at v = +-1, where it gives (+-1)^(n-1) * n.
    """
    if n < 0:
        return -qint(-n, v)
    total = CycloNum.zero(v.conductor)
    for k in range(n):
        total = total + v.power(n - 1 - 2 * k)
    return total


def qfact(n: int, v: CycloNum) -> CycloNum:
    """Quantum factorial [n]_v! = [1][2]...[n]."""
    if n < 0:
        raise CycloError("quantum factorial needs n >= 0")
    out = CycloNum.one(v.conductor)
    for k in range(1, n + 1):
        out = out * qint(k, v)
    return out


def qbinom(m: int, n: int, v: CycloNum) -> CycloNum:
    """Balanced Gaussian binomial via the division-free Pascal recursion
    [m, n] = v^n [m-1, n] + v^(n-m) [m-1, n-1]."""
    if not 0 <= n <= m:
        raise CycloError("need 0 <= n <= m")
    memo: dict[tuple[int, int], CycloNum] = {}

    def rec(mm: int, nn: int) -> CycloNum:
        if nn == 0 or nn == mm:
            return CycloNum.one(v.conductor)
        key = (mm, nn)
        if key not in memo:
            memo[key] = v.power(nn) * rec(mm - 1, nn) + v.power(nn - mm) * rec(mm - 1, nn - 1)
        return memo[key]

    return rec(m, n)
