"""Exact arithmetic in cyclotomic fields plus balanced quantum numbers.

An element of Q(zeta_N) is an integer coefficient vector on the power basis
1, x, ..., x^(d-1) of Q[x]/Phi_N (d = deg Phi_N) over one positive
denominator, reduced by the gcd, so equality is equality of that pair; an
integral element (denominator 1) is reduced as it stands, so the gcd runs
only for denominators above 1.  Elements and multiplication matrices are
frozen slotted dataclasses, with no per-instance dict.  CycloNum's
constructor is written out (dataclass init=False): one frame that checks
the length against deg Phi_N and the denominator, runs the gcd for den > 1
and stores the fields through the slot descriptors, with none of the
generated __init__'s frozen-setattr calls and no __post_init__ frame.
A product of two elements is the schoolbook sum of the terms a_i b_j
x^(i+j) (`_mul_vecs`), and `CycloNum.product`, behind the R-matrix pairing
values (`rmatrix.pairing_diag`), is a left fold of `__mul__`.  Phi_N is
monic and divides x^N - 1, and for even N also x^(N/2) + 1, so x^m = -1
with m = N/2 for even N (and x^m = 1 with m = N for odd N).  A reduction
first folds x^j into m slots (x^j is read as x^(j mod N), negated past m),
then adds the cached fold row x^j mod Phi_N of each slot j in [d, m)
(`_fold`), each row kept as its nonzero entries: the product is reduced in
integers, and the same fold gives roots of unity, the Galois conjugates,
the embeddings Q(zeta_N) -> Q(zeta_M), N | M, and the entries of
`binomial_walk`, with no division.  The table is walked by shifting one
place at a time and folding the top coefficient back by Phi_N (`_shifts`),
and the same walk from any element e gives the rows x^i e of the integer
matrix of multiplication by e (`MulMatrix`): where one factor is used many
times, as the R-matrix coefficient entries are (their matrices are kept by
the R-matrix coefficient tables), a product by it is d^2 integer products
and no reduction.  The inverse of alpha is the product c
of its other Galois conjugates sigma_k(alpha), k in (Z/N)^x, divided by the
norm alpha * c.  inverse checks that the norm came out a nonzero rational
and raises if not.  It serves only qfact and negative powers.

The quantum factorial `qfact` multiplies the balanced quantum integers
[n]_v = v^(n-1) + v^(n-3) + ... + v^(1-n), the right definition at
v = +-1, built by [k+1] = v [k] + v^-k, which inverts v once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul, neg, sub
from typing import Iterable, Iterator, Sequence, Union

from .angles import ZERO, AngleQZ


class CycloError(ValueError):
    """Raised on conductor mismatches and non-invertible divisions."""


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial, as the
    product of (x^d - 1)^mu(n/d) over the divisors d of n."""
    if n < 1:
        raise CycloError("conductor must be >= 1")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(n // d) == 1:
            poly = [a - b for a, b in itertools.zip_longest([0] * d + poly, poly, fillvalue=0)]
    for d in divisors:
        if _mobius(n // d) == -1:
            # Exact division by x^d - 1, from the top: p[k] = q[k-d] - q[k].
            q = [0] * len(poly)
            for k in range(len(poly) - 1, d - 1, -1):
                q[k - d] = poly[k] + q[k]
            if any(poly[k] + q[k] for k in range(d)):
                raise AssertionError("cyclotomic division left a remainder")
            poly = q[: len(poly) - d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


def _shifts(vec: Sequence[int], n: int) -> Iterator[list[int]]:
    """vec x^j mod Phi_n for j = 0, 1, 2, ..., as dense vectors on the power
    basis: each step moves every coefficient up one place and folds the top
    one back by x^d = -(phi_0 + phi_1 x + ... + phi_(d-1) x^(d-1))."""
    phi = cyclotomic_poly(n)
    row = list(vec)
    while True:
        yield row
        top, row = row[-1], [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi)]


@lru_cache(maxsize=None)
def _fold(n: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """m with x^m = -1 mod Phi_n (m = n/2) for even n, or m = n with x^m = 1
    for odd n, and the rows x^j mod Phi_n for j in [d, m), d = deg Phi_n,
    each as its nonzero (index, coefficient) pairs on the power basis."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    m = n // 2 if n % 2 == 0 else n
    shifted = itertools.islice(_shifts([-c for c in phi[:d]], n), m - d)  # from x^d on
    return m, tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in shifted)


def _reduce_slots(slots: list[int], n: int) -> list[int]:
    """The element sum_j slots[j] x^j, j < m, of Z[x]/(x^m -+ 1) modulo Phi_n:
    the first d slots are already on the power basis, and each later one
    adds its fold row."""
    m, rows = _fold(n)
    d = m - len(rows)
    out = slots[:d]
    for c, row in zip(slots[d:], rows):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _reduce(terms: Iterable[tuple[int, int]], n: int) -> list[int]:
    """The sum of c x^j over the (j, c) pairs, modulo Phi_n: x^j is read as
    x^(j mod n), and past m as -x^(j mod n - m), before the fold rows."""
    m, _rows = _fold(n)
    slots = [0] * m
    for j, c in terms:
        j %= n
        if j < m:
            slots[j] += c
        else:
            slots[j - m] -= c
    return _reduce_slots(slots, n)


def _substitute(a: Sequence[int], k: int, n: int) -> list[int]:
    """a(x^k) modulo Phi_n: the Galois conjugate sigma_k for k prime to n,
    and the embedding of Q(zeta_(n/k)) for k dividing n."""
    return _reduce(((i * k, c) for i, c in enumerate(a)), n)


def _mul_vecs(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Product of two integer vectors in Z[x]/Phi_n: the schoolbook terms
    a_i b_j x^(i+j) over the nonzero entries, reduced mod Phi_n once by the
    fold."""
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    return _reduce(((i + j, x * y) for i, x in enumerate(a) if x for j, y in nonzero), n)


@dataclass(frozen=True, eq=False, slots=True, init=False)
class CycloNum:
    """Element num / den of Q(zeta_N), num an integer vector modulo Phi_N.

    The constructor reduces num and den by their gcd, so two elements of one
    field are equal exactly when their (num, den) pairs are; an integral
    element (den = 1) is already reduced, so only den > 1 runs the gcd.
    Equality lifts across conductors, so one(2) == one(4); no hash agrees
    with that, so CycloNum is unhashable.
    """

    conductor: int
    num: tuple[int, ...]  # any integer sequence is accepted and stored as a tuple
    den: int

    def __init__(self, conductor: int, num: Sequence[int], den: int = 1) -> None:
        if len(num) != _phi_degree(conductor):
            raise CycloError("coefficient vector length must equal deg Phi_N")
        if den != 1:
            if den < 1:
                raise CycloError("denominator must be positive")
            g = gcd(den, *num)
            if g != 1:
                num, den = [c // g for c in num], den // g
        _set_conductor(self, conductor)
        _set_num(self, num if type(num) is tuple else tuple(num))
        _set_den(self, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients on the power basis, low to high."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @staticmethod
    def from_rational(conductor: int, value: Union[int, Fraction]) -> "CycloNum":
        value = Fraction(value)
        return CycloNum(conductor, (value.numerator,) + (0,) * (_phi_degree(conductor) - 1), value.denominator)

    @staticmethod
    def zero(conductor: int) -> "CycloNum":
        return CycloNum.from_rational(conductor, 0)

    @staticmethod
    def one(conductor: int) -> "CycloNum":
        return CycloNum.from_rational(conductor, 1)

    @staticmethod
    def product(factors: Sequence["CycloNum"], conductor: int) -> "CycloNum":
        """Product of the factors in Q(zeta_conductor), as a left fold of
        two-factor products; one when there are no factors, the factor
        itself when there is one."""
        if not factors:
            return CycloNum.one(conductor)
        return reduce(mul, (f.lift(conductor) for f in factors[1:]), factors[0].lift(conductor))

    def is_zero(self) -> bool:
        return not any(self.num)

    def lift(self, conductor: int) -> "CycloNum":
        """Embed into Q(zeta_M) for N | M via zeta_N = zeta_M^(M/N)."""
        if conductor % self.conductor != 0:
            raise CycloError("can only lift along divisibility of conductors")
        if conductor == self.conductor:
            return self
        return CycloNum(conductor, _substitute(self.num, conductor // self.conductor, conductor), self.den)

    def _align(self, other: "CycloNum") -> tuple["CycloNum", "CycloNum"]:
        if self.conductor == other.conductor:
            return self, other
        n = lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def _add(self, other: "CycloNum", sign: int) -> "CycloNum":
        a, b = self._align(other)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, sign * a.den // g
        return CycloNum(a.conductor, tuple(x * fa + y * fb for x, y in zip(a.num, b.num)), a.den * fa)

    def __add__(self, other: "CycloNum") -> "CycloNum":
        return self._add(other, 1)

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        return self._add(other, -1)

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.conductor, tuple(-x for x in self.num), self.den)

    def __mul__(self, other: Union["CycloNum", int, Fraction]) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return CycloNum(self.conductor, tuple(x * other.numerator for x in self.num), self.den * other.denominator)
        a, b = self._align(other)
        return CycloNum(a.conductor, _mul_vecs(a.num, b.num, a.conductor), a.den * b.den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self.conductor, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._align(other)
        return a.num == b.num and a.den == b.den

    def inverse(self) -> "CycloNum":
        """Field inverse: the product c of the conjugates sigma_k(self),
        k != 1 in (Z/N)^x, over the norm self * c, which must be a nonzero
        rational."""
        if self.is_zero():
            raise CycloError("zero is not invertible")
        n = self.conductor
        c = [1] + [0] * (len(self.num) - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                c = _mul_vecs(c, _substitute(self.num, k, n), n)
        norm = _mul_vecs(c, self.num, n)
        if any(norm[1:]) or norm[0] == 0:
            raise AssertionError("the norm of a nonzero cyclotomic number is not a nonzero rational")
        sign = 1 if norm[0] > 0 else -1
        return CycloNum(n, [sign * self.den * x for x in c], abs(norm[0]))

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


# The constructor stores through the slot descriptors, past the frozen __setattr__.
_set_conductor, _set_num, _set_den = (CycloNum.__dict__[f].__set__ for f in ("conductor", "num", "den"))


@dataclass(frozen=True, slots=True)
class MulMatrix:
    """Multiplication by a fixed element e = num / den of Q(zeta_N) as an
    integer matrix M on the power basis: row i of M is x^i num mod Phi_N,
    stored by columns, so a * e has numerator (sum_i a_i M[i][j])_j over
    a.den * den.  That is d^2 integer products and no reduction, which is
    the cheaper route in small fields when one factor is reused many times.
    The result goes through the CycloNum constructor, so it is in the same
    canonical (num, den) form as any other product."""

    conductor: int
    cols: tuple[tuple[int, ...], ...]
    den: int

    @staticmethod
    def of(e: CycloNum) -> "MulMatrix":
        rows = itertools.islice(_shifts(e.num, e.conductor), len(e.num))
        return MulMatrix(e.conductor, tuple(zip(*rows)), e.den)

    def times(self, a: CycloNum) -> CycloNum:
        """a * e, for a in the same field."""
        if a.conductor != self.conductor:
            raise CycloError("a multiplication matrix acts only inside its own field")
        return CycloNum(self.conductor, tuple([sum(map(mul, a.num, col)) for col in self.cols]), a.den * self.den)


def _exponent(angle: AngleQZ, conductor: int) -> int:
    """The j with exp(2*pi*i*angle) = zeta_conductor^j."""
    if conductor % angle.den != 0:
        raise CycloError(f"angle denominator {angle.den} does not divide conductor {conductor}")
    return angle.num * (conductor // angle.den)


def root_of_unity(angle: AngleQZ, conductor: int) -> CycloNum:
    """The root of unity exp(2*pi*i*angle) inside Q(zeta_conductor)."""
    return CycloNum(conductor, _reduce([(_exponent(angle, conductor), 1)], conductor))


def binomial_walk(
    angle: AngleQZ, ks: Iterable[int], conductor: int, shift: AngleQZ = ZERO, sign: int = 1, den: int = 1
) -> list[CycloNum]:
    """Running products over den of the factors sign zeta^shift (1 - v^(-2k)),
    k in ks, at v = exp(2*pi*i*angle), zeta^shift = exp(2*pi*i*shift): entry j
    holds the first j factors.  Entries live in Z[x]/(x^m -+ 1), m and its
    sign as in the fold of Phi_N (x^(N/2) = -1 for even N), where a product
    by x^-r is a rotation by r whose wrapped part is negated for even N, so
    a rotation by r >= m is the negated one by r - m.  A step is two such
    rotations and one subtraction, with sign = -1 swapping its operands;
    each entry is then reduced mod Phi_N once, through the fold rows."""
    if sign not in (1, -1):
        raise CycloError("the sign of a binomial walk is +1 or -1")
    a, s = _exponent(angle, conductor), _exponent(shift, conductor)
    m, _rows = _fold(conductor)
    entry, out = [1] + [0] * (m - 1), [CycloNum.from_rational(conductor, Fraction(1, den))]
    for k in ks:
        r, t = -s % conductor, (2 * k * a - s) % conductor  # rotate by s and by s - 2ka
        if sign < 0:
            r, t = t, r
        # x^-r e is ext[r : r + m] for every r < N: ext holds e, then e x^m, then e.
        ext = entry + (list(map(neg, entry)) if m < conductor else entry) + entry
        entry = list(map(sub, ext[r : r + m], ext[t : t + m]))
        out.append(CycloNum(conductor, _reduce_slots(entry, conductor), den))
    return out


def _qints(v: CycloNum) -> Iterator[CycloNum]:
    """[1]_v, [2]_v, ... by [k+1] = v [k] + v^-k; v is inverted once, when
    [2]_v is asked for."""
    cur = CycloNum.one(v.conductor)
    yield cur
    v_inv, neg = v.inverse(), cur
    while True:
        neg = neg * v_inv
        cur = v * cur + neg
        yield cur


def qfact(n: int, v: CycloNum) -> CycloNum:
    """Quantum factorial [n]_v! = [1][2]...[n]."""
    if n < 0:
        raise CycloError("quantum factorial needs n >= 0")
    out = CycloNum.one(v.conductor)
    for k in itertools.islice(_qints(v), n):
        out = out * k
    return out
