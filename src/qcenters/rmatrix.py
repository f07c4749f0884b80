"""Finite support and exact coefficients of the quasi-R-matrix expansion.

A term of the expansion is indexed by a support n : Phi+ -> Z_{>=0}; its
coefficient vanishes exactly when some n_gamma reaches l_gamma, so the
admissible supports form a box of size prod l_gamma.  Coefficients and the
diagonal Hopf-pairing values are evaluated exactly in a single cyclotomic
field whose conductor is the lcm of every angle denominator that appears.
The sign (-1)^(sum n_gamma ht gamma) and the phase q(sum n_gamma gamma, rho)
of a coefficient are characters of n, so the coefficient is a product of
one factor per root, f_gamma(n_gamma); each f_gamma is a cached row over
0..l_gamma, built once per (q_gamma, q(gamma, rho), parity of ht gamma,
l_gamma, conductor).  The tuple of rows of a parameter is cached too, per
(parameter, conductor), so a coefficient hashes no angle.  A support with
one nonzero entry reads its row entry; any other is an odometer step: the
memoized coefficient of its parent (the support with its last nonzero
entry set to zero) times the last entry, multiplied as a cached integer
matrix (`cyclo.MulMatrix`, one per parameter, conductor, root and entry).
In lexicographic order that is one d x d integer product per term, with no
Kronecker packing.  The pairing values are products of cached rows too
(`CycloNum.product`), walked apart, so that coeff * pairing = sign * phase
checks one against the other.  Both rows are binomial walks
(`cyclo.binomial_walk`), by q^-v (q - q^-1) [v]_q = 1 - q^(-2v) and
prod_{k=1}^{m-1} (1 - omega^k) = m for omega a primitive m-th root of
unity: no field product, no inverse.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod
from typing import Optional, Sequence, Union

from .angles import AngleQZ
from .cyclo import CycloNum, MulMatrix, binomial_walk
from .qparam import InvariantViolation, QParam
from .rootdata import RootDatum


class NonInvertibleSpecialization(ValueError):
    """A pairing factor specializes to zero, so its inverse does not exist.

    This is the obstruction that truncates the braiding expansion."""


@dataclass(frozen=True)
class RSupport:
    """Exponent vector over the ordered positive roots."""

    n: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.n):
            raise ValueError("support exponents must be nonnegative")


def support_size(q: QParam, rd: RootDatum, cap: Optional[int] = 4096) -> tuple[int, Optional[list[RSupport]]]:
    """Number of admissible supports, with the materialized list when it is
    not larger than the cap."""
    ls = q.pos_root_ls()
    count = prod(ls)
    supports = None
    if cap is None or count <= cap:
        supports = [RSupport(tuple(n)) for n in itertools.product(*(range(l) for l in ls))]
        if len(supports) != count:
            raise AssertionError("materialized support count disagrees with the product formula")
    return count, supports


def batch_conductor(q: QParam, rd: RootDatum) -> int:
    """lcm of every angle denominator the coefficient formula can produce:
    the sign, each q_gamma and each q(gamma, rho)."""
    return lcm(2, *(a.order for pair in q.root_table for a in pair))


@lru_cache(maxsize=None)
def _coeff_row(qg: AngleQZ, phase: AngleQZ, height_parity: int, l: int, conductor: int) -> tuple[CycloNum, ...]:
    """Entries v = 0..l of (-1)^(v ht) zeta^(v phase) q^(-v(v+1)/2)
    (q - q^-1)^v [v]_q! at q = exp(2 pi i qg), zeta^phase = exp(2 pi i phase).

    Since q^-k (q - q^-1) [k]_q = 1 - q^(-2k), entry v is
    ((-1)^ht zeta^phase)^v prod_{k <= v} (1 - q^(-2k)), zero at l: q^(2l) = 1."""
    row = binomial_walk(qg, range(1, l + 1), conductor, shift=phase, sign=-1 if height_parity else 1)
    if not row[l].is_zero():
        raise InvariantViolation(f"coefficient row of q_gamma = {qg} does not vanish at l = {l}")
    return tuple(row)


@lru_cache(maxsize=64)
def _coeff_rows(q: QParam, conductor: int) -> tuple[tuple[CycloNum, ...], ...]:
    """The coefficient rows of every positive root of q, in rd.pos_roots
    order, read once per (parameter, conductor)."""
    return tuple(
        _coeff_row(qg, phase, r.height % 2, l, conductor)
        for (qg, phase), l, r in zip(q.root_table, q.l_table, q.rd.pos_roots)
    )


@lru_cache(maxsize=None)
def _pairing_row(angle: AngleQZ, conductor: int) -> tuple[CycloNum, ...]:
    """Entries v = 0 .. m - 1, m = ord(2 angle), of v_g^(v(v+1)/2)
    (v_g - v_g^-1)^(-v) ([v]_{v_g}!)^(-1) at v_g = exp(2 pi i angle).

    Entry v is 1 / prod_{k <= v} (1 - omega^k), omega = v_g^-2 of order m,
    so the row ends where factor k = m vanishes; as the full product is m,
    entry v is prod_{k=v+1}^{m-1} (1 - omega^k) / m, walked down from 1/m
    to entry 0, which must come back to 1."""
    if angle.is_zero() or angle.is_half():
        raise NonInvertibleSpecialization(f"(v - v^-1) vanishes at angle {angle}")
    m = angle.scaled(2).order
    row = binomial_walk(angle, range(m - 1, 0, -1), conductor, den=m)
    if row[-1] != 1:
        raise InvariantViolation(f"pairing walk of angle {angle} does not come back to prod (1 - omega^k) = {m}")
    return tuple(reversed(row))


@lru_cache(maxsize=1024)
def _entry_matrix(q: QParam, conductor: int, i: int, v: int) -> MulMatrix:
    """Multiplication by entry v of the coefficient row of root i of q, as
    an integer matrix, built once per (parameter, conductor, root, entry)."""
    return MulMatrix.of(_coeff_rows(q, conductor)[i][v])


# Coefficients at supports that can be the parent of another support, keyed
# on (parameter, conductor, support without trailing zeros); least recently
# used first.
_PREFIXES: OrderedDict[tuple, CycloNum] = OrderedDict()
PREFIX_MEMO_SIZE = 256


def _parent(s: tuple[int, ...]) -> tuple[int, ...]:
    """s with its last nonzero entry set to zero, without trailing zeros; s
    ends in a nonzero entry and has another one before it."""
    i = len(s) - 1
    while not s[i - 1]:
        i -= 1
    return s[:i]


def _odometer(q: QParam, conductor: int, rows: tuple[tuple[CycloNum, ...], ...], s: tuple[int, ...]) -> CycloNum:
    """The coefficient at the admissible support s, given without trailing
    zeros and with two or more nonzero entries, as the coefficient at
    _parent(s) times one entry matrix; rows are _coeff_rows(q, conductor).

    The walk goes down the parents to the first one that is memoized or has
    a single nonzero entry (its row entry), then back up, one entry-matrix
    product per step, so its depth is a loop, not a recursion.  Every
    support on the way that is shorter than the root count can be the parent
    of a later one and is memoized.  In lexicographic order every parent is
    an earlier support, memoized when it was asked for, so a term costs one
    product."""
    chain, value = [], None
    while value is None:
        chain.append(s)
        s = _parent(s)
        if not any(s[:-1]):
            value = rows[len(s) - 1][s[-1]]
        else:
            key = (q, conductor, s)
            value = _PREFIXES.get(key)
            if value is not None:
                _PREFIXES.move_to_end(key)
    for s in reversed(chain):
        value = _entry_matrix(q, conductor, len(s) - 1, s[-1]).times(value)
        if len(s) < len(rows):
            _PREFIXES[q, conductor, s] = value
            if len(_PREFIXES) > PREFIX_MEMO_SIZE:
                _PREFIXES.popitem(last=False)
    return value


def coeff(n: RSupport, q: QParam, rd: RootDatum, conductor: Optional[int] = None) -> CycloNum:
    """Exact coefficient of the expansion term with support n.

    The value is sign * phase * prod_gamma (q_gamma^(-n(n+1)/2)
    (q_gamma - q_gamma^-1)^n [n]_{q_gamma}!) with sign (-1)^(sum n_gamma
    ht(gamma)) and phase q(sum n_gamma gamma, rho), rho = sum_alpha
    omega_alpha.  Sign and phase are characters of n, so the value is the
    product over the nonzero n_gamma of entry n_gamma of the cached row of
    gamma; it is exactly zero iff some n_gamma >= l_gamma.  The rows of a
    parameter are built, and checked to vanish at l_gamma, by its first
    coefficient and then read from a cache.  No nonzero entry gives one and
    one gives its row entry; otherwise the value is the memoized coefficient
    at the parent support (the last nonzero entry set to zero) times the
    cached integer matrix of the last entry (`_odometer`).  rd must be the
    parameter's root datum.
    """
    if rd is not q.rd and rd != q.rd:
        raise ValueError("the root datum is not the parameter's")
    if len(n.n) != len(rd.pos_roots):
        raise ValueError("support length must match the number of positive roots")
    big_n = conductor or batch_conductor(q, rd)
    rows = _coeff_rows(q, big_n)
    last = count = 0
    for i, (v, row) in enumerate(zip(n.n, rows)):
        if v:
            if v >= len(row) - 1:
                return CycloNum.zero(big_n)
            last, count = i, count + 1
    if count < 2:
        return rows[last][n.n[last]] if count else CycloNum.one(big_n)
    return _odometer(q, big_n, rows, n.n[: last + 1])


def pairing_diag(
    n: RSupport,
    rd: RootDatum,
    at: Union[QParam, Sequence[AngleQZ]],
    conductor: Optional[int] = None,
) -> CycloNum:
    """Diagonal Hopf-pairing value prod_gamma v^(n(n+1)/2) (v - v^-1)^(-n)
    ([n]_v!)^(-1) at the specialization v_gamma -> given root of unity.

    Raises NonInvertibleSpecialization when an inverted factor vanishes,
    i.e. when [n_gamma]! = 0 (n_gamma >= l_gamma) or v_gamma = +-1 with
    n_gamma > 0.
    """
    angles = [qg for qg, _phase in at.root_table] if isinstance(at, QParam) else list(at)
    if len(angles) != len(rd.pos_roots) or len(n.n) != len(rd.pos_roots):
        raise ValueError("specialization length must match the number of positive roots")
    big_n = conductor or lcm(2, *(a.order for a in angles))
    factors = []
    for v, angle in zip(n.n, angles):
        if v:
            row = _pairing_row(angle, big_n)
            if v >= len(row):
                raise NonInvertibleSpecialization(f"[{v}]! vanishes at angle {angle}")
            factors.append(row[v])
    return CycloNum.product(factors, big_n)


def term_table(q: QParam, rd: RootDatum, max_terms: Optional[int] = None) -> list[tuple[RSupport, CycloNum]]:
    """All admissible supports with their exact coefficients, in lexicographic
    support order, optionally truncated to max_terms entries.  The box is
    walked lazily, so only the returned supports are ever built."""
    box = itertools.product(*(range(l) for l in q.pos_root_ls()))
    big_n = batch_conductor(q, rd)
    out = []
    for s in map(RSupport, itertools.islice(box, max_terms)):
        out.append((s, coeff(s, q, rd, conductor=big_n)))
    return out
