"""Finite support and exact coefficients of the quasi-R-matrix expansion.

A term of the expansion is indexed by a support n : Phi+ -> Z_{>=0}; its
coefficient vanishes exactly when some n_gamma reaches l_gamma, so the
admissible supports form a box of size prod l_gamma, which `support_size`
counts and `term_table` walks lazily, so no list of the box is ever built.
Coefficients and the diagonal Hopf-pairing values are evaluated exactly in
a single cyclotomic field whose conductor is the lcm of every angle
denominator that appears.  The sign (-1)^(sum n_gamma ht gamma) and the
phase q(sum n_gamma gamma, rho) of a coefficient are characters of n, so
the coefficient is a product of one factor per root, f_gamma(n_gamma),
entry n_gamma of a row over 0..l_gamma.  A parameter has one table per
conductor (`_table`): its rows, each distinct (q_gamma, q(gamma, rho),
parity of ht gamma, l_gamma) row built once, and the last support `coeff`
walked, with the coefficient at each of its prefixes.  A support with one
nonzero entry reads its row entry; any other keeps the last walk up to the
first entry where the two differ and walks on from there, multiplying by
each later nonzero entry as a cached integer matrix (`cyclo.MulMatrix`, one
per parameter, conductor, root and entry).  In lexicographic order, as
`term_table` walks, that is at most one d x d integer product per term;
any other order is exact too.  The pairing values are products of cached
rows too (`CycloNum.product`), walked apart and kept in a bounded cache, so
that coeff * pairing = sign * phase checks one against the other.  Both
rows are binomial walks
(`cyclo.binomial_walk`), by q^-v (q - q^-1) [v]_q = 1 - q^(-2v) and
prod_{k=1}^{m-1} (1 - omega^k) = m for omega a primitive m-th root of
unity: no field product, no inverse.  Every conductor here is even (lcm
with 2), so zeta^(N/2) = -1 and a walk turns integer lists of length N/2,
each entry then reduced by the fold rows x^j mod Phi_N, j in [d, N/2).
"""

from __future__ import annotations

import itertools
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


def support_size(q: QParam) -> int:
    """Number of admissible supports: the size prod l_gamma of the box."""
    return prod(q.pos_root_ls())


def batch_conductor(q: QParam, rd: RootDatum) -> int:
    """lcm of every angle denominator the coefficient formula can produce:
    the sign, each q_gamma and each q(gamma, rho)."""
    return lcm(2, *(a.order for pair in q.root_table for a in pair))


def _coeff_row(qg: AngleQZ, phase: AngleQZ, height_parity: int, l: int, conductor: int) -> tuple[CycloNum, ...]:
    """Entries v = 0..l of (-1)^(v ht) zeta^(v phase) q^(-v(v+1)/2)
    (q - q^-1)^v [v]_q! at q = exp(2 pi i qg), zeta^phase = exp(2 pi i phase).

    Since q^-k (q - q^-1) [k]_q = 1 - q^(-2k), entry v is
    ((-1)^ht zeta^phase)^v prod_{k <= v} (1 - q^(-2k)), zero at l: q^(2l) = 1."""
    row = binomial_walk(qg, range(1, l + 1), conductor, shift=phase, sign=-1 if height_parity else 1)
    if not row[l].is_zero():
        raise InvariantViolation(f"coefficient row of q_gamma = {qg} does not vanish at l = {l}")
    return tuple(row)


@dataclass
class _Table:
    """The coefficient rows of a parameter at one conductor, in rd.pos_roots
    order, and the last support `coeff` walked: its entries up to the last
    nonzero one, with the coefficient at each of its prefixes (None while
    the prefix is all zeros)."""

    rows: tuple[tuple[CycloNum, ...], ...]
    support: list[int]
    values: list[Optional[CycloNum]]


@lru_cache(maxsize=64)
def _table(q: QParam, conductor: int) -> _Table:
    """The table of q at the conductor, with an empty walk; each distinct
    (q_gamma, phase, parity, l) row is built once."""
    keys = [(qg, phase, r.height % 2, l) for (qg, phase), l, r in zip(q.root_table, q.l_table, q.rd.pos_roots)]
    built = {key: _coeff_row(*key, conductor) for key in dict.fromkeys(keys)}
    return _Table(tuple(map(built.__getitem__, keys)), [], [])


@lru_cache(maxsize=64)
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
    return MulMatrix.of(_table(q, conductor).rows[i][v])


def _common_prefix(a: Sequence[int], b: Sequence[int]) -> int:
    """The number of leading entries that a and b share."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def coeff(n: RSupport, q: QParam, rd: RootDatum, conductor: Optional[int] = None) -> CycloNum:
    """Exact coefficient of the expansion term with support n.

    The value is sign * phase * prod_gamma (q_gamma^(-n(n+1)/2)
    (q_gamma - q_gamma^-1)^n [n]_{q_gamma}!) with sign (-1)^(sum n_gamma
    ht(gamma)) and phase q(sum n_gamma gamma, rho), rho = sum_alpha
    omega_alpha.  Sign and phase are characters of n, so the value is the
    product over the nonzero n_gamma of entry n_gamma of the cached row of
    gamma; it is exactly zero iff some n_gamma >= l_gamma.  The rows of a
    parameter are built, and checked to vanish at l_gamma, by its first
    coefficient at a conductor and then read from its table.  No nonzero
    entry gives one and one gives its row entry.  Otherwise the last walk of
    the table is kept up to the first entry where n differs from it, and the
    walk goes on over the rest of n in a loop, the coefficient at each
    prefix being the one before it times the cached integer matrix of its
    last entry where that entry is nonzero.  In lexicographic order that is
    at most one matrix product per support.  rd must be the parameter's root
    datum.
    """
    if rd is not q.rd and rd != q.rd:
        raise ValueError("the root datum is not the parameter's")
    if len(n.n) != len(rd.pos_roots):
        raise ValueError("support length must match the number of positive roots")
    big_n = conductor or batch_conductor(q, rd)
    table = _table(q, big_n)
    rows = table.rows
    last = count = 0
    for i, (v, row) in enumerate(zip(n.n, rows)):
        if v:
            if v >= len(row) - 1:
                return CycloNum.zero(big_n)
            last, count = i, count + 1
    if count < 2:
        return rows[last][n.n[last]] if count else CycloNum.one(big_n)
    s = n.n[: last + 1]
    start = _common_prefix(table.support, s)
    del table.support[start:], table.values[start:]
    value = table.values[-1] if start else None
    for i in range(start, len(s)):
        if s[i]:
            value = rows[i][s[i]] if value is None else _entry_matrix(q, big_n, i, s[i]).times(value)
        table.support.append(s[i])
        table.values.append(value)
    return value


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
