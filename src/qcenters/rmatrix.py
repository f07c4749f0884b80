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
(parameter, conductor), so a coefficient hashes no angle: it picks one
entry per nonzero n_gamma and multiplies them as one Kronecker product
(`CycloNum.product`).  The pairing values are products of cached rows too,
built by a separate computation, so that coeff * pairing = sign * phase
checks one against the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod
from typing import Optional, Sequence, Union

from .angles import AngleQZ
from .cyclo import CycloNum, root_of_unity
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

    One running product: entry v is entry v-1 times the per-step character
    (-1)^ht zeta^phase (q - q^-1) and q^-v [v], with [v+1] = q [v] + q^-v and
    q^-1 read as a root of unity, so nothing is inverted.  The entry at l must
    vanish, since [l]_q = 0 or q = q^-1 there.
    """
    qv, qv_inv = root_of_unity(qg, conductor), root_of_unity(-qg, conductor)
    step = root_of_unity(phase, conductor) * (qv - qv_inv)
    if height_parity:
        step = -step
    entry = qint = qv_neg = CycloNum.one(conductor)
    row = [entry]
    for _v in range(l):
        qv_neg = qv_neg * qv_inv
        entry = entry * step * qv_neg * qint
        row.append(entry)
        qint = qv * qint + qv_neg
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
    """Entries v = 0 .. ord(2 angle) - 1 of v_g^(v(v+1)/2) (v_g - v_g^-1)^(-v)
    ([v]_{v_g}!)^(-1) at v_g = exp(2 pi i angle).

    Entry v is the inverse of prod_{k <= v} (1 - v_g^(-2k)), since
    v_g^-k (v_g - v_g^-1) [k] = 1 - v_g^(-2k); that factor first vanishes at
    k = ord(2 angle), where the row ends.  The full product is inverted once
    and the row is walked back by the factors.
    """
    if angle.is_zero() or angle.is_half():
        raise NonInvertibleSpecialization(f"(v - v^-1) vanishes at angle {angle}")
    double = angle.scaled(2)
    one = CycloNum.one(conductor)
    v_inv2 = root_of_unity(-double, conductor)
    factors, power, total = [], one, one
    for _k in range(1, double.order):
        power = power * v_inv2
        factors.append(one - power)
        total = total * factors[-1]
    row = [total.inverse()]
    for f in reversed(factors):
        row.append(row[-1] * f)
    return tuple(reversed(row))


def coeff(n: RSupport, q: QParam, rd: RootDatum, conductor: Optional[int] = None) -> CycloNum:
    """Exact coefficient of the expansion term with support n.

    The value is sign * phase * prod_gamma (q_gamma^(-n(n+1)/2)
    (q_gamma - q_gamma^-1)^n [n]_{q_gamma}!) with sign (-1)^(sum n_gamma
    ht(gamma)) and phase q(sum n_gamma gamma, rho), rho = sum_alpha
    omega_alpha.  Sign and phase are characters of n, so the value is the
    product over the nonzero n_gamma of entry n_gamma of the cached row of
    gamma; it is exactly zero iff some n_gamma >= l_gamma.  The rows of a
    parameter are built, and checked to vanish at l_gamma, by its first
    coefficient and then read from a cache, and the factors are multiplied
    as one product.  rd must be the parameter's root datum.
    """
    if rd is not q.rd and rd != q.rd:
        raise ValueError("the root datum is not the parameter's")
    if len(n.n) != len(rd.pos_roots):
        raise ValueError("support length must match the number of positive roots")
    big_n = conductor or batch_conductor(q, rd)
    factors = []
    for v, row in zip(n.n, _coeff_rows(q, big_n)):
        if v:
            if v >= len(row) - 1:
                return CycloNum.zero(big_n)
            factors.append(row[v])
    return CycloNum.product(factors, big_n)


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
    if isinstance(at, QParam):
        angles = [qg for qg, _phase in at.root_table]
    else:
        angles = list(at)
    if len(angles) != len(rd.pos_roots) or len(n.n) != len(rd.pos_roots):
        raise ValueError("specialization length must match the number of positive roots")
    big_n = conductor or lcm(2, *(a.order for a in angles))
    factors = []
    for v, angle in zip(n.n, angles):
        if v == 0:
            continue
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
