"""Finite support and exact coefficients of the quasi-R-matrix expansion.

A term of the expansion is indexed by a support n : Phi+ -> Z_{>=0}; its
coefficient vanishes exactly when some n_gamma reaches l_gamma, so the
admissible supports form a box of size prod l_gamma.  Coefficients and the
diagonal Hopf-pairing values are evaluated exactly in a single cyclotomic
field whose conductor is the lcm of every angle denominator that appears.
The degree-zero part of the braiding is the diagonal phase operator with
angle -q(deg v, deg w).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod
from typing import Optional, Sequence, Union

from .angles import AngleQZ
from .cyclo import CycloNum, qfact, root_of_unity
from .qparam import QParam
from .rootdata import RootDatum, Weight


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

    def is_admissible(self, ls: Sequence[int]) -> bool:
        return all(v < l for v, l in zip(self.n, ls))


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
    """lcm of every angle denominator the coefficient formula can produce."""
    n = 2  # the sign factor
    omega_sum = Weight.of([1] * rd.rank)
    for root in rd.pos_roots:
        n = lcm(n, q.q_scalar(root).order)
        n = lcm(n, q.eval(Weight.of(root.fw_coords), omega_sum).order)
    return n


@lru_cache(maxsize=None)
def _coeff_root_factor(angle: AngleQZ, v: int, conductor: int) -> CycloNum:
    """q_g^(-v(v+1)/2) (q_g - q_g^-1)^v [v]_{q_g}! at the given root scalar."""
    qg = root_of_unity(angle, conductor)
    out = root_of_unity(angle.scaled(-v * (v + 1) // 2), conductor)
    out = out * (qg - qg.inverse()).power(v)
    return out * qfact(v, qg)


@lru_cache(maxsize=None)
def _pairing_root_factor(angle: AngleQZ, v: int, conductor: int) -> CycloNum:
    """v_g^(v(v+1)/2) (v_g - v_g^-1)^(-v) ([v]_{v_g}!)^(-1); raises when the
    inverted pieces vanish."""
    if angle.is_zero() or angle.is_half():
        raise NonInvertibleSpecialization(f"(v - v^-1) vanishes at angle {angle}")
    vg = root_of_unity(angle, conductor)
    fact = qfact(v, vg)
    if fact.is_zero():
        raise NonInvertibleSpecialization(f"[{v}]! vanishes at angle {angle}")
    out = root_of_unity(angle.scaled(v * (v + 1) // 2), conductor)
    out = out * (vg - vg.inverse()).power(-v)
    return out * fact.inverse()


def coeff(n: RSupport, q: QParam, rd: RootDatum, conductor: Optional[int] = None) -> CycloNum:
    """Exact coefficient of the expansion term with support n.

    The value is sign * phase * prod_gamma (q_gamma^(-n(n+1)/2)
    (q_gamma - q_gamma^-1)^n [n]_{q_gamma}!) with sign (-1)^(sum n_gamma
    ht(gamma)) and phase q(sum n_gamma gamma, sum_alpha omega_alpha); it is
    exactly zero iff some n_gamma >= l_gamma.
    """
    if len(n.n) != len(rd.pos_roots):
        raise ValueError("support length must match the number of positive roots")
    big_n = conductor or batch_conductor(q, rd)
    sign_exp = sum(v * r.height for v, r in zip(n.n, rd.pos_roots))
    out = CycloNum.from_rational(big_n, -1 if sign_exp % 2 else 1)

    weighted = Weight.of([0] * rd.rank)
    for v, r in zip(n.n, rd.pos_roots):
        if v:
            weighted = weighted + Weight.of(r.fw_coords).scaled(v)
    omega_sum = Weight.of([1] * rd.rank)
    out = out * root_of_unity(q.eval(weighted, omega_sum), big_n)

    for v, r in zip(n.n, rd.pos_roots):
        if v == 0:
            continue
        out = out * _coeff_root_factor(q.q_scalar(r), v, big_n)
    return out


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
        angles = [at.q_scalar(r) for r in rd.pos_roots]
    else:
        angles = list(at)
    if len(angles) != len(rd.pos_roots) or len(n.n) != len(rd.pos_roots):
        raise ValueError("specialization length must match the number of positive roots")
    big_n = conductor or lcm(2, *(a.order for a in angles))
    out = CycloNum.one(big_n)
    for v, angle in zip(n.n, angles):
        if v == 0:
            continue
        out = out * _pairing_root_factor(angle, v, big_n)
    return out


def omega_phase(q: QParam, lam: Weight, mu: Weight) -> AngleQZ:
    """Angle of the diagonal braiding factor: -q(lam, mu)."""
    return -q.eval(lam, mu)


def squared_braiding_phase(q: QParam, lam: Weight, mu: Weight) -> AngleQZ:
    """Angle of the squared braiding on a homogeneous pair: -2 q(lam, mu)."""
    return -q.eval(lam, mu).scaled(2)


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
