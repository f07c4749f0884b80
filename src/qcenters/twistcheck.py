"""Scalar identities behind the symmetric rescaling of quasi-classical data.

These are finite computations verifying that the character constants
M_alpha(lam) = kappa^-1(alpha, lam) rescale the Serre sums, commutators, and
cross-commutators consistently when all scalar parameters are signs: the
quantity (r - s) * M_alpha(beta) - r * s * eps_alpha must not depend on the
split r + s = m of the Serre exponent, the quantum binomial at +-1 must
collapse the commutator eigenvalue, and antisymmetry of kappa must kill the
mixed commutators.  The Serre ratios and the antisymmetry are congruences on
kappa's integer Gram matrix (N, K); angles appear only in the witness values
and in the signs eps_alpha that the commutator identity lifts to Q(zeta_2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .angles import AngleQZ
from .centers import DualDatum
from .cyclo import CycloNum, root_of_unity
from .intlat import congruent
from .kappa import OUTSIDE_DOMAIN, BiformQZ, KappaError


class TwistPreconditionError(ValueError):
    """The parameter is not quasi-classical or kappa is not a square root."""


@dataclass(frozen=True)
class TwistWitness:
    """Ratio data for one ordered adjacent pair of rescaled simple roots."""

    pair: tuple[int, int]
    serre_exponent: int  # m = 1 - 2(a, b)/(a, a)
    values: tuple[AngleQZ, ...]  # (r - s) M_a(b) - r s eps_a over r = 0..m
    verdict: bool


def serre_ratio_invariance(dual: DualDatum, kappa: BiformQZ) -> list[TwistWitness]:
    """Check the rescaling constants across every ordered adjacent pair.

    Requires every eps_alpha to be a sign and 2 kappa = eps on the rescaled
    simple roots; the witness for (i, j) records the candidate constants for
    all splits of the Serre exponent and whether they agree.  With S the
    coordinates of the rescaled roots on kappa's basis, kappa on them is
    S . K . S^T, read over M = lcm(N, 2) where eps_i is 0 or M/2: the square
    root condition is 2 kappa_ij = c*_ij eps_i mod M, and since
    M_a(b) = -kappa_ij, the value at r is (m - 2r) kappa_ij - r (m - r) eps_i.
    """
    for i, eps in enumerate(dual.epsilon_scalars):
        if not (eps.is_zero() or eps.is_half()):
            raise TwistPreconditionError(f"eps scalar {eps} at index {i} is not a sign")
    n, k = kappa.int_gram
    big = lcm(n, 2)
    eps_m = [big // 2 * e.is_half() for e in dual.epsilon_scalars]
    on_roots = congruent(kappa.basis.coords_rows(dual.star_roots, KappaError(OUTSIDE_DOMAIN)), k)
    witnesses = []
    for i, row in enumerate(dual.cartan_star):
        for j, pairing in enumerate(row):
            if i == j or pairing == 0:
                continue
            kij = on_roots[i][j] * (big // n)
            # 2 kappa = eps on the rescaled roots: eps(a*, b*) = <b*, a*v> eps_a.
            if (2 * kij - pairing * eps_m[i]) % big:
                raise TwistPreconditionError("kappa is not a square root of eps on the rescaled roots")
            m = 1 - pairing
            values = [((m - 2 * r) * kij - r * (m - r) * eps_m[i]) % big for r in range(m + 1)]
            witnesses.append(
                TwistWitness(
                    pair=(i, j),
                    serre_exponent=m,
                    values=tuple(AngleQZ.ratio(v, big) for v in values),
                    verdict=all(v == values[0] for v in values),
                )
            )
    return witnesses


COMMUTATOR_MAX_EXPONENT = 10


@lru_cache(maxsize=None)
def commutator_identity(eps_alpha: AngleQZ) -> bool:
    """eps_alpha^(1+m) [m]_(eps_alpha) = m for |m| <= COMMUTATOR_MAX_EXPONENT.

    The binomial column [m choose 1] is the quantum integer [m]; at a sign
    this is eps^(m+1) m, which cancels the toral eigenvalue eps^m together
    with the leading eps in the commutator normalization.  One walk over
    m = 1, 2, ... carries eps^(1+m) and eps^(1-m), the latter a running
    power of the root of unity at -eps_alpha, and builds [m]_eps by the
    running sum [m] = eps [m-1] + eps^(1-m), so nothing is inverted; -m is
    checked by [-m] = -[m], and m = 0 holds trivially.  The value depends
    only on the sign, so it is cached.
    """
    if not (eps_alpha.is_zero() or eps_alpha.is_half()):
        raise TwistPreconditionError(f"{eps_alpha} is not a sign")
    conductor = eps_alpha.den
    eps = root_of_unity(eps_alpha, conductor)
    eps_inv = root_of_unity(-eps_alpha, conductor)
    up, down, qint = eps, eps, CycloNum.zero(conductor)  # eps^(1+m), eps^(1-m), [m] at m = 0
    for m in range(1, COMMUTATOR_MAX_EXPONENT + 1):
        up, down = up * eps, down * eps_inv
        qint = eps * qint + down
        value = CycloNum.from_rational(conductor, m)
        if up * qint != value or down * qint != value:
            return False
    return True


def cross_commutator_check(kappa: BiformQZ) -> bool:
    """kappa(x, y) + kappa(y, x) = 0 on the whole domain: K + K^T = 0 mod N
    for the integer Gram matrix (N, K) of kappa.

    This antisymmetry is what makes the mixed commutators of the rescaled
    generators vanish; the rescaled simple roots lie in the domain X^Tan
    (center_tower checks it), so it covers every pair of them."""
    return kappa.is_antisymmetric()


def run_all(dual: DualDatum, kappa: BiformQZ) -> tuple[list[TwistWitness], bool, bool]:
    """Full sweep: Serre ratios, commutator identity for each eps_alpha, and
    kappa antisymmetry."""
    witnesses = serre_ratio_invariance(dual, kappa)
    comm = all(commutator_identity(eps) for eps in set(dual.epsilon_scalars))
    return witnesses, comm, cross_commutator_check(kappa)
