"""Scalar identities behind the symmetric rescaling of quasi-classical data.

These are finite angle computations verifying that the character constants
M_alpha(lam) = kappa^-1(alpha, lam) rescale the Serre sums, commutators, and
cross-commutators consistently when all scalar parameters are signs: the
quantity (r - s) * M_alpha(beta) - r * s * eps_alpha must not depend on the
split r + s = m of the Serre exponent, the quantum binomial at +-1 must
collapse the commutator eigenvalue, and antisymmetry of kappa must kill the
mixed commutators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .angles import AngleQZ
from .centers import DualDatum
from .cyclo import CycloNum, qbinom, qint, root_of_unity
from .kappa import BiformQZ


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
    all splits of the Serre exponent and whether they agree.
    """
    rank = len(dual.star_roots)
    for i, eps in enumerate(dual.epsilon_scalars):
        if not (eps.is_zero() or eps.is_half()):
            raise TwistPreconditionError(f"eps scalar {eps} at index {i} is not a sign")
    witnesses = []
    for i in range(rank):
        for j in range(rank):
            if i == j or dual.cartan_star[i][j] == 0:
                continue
            a_star = list(dual.star_roots[i])
            b_star = list(dual.star_roots[j])
            kappa_ab = kappa.eval(a_star, b_star)
            eps_ab_expected = kappa_ab.scaled(2)
            # 2 kappa = eps on the rescaled roots: eps(a*, b*) = <b*, a*v> eps_a.
            pairing = dual.cartan_star[i][j]
            if eps_ab_expected != dual.epsilon_scalars[i].scaled(pairing):
                raise TwistPreconditionError("kappa is not a square root of eps on the rescaled roots")
            m = 1 - dual.cartan_star[i][j]
            m_angle = -kappa_ab  # angle of M_a(b) = kappa^-1(a, b)
            values = []
            for r in range(m + 1):
                s = m - r
                values.append(m_angle.scaled(r - s) - dual.epsilon_scalars[i].scaled(r * s))
            verdict = all(v == values[0] for v in values)
            witnesses.append(TwistWitness(pair=(i, j), serre_exponent=m, values=tuple(values), verdict=verdict))
    return witnesses


COMMUTATOR_MAX_EXPONENT = 10


def commutator_identity(eps_alpha: AngleQZ) -> bool:
    """eps_alpha^(1+m) [m]_(eps_alpha) = m for |m| <= COMMUTATOR_MAX_EXPONENT.

    The binomial column [m choose 1] is the quantum integer [m]; at a sign
    this is eps^(m+1) m, which cancels the toral eigenvalue eps^m together
    with the leading eps in the commutator normalization.
    """
    if not (eps_alpha.is_zero() or eps_alpha.is_half()):
        raise TwistPreconditionError(f"{eps_alpha} is not a sign")
    conductor = eps_alpha.den
    eps = root_of_unity(eps_alpha, conductor)
    for m in range(-COMMUTATOR_MAX_EXPONENT, COMMUTATOR_MAX_EXPONENT + 1):
        binom_value = qbinom(m, 1, eps) if m >= 1 else qint(m, eps)
        if eps.power(1 + m) * binom_value != CycloNum.from_rational(conductor, m):
            return False
    return True


def cross_commutator_check(kappa: BiformQZ, extra_pairs: Sequence[tuple[Sequence[int], Sequence[int]]] = ()) -> bool:
    """kappa(x, y) + kappa(y, x) = 0 on all basis pairs and any given extras.

    This antisymmetry is what makes the mixed commutators of the rescaled
    generators vanish."""
    n = len(kappa.gram)
    for i in range(n):
        for j in range(n):
            if not (kappa.gram[i][j] + kappa.gram[j][i]).is_zero():
                return False
    for x, y in extra_pairs:
        if not (kappa.eval(x, y) + kappa.eval(y, x)).is_zero():
            return False
    return True


def run_all(dual: DualDatum, kappa: BiformQZ) -> tuple[list[TwistWitness], bool, bool]:
    """Full sweep: Serre ratios, commutator identity for each eps_alpha, and
    kappa antisymmetry including the rescaled simple-root pairs."""
    witnesses = serre_ratio_invariance(dual, kappa)
    comm = all(commutator_identity(eps) for eps in set(dual.epsilon_scalars))
    pairs = []
    rank = len(dual.star_roots)
    for i in range(rank):
        for j in range(rank):
            if i != j:
                pairs.append((list(dual.star_roots[i]), list(dual.star_roots[j])))
    cross = cross_commutator_check(kappa, pairs)
    return witnesses, comm, cross
