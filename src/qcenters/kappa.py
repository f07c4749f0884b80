"""Alternating square roots of the dual parameter and their extensions.

On X^Tan the restricted parameter takes values +-1 and vanishes on the
diagonal, so it admits an alternating square root kappa; we fix the canonical
upper-triangular choice on the HNF basis.  A canonical bilinear extension psi
to all of X is produced through a Smith-adapted basis of the inclusion
X^Tan <= X, by congruences of integer Gram matrices: kappa moves to the
adapted basis, is divided there, and moves on to the HNF basis of X.  A form
is stored as (N, K), its integer Gram matrix mod N, and every identity on it
is a congruence mod N of products L . K . R^T: kappa's defining identities
are checked on K over N = 4, psi restricts to kappa as C . Psi . C^T = K,
and psi kills a sublattice with coordinate rows C when C . Psi = 0 =
Psi . C^T.  The simultaneous radical of q and kappa, cut from rad(kappa)
by the Gram of q against X, drives the finite character groups Sigma,
Lambda, Theta (`ToralGroups`); their orders are the `order` of each group.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .angles import AngleQZ, from_int_gram
from .centers import held
from .intlat import (
    FiniteAbelianGroup,
    IntMatrix,
    Lattice,
    annihilator,
    bilinear,
    congruent,
    quotient,
    snf,
    vanishes_mod,
)
from .qparam import InvariantViolation, QParam


class KappaError(ValueError):
    """The restricted parameter is outside the square-root existence envelope."""


OUTSIDE_DOMAIN = "vector outside the form's domain lattice"


@dataclass(frozen=True)
class BiformQZ:
    """Bilinear Q/Z-valued form on a lattice basis: the form is K[i][j] / N
    mod 1 on basis vectors i, j, with int_gram = (N, K) and K in [0, N)."""

    basis: Lattice
    int_gram: tuple[int, IntMatrix]

    @property
    def gram(self) -> tuple[tuple[AngleQZ, ...], ...]:
        """The Gram matrix as angles, for serialization."""
        return from_int_gram(*self.int_gram)

    def eval(self, x: Sequence[int], y: Sequence[int]) -> AngleQZ:
        """Evaluate on ambient fw-coordinate vectors lying in the domain."""
        cx, cy = self.basis.coords_rows((x, y), KappaError(OUTSIDE_DOMAIN))
        n, g = self.int_gram
        return AngleQZ.ratio(bilinear(g, cx, cy), n)

    def is_antisymmetric(self) -> bool:
        """kappa(x, y) + kappa(y, x) = 0 on the whole domain: K + K^T = 0 mod N."""
        n, k = self.int_gram
        return vanishes_mod([[a + b for a, b in zip(row, col)] for row, col in zip(k, zip(*k))], n)


def build_kappa(q: QParam, x_tan: Lattice) -> BiformQZ:
    """Canonical alternating square root of the restricted parameter on X^Tan.

    With E = X^Tan . G . X^Tan^T mod N the restricted parameter on the HNF
    basis e_1..e_k, kappa is (4, K): for i < j, K_ij = 1 and K_ji = 3 where
    E_ij = N/2, and K is 0 elsewhere.  Its three defining identities are
    checked on the form built, as congruences: diag K = 0 mod 4,
    2 kappa = eps as 2N K = 4E mod 4N, and K + K^T = 0 mod 4.
    """
    n, g = q.int_gram
    eps = [[x % n for x in row] for row in congruent(x_tan.gens, g)]
    k = [[0] * len(eps) for _ in eps]
    for i, row in enumerate(eps):
        if row[i]:
            raise KappaError(f"restricted parameter has nonzero diagonal value {AngleQZ.ratio(row[i], n)}")
        for j, x in enumerate(row):
            if 2 * x not in (0, n):
                raise KappaError(f"restricted parameter value {AngleQZ.ratio(x, n)} is not a sign")
            if j > i and x:
                k[i][j], k[j][i] = 1, 3
    form = BiformQZ(basis=x_tan, int_gram=(4, k))

    # The three defining identities, verified on the Gram matrix of the form.
    d, k = form.int_gram
    if not vanishes_mod([[row[i] for i, row in enumerate(k)]], d):
        raise InvariantViolation("kappa diagonal is nonzero")
    if not vanishes_mod([[2 * n * a - d * e for a, e in zip(rk, re)] for rk, re in zip(k, eps)], d * n):
        raise InvariantViolation("kappa squared does not match the restricted parameter")
    if not form.is_antisymmetric():
        raise InvariantViolation("kappa is not antisymmetric")
    return form


@dataclass(frozen=True)
class ToralGroups:
    """Character-group data of the quotients by the simultaneous radical."""

    sigma: FiniteAbelianGroup  # of X^Tan / rad(q, kappa)
    lam: FiniteAbelianGroup  # of X / rad(q, kappa)
    theta: FiniteAbelianGroup  # of X* / rad(q, kappa)


@dataclass(frozen=True)
class Radicals:
    rad_q: Lattice  # radical of q inside X
    rad_kappa: Lattice  # radical of kappa inside X^Tan
    rad_qk: Lattice  # their intersection
    groups: ToralGroups


def radicals(q: QParam, kappa: BiformQZ, x_star_lattice: Lattice, n_tan: int) -> Radicals:
    """rad(kappa) inside X^Tan, the simultaneous radical, and Sigma/Lambda/Theta;
    n_tan is [X : X^Tan], which must equal |Lambda| / |Sigma|."""
    x_tan, rd = kappa.basis, q.rd
    rad_kappa = annihilator(x_tan, *kappa.int_gram)

    rad_q = q.rad(rd.charlattice)
    if not x_tan.contains_lattice(rad_q):
        raise InvariantViolation("the X-ambient radical of q escapes X^Tan")
    # rad(q) meets rad(kappa) in the lam of rad(kappa) with q(lam, X) = 0.
    n, g = q.int_gram
    rad_qk = annihilator(rad_kappa, n, congruent(rad_kappa.gens, g, rd.charlattice.gens))

    groups = ToralGroups(
        sigma=held(quotient, rad_qk, x_tan, "rad(q, kappa) <= X^Tan"),
        lam=held(quotient, rad_qk, rd.charlattice, "rad(q, kappa) <= X"),
        theta=held(quotient, rad_qk, x_star_lattice, "rad(q, kappa) <= X*"),
    )
    if groups.sigma.order * n_tan != groups.lam.order:
        raise InvariantViolation("index multiplicativity |Sigma| * [X : X^Tan] = |Lambda| fails")
    return Radicals(rad_q=rad_q, rad_kappa=rad_kappa, rad_qk=rad_qk, groups=groups)


def extend_psi(kappa: BiformQZ, x: Lattice) -> BiformQZ:
    """Canonical bilinear extension of kappa from X^Tan to X.

    The Smith form U C V = diag(d) of the inclusion matrix C (rows: the HNF
    basis of X^Tan in coordinates on the HNF basis b of X) gives a basis
    f = V^-1 b of X in which row i of U holds the X^Tan coordinates of
    d_i f_i.  So kappa on the d_i f_i is the congruence U K U^T, and
    psi(f_i, f_j) = kappa(d_i f_i, d_j f_j) / (d_i d_j), dividing each angle
    by taking the representative with the smallest nonnegative numerator.
    Since b = V f, the Gram of psi on b is the congruence V (psi on f) V^T.
    All of it is over the one modulus M = N * lcm(d)^2, in which kappa's
    Gram is K * lcm(d)^2.
    """
    x_tan = kappa.basis
    coords = x.coords_rows(x_tan.gens, KappaError("kappa's domain is not contained in the extension lattice"))
    if x_tan.rank != x.rank:
        raise KappaError("extension requires a finite-index inclusion")
    _group, u, v, diag = snf(coords)
    n, k = kappa.int_gram
    scale = lcm(*diag) ** 2
    # With a reduced into [0, N), the m-th parts of a / N are (a + jN) / (Nm)
    # for 0 <= j < m; the smallest numerator is j = 0.
    on_f = [[a % n * scale // (di * dj) for a, dj in zip(row, diag)] for row, di in zip(congruent(u, k), diag)]
    big_n = n * scale
    on_b = [[a % big_n for a in row] for row in congruent(v, on_f)]
    psi = BiformQZ(basis=x, int_gram=(big_n, on_b))

    # Restriction of psi to X^Tan must reproduce kappa exactly.
    restricted = congruent(coords, on_b)
    if not vanishes_mod([[a - b * scale for a, b in zip(ra, rk)] for ra, rk in zip(restricted, k)], big_n):
        raise InvariantViolation("psi does not restrict to kappa")
    return psi


def psi_vanishes_on(psi: BiformQZ, rad_qk: Lattice, x: Lattice) -> bool:
    """Whether the canonical extension kills the simultaneous radical on both
    sides, psi(rad_qk, x) = 0 = psi(x, rad_qk); reported, not assumed.

    With C and D the coordinates of the generators of rad_qk and of x on the
    domain basis of psi, this is C . Psi . D^T = 0 = D . Psi . C^T mod N."""
    c, d = (psi.basis.coords_rows(lat.gens, KappaError(OUTSIDE_DOMAIN)) for lat in (rad_qk, x))
    n, g = psi.int_gram
    return vanishes_mod(congruent(c, g, d), n) and vanishes_mod(congruent(d, g, c), n)
