"""Alternating square roots of the dual parameter and their extensions.

On X^Tan the restricted parameter takes values +-1 and vanishes on the
diagonal, so it admits an alternating square root kappa; we fix the canonical
upper-triangular choice on the HNF basis.  A canonical bilinear extension psi
to all of X is produced through a Smith-adapted basis of the inclusion
X^Tan <= X, by congruences of integer Gram matrices: kappa moves to the
adapted basis, is divided there, and moves on to the HNF basis of X.  The
simultaneous radical of q and kappa drives the finite character groups
Sigma, Lambda, Theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .angles import AngleQZ, ZERO, from_int_gram, to_int_gram
from .intlat import (
    FiniteAbelianGroup,
    IntMatrix,
    Lattice,
    bilinear,
    congruent,
    index,
    intersect,
    quotient,
    snf,
)
from .qparam import InvariantViolation, QParam, annihilator
from .rootdata import RootDatum


class KappaError(ValueError):
    """The restricted parameter is outside the square-root existence envelope."""


@dataclass(frozen=True)
class BiformQZ:
    """Bilinear Q/Z-valued form given by a Gram matrix on a lattice basis."""

    basis: Lattice
    gram: tuple[tuple[AngleQZ, ...], ...]

    @cached_property
    def int_gram(self) -> tuple[int, IntMatrix]:
        """(N, G) with gram[i][j] = G[i][j] / N mod 1."""
        return to_int_gram(self.gram)

    def eval(self, x: Sequence[int], y: Sequence[int]) -> AngleQZ:
        """Evaluate on ambient fw-coordinate vectors lying in the domain."""
        cx = self.basis.coords_of(list(x))
        cy = self.basis.coords_of(list(y))
        if cx is None or cy is None:
            raise KappaError("vector outside the form's domain lattice")
        n, g = self.int_gram
        return AngleQZ.of(Fraction(bilinear(g, cx, cy), n))


def build_kappa(q: QParam, x_tan: Lattice) -> BiformQZ:
    """Canonical alternating square root of the restricted parameter on X^Tan.

    On the HNF basis e_1..e_k: zero diagonal, kappa(e_i, e_j) = eps(e_i,e_j)/2
    in {0, 1/4} for i < j, and kappa(e_j, e_i) = -kappa(e_i, e_j).
    """
    basis = [list(g) for g in x_tan.gens]
    eps = q.angle_gram(basis)
    n = len(basis)
    for i in range(n):
        if not eps[i][i].is_zero():
            raise KappaError(f"restricted parameter has nonzero diagonal value {eps[i][i]}")
        for j in range(n):
            if not (eps[i][j].is_zero() or eps[i][j].is_half()):
                raise KappaError(f"restricted parameter value {eps[i][j]} is not a sign")
    gram = [[ZERO for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            half = AngleQZ(1, 4) if eps[i][j].is_half() else ZERO
            gram[i][j] = half
            gram[j][i] = -half
    form = BiformQZ(basis=x_tan, gram=tuple(tuple(row) for row in gram))

    # The three defining identities, verified on the full Gram matrix.
    for i in range(n):
        if not form.gram[i][i].is_zero():
            raise InvariantViolation("kappa diagonal is nonzero")
        for j in range(n):
            if not (form.gram[i][j] + form.gram[j][i]).is_zero():
                raise InvariantViolation("kappa is not antisymmetric")
            if form.gram[i][j].scaled(2) != eps[i][j]:
                raise InvariantViolation("kappa squared does not match the restricted parameter")
    return form


@dataclass(frozen=True)
class ToralGroups:
    """Character-group data of the quotients by the simultaneous radical."""

    sigma: FiniteAbelianGroup  # of X^Tan / rad(q, kappa)
    lam: FiniteAbelianGroup  # of X / rad(q, kappa)
    theta: FiniteAbelianGroup  # of X* / rad(q, kappa)

    @property
    def sigma_order(self) -> int:
        return self.sigma.order

    @property
    def lambda_order(self) -> int:
        return self.lam.order

    @property
    def theta_order(self) -> int:
        return self.theta.order


@dataclass(frozen=True)
class Radicals:
    rad_q: Lattice  # radical of q inside X
    rad_kappa: Lattice  # radical of kappa inside X^Tan
    rad_qk: Lattice  # their intersection
    groups: ToralGroups


def radicals(q: QParam, kappa: BiformQZ, rd: RootDatum, x_star_lattice: Lattice) -> Radicals:
    """rad(kappa) inside X^Tan, the simultaneous radical, and Sigma/Lambda/Theta."""
    x_tan = kappa.basis
    rad_kappa = annihilator(x_tan, kappa.gram)

    rad_q = q.rad(rd.charlattice)
    if not x_tan.contains_lattice(rad_q):
        raise InvariantViolation("the X-ambient radical of q escapes X^Tan")
    rad_qk = intersect(rad_q, rad_kappa)

    groups = ToralGroups(
        sigma=quotient(rad_qk, x_tan),
        lam=quotient(rad_qk, rd.charlattice),
        theta=quotient(rad_qk, x_star_lattice),
    )
    n_tan = index(x_tan, rd.charlattice)
    if n_tan is None or groups.sigma_order * n_tan != groups.lambda_order:
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
    """
    x_tan = kappa.basis
    coords = []
    for g in x_tan.gens:
        c = x.coords_of(list(g))
        if c is None:
            raise KappaError("kappa's domain is not contained in the extension lattice")
        coords.append(c)
    if x_tan.rank != x.rank:
        raise KappaError("extension requires a finite-index inclusion")
    _group, u, v, diag = snf(coords)
    n, k = kappa.int_gram
    on_df = congruent(u, k)
    # With a reduced into [0, N), the m-th parts of a / N are (a + jN) / (Nm)
    # for 0 <= j < m; the smallest numerator is j = 0.
    on_f = [[AngleQZ.of(Fraction(a % n, n * di * dj)) for a, dj in zip(row, diag)] for row, di in zip(on_df, diag)]
    n_f, k_f = to_int_gram(on_f)
    psi = BiformQZ(basis=x, gram=from_int_gram(n_f, congruent(v, k_f)))

    # Restriction of psi to X^Tan must reproduce kappa exactly.
    for gi in x_tan.gens:
        for gj in x_tan.gens:
            if psi.eval(gi, gj) != kappa.eval(gi, gj):
                raise InvariantViolation("psi does not restrict to kappa")
    return psi


def psi_vanishes_on(psi: BiformQZ, rad_qk: Lattice, x: Lattice) -> bool:
    """Whether the canonical extension kills the simultaneous radical on both
    sides; reported, not assumed."""
    for g in rad_qk.gens:
        for h in x.gens:
            if not psi.eval(g, h).is_zero() or not psi.eval(h, g).is_zero():
                return False
    return True
