"""Alternating square roots of the dual parameter and their extensions.

On X^Tan the restricted parameter takes values +-1 and vanishes on the
diagonal, so it admits an alternating square root kappa; we fix the canonical
upper-triangular choice on the HNF basis.  A canonical bilinear extension psi
to all of X is produced through a Smith-adapted basis of the inclusion
X^Tan <= X.  The simultaneous radical of q and kappa drives the finite
character groups Sigma, Lambda, Theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .angles import AngleQZ, ZERO
from .intlat import (
    FiniteAbelianGroup,
    Lattice,
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

    def eval(self, x: Sequence[int], y: Sequence[int]) -> AngleQZ:
        """Evaluate on ambient fw-coordinate vectors lying in the domain."""
        cx = self.basis.coords_of(list(x))
        cy = self.basis.coords_of(list(y))
        if cx is None or cy is None:
            raise KappaError("vector outside the form's domain lattice")
        total = ZERO
        for i, a in enumerate(cx):
            if a == 0:
                continue
            for j, b in enumerate(cy):
                if b == 0:
                    continue
                total = total + self.gram[i][j].scaled(a * b)
        return total

    def is_alternating(self) -> bool:
        n = len(self.gram)
        return all(self.gram[i][i].is_zero() for i in range(n)) and all(
            (self.gram[i][j] + self.gram[j][i]).is_zero() for i in range(n) for j in range(n)
        )


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


def _divide_angle(a: AngleQZ, divisor: int) -> AngleQZ:
    """The divisor-th part of a with the smallest nonnegative numerator.

    The candidates are (a.num + k * a.den) / (a.den * divisor) for
    0 <= k < divisor; the smallest numerator is k = 0.
    """
    from fractions import Fraction

    return AngleQZ.of(Fraction(a.num, a.den * divisor))


def extend_psi(kappa: BiformQZ, x: Lattice) -> BiformQZ:
    """Canonical bilinear extension of kappa from X^Tan to X.

    Pick a basis f_1..f_r of X with (d_1 f_1, ..., d_r f_r) a basis of X^Tan
    (Smith form of the inclusion) and set psi(f_i, f_j) =
    kappa(d_i f_i, d_j f_j) / (d_i d_j), dividing angles by taking the
    representative with the smallest nonnegative numerator.
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
    r = x.rank
    # Rows of V^-1 @ X-basis give the adapted basis f; U @ (X^Tan basis) = diag(d) @ f.
    v_inv = _int_inverse(v)
    f_rows = [[sum(v_inv[i][k] * x.gens[k][j] for k in range(r)) for j in range(x.ambient_rank)] for i in range(r)]

    adapted = []
    for i in range(r):
        row = []
        for j in range(r):
            ti = [diag[i] * c for c in f_rows[i]]
            tj = [diag[j] * c for c in f_rows[j]]
            value = kappa.eval(ti, tj)
            row.append(_divide_angle(value, diag[i] * diag[j]))
        adapted.append(row)
    # Re-express on the canonical HNF basis of X: b_k = sum_i V[k][i] f_i.
    gram = []
    for k in range(r):
        row = []
        for m in range(r):
            total = ZERO
            for i in range(r):
                if v[k][i] == 0:
                    continue
                for j in range(r):
                    if v[m][j] == 0:
                        continue
                    total = total + adapted[i][j].scaled(v[k][i] * v[m][j])
            row.append(total)
        gram.append(row)
    psi = BiformQZ(basis=x, gram=tuple(tuple(r_) for r_ in gram))

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


def _int_inverse(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, exactly."""
    from fractions import Fraction

    from .rootdata import _rational_inverse

    inv = _rational_inverse([[Fraction(x) for x in row] for row in m])
    out = []
    for row in inv:
        out_row = []
        for val in row:
            if val.denominator != 1:
                raise KappaError("matrix is not unimodular")
            out_row.append(int(val))
        out.append(out_row)
    return out
