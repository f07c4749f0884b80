"""Torsion quantum parameters as Q/Z-valued Weyl-invariant bilinear forms.

A parameter is one rational scalar c_H per almost-simple factor H; it
evaluates on weights as q(lam, mu) = sum_H c_H * (lam_H, mu_H) mod 1.  On an
almost-simple factor, Weyl invariance forces proportionality to the Killing
form, and orthogonal weights must pair trivially, so this covers the whole
admissible class of torsion parameters.  Since weights lie in P = Z^r, q is
stored once as an integer Gram matrix G on the fundamental weights, modulo
N: q(lam, mu) = lam . G . mu^T / N mod 1.  (N, G) is the form every other
module reads: its Gram between two bases is the product L . G . R^T, and
a radical is the `intlat.annihilator` cut mod N of its ambient lattice by
such a product.

The identities of q itself are read off single rows v = lam . G, each summed
over the nonzero coordinates of lam only (O(r) per root, since roots are
sparse in fw coordinates).  In fw coordinates s_i(omega_j) = omega_j -
delta_ij alpha_i (Bourbaki, Lie Groups, ch. VI), so R_i = I - e_i^T alpha_i,
and for symmetric G with v_i = alpha_i . G,

    R_i . G . R_i^T - G = -e_i^T v_i - v_i^T e_i + (alpha_i . v_i) e_i^T e_i.

Its only nonzero entries sit in row and column i, so R_i . G . R_i^T = G mod
N exactly when (v_i)_k = 0 mod N for k != i and alpha_i . v_i = 2 (v_i)_i
mod N: Weyl invariance costs one row per simple root.  The root order
l_gamma is the order of v_gamma . gamma / N, and q(gamma, rho) with rho =
sum_i omega_i is sum(v_gamma) / N.  Angles appear only where values leave
the integer pipeline, in `eval`, `angle_gram`, `q_scalar` and `root_table`.
The package derives from q the root orders l_gamma, the scalar parameters
q_gamma, radicals and the standard parameter-class predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence, Union

from .angles import AngleQZ, from_int_gram
from .intlat import IntMatrix, Lattice, annihilator, bilinear, congruent, row_times, vanishes_mod
from .rootdata import InvariantViolation, Root, RootDatum, Weight  # InvariantViolation is re-exported


class InputError(ValueError):
    """A user input (command-line value or spec file entry) is malformed."""


@dataclass(frozen=True)
class QParam:
    """Quantum parameter for a root datum: q(lam, mu) = c_H(lam, mu) per factor."""

    rd: RootDatum
    c: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.c) != len(self.rd.dynkin.factors):
            raise ValueError("need one scalar per almost-simple factor")

    def check_datum(self, rd: RootDatum) -> None:
        """Raise ValueError unless rd is this parameter's root datum."""
        if rd is not self.rd and rd != self.rd:
            raise ValueError("the root datum is not the parameter's")

    @cached_property
    def int_gram(self) -> tuple[int, IntMatrix]:
        """(N, G) with q(omega_i, omega_j) = G[i][j] / N mod 1, read off the
        integer Killing Gram (D, K): over M = lcm(c denominators) * D the
        entries are c_i * M * K[i][j] / D mod M, and N = M / gcd(M, entries)
        is the least common denominator of the reduced values."""
        rd = self.rd
        d, k = rd.killing_gram
        den = lcm(*(c.denominator for c in self.c))
        m = den * d
        scale = [self.c[f].numerator * (den // self.c[f].denominator) for f in rd.factor_of_index]
        values = [[s * x % m for x in row] for s, row in zip(scale, k)]
        step = gcd(m, *(x for row in values for x in row))
        return m // step, [[x // step for x in row] for row in values]

    def eval(self, lam: Weight, mu: Weight) -> AngleQZ:
        """Exact angle of q(lam, mu) for weights lam, mu in P."""
        n, g = self.int_gram
        return AngleQZ.ratio(bilinear(g, lam.coords, mu.coords), n)

    def angle_gram(self, basis: Sequence[Sequence[int]]) -> tuple[tuple[AngleQZ, ...], ...]:
        """Gram matrix of q-angles on the given fw-coordinate vectors."""
        n, g = self.int_gram
        return from_int_gram(n, congruent(basis, g))

    def q_scalar(self, root: Root) -> AngleQZ:
        """Scalar parameter q_gamma: the Weyl-invariant extension c_H * d_gamma
        of the simple-root values q(alpha, omega_alpha)."""
        c = self.c[root.factor]
        return AngleQZ.ratio(c.numerator * root.d, c.denominator)

    def l_of(self, root: Root) -> int:
        """Order l_gamma of q(gamma, gamma) = v . gamma / N with v = gamma . G,
        cross-checked against the order N / gcd(N, 2v) of the character
        q^2(gamma, -) on the weight lattice."""
        n, g = self.int_gram
        v = row_times(root.fw_coords, g)
        order_diag = n // gcd(n, sum(map(mul, v, root.fw_coords)))
        order_char = n // gcd(n, 2 * gcd(*v))
        if order_diag != order_char:
            raise InvariantViolation(
                f"ord q(g,g) = {order_diag} but ord q^2(g,-) = {order_char} at {root.root_coords}"
            )
        return order_diag

    @cached_property
    def l_table(self) -> tuple[int, ...]:
        """l_gamma for every positive root, in rd.pos_roots order."""
        return tuple(self.l_of(r) for r in self.rd.pos_roots)

    @cached_property
    def root_table(self) -> tuple[tuple[AngleQZ, AngleQZ], ...]:
        """(q_gamma, q(gamma, rho)) for every positive root, in rd.pos_roots
        order, with rho = sum_alpha omega_alpha the Weyl vector, so that
        q(gamma, rho) = sum(gamma . G) / N."""
        n, g = self.int_gram
        return tuple(
            (self.q_scalar(r), AngleQZ.ratio(sum(row_times(r.fw_coords, g)), n)) for r in self.rd.pos_roots
        )

    @cached_property
    def _simple_ls(self) -> tuple[int, ...]:
        """l_alpha for the simple roots, read once off l_table."""
        return tuple(self.l_table[p] for p in self.rd.simple_pos)

    def simple_ls(self) -> list[int]:
        """l_alpha for the simple roots, in simple-root order."""
        return list(self._simple_ls)

    def simple_scalars(self) -> list[AngleQZ]:
        """q_alpha for the simple roots, in simple-root order."""
        return [self.q_scalar(self.rd.pos_roots[p]) for p in self.rd.simple_pos]

    def pos_root_ls(self) -> list[int]:
        return list(self.l_table)

    @cached_property
    def _rads(self) -> dict[Lattice, Lattice]:
        """rad(ambient) per ambient lattice cut so far."""
        return {}

    @cached_property
    def coeff_tables(self) -> dict:
        """`rmatrix`'s coefficient table per conductor, each built on first
        use and freed with the parameter; keyed by the int conductor, so a
        lookup hashes in C."""
        return {}

    def rad(self, ambient: Optional[Lattice] = None) -> Lattice:
        """Radical {lam in ambient : q(lam, mu) = 1 for all mu in ambient}.

        Defaults to the weight lattice P; pass rd.charlattice for the
        X-ambient radical used by the finite-group quotients.  Each ambient
        lattice is cut once per parameter: on simply connected data X = P,
        and `classify` and `kappa.radicals` share one cut.
        """
        if ambient is None:
            ambient = self.rd.weight_lattice()
        if ambient not in self._rads:
            n, g = self.int_gram
            self._rads[ambient] = annihilator(ambient, n, congruent(ambient.gens, g))
        return self._rads[ambient]


def _reflection_fixes(alpha: Sequence[int], v: Sequence[int], i: int, n: int) -> bool:
    """Whether R_i . G . R_i^T = G mod n for the simple reflection s_i, given
    the row v = alpha_i . G of a symmetric G (see the module docstring)."""
    off_diagonal = all(x % n == 0 for k, x in enumerate(v) if k != i)
    return off_diagonal and (sum(a * x for a, x in zip(alpha, v)) - 2 * v[i]) % n == 0


def make_param(rd: RootDatum, c: Union[Fraction, int, str, Sequence[Union[Fraction, int, str]]]) -> QParam:
    """Build a QParam from one rational per factor (a single value broadcasts).

    The defining properties hold by construction; they are checked here, in
    this order, as congruences mod N of the Gram matrix G on the fundamental
    weights: G = G^T; each simple-root row v_i = alpha_i . G vanishes wherever
    the Killing row alpha_i . K does; and R_i . G . R_i^T = G for each simple
    reflection, which for symmetric G holds exactly when (v_i)_k = 0 for
    k != i and alpha_i . v_i = 2 (v_i)_i (see the module docstring).
    """
    if isinstance(c, (Fraction, int, str)):
        values = [Fraction(c)] * len(rd.dynkin.factors)
    else:
        values = [Fraction(x) for x in c]
    q = QParam(rd, tuple(values))
    n, g = q.int_gram
    if not vanishes_mod([[a - b for a, b in zip(row, col)] for row, col in zip(g, zip(*g))], n):
        raise InvariantViolation("parameter is not symmetric")
    k = rd.killing_gram[1]
    rows = [row_times(alpha, g) for alpha in rd.simple_roots]
    orthogonal = [[x for y, x in zip(row_times(alpha, k), v) if y == 0] for alpha, v in zip(rd.simple_roots, rows)]
    if not vanishes_mod(orthogonal, n):
        raise InvariantViolation("parameter does not vanish on orthogonal weights")
    if not all(_reflection_fixes(alpha, v, i, n) for i, (alpha, v) in enumerate(zip(rd.simple_roots, rows))):
        raise InvariantViolation("parameter is not Weyl invariant")
    return q


@dataclass(frozen=True)
class ParamClass:
    """Predicates locating q within the standard parameter classes."""

    max_nondegenerate: bool
    all_even: bool
    quasi_classical: bool
    witness: Optional[Weight]  # element of rad(q) outside Q when non-max-nondegenerate


def classify(q: QParam) -> ParamClass:
    """Radical containment in Q, even-order scalars, and quasi-classicality."""
    rd = q.rd
    rad_p = q.rad(rd.weight_lattice())
    outside = rd.root_lattice().first_outside(rad_p.gens)
    witness = None if outside is None else Weight.of(outside)
    return ParamClass(
        max_nondegenerate=witness is None,
        all_even=all(s.order % 2 == 0 for s in q.simple_scalars()),
        quasi_classical=all(l == 1 for l in q.simple_ls()),
        witness=witness,
    )


def parse_param(text: str, n_factors: int) -> list[Fraction]:
    """CLI parameter syntax: "1/6", "1/6,1/4", "pi/l:3", or "2pi/l:3".

    The pi/l and 2pi/l sugar mean the forms exp(pi*i(-,-)/l) and
    exp(2*pi*i(-,-)/l), i.e. c = 1/(2l) and c = 1/l; a single value
    broadcasts over all factors.
    """
    text = text.strip()
    pieces = [p.strip() for p in text.split(",")]
    values = []
    for piece in pieces:
        try:
            if piece.startswith("pi/l:"):
                ell = int(piece.split(":", 1)[1])
                values.append(Fraction(1, 2 * ell))
            elif piece.startswith("2pi/l:"):
                ell = int(piece.split(":", 1)[1])
                values.append(Fraction(1, ell))
            else:
                values.append(Fraction(piece))
        except ZeroDivisionError as exc:
            raise InputError(f"parameter {piece!r} has a zero denominator") from exc
    if len(values) == 1:
        values = values * n_factors
    if len(values) != n_factors:
        raise InputError(f"expected {n_factors} parameter value(s), got {len(values)}")
    return values
