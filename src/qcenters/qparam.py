"""Torsion quantum parameters as Q/Z-valued Weyl-invariant bilinear forms.

A parameter is one rational scalar c_H per almost-simple factor H; it
evaluates on weights as q(lam, mu) = sum_H c_H * (lam_H, mu_H) mod 1.  On an
almost-simple factor, Weyl invariance forces proportionality to the Killing
form, and orthogonal weights must pair trivially, so this covers the whole
admissible class of torsion parameters.  Since weights lie in P = Z^r, q is
stored once as an integer Gram matrix G on the fundamental weights, modulo
N: q(lam, mu) = lam . G . mu^T / N mod 1, and its Gram on any basis is a
congruence.  The package derives from q the root orders l_gamma, the scalar
parameters q_gamma, radicals and the standard parameter-class predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence, Union

from .angles import AngleQZ, from_int_gram, to_int_gram
from .intlat import IntMatrix, Lattice, bilinear, congruence_kernel, congruent, hnf
from .rootdata import Root, RootDatum, Weight, weyl_reflect


class InvariantViolation(AssertionError):
    """An identity the theory guarantees failed; indicates a bug or an input
    outside the validity envelope."""


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

    @cached_property
    def int_gram(self) -> tuple[int, IntMatrix]:
        """(N, G) with q(omega_i, omega_j) = G[i][j] / N mod 1."""
        rd = self.rd
        c = [self.c[f] for f in rd.factor_of_index]
        return to_int_gram([[AngleQZ.of(ci * k) for k in row] for ci, row in zip(c, rd.killing)])

    def eval(self, lam: Weight, mu: Weight) -> AngleQZ:
        """Exact angle of q(lam, mu) for weights lam, mu in P."""
        n, g = self.int_gram
        return AngleQZ.of(Fraction(bilinear(g, lam.coords, mu.coords), n))

    def eval_sq(self, lam: Weight, mu: Weight) -> AngleQZ:
        """Angle of q^2(lam, mu)."""
        return self.eval(lam, mu).scaled(2)

    def angle_gram(self, basis: Sequence[Sequence[int]]) -> tuple[tuple[AngleQZ, ...], ...]:
        """Gram matrix of q-angles on the given fw-coordinate vectors."""
        n, g = self.int_gram
        return from_int_gram(n, congruent(basis, g))

    def q_scalar(self, gamma: Union[Root, int]) -> AngleQZ:
        """Scalar parameter q_gamma: the Weyl-invariant extension c_H * d_gamma
        of the simple-root values q(alpha, omega_alpha)."""
        root = self._as_root(gamma)
        return AngleQZ.of(self.c[root.factor] * root.d)

    def l_of(self, gamma: Union[Root, int]) -> int:
        """Order l_gamma of q(gamma, gamma), cross-checked against the order of
        the character q^2(gamma, -) on the weight lattice."""
        root = self._as_root(gamma)
        order_diag = self.eval(Weight.of(root.fw_coords), Weight.of(root.fw_coords)).order
        gamma_w = Weight.of(root.fw_coords)
        order_char = 1
        for j in range(self.rd.rank):
            order_char = lcm(order_char, self.eval_sq(gamma_w, self.rd.fundamental_weight(j)).order)
        if order_diag != order_char:
            raise InvariantViolation(
                f"ord q(g,g) = {order_diag} but ord q^2(g,-) = {order_char} at {root.root_coords}"
            )
        return order_diag

    def _as_root(self, gamma: Union[Root, int]) -> Root:
        if isinstance(gamma, Root):
            return gamma
        return self.rd.pos_roots[gamma]

    @cached_property
    def l_table(self) -> tuple[int, ...]:
        """l_gamma for every positive root, in rd.pos_roots order."""
        return tuple(self.l_of(r) for r in self.rd.pos_roots)

    @cached_property
    def root_table(self) -> tuple[tuple[AngleQZ, AngleQZ], ...]:
        """(q_gamma, q(gamma, rho)) for every positive root, in rd.pos_roots
        order, with rho = sum_alpha omega_alpha the Weyl vector."""
        rho = Weight.of([1] * self.rd.rank)
        return tuple((self.q_scalar(r), self.eval(Weight.of(r.fw_coords), rho)) for r in self.rd.pos_roots)

    def simple_ls(self) -> list[int]:
        """l_alpha for the simple roots, in simple-root order."""
        by_simple = {}
        for root, l in zip(self.rd.pos_roots, self.l_table):
            if root.height == 1:
                idx = next(i for i, c in enumerate(root.root_coords) if c)
                by_simple[idx] = l
        return [by_simple[i] for i in range(self.rd.rank)]

    def pos_root_ls(self) -> list[int]:
        return list(self.l_table)

    def rad(self, ambient: Optional[Lattice] = None) -> Lattice:
        """Radical {lam in ambient : q(lam, mu) = 1 for all mu in ambient}.

        Defaults to the weight lattice P; pass rd.charlattice for the
        X-ambient radical used by the finite-group quotients.
        """
        if ambient is None:
            ambient = self.rd.weight_lattice()
        return annihilator(ambient, self.angle_gram(ambient.gens))


def annihilator(ambient: Lattice, angles: Sequence[Sequence[AngleQZ]]) -> Lattice:
    """HNF lattice of x = sum_k x_k * ambient.gens[k] with
    sum_k x_k * angles[k][j] = 0 in Q/Z for every column j."""
    n, m = to_int_gram(angles)
    kernel = congruence_kernel([([row[j] for row in m], n) for j in range(len(m[0]))], len(m))
    return hnf([ambient.vector_from_coords(row) for row in kernel.gens], ambient.ambient_rank)


def make_param(rd: RootDatum, c: Union[Fraction, int, str, Sequence[Union[Fraction, int, str]]]) -> QParam:
    """Build a QParam from one rational per factor (a single value broadcasts).

    The defining properties (symmetry, orthogonality vanishing, Weyl
    invariance) hold by construction; they are spot-checked here on the
    simple-root/fundamental-weight vectors.
    """
    if isinstance(c, (Fraction, int, str)):
        values = [Fraction(c)] * len(rd.dynkin.factors)
    else:
        values = [Fraction(x) for x in c]
    q = QParam(rd, tuple(values))
    for i in range(rd.rank):
        a_i = rd.simple_root(i)
        for j in range(rd.rank):
            w_j = rd.fundamental_weight(j)
            if q.eval(a_i, w_j) != q.eval(w_j, a_i):
                raise InvariantViolation("parameter is not symmetric")
            if rd.pairing(a_i, w_j) == 0 and not q.eval(a_i, w_j).is_zero():
                raise InvariantViolation("parameter does not vanish on orthogonal weights")
            for s in range(rd.rank):
                if q.eval(weyl_reflect(rd, s, a_i), weyl_reflect(rd, s, w_j)) != q.eval(a_i, w_j):
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
    q_lat = rd.root_lattice()
    witness = None
    for g in rad_p.gens:
        if not q_lat.member(g):
            witness = Weight.of(g)
            break
    simple_ls = q.simple_ls()
    orders = [q.q_scalar(r).order for r in rd.pos_roots if r.height == 1]
    return ParamClass(
        max_nondegenerate=witness is None,
        all_even=all(o % 2 == 0 for o in orders),
        quasi_classical=all(l == 1 for l in simple_ls),
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
