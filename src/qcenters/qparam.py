"""Torsion quantum parameters as Q/Z-valued Weyl-invariant bilinear forms.

A parameter is one rational scalar c_H per almost-simple factor H; it
evaluates on weights as q(lam, mu) = sum_H c_H * (lam_H, mu_H) mod 1.  On an
almost-simple factor, Weyl invariance forces proportionality to the Killing
form, and orthogonal weights must pair trivially, so this covers the whole
admissible class of torsion parameters.  Since weights lie in P = Z^r, q is
stored once as an integer Gram matrix G on the fundamental weights, modulo
N: q(lam, mu) = lam . G . mu^T / N mod 1.  (N, G) is the form every other
module reads: its Gram between two bases is the product L . G . R^T, and
each identity of q (symmetry, vanishing on orthogonal weights, Weyl
invariance, the orders l_gamma, radicals) is a congruence mod N of such
products.  Angles appear only where values leave the integer pipeline, in
`eval`, `angle_gram`, `q_scalar` and `root_table`.
The package derives from q the root orders l_gamma, the scalar parameters
q_gamma, radicals and the standard parameter-class predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .angles import AngleQZ, from_int_gram
from .intlat import IntMatrix, Lattice, bilinear, congruence_kernel, congruent, hnf, vanishes_mod
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
        values = [[ci * k % 1 for k in row] for ci, row in zip(c, rd.killing)]
        n = lcm(*(x.denominator for row in values for x in row))
        return n, [[int(x * n) for x in row] for row in values]

    def eval(self, lam: Weight, mu: Weight) -> AngleQZ:
        """Exact angle of q(lam, mu) for weights lam, mu in P."""
        n, g = self.int_gram
        return AngleQZ.of(Fraction(bilinear(g, lam.coords, mu.coords), n))

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
        """Order l_gamma of q(gamma, gamma) = v . gamma / N with v = gamma . G,
        cross-checked against the order N / gcd(N, 2v) of the character
        q^2(gamma, -) on the weight lattice."""
        root = self._as_root(gamma)
        n, g = self.int_gram
        v = congruent([root.fw_coords], g, self.rd.weight_lattice().gens)[0]
        order_diag = n // gcd(n, sum(a * b for a, b in zip(v, root.fw_coords)))
        order_char = n // gcd(n, *(2 * x for x in v))
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
        n, g = self.int_gram
        return annihilator(ambient, n, congruent(ambient.gens, g))


def annihilator(ambient: Lattice, n: int, m: Sequence[Sequence[int]]) -> Lattice:
    """HNF lattice of x = sum_k x_k * ambient.gens[k] with
    sum_k x_k * m[k][j] = 0 mod n for every column j."""
    kernel = congruence_kernel([([row[j] % n for row in m], n) for j in range(len(m[0]))], len(m))
    return hnf([ambient.vector_from_coords(row) for row in kernel.gens], ambient.ambient_rank)


def make_param(rd: RootDatum, c: Union[Fraction, int, str, Sequence[Union[Fraction, int, str]]]) -> QParam:
    """Build a QParam from one rational per factor (a single value broadcasts).

    The defining properties hold by construction; they are checked here as
    congruences mod N of the Gram matrix G on the fundamental weights:
    G = G^T, S . G vanishes wherever S . K does (S the simple-root rows, K
    the Killing Gram), and R_s . G . R_s^T = G for each simple reflection
    R_s (rows s(omega_j)).
    """
    if isinstance(c, (Fraction, int, str)):
        values = [Fraction(c)] * len(rd.dynkin.factors)
    else:
        values = [Fraction(x) for x in c]
    q = QParam(rd, tuple(values))
    n, g = q.int_gram
    if not vanishes_mod([[a - b for a, b in zip(row, col)] for row, col in zip(g, zip(*g))], n):
        raise InvariantViolation("parameter is not symmetric")
    units = rd.weight_lattice().gens
    sk = congruent(rd.simple_roots, rd.killing_gram[1], units)
    sg = congruent(rd.simple_roots, g, units)
    if not vanishes_mod([[b for a, b in zip(rk, rg) if a == 0] for rk, rg in zip(sk, sg)], n):
        raise InvariantViolation("parameter does not vanish on orthogonal weights")
    for s in range(rd.rank):
        reflection = [weyl_reflect(rd, s, Weight.of(u)).coords for u in units]
        if not vanishes_mod([[a - b for a, b in zip(x, y)] for x, y in zip(congruent(reflection, g), g)], n):
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
