"""The sublattice tower lQ <= X^Tan <= X^Mug <= X* and the dual root data.

X* cuts out the quasi-classical characters, X^Mug those with trivial squared
braiding against everything, and X^Tan the further kernel of lam -> q(lam,
lam).  With q = (N, G), each cut and each re-check is a congruence mod N of
products L . G . R^T: X* and X^Mug annihilate the rows of 2G against the
simple roots and against X, X^Tan annihilates the diagonal of G on X^Mug,
and the pivot character is (2 rho) . G on the X^Tan generators.  The dual
datum has simple roots l_alpha * alpha, read from the one helper star_roots,
whose span is lQ, the bottom of the tower, and the rescaled Cartan integers,
carrying the restricted parameter epsilon whose scalar values are signs; the
quotient datum keeps the same roots but the character lattice X^Tan.  The
integrality of the rescaled Cartan integers forces Cartan* to equal A or A^T
on each factor, so the dual Dynkin type is read off by comparing rows: a
factor keeps its family or takes its Langlands dual (B <-> C).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Any, Callable, Optional, Sequence

from .angles import AngleQZ
from .intlat import IntMatrix, Lattice, LatticeError, annihilator, congruent, hnf, index, vanishes_mod
from .qparam import InvariantViolation, ParamClass, QParam
from .rootdata import DynkinType, RootDatum, Weight, two_rho


class DualDatumError(ValueError):
    """Rescaled Cartan integers fell outside the integral validity envelope."""


def held(read: Callable[[Lattice, Lattice], Any], sub: Lattice, sup: Lattice, inclusion: str) -> Any:
    """read(sub, sup), an index or quotient, where sub <= sup holds by
    construction: a LatticeError there is an internal fault, not bad input."""
    try:
        return read(sub, sup)
    except LatticeError:
        raise InvariantViolation(f"inclusion {inclusion} fails") from None


def _doubled(g: IntMatrix) -> IntMatrix:
    """2G: with G the Gram of q mod N, the Gram of q^2 mod N."""
    return [[2 * x for x in row] for row in g]


def x_star(q: QParam) -> Lattice:
    """{lam in X : q^2(lam, alpha) = 1 at all simple alpha}."""
    rd, (n, g) = q.rd, q.int_gram
    return annihilator(rd.charlattice, n, congruent(rd.charlattice.gens, _doubled(g), rd.simple_roots))


def star_roots(q: QParam) -> tuple[tuple[int, ...], ...]:
    """The dual group's simple roots l_alpha * alpha, in fw coordinates."""
    return tuple(tuple(l * c for c in alpha) for l, alpha in zip(q.simple_ls(), q.rd.simple_roots))


@dataclass(frozen=True)
class CenterTower:
    """The chain lQ <= X^Tan <= X^Mug <= X* with indices and witnesses.

    lQ = <l_alpha alpha_i> has full rank and lies in X^Tan, so every member
    has full rank and every index is finite.  Each witness is a generator of
    the larger member missing from the smaller one, or None when that link
    of the chain is an equality.
    """

    lq: Lattice
    x_star: Lattice
    x_mug: Lattice
    x_tan: Lattice
    index_x_star: int  # [X : X*]
    index_mug_in_star: int
    index_tan_in_mug: int
    index_lq_in_tan: int
    index_x_tan: int  # [X : X^Tan] = [X : X*][X* : X^Mug][X^Mug : X^Tan]
    witness_mug_not_tan: Optional[Weight]
    witness_star_not_mug: Optional[Weight]
    witness_tan_not_lq: Optional[Weight]


def center_tower(q: QParam) -> CenterTower:
    """Compute the full tower and verify every link of the chain."""
    rd, (n, g) = q.rd, q.int_gram
    lq = hnf(star_roots(q), rd.rank)
    star = x_star(q)
    g2, x_gens = _doubled(g), rd.charlattice.gens

    # X^Mug: squared pairings against all of X vanish, computed inside X*.
    mug = annihilator(star, n, congruent(star.gens, g2, x_gens))

    # X^Tan: kernel of the homomorphism lam -> q(lam, lam) : X^Mug -> Z/2.
    # This is additive on X^Mug because q^2(lam, mu) = 1 there for mu in X.
    diags = [[row[k]] for k, row in enumerate(congruent(mug.gens, g))]
    for (x,) in diags:
        if 2 * x % n:
            raise InvariantViolation(f"q(lam,lam) = {AngleQZ.ratio(x, n)} is not a sign on X^Mug")
    tan = annihilator(mug, n, diags)

    # Direct per-generator membership verification of every tower member.
    if not vanishes_mod(congruent(mug.gens, g2, x_gens), n):
        raise InvariantViolation("X^Mug generator fails its defining congruence")
    if not vanishes_mod([[row[k]] for k, row in enumerate(congruent(tan.gens, g))], n):
        raise InvariantViolation("X^Tan generator has nontrivial self-pairing")

    # Each index read checks its inclusion too.
    index_lq_in_tan = held(index, lq, tan, "lQ <= X^Tan")
    index_tan_in_mug = held(index, tan, mug, "X^Tan <= X^Mug")
    index_mug_in_star = held(index, mug, star, "X^Mug <= X*")
    chain = (held(index, star, rd.charlattice, "X* <= X"), index_mug_in_star, index_tan_in_mug)
    index_x_tan = held(index, tan, rd.charlattice, "X^Tan <= X")
    if index_x_tan is None:
        raise InvariantViolation("X^Tan has infinite index in X")
    if index_x_tan != prod(chain):
        raise InvariantViolation("index multiplicativity [X : X^Tan] = [X : X*][X* : X^Mug][X^Mug : X^Tan] fails")

    def first_missing(sup: Lattice, sub: Lattice) -> Optional[Weight]:
        g = sub.first_outside(sup.gens)
        return None if g is None else Weight.of(g)

    return CenterTower(
        lq=lq,
        x_star=star,
        x_mug=mug,
        x_tan=tan,
        index_x_star=chain[0],
        index_mug_in_star=chain[1],
        index_tan_in_mug=chain[2],
        index_lq_in_tan=index_lq_in_tan,
        index_x_tan=index_x_tan,
        witness_mug_not_tan=first_missing(mug, tan),
        witness_star_not_mug=first_missing(star, mug),
        witness_tan_not_lq=first_missing(tan, lq),
    )


@dataclass(frozen=True)
class DualDatum:
    """Dual root datum: rescaled roots, their Cartan integers, a character
    lattice, and the sign scalars of the restricted parameter."""

    star_roots: tuple[tuple[int, ...], ...]  # l_alpha * alpha in fw coords
    cartan_star: tuple[tuple[int, ...], ...]
    char_lattice: Lattice
    dual_type: Optional[DynkinType]
    epsilon_scalars: tuple[AngleQZ, ...]
    l_simple: tuple[int, ...]


def _dual_cartan(q: QParam) -> list[list[int]]:
    rd, ls = q.rd, q.simple_ls()
    for i, row in enumerate(rd.cartan):
        for j, a in enumerate(row):
            if ls[j] * a % ls[i]:
                raise DualDatumError(f"rescaled Cartan integer ({ls[j]}/{ls[i]}) * {a} is not integral")
    cartan_star = [[ls[j] * a // ls[i] for j, a in enumerate(row)] for i, row in enumerate(rd.cartan)]
    # Symmetrizable with d*_i = l_i^2 d_i; fails only on implementation error.
    for i in range(rd.rank):
        for j in range(rd.rank):
            if ls[i] ** 2 * rd.d[i] * cartan_star[i][j] != ls[j] ** 2 * rd.d[j] * cartan_star[j][i]:
                raise InvariantViolation("dual Cartan matrix is not symmetrizable")
    return cartan_star


def _epsilon_scalars(q: QParam) -> list[AngleQZ]:
    """Sign scalars of the restricted parameter, computed two ways."""
    scalars = []
    for i, (l, q_alpha, star_root) in enumerate(zip(q.simple_ls(), q.simple_scalars(), star_roots(q))):
        via_power = q_alpha.scaled(l**2)
        star_fundamental = q.rd.fundamental_weight(i).scaled(l)
        via_form = q.eval(Weight(star_root), star_fundamental)
        if via_power != via_form:
            raise InvariantViolation("epsilon scalar mismatch between power and form evaluation")
        if not (via_power.is_zero() or via_power.is_half()):
            raise InvariantViolation(f"epsilon scalar {via_power} is not a sign")
        scalars.append(via_power)
    return scalars


_LANGLANDS_FAMILY = {"B": "C", "C": "B"}
_REPORTED_NAME = {("C", 2): ("B", 2), ("D", 3): ("A", 3)}


def _dual_type(rd: RootDatum, cartan_star: Sequence[Sequence[int]]) -> Optional[DynkinType]:
    """Dynkin type of a matrix equal to A or A^T on the rows of each factor of
    rd, or None where some factor's rows match neither.  The rows are compared
    at full width, so the zeros between factors are checked too.  C2 reports
    as B2, D3 as A3, and the factors are sorted."""
    transpose = list(zip(*rd.cartan))
    factors, start = [], 0
    for family, n in rd.dynkin.factors:
        rows = [tuple(row) for row in cartan_star[start : start + n]]
        if rows != list(rd.cartan[start : start + n]):
            if rows != transpose[start : start + n]:
                return None
            family = _LANGLANDS_FAMILY.get(family, family)
        factors.append(_REPORTED_NAME.get((family, n), (family, n)))
        start += n
    return DynkinType(tuple(sorted(factors)))


def dual_datum(q: QParam, char_lattice: Lattice) -> DualDatum:
    """Dual datum with the given character lattice (X* for G*, X^Tan for Gv)."""
    cartan_star = _dual_cartan(q)
    return DualDatum(
        star_roots=star_roots(q),
        cartan_star=tuple(tuple(row) for row in cartan_star),
        char_lattice=char_lattice,
        dual_type=_dual_type(q.rd, cartan_star),
        epsilon_scalars=tuple(_epsilon_scalars(q)),
        l_simple=tuple(q.simple_ls()),
    )


@dataclass(frozen=True)
class Verdicts:
    """Headline conclusions for a (root datum, parameter) pair.

    `langlands_dual` says that Cartan* is A^T up to relabelling the simple
    roots.  `modular` is true exactly when the simply-connected/even-order
    theorem applies and X^Tan = X^Mug; false means "not established by that
    theorem", not "not modular".
    """

    tan_equals_mug: bool
    thm_sc_hypotheses: bool
    thm_sc_conclusion_check: Optional[bool]
    langlands_dual: bool
    pivot_trivial_on_xtan: bool
    modular: bool


def verdicts(q: QParam, tower: CenterTower, cls: ParamClass, g_star: DualDatum) -> Verdicts:
    """Evaluate the simply-connected/even-order theorem gate and conclusions.

    If the hypotheses hold but a guaranteed conclusion fails, an
    InvariantViolation is raised: the theory forces those conclusions, so a
    failure indicates an implementation bug.
    """
    rd = q.rd
    hypotheses = rd.is_simply_connected() and cls.max_nondegenerate and cls.all_even
    tan_eq_mug = tower.x_tan == tower.x_mug

    langlands = g_star.dual_type == _dual_type(rd, list(zip(*rd.cartan)))

    n, g = q.int_gram
    pivot = vanishes_mod(congruent([two_rho(rd).coords], g, tower.x_tan.gens), n)

    conclusion: Optional[bool] = None
    if hypotheses:
        # Cartan* is A^T up to relabelling the simple roots.  In G2 with 3 not
        # dividing l every l_i is equal and Cartan* = A, which is A^T with the
        # two nodes swapped.
        conclusion = tan_eq_mug and tower.x_tan == tower.lq and langlands
        if not conclusion:
            raise InvariantViolation("even-order simply-connected conclusions failed under their hypotheses")
    if tower.x_tan == tower.lq and not pivot:
        raise InvariantViolation("pivot character is nontrivial on X^Tan = lQ")

    return Verdicts(
        tan_equals_mug=tan_eq_mug,
        thm_sc_hypotheses=hypotheses,
        thm_sc_conclusion_check=conclusion,
        langlands_dual=langlands,
        pivot_trivial_on_xtan=pivot,
        modular=hypotheses and tan_eq_mug,
    )
