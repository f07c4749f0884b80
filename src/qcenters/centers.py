"""The sublattice tower lQ <= X^Tan <= X^Mug <= X* and the dual root data.

X* cuts out the quasi-classical characters, X^Mug those with trivial squared
braiding against everything, and X^Tan the further kernel of lam -> q(lam,
lam).  The dual datum has simple roots l_alpha * alpha with the rescaled
Cartan integers, carrying the restricted parameter epsilon whose scalar
values are signs; the quotient datum keeps the same roots but the character
lattice X^Tan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .angles import AngleQZ
from .intlat import Lattice, hnf, index
from .qparam import InvariantViolation, ParamClass, QParam, annihilator
from .rootdata import DynkinType, RootDatum, Weight, two_rho


class DualDatumError(ValueError):
    """Rescaled Cartan integers fell outside the integral validity envelope."""


def x_star(q: QParam, rd: RootDatum) -> Lattice:
    """{lam in X : q^2(lam, alpha) = 1 at all simple alpha}."""
    simples = [rd.simple_root(i) for i in range(rd.rank)]
    return annihilator(rd.charlattice, [[q.eval_sq(Weight.of(g), a) for a in simples] for g in rd.charlattice.gens])


def l_dual_root_lattice(q: QParam, rd: RootDatum) -> Lattice:
    """lQ: the span of the rescaled simple roots l_alpha * alpha."""
    ls = q.simple_ls()
    rows = [[ls[i] * c for c in rd.simple_roots[i]] for i in range(rd.rank)]
    return hnf(rows, rd.rank)


@dataclass(frozen=True)
class CenterTower:
    """The chain lQ <= X^Tan <= X^Mug <= X* with indices and witnesses.

    Each witness is a generator of the larger member missing from the smaller
    one, or None when that link of the chain is an equality.
    """

    lq: Lattice
    x_star: Lattice
    x_mug: Lattice
    x_tan: Lattice
    index_x_star: Optional[int]  # [X : X*]
    index_mug_in_star: Optional[int]
    index_tan_in_mug: Optional[int]
    index_lq_in_tan: Optional[int]
    witness_mug_not_tan: Optional[Weight]
    witness_star_not_mug: Optional[Weight]
    witness_tan_not_lq: Optional[Weight]


def center_tower(q: QParam, rd: RootDatum) -> CenterTower:
    """Compute the full tower and verify every link of the chain."""
    lq = l_dual_root_lattice(q, rd)
    star = x_star(q, rd)

    # X^Mug: squared pairings against all of X vanish, computed inside X*.
    x_weights = [Weight.of(g) for g in rd.charlattice.gens]
    mug = annihilator(star, [[q.eval_sq(Weight.of(g), x) for x in x_weights] for g in star.gens])

    # X^Tan: kernel of the homomorphism lam -> q(lam, lam) : X^Mug -> Z/2.
    # This is additive on X^Mug because q^2(lam, mu) = 1 there for mu in X.
    diags = []
    for g in mug.gens:
        w = Weight.of(g)
        diag = q.eval(w, w)
        if not (diag.is_zero() or diag.is_half()):
            raise InvariantViolation(f"q(lam,lam) = {diag} is not a sign on X^Mug")
        diags.append([diag])
    tan = annihilator(mug, diags)

    # Direct per-generator membership verification of every tower member.
    for g in mug.gens:
        w = Weight.of(g)
        for x in x_weights:
            if not q.eval_sq(w, x).is_zero():
                raise InvariantViolation("X^Mug generator fails its defining congruence")
    for g in tan.gens:
        w = Weight.of(g)
        if not q.eval(w, w).is_zero():
            raise InvariantViolation("X^Tan generator has nontrivial self-pairing")
    for i, l in enumerate(q.simple_ls()):
        scaled = rd.simple_root(i).scaled(l)
        if not tan.member(scaled.coords):
            raise InvariantViolation("l_alpha * alpha escapes X^Tan")

    for sub, sup, name in ((lq, tan, "lQ <= X^Tan"), (tan, mug, "X^Tan <= X^Mug"), (mug, star, "X^Mug <= X*")):
        if not sup.contains_lattice(sub):
            raise InvariantViolation(f"chain inclusion {name} fails")

    def first_missing(sup: Lattice, sub: Lattice) -> Optional[Weight]:
        for g in sup.gens:
            if not sub.member(g):
                return Weight.of(g)
        return None

    return CenterTower(
        lq=lq,
        x_star=star,
        x_mug=mug,
        x_tan=tan,
        index_x_star=index(star, rd.charlattice),
        index_mug_in_star=index(mug, star),
        index_tan_in_mug=index(tan, mug),
        index_lq_in_tan=index(lq, tan),
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


def _dual_cartan(q: QParam, rd: RootDatum) -> list[list[int]]:
    ls = q.simple_ls()
    cartan_star: list[list[int]] = []
    for i in range(rd.rank):
        row = []
        for j in range(rd.rank):
            entry = Fraction(ls[j] * rd.cartan[i][j], ls[i])
            if entry.denominator != 1:
                raise DualDatumError(
                    f"rescaled Cartan integer ({ls[j]}/{ls[i]}) * {rd.cartan[i][j]} is not integral"
                )
            row.append(int(entry))
        cartan_star.append(row)
    # Symmetrizable with d*_i = l_i^2 d_i; fails only on implementation error.
    for i in range(rd.rank):
        for j in range(rd.rank):
            if ls[i] ** 2 * rd.d[i] * cartan_star[i][j] != ls[j] ** 2 * rd.d[j] * cartan_star[j][i]:
                raise InvariantViolation("dual Cartan matrix is not symmetrizable")
    return cartan_star


def _epsilon_scalars(q: QParam, rd: RootDatum) -> list[AngleQZ]:
    """Sign scalars of the restricted parameter, computed two ways."""
    ls = q.simple_ls()
    scalars = []
    for i in range(rd.rank):
        simple = next(r for r in rd.pos_roots if r.height == 1 and r.root_coords[i] == 1)
        via_power = q.q_scalar(simple).scaled(ls[i] ** 2)
        star_root = rd.simple_root(i).scaled(ls[i])
        star_fundamental = rd.fundamental_weight(i).scaled(ls[i])
        via_form = q.eval(star_root, star_fundamental)
        if via_power != via_form:
            raise InvariantViolation("epsilon scalar mismatch between power and form evaluation")
        if not (via_power.is_zero() or via_power.is_half()):
            raise InvariantViolation(f"epsilon scalar {via_power} is not a sign")
        scalars.append(via_power)
    return scalars


def dual_datum(q: QParam, rd: RootDatum, char_lattice: Lattice) -> DualDatum:
    """Dual datum with the given character lattice (X* for G*, X^Tan for Gv)."""
    ls = q.simple_ls()
    star_roots = tuple(tuple(ls[i] * c for c in rd.simple_roots[i]) for i in range(rd.rank))
    cartan_star = _dual_cartan(q, rd)
    return DualDatum(
        star_roots=star_roots,
        cartan_star=tuple(tuple(row) for row in cartan_star),
        char_lattice=char_lattice,
        dual_type=classify_cartan(cartan_star),
        epsilon_scalars=tuple(_epsilon_scalars(q, rd)),
        l_simple=tuple(ls),
    )


def _components(cartan: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(cartan)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and cartan[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _cartan_iso(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Simultaneous row/column permutation matching two Cartan matrices of the
    same connected rank (backtracking with degree pruning)."""
    n = len(a)
    if len(b) != n:
        return False

    def profile(m: Sequence[Sequence[int]], i: int) -> tuple:
        row = sorted(x for j, x in enumerate(m[i]) if j != i and x != 0)
        col = sorted(m[j][i] for j in range(n) if j != i and m[j][i] != 0)
        return tuple(row), tuple(col)

    prof_a = [profile(a, i) for i in range(n)]
    prof_b = [profile(b, i) for i in range(n)]
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if j in used or prof_a[i] != prof_b[j]:
                continue
            if any(a[i][k] != b[j][assignment[k]] or a[k][i] != b[assignment[k]][j] for k in assignment):
                continue
            assignment[i] = j
            used.add(j)
            if backtrack(i + 1):
                return True
            del assignment[i]
            used.remove(j)
        return False

    return backtrack(0)


def _candidate_types(rank: int) -> list[tuple[str, int]]:
    out = [("A", rank)]
    if rank >= 2:
        out += [("B", rank), ("C", rank)]
    if rank >= 3:
        out.append(("D", rank))
    if rank in (6, 7, 8):
        out.append(("E", rank))
    if rank == 4:
        out.append(("F", 4))
    if rank == 2:
        out.append(("G", 2))
    return out


def classify_cartan(cartan: Sequence[Sequence[int]]) -> Optional[DynkinType]:
    """Recognize a valid Cartan matrix's Dynkin type, or None if no admissible
    type matches (B2 and C2 both report as B2; D3 reports as A3)."""
    from .rootdata import _factor_cartan  # candidate generator

    factors = []
    for comp in _components(cartan):
        block = [[cartan[i][j] for j in comp] for i in comp]
        match = None
        for family, rank in _candidate_types(len(comp)):
            candidate, _d = _factor_cartan(family, rank)
            if _cartan_iso(block, candidate):
                match = (family, rank)
                break
        if match is None:
            return None
        factors.append(match)
    return DynkinType(tuple(sorted(factors)))


@dataclass(frozen=True)
class Verdicts:
    """Headline conclusions for a (root datum, parameter) pair."""

    tan_equals_mug: bool
    thm_sc_hypotheses: bool
    thm_sc_conclusion_check: Optional[bool]
    langlands_dual: bool
    pivot_trivial_on_xtan: bool
    modular: bool
    witness_mug_not_tan: Optional[Weight]


def verdicts(q: QParam, rd: RootDatum, tower: CenterTower, cls: ParamClass, g_star: DualDatum) -> Verdicts:
    """Evaluate the simply-connected/even-order theorem gate and conclusions.

    If the hypotheses hold but a guaranteed conclusion fails, an
    InvariantViolation is raised: the theory forces those conclusions, so a
    failure indicates an implementation bug.
    """
    hypotheses = rd.is_simply_connected() and cls.max_nondegenerate and cls.all_even
    tan_eq_mug = tower.x_tan == tower.x_mug

    transpose = tuple(tuple(rd.cartan[j][i] for j in range(rd.rank)) for i in range(rd.rank))
    langlands = g_star.dual_type is not None and g_star.dual_type == classify_cartan(transpose)

    pivot = all(q.eval(two_rho(rd), Weight.of(g)).is_zero() for g in tower.x_tan.gens)

    conclusion: Optional[bool] = None
    if hypotheses:
        conclusion = tan_eq_mug and tower.x_tan == tower.lq and g_star.cartan_star == transpose
        if not conclusion:
            raise InvariantViolation("even-order simply-connected conclusions failed under their hypotheses")
        if not pivot:
            raise InvariantViolation("pivot character is nontrivial on X^Tan = lQ")
    if tower.x_tan == tower.lq and not pivot:
        raise InvariantViolation("pivot character is nontrivial on X^Tan = lQ")

    return Verdicts(
        tan_equals_mug=tan_eq_mug,
        thm_sc_hypotheses=hypotheses,
        thm_sc_conclusion_check=conclusion,
        langlands_dual=langlands,
        pivot_trivial_on_xtan=pivot,
        modular=hypotheses and tan_eq_mug,
        witness_mug_not_tan=tower.witness_mug_not_tan,
    )
