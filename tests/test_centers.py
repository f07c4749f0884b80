import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from qcenters.angles import AngleQZ
from qcenters.centers import center_tower, dual_datum, verdicts, x_star
from qcenters.intlat import hnf, index
from qcenters.qparam import InvariantViolation, QParam, make_param
from qcenters.report import Analysis
from qcenters.rootdata import _RANK_BOUNDS, DynkinType, Weight, _factor_cartan, build_root_datum
from qcenters.sampling import random_instance

from helpers import _cartan_iso, classify_cartan


def test_x_star_examples():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    assert x_star(q).gens == ((2,),)  # X* = Q for SL(2) at this order

    # Quasi-classical parameter: compare against brute force over residues.
    q2 = make_param(a1, Fraction(1, 2))
    star = x_star(q2)
    for m in range(-8, 9):
        brute = q2.eval(Weight.of([m]), a1.simple_root(0)).scaled(2).is_zero()
        assert star.member([m]) == brute

    q0 = make_param(a1, Fraction(0))
    assert x_star(q0) == a1.charlattice


@pytest.mark.parametrize(
    "type_str,c",
    [("A1", Fraction(1, 4)), ("A2", Fraction(1, 6)), ("C2", Fraction(1, 8)), ("G2", Fraction(1, 12))],
)
def test_x_star_simply_connected_alternative_form(type_str, c):
    # For X = P the quasi-classical sublattice is spanned by l_alpha * omega_alpha.
    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, c)
    ls = q.simple_ls()
    expected = hnf([[ls[i] if i == j else 0 for j in range(rd.rank)] for i in range(rd.rank)], rd.rank)
    assert x_star(q) == expected


def test_tower_a1_even():
    a1 = build_root_datum("A1", "sc")
    tower = center_tower(make_param(a1, Fraction(1, 4)))
    assert tower.x_tan.gens == ((4,),)
    assert tower.x_mug.gens == ((4,),)
    assert tower.lq.gens == ((4,),)
    assert tower.witness_mug_not_tan is None


def test_tower_sl2_odd_counterexample():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 3))
    tower = center_tower(q)
    assert tower.x_mug.gens == ((3,),)
    assert tower.x_tan.gens == ((6,),)
    assert tower.x_tan == tower.lq
    assert tower.index_tan_in_mug == 2
    witness = tower.witness_mug_not_tan
    assert witness is not None and witness.coords == (Fraction(3),)
    assert q.eval(witness, witness) == AngleQZ(1, 2)


def test_tower_sl3_odd_equality():
    a2 = build_root_datum("A2", "sc")
    for ell in (3, 5):
        q = make_param(a2, Fraction(1, ell))
        tower = center_tower(q)
        assert tower.x_tan == tower.x_mug == tower.lq


def test_dual_datum_examples():
    a1 = build_root_datum("A1", "sc")
    d4 = Analysis(a1, make_param(a1, Fraction(1, 4))).g_star
    assert d4.star_roots == ((4,),)  # alpha* = 2 alpha = 4 omega
    assert str(d4.dual_type) == "A1"
    assert d4.epsilon_scalars == (AngleQZ(0, 1),)

    d3 = Analysis(a1, make_param(a1, Fraction(1, 3))).g_star
    assert d3.star_roots == ((6,),)
    assert d3.epsilon_scalars == (AngleQZ(0, 1),)

    c2 = build_root_datum("C2", "sc")
    dd = Analysis(c2, make_param(c2, Fraction(1, 8))).g_star
    assert dd.l_simple == (4, 2)
    assert dd.cartan_star == ((2, -1), (-2, 2))  # transpose: the dual family
    assert dd.cartan_star == tuple(tuple(c2.cartan[j][i] for j in range(2)) for i in range(2))


def test_epsilon_scalar_sign_values():
    # Even-order case gives eps = +1 here; a half-integer c on B2 long roots
    # gives eps = -1 at the short root of the dual.
    b2 = build_root_datum("B2", "sc")
    q = make_param(b2, Fraction(1, 4))  # l: short 2, long 1
    dd = Analysis(b2, q).g_star
    for eps in dd.epsilon_scalars:
        assert eps.is_zero() or eps.is_half()


def test_g_check_examples():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    a = Analysis(a1, q)
    tower = a.tower
    gc = a.g_check
    assert gc.char_lattice == tower.x_tan
    assert gc.char_lattice.gens == ((4,),)  # = Z alpha*, the adjoint form

    a1a = build_root_datum("A1", "adjoint")
    q3 = make_param(a1a, Fraction(1, 3))
    gc3 = Analysis(a1a, q3).g_check
    assert gc3.char_lattice.gens == ((6,),)  # 3 alpha = Z alpha*

    # X^Tan = X* forces Gv = G*.
    q0 = make_param(a1, Fraction(1, 2))
    a0 = Analysis(a1, q0)
    t0 = a0.tower
    if t0.x_tan == t0.x_star:
        assert a0.g_check.char_lattice == a0.g_star.char_lattice


def test_verdicts_examples():
    a1 = build_root_datum("A1", "sc")
    v = Analysis(a1, make_param(a1, Fraction(1, 4))).verdicts
    assert v.tan_equals_mug and v.thm_sc_hypotheses and v.thm_sc_conclusion_check
    assert v.langlands_dual and v.pivot_trivial_on_xtan and v.modular

    a3 = Analysis(a1, make_param(a1, Fraction(1, 3)))
    assert not a3.verdicts.tan_equals_mug
    assert a3.tower.witness_mug_not_tan is not None

    c2 = build_root_datum("C2", "sc")
    vc = Analysis(c2, make_param(c2, Fraction(1, 6))).verdicts
    assert not vc.tan_equals_mug


@pytest.mark.parametrize("type_str,ell", [("A1", 2), ("A2", 3), ("A3", 4), ("B2", 2), ("C3", 4), ("G2", 3)])
def test_even_order_regular_cases(type_str, ell):
    rd = build_root_datum(type_str, "sc")
    ell = lcm(ell, rd.lacing)
    q = make_param(rd, Fraction(1, 2 * ell))
    a = Analysis(rd, q)
    tower = a.tower
    v = a.verdicts
    assert v.thm_sc_hypotheses and v.thm_sc_conclusion_check
    assert tower.x_tan == tower.x_mug == tower.lq
    transpose = tuple(tuple(rd.cartan[j][i] for j in range(rd.rank)) for i in range(rd.rank))
    assert a.g_star.cartan_star == transpose


@pytest.mark.parametrize("den", [4, 10])
def test_g2_even_order_without_three_keeps_cartan(den):
    # 3 does not divide l = den/2, so every simple root is rescaled alike and
    # Cartan* = A, which is A^T with the two nodes swapped.
    rd = build_root_datum("G2", "sc")
    a = Analysis(rd, make_param(rd, Fraction(1, den)))
    assert a.verdicts.thm_sc_hypotheses and a.verdicts.thm_sc_conclusion_check
    assert a.g_star.cartan_star == rd.cartan
    assert a.tower.x_tan == a.tower.x_mug == a.tower.lq


@pytest.mark.parametrize("type_str,den", [("B3", 8), ("C3", 8), ("B4", 4)])
def test_verdicts_catch_wrong_simple_ls(type_str, den, monkeypatch):
    # Reading every simple l_i as the largest one rescales all roots alike, so
    # Cartan* = A, which no relabelling of the simple roots turns into A^T here.
    rd = build_root_datum(type_str, "sc")
    a = Analysis(rd, make_param(rd, Fraction(1, den)))
    stages = (a.tower, a.param_class)
    assert verdicts(a.q, *stages, a.g_star).thm_sc_conclusion_check
    wrong = [max(a.q.simple_ls())] * rd.rank
    monkeypatch.setattr(QParam, "simple_ls", lambda self: wrong)
    g_star = dual_datum(a.q, a.g_star.char_lattice)
    assert g_star.cartan_star == rd.cartan
    with pytest.raises(InvariantViolation, match="even-order simply-connected"):
        verdicts(a.q, *stages, g_star)


def test_a_non_integral_rescaled_cartan_integer_is_refused(monkeypatch):
    # No admissible parameter reaches this gate; with l = (2, 3) on A2 the
    # first entry off integrality is (0, 1), (3/2) * -1.  On B2, l = (1, 2)
    # scales A to its transpose.
    from qcenters.centers import DualDatumError, _dual_cartan

    rd = build_root_datum("A2", "sc")
    monkeypatch.setattr(QParam, "simple_ls", lambda self: [2, 3])
    with pytest.raises(DualDatumError, match=r"^rescaled Cartan integer \(3/2\) \* -1 is not integral$"):
        _dual_cartan(make_param(rd, Fraction(1, 6)))
    rd = build_root_datum("B2", "sc")
    monkeypatch.setattr(QParam, "simple_ls", lambda self: [1, 2])
    assert _dual_cartan(make_param(rd, Fraction(1, 8))) == [[2, -2], [-1, 2]]


def test_stray_entry_between_factors_has_no_dual_type(monkeypatch):
    # A bond between the two A1 factors makes an A2 matrix, which a search
    # over all types would name; its rows match neither A nor A^T of A1xA1.
    from qcenters import centers

    rd = build_root_datum("A1xA1", "sc")
    a = Analysis(rd, make_param(rd, Fraction(1, 4)))
    assert a.verdicts.thm_sc_hypotheses
    dual_cartan = centers._dual_cartan

    def bonded(q):
        m = dual_cartan(q)
        m[0][1] -= 1
        m[1][0] -= 1
        return m

    monkeypatch.setattr(centers, "_dual_cartan", bonded)
    g_star = dual_datum(a.q, a.g_star.char_lattice)
    assert g_star.cartan_star == ((2, -1), (-1, 2))
    assert g_star.dual_type is None
    with pytest.raises(InvariantViolation, match="even-order simply-connected"):
        verdicts(a.q, a.tower, a.param_class, g_star)


def test_projective_sp6_even_order_divergence():
    # Non-simply-connected counterpoint: adjoint C3 at the half-angle form of
    # order 8 has even scalar orders yet a strictly Tannakian-deficient
    # center.
    rd = build_root_datum("C3", "adjoint")
    q = make_param(rd, Fraction(1, 8))
    a = Analysis(rd, q)
    tower = a.tower
    assert tower.x_tan != tower.x_mug
    assert tower.index_tan_in_mug == 2
    v = a.verdicts
    assert not v.thm_sc_hypotheses


@pytest.mark.parametrize("type_str,count", [("E6", 36), ("E7", 63), ("E8", 120)])
def test_exceptional_types_build(type_str, count):
    rd = build_root_datum(type_str, "sc")
    assert len(rd.pos_roots) == count
    assert len(rd.w0_word) == count
    assert classify_cartan([list(r) for r in rd.cartan]) == rd.dynkin


@pytest.mark.parametrize(
    "type_str,ell",
    [("A1", 3), ("A2", 5), ("G2", 5)],
)
def test_adjoint_odd_specialization(type_str, ell):
    rd = build_root_datum(type_str, "adjoint")
    q = make_param(rd, Fraction(1, ell))
    tower = center_tower(q)
    assert tower.x_tan == tower.x_mug == tower.lq


def test_chain_randomized():
    rng = random.Random(42)
    for _ in range(50):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        a = Analysis(rd, q)
        tower = a.tower
        transpose = [list(col) for col in zip(*rd.cartan)]
        assert a.verdicts.langlands_dual == _cartan_iso(a.g_star.cartan_star, transpose)
        assert tower.x_tan.contains_lattice(tower.lq)
        assert tower.x_mug.contains_lattice(tower.x_tan)
        assert tower.x_star.contains_lattice(tower.x_mug)
        assert rd.charlattice.contains_lattice(tower.x_star)


def test_tan_subgroup_bruteforce_crosscheck():
    # Enumerate residues modulo a finite-index lattice on which both defining
    # conditions are translation invariant, and compare the resulting set with
    # the kernel-of-homomorphism computation.
    rng = random.Random(13)
    done = 0
    while done < 8:
        rd, q = random_instance(rng, max_rank=2, max_den=8)
        basis = [list(g) for g in rd.charlattice.gens]
        gram = q.angle_gram(basis)
        n = len(basis)
        modulus = 2 * lcm(*(gram[i][j].den for i in range(n) for j in range(n)), 1)
        if modulus**n > 4000:
            continue
        done += 1
        tower = center_tower(q)
        x_weights = [Weight.of(g) for g in basis]
        for coords in itertools.product(range(modulus), repeat=n):
            vec = rd.charlattice.vector_from_coords(list(coords))
            lam = Weight.of(vec)
            brute = all(q.eval(lam, w).scaled(2).is_zero() for w in x_weights) and q.eval(lam, lam).is_zero()
            assert tower.x_tan.member(vec) == brute


def test_epsilon_values_on_tan_generators():
    rng = random.Random(99)
    for _ in range(25):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        tower = center_tower(q)
        for gi in tower.x_tan.gens:
            assert q.eval(Weight.of(gi), Weight.of(gi)).is_zero()
            for gj in tower.x_tan.gens:
                assert q.eval(Weight.of(gi), Weight.of(gj)).scaled(2).is_zero()


def test_classify_cartan_roundtrip():
    for type_str in ["A1", "A3", "B3", "C3", "D4", "F4", "G2", "A1xB2"]:
        rd = build_root_datum(type_str, "sc")
        recognized = classify_cartan([list(r) for r in rd.cartan])
        assert recognized is not None
        assert sorted(recognized.factors) == sorted(rd.dynkin.factors)


ADMISSIBLE_FACTORS = [(family, n) for family, admissible in _RANK_BOUNDS.items() for n in range(1, 9) if admissible(n)]


@pytest.mark.parametrize("family,rank", ADMISSIBLE_FACTORS)
def test_classify_cartan_names_every_admissible_factor(family, rank):
    # The candidates come from the same table of rank bounds as DynkinType;
    # only the isomorphic C2 = B2 and D3 = A3 report under the earlier name.
    cartan, _d = _factor_cartan(family, rank)
    order = list(range(rank))
    random.Random(f"{family}{rank}").shuffle(order)
    shuffled = [[cartan[i][j] for j in order] for i in order]
    expected = {("C", 2): ("B", 2), ("D", 3): ("A", 3)}.get((family, rank), (family, rank))
    assert classify_cartan(shuffled) == DynkinType((expected,))


def test_cartan_iso_handles_permutation():
    a2 = build_root_datum("A1xB2", "sc")
    b2a = build_root_datum("B2xA1", "sc")  # nonstandard order on input
    assert classify_cartan(a2.cartan) == classify_cartan(b2a.cartan)
    assert classify_cartan(a2.cartan) != classify_cartan(build_root_datum("A3").cartan)


def test_cartan_iso_rejects_unequal_profiles_and_matches_equal_ones():
    b3, c3 = _factor_cartan("B", 3)[0], _factor_cartan("C", 3)[0]
    a3, d3 = _factor_cartan("A", 3)[0], _factor_cartan("D", 3)[0]
    assert not _cartan_iso(b3, c3) and not _cartan_iso(b3, a3)
    assert _cartan_iso(a3, d3)
    assert _cartan_iso(b3, [list(row) for row in b3])


def test_dual_integral_for_killing_proportional_parameters():
    # For parameters proportional to the Killing form per factor, the ratio
    # l_i / l_j always divides the Cartan entry it scales, so the rescaled
    # Cartan matrix stays integral; sweep small denominators to confirm the
    # non-integrality gate stays silent on the admitted parameter class.  The
    # dual type read off the rows agrees with the isomorphism-search oracle on
    # every admissible factor and on products, with and without transposed
    # factors.
    products = ["B3xC3", "G2xF4", "B2xA1", "C2xB2", "D3xA3"]
    for type_str in [f"{family}{rank}" for family, rank in ADMISSIBLE_FACTORS] + products:
        rd = build_root_datum(type_str, "sc")
        for den in range(1, 25):
            for num in range(1, min(den, 8)):
                q = make_param(rd, Fraction(num, den))
                dual = dual_datum(q, x_star(q))
                assert dual.dual_type == classify_cartan(dual.cartan_star)
    # With no factor of B3xC3 transposed, the factors themselves swap.
    rd = build_root_datum("B3xC3", "sc")
    a = Analysis(rd, make_param(rd, Fraction(1, 5)))
    assert a.g_star.cartan_star == rd.cartan and a.verdicts.langlands_dual


def test_tower_checks_index_multiplicativity(monkeypatch):
    from qcenters import centers

    rd = build_root_datum("A2", "sc")
    q = make_param(rd, Fraction(1, 6))
    tower = center_tower(q)
    assert tower.index_x_tan == index(tower.x_tan, rd.charlattice)
    assert tower.index_x_tan == tower.index_x_star * tower.index_mug_in_star * tower.index_tan_in_mug

    def doubled_on_x_tan(sub, super_):
        value = index(sub, super_)
        return 2 * value if (sub, super_) == (tower.x_tan, rd.charlattice) else value

    monkeypatch.setattr(centers, "index", doubled_on_x_tan)
    with pytest.raises(InvariantViolation, match="index multiplicativity"):
        center_tower(q)
