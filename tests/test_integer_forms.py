"""Differential tests: the integer Gram path of q, kappa and psi against the
Fraction and ambient-vector oracles in helpers, and one mutation per identity
check that is a congruence mod N: each patches the integer Gram matrix (or
the step that produces the checked data) so that only that check breaks."""

import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    ambient_extend_psi_gram,
    angle_serre_witnesses,
    angle_sum_eval,
    fraction_angle_gram,
    fraction_eval,
    fraction_kappa_gram,
    per_column_annihilator,
)
from qcenters import centers, kappa as kappa_module, qparam
from qcenters.angles import AngleQZ
from qcenters.centers import center_tower, verdicts
from qcenters.intlat import bilinear, congruent
from qcenters.kappa import extend_psi, psi_vanishes_on
from qcenters.qparam import InvariantViolation, QParam, make_param
from qcenters.twistcheck import cross_commutator_check, serre_ratio_invariance
from qcenters.report import Analysis
from qcenters.rootdata import RootDatumError, Weight, build_root_datum
from qcenters.sampling import random_instance

CASES = [
    ("A1", "sc", Fraction(1, 4)),
    ("A2", "sc", Fraction(1, 6)),
    ("A2", "adjoint", Fraction(1, 5)),
    ("A3", "sc", Fraction(1, 8)),
    ("B2", "sc", Fraction(1, 8)),
    ("B3", "adjoint", Fraction(1, 6)),
    ("C2", "sc", Fraction(1, 6)),
    ("C3", "sc", Fraction(1, 8)),
    ("D4", "sc", Fraction(1, 6)),
    ("F4", "sc", Fraction(1, 12)),
    ("G2", "sc", Fraction(1, 12)),
    ("A1xA1", "sc", [Fraction(1, 4), Fraction(1, 6)]),
    ("A1xB2", "sc", [Fraction(1, 6), Fraction(1, 8)]),
    # kappa on the Smith-adapted vectors leaves [0, N) where d_i d_j > 1, so
    # the smallest-numerator division must reduce first.
    ("A1xA2", "sc", [Fraction(16, 17), Fraction(1, 2)]),
    ("A1xA2", "sc", [Fraction(14, 17), Fraction(1, 18)]),
] + [("random", seed, None) for seed in range(30)]


def _instance(case):
    type_str, lattice, c = case
    if type_str == "random":
        return random_instance(random.Random(lattice), max_rank=3, max_den=24)
    rd = build_root_datum(type_str, lattice)
    return rd, make_param(rd, c)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_integer_gram_matches_fraction_oracle(case):
    rd, q = _instance(case)
    rng = random.Random(0)
    for _ in range(10):
        lam = [rng.randint(-5, 5) for _ in range(rd.rank)]
        mu = [rng.randint(-5, 5) for _ in range(rd.rank)]
        assert q.eval(Weight.of(lam), Weight.of(mu)) == fraction_eval(q, lam, mu)
    for ambient in (rd.weight_lattice(), rd.charlattice):
        basis = [list(g) for g in ambient.gens]
        gram = fraction_angle_gram(q, basis)
        assert [list(row) for row in q.angle_gram(basis)] == gram
        assert q.rad(ambient) == per_column_annihilator(ambient, gram)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_congruence_psi_matches_ambient_oracle(case):
    rd, q = _instance(case)
    kappa = Analysis(rd, q).kappa
    psi = extend_psi(kappa, rd.charlattice)
    assert [list(row) for row in psi.gram] == ambient_extend_psi_gram(kappa, rd.charlattice)
    for g in rd.charlattice.gens:
        for h in rd.charlattice.gens:
            assert psi.eval(g, h) == angle_sum_eval(psi, g, h)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_kappa_and_serre_witnesses_match_angle_oracles(case):
    rd, q = _instance(case)
    a = Analysis(rd, q)
    assert [list(row) for row in a.kappa.gram] == fraction_kappa_gram(q, a.tower.x_tan)
    witnesses = serre_ratio_invariance(a.g_check, a.kappa)
    assert [(w.pair, w.serre_exponent, w.values, w.verdict) for w in witnesses] == angle_serre_witnesses(
        a.g_check, a.kappa
    )


@pytest.mark.parametrize(
    "type_str,c",
    [("A12", Fraction(1, 6)), ("E8", Fraction(1, 10)), ("C3", Fraction(17, 22)), ("G2", Fraction(1, 12))],
)
def test_kappa_psi_and_twist_do_no_angle_arithmetic(monkeypatch, type_str, c):
    rd = build_root_datum(type_str, "sc")
    a = Analysis(rd, make_param(rd, c))
    a.tower, a.g_check  # the epsilon scalars are angles; computed before the patch

    def no_arithmetic(*args):
        raise AssertionError("angle arithmetic on the integer path")

    for name in ("__add__", "__sub__", "scaled"):
        monkeypatch.setattr(AngleQZ, name, no_arithmetic)
    a.kappa, a.psi, a.twist


def test_congruent_is_m_g_mt():
    rng = random.Random(7)
    for _ in range(50):
        rows, n = rng.randint(0, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rows)]
        g = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        mg = [[sum(m[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(rows)]
        expected = [[sum(mg[i][k] * m[j][k] for k in range(n)) for j in range(rows)] for i in range(rows)]
        assert congruent(m, g) == expected
        assert all(bilinear(g, m[i], m[j]) == expected[i][j] for i in range(rows) for j in range(rows))
        # L . G . R^T between two different row sets, identity rows included.
        right = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        right += [[int(i == j) for j in range(n)] for i in range(n)]
        assert congruent(m, g, right) == [[bilinear(g, x, y) for y in right] for x in m]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_l_table_matches_fraction_orders(case):
    rd, q = _instance(case)
    assert q.l_table == tuple(fraction_eval(q, r.fw_coords, r.fw_coords).order for r in rd.pos_roots)
    units = [[int(i == j) for j in range(rd.rank)] for i in range(rd.rank)]
    for root, l in zip(rd.pos_roots, q.l_table):
        assert l == lcm(*(fraction_eval(q, root.fw_coords, u).scaled(2).order for u in units))


# The last three tell apart checks that read ambient rows of rad(q, kappa)
# instead of its coordinates (A2 on [[1, 1], [0, 3]] at 1/6) or test one side
# of psi only (that case and G2 at 1/6).
PSI_CASES = CASES + [
    ("C3", "sc", Fraction(17, 22)),
    ("A2", [[1, 1], [0, 3]], Fraction(7, 10)),
    ("A2", [[1, 1], [0, 3]], Fraction(1, 6)),
    ("G2", "sc", Fraction(1, 6)),
]


@pytest.mark.parametrize("case", PSI_CASES, ids=str)
def test_psi_vanishes_on_matches_per_pair_oracle(case):
    rd, q = _instance(case)
    a = Analysis(rd, q)
    for x in (rd.charlattice, a.tower.x_tan):
        expected = all(
            angle_sum_eval(a.psi, g, h).is_zero() and angle_sum_eval(a.psi, h, g).is_zero()
            for g in a.rads.rad_qk.gens
            for h in x.gens
        )
        assert psi_vanishes_on(a.psi, a.rads.rad_qk, x) == expected


def test_psi_vanishes_on_takes_both_values():
    flags = {}
    for case in [("A1", "sc", Fraction(1, 4))] + PSI_CASES[-4:]:
        rd, q = _instance(case)
        a = Analysis(rd, q)
        flags[case[0], case[2]] = psi_vanishes_on(a.psi, a.rads.rad_qk, rd.charlattice)
    assert list(flags.values()) == [True, False, False, False, False]


def _gram_is(monkeypatch, n, g):
    """Every QParam built from here on has the integer Gram matrix (n, g)."""
    monkeypatch.setattr(QParam, "int_gram", property(lambda self: (n, g)))


@pytest.mark.parametrize(
    "g,message",
    [([[2, 1], [0, 2]], "not symmetric"), ([[2, 1], [1, 3]], "does not vanish on orthogonal weights")],
    ids=["asymmetric", "not-orthogonal"],
)
def test_make_param_rejects_a_broken_gram(monkeypatch, g, message):
    # The true A2 Gram at 1/6 is [[2, 1], [1, 2]] mod 18.
    rd = build_root_datum("A2", "sc")
    assert make_param(rd, Fraction(1, 6)).int_gram == (18, [[2, 1], [1, 2]])
    _gram_is(monkeypatch, 18, g)
    with pytest.raises(InvariantViolation, match=message):
        make_param(rd, Fraction(1, 6))


def test_make_param_rejects_a_wrong_reflection(monkeypatch):
    # On a symmetric Gram that vanishes on orthogonal weights, Weyl invariance
    # already holds, so this check is broken through the reflection it applies.
    rd = build_root_datum("A2", "sc")
    monkeypatch.setattr(qparam, "weyl_reflect", lambda rd, i, lam: lam - rd.simple_root(i).scaled(2 * lam.coords[i]))
    with pytest.raises(InvariantViolation, match="not Weyl invariant"):
        make_param(rd, Fraction(1, 6))


def test_l_of_catches_mismatched_orders(monkeypatch):
    # gamma = alpha_1 = (2, -1): q(gamma, gamma) = 8/8 = 0 but q^2(gamma, omega_1) = 4/8.
    rd = build_root_datum("A2", "sc")
    q = QParam(rd, (Fraction(1, 6),))
    monkeypatch.setitem(q.__dict__, "int_gram", (8, [[1, 0], [0, 4]]))
    alpha = next(r for r in rd.pos_roots if r.root_coords == (1, 0))
    with pytest.raises(InvariantViolation, match="ord q"):
        q.l_of(alpha)


@pytest.mark.parametrize(
    "c,skipped,message",
    [
        (Fraction(1, 4), 2, r"X\^Mug generator fails its defining congruence"),
        (Fraction(1, 6), 2, r"is not a sign on X\^Mug"),
        (Fraction(1, 3), 3, r"X\^Tan generator has nontrivial self-pairing"),
    ],
    ids=["mug-recheck", "mug-sign", "tan-recheck"],
)
def test_center_tower_rechecks_catch_a_skipped_cut(monkeypatch, c, skipped, message):
    # center_tower cuts X*, X^Mug and X^Tan in that order; the cut numbered
    # `skipped` returns its ambient lattice unchanged.
    rd = build_root_datum("A1", "sc")
    q = make_param(rd, c)
    calls = []
    real = centers.annihilator

    def cut(ambient, n, m):
        calls.append(ambient)
        return ambient if len(calls) == skipped else real(ambient, n, m)

    monkeypatch.setattr(centers, "annihilator", cut)
    with pytest.raises(InvariantViolation, match=message):
        center_tower(q, rd)


def test_verdicts_pivot_reads_the_gram(monkeypatch):
    rd = build_root_datum("A2", "sc")
    a = Analysis(rd, make_param(rd, Fraction(1, 6)))
    stages = (a.tower, a.param_class, a.g_star)
    assert a.verdicts.pivot_trivial_on_xtan
    # (2 rho) . G' = (8, 6) pairs to 42 = 6 mod 18 with the X^Tan generator (3, 3).
    monkeypatch.setitem(a.q.__dict__, "int_gram", (18, [[3, 1], [1, 2]]))
    with pytest.raises(InvariantViolation, match="pivot character"):
        verdicts(a.q, rd, *stages)


def test_extend_psi_restriction_catches_a_wrong_basis_change(monkeypatch):
    rd = build_root_datum("A2", "sc")
    kappa = Analysis(rd, make_param(rd, Fraction(1, 6))).kappa
    real = kappa_module.snf

    def skewed(m):
        group, u, v, diag = real(m)
        return group, u, [[a + b for a, b in zip(v[0], v[1])]] + v[1:], diag

    monkeypatch.setattr(kappa_module, "snf", skewed)
    with pytest.raises(InvariantViolation, match="psi does not restrict to kappa"):
        extend_psi(kappa, rd.charlattice)


def test_psi_vanishes_on_reads_the_gram(monkeypatch):
    rd = build_root_datum("A1", "sc")
    a = Analysis(rd, make_param(rd, Fraction(1, 4)))
    assert psi_vanishes_on(a.psi, a.rads.rad_qk, rd.charlattice)
    # rad(q, kappa) = 8P, and psi(8 omega, omega) = 8/16 under the patched Gram.
    monkeypatch.setitem(a.psi.__dict__, "int_gram", (16, [[1]]))
    assert not psi_vanishes_on(a.psi, a.rads.rad_qk, rd.charlattice)


def test_cross_commutator_check_reads_the_gram(monkeypatch):
    rd = build_root_datum("A2", "sc")
    kappa = Analysis(rd, make_param(rd, Fraction(1, 6))).kappa
    assert cross_commutator_check(kappa)
    monkeypatch.setitem(kappa.__dict__, "int_gram", (4, [[0, 1], [1, 0]]))
    assert not cross_commutator_check(kappa)


def test_weights_are_integral():
    assert Weight.of([Fraction(3), 2]).coords == (3, 2)
    assert all(type(c) is int for c in Weight.of([Fraction(3), 2]).coords)
    with pytest.raises(RootDatumError):
        Weight.of([Fraction(1, 2)])
    with pytest.raises(RootDatumError):
        Weight.of([1, 0]).scaled(Fraction(1, 2))
    assert Weight.of([2, 4]).scaled(Fraction(1, 2)) == Weight.of([1, 2])
