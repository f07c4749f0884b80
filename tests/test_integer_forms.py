"""Differential tests: the integer Gram path of q, kappa and psi against the
Fraction and ambient-vector oracles in helpers."""

import random
from fractions import Fraction

import pytest

from helpers import (
    ambient_extend_psi_gram,
    angle_sum_eval,
    fraction_angle_gram,
    fraction_eval,
    per_column_annihilator,
)
from qcenters.intlat import bilinear, congruent
from qcenters.kappa import extend_psi
from qcenters.qparam import make_param
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


def test_weights_are_integral():
    assert Weight.of([Fraction(3), 2]).coords == (3, 2)
    assert all(type(c) is int for c in Weight.of([Fraction(3), 2]).coords)
    with pytest.raises(RootDatumError):
        Weight.of([Fraction(1, 2)])
    with pytest.raises(RootDatumError):
        Weight.of([1, 0]).scaled(Fraction(1, 2))
    assert Weight.of([2, 4]).scaled(Fraction(1, 2)) == Weight.of([1, 2])
