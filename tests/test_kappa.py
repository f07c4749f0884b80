import random
from fractions import Fraction

import pytest

from qcenters import kappa as kappa_module
from qcenters.angles import AngleQZ
from qcenters.centers import center_tower
from qcenters.intlat import hnf, index
from qcenters.kappa import KappaError, build_kappa, extend_psi, psi_vanishes_on, radicals
from qcenters.qparam import InvariantViolation, make_param
from qcenters.rootdata import Weight, build_root_datum
from qcenters.sampling import random_instance


def _setup(type_str, lattice, c):
    rd = build_root_datum(type_str, lattice)
    q = make_param(rd, c)
    tower = center_tower(q, rd)
    return rd, q, tower


def test_build_kappa_a2_values():
    rd, q, tower = _setup("A2", "sc", Fraction(1, 6))
    kappa = build_kappa(q, tower.x_tan)
    # X^Tan = 3Q; the off-diagonal restricted values are -1, so the canonical
    # square root has angle 1/4 above the diagonal and 3/4 below.
    assert kappa.gram[0][0] == AngleQZ(0, 1) and kappa.gram[1][1] == AngleQZ(0, 1)
    assert kappa.gram[0][1] == AngleQZ(1, 4)
    assert kappa.gram[1][0] == AngleQZ(3, 4)
    e1, e2 = tower.x_tan.gens
    assert q.eval(Weight.of(e1), Weight.of(e2)) == AngleQZ(1, 2)


def test_build_kappa_rank_one_vanishes():
    rd, q, tower = _setup("A1", "sc", Fraction(1, 4))
    kappa = build_kappa(q, tower.x_tan)
    assert kappa.gram == ((AngleQZ(0, 1),),)


def test_build_kappa_trivial_epsilon():
    rd, q, tower = _setup("A2", "adjoint", Fraction(1, 5))
    kappa = build_kappa(q, tower.x_tan)
    assert all(x.is_zero() for row in kappa.gram for x in row)


@pytest.mark.parametrize(
    "c,domain,message",
    [
        (Fraction(1, 2), None, "restricted parameter has nonzero diagonal value 1/3"),
        (Fraction(1, 3), [[3, 0], [0, 1]], "restricted parameter value 1/3 is not a sign"),
    ],
    ids=["diagonal", "sign"],
)
def test_build_kappa_rejects_a_parameter_without_a_square_root(c, domain, message):
    # Off X^Tan the restricted parameter need not be an alternating sign form.
    rd = build_root_datum("A2", "sc")
    domain = rd.charlattice if domain is None else hnf(domain)
    with pytest.raises(KappaError, match=f"^{message}$"):
        build_kappa(make_param(rd, c), domain)


def _diagonal_two(k):
    k[0][0] = 2


def _symmetric(k):
    k[1][0] = k[0][1]


def _doubled(k):
    k[0][1] *= 2


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_diagonal_two, "kappa diagonal is nonzero"),
        (_symmetric, "kappa is not antisymmetric"),
        (_doubled, "kappa squared does not match the restricted parameter"),
    ],
    ids=["diagonal", "antisymmetry", "square-root"],
)
def test_build_kappa_checks_the_form_it_built(monkeypatch, corrupt, message):
    # A2 sc at 1/6: K = [[0, 1], [3, 0]] mod 4.  Each corruption breaks one
    # of the three congruences and leaves the others holding.
    rd, q, tower = _setup("A2", "sc", Fraction(1, 6))
    assert build_kappa(q, tower.x_tan).int_gram == (4, [[0, 1], [3, 0]])
    real = kappa_module.BiformQZ

    def corrupted(basis, int_gram):
        n, k = int_gram
        k = [row[:] for row in k]
        corrupt(k)
        return real(basis=basis, int_gram=(n, k))

    monkeypatch.setattr(kappa_module, "BiformQZ", corrupted)
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        build_kappa(q, tower.x_tan)


def test_radicals_examples():
    rd, q, tower = _setup("A1", "sc", Fraction(1, 4))
    kappa = build_kappa(q, tower.x_tan)
    rads = radicals(q, kappa, rd, tower.x_star)
    assert rads.rad_q.gens == ((8,),)
    assert rads.rad_kappa == tower.x_tan  # rank-1 kappa vanishes
    assert rads.rad_qk.gens == ((8,),)
    assert rads.groups.sigma_order == 2
    assert rads.groups.lambda_order == 8
    assert rads.groups.theta_order == 4

    rd3, q3, tower3 = _setup("A1", "sc", Fraction(1, 3))
    k3 = build_kappa(q3, tower3.x_tan)
    r3 = radicals(q3, k3, rd3, tower3.x_star)
    assert r3.rad_q.gens == ((6,),)
    assert r3.rad_qk.gens == ((6,),)
    assert r3.groups.sigma_order == 1
    assert r3.groups.lambda_order == 6


def test_extend_psi_identity_cases():
    # Quasi-classical adjoint A1 has X^Tan = X, forcing psi = kappa.
    rd, q, tower = _setup("A1", "adjoint", Fraction(1, 2))
    assert tower.x_tan == rd.charlattice
    kappa = build_kappa(q, tower.x_tan)
    psi = extend_psi(kappa, rd.charlattice)
    assert psi.gram == kappa.gram

    rd4, q4, tower4 = _setup("A1", "sc", Fraction(1, 4))
    k4 = build_kappa(q4, tower4.x_tan)
    psi4 = extend_psi(k4, rd4.charlattice)
    assert all(x.is_zero() for row in psi4.gram for x in row)


def test_extend_psi_restriction_a2():
    rd, q, tower = _setup("A2", "sc", Fraction(1, 6))
    kappa = build_kappa(q, tower.x_tan)
    psi = extend_psi(kappa, rd.charlattice)
    for gi in tower.x_tan.gens:
        for gj in tower.x_tan.gens:
            assert psi.eval(gi, gj) == kappa.eval(gi, gj)
    # The Smith-adapted division: [X : X^Tan] = product of the adapted
    # divisors, and scaling back up reproduces the kappa value exactly.
    n = index(tower.x_tan, rd.charlattice)
    assert n == 27


def test_psi_rad_vanishing_flag_is_honest():
    rd, q, tower = _setup("A2", "sc", Fraction(1, 6))
    kappa = build_kappa(q, tower.x_tan)
    psi = extend_psi(kappa, rd.charlattice)
    rads = radicals(q, kappa, rd, tower.x_star)
    flag = psi_vanishes_on(psi, rads.rad_qk, rd.charlattice)
    # Re-derive the flag directly from the values.
    direct = all(
        psi.eval(g, h).is_zero() and psi.eval(h, g).is_zero()
        for g in rads.rad_qk.gens
        for h in rd.charlattice.gens
    )
    assert flag == direct


def test_kappa_identities_randomized():
    rng = random.Random(2024)
    for _ in range(30):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        tower = center_tower(q, rd)
        kappa = build_kappa(q, tower.x_tan)
        psi = extend_psi(kappa, rd.charlattice)
        gens = tower.x_tan.gens
        for x in gens:
            assert kappa.eval(x, x).is_zero()
            for y in gens:
                assert (kappa.eval(x, y) + kappa.eval(y, x)).is_zero()
                assert kappa.eval(x, y).scaled(2) == q.eval(Weight.of(x), Weight.of(y))
                assert psi.eval(x, y) == kappa.eval(x, y)
        # Random integer combinations, not just generators.
        for _ in range(5):
            cx = [rng.randint(-3, 3) for _ in gens]
            cy = [rng.randint(-3, 3) for _ in gens]
            x = tower.x_tan.vector_from_coords(cx)
            y = tower.x_tan.vector_from_coords(cy)
            assert kappa.eval(x, x).is_zero()
            assert (kappa.eval(x, y) + kappa.eval(y, x)).is_zero()
            assert kappa.eval(x, y).scaled(2) == q.eval(Weight.of(x), Weight.of(y))


def test_radical_containments_randomized():
    rng = random.Random(77)
    for _ in range(25):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        tower = center_tower(q, rd)
        kappa = build_kappa(q, tower.x_tan)
        rads = radicals(q, kappa, rd, tower.x_star)
        assert rads.rad_q.contains_lattice(rads.rad_qk)
        assert rads.rad_kappa.contains_lattice(rads.rad_qk)
        n_tan = index(tower.x_tan, rd.charlattice)
        assert rads.groups.sigma_order * n_tan == rads.groups.lambda_order
