import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import count_calls, count_stage_calls, fraction_int_gram, reflection_oracle_accepts, weyl_reflect
from qcenters import intlat, qparam
from qcenters.angles import AngleQZ
from qcenters.qparam import classify, make_param, parse_param
from qcenters.rootdata import Weight, build_root_datum


def test_make_param_display_families():
    a1 = build_root_datum("A1", "sc")
    # exp(pi i (-,-)/2): c = 1/(2l) with l = 2.
    q = make_param(a1, Fraction(1, 4))
    assert q.l_of(a1.pos_roots[0]) == 2
    # exp(2 pi i (-,-)/3): c = 1/l with l = 3.
    q = make_param(a1, Fraction(1, 3))
    assert q.l_of(a1.pos_roots[0]) == 3
    # Independent factor parameters evaluate blockwise.
    prod = build_root_datum("A1xA1", "sc")
    qq = make_param(prod, [Fraction(1, 4), Fraction(1, 3)])
    e1 = Weight.of([2, 0])  # alpha in the first factor
    e2 = Weight.of([0, 2])
    assert qq.eval(e1, e1) == AngleQZ(1, 2)
    assert qq.eval(e2, e2) == AngleQZ(2, 3)
    assert qq.eval(e1, e2) == AngleQZ(0, 1)


def test_eval_examples():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    alpha = a1.simple_root(0)
    assert q.eval(alpha, alpha) == AngleQZ(1, 2)
    assert q.eval(alpha, Weight.of([0])) == AngleQZ(0, 1)

    a2 = build_root_datum("A2", "sc")
    q6 = make_param(a2, Fraction(1, 6))
    assert q6.eval(a2.simple_root(0), a2.simple_root(1)) == AngleQZ(5, 6)


def test_l_of_examples():
    a1 = build_root_datum("A1", "sc")
    alpha = a1.pos_roots[0]
    assert make_param(a1, Fraction(1, 4)).l_of(alpha) == 2
    assert make_param(a1, Fraction(1, 3)).l_of(alpha) == 3
    assert make_param(a1, Fraction(1, 2)).l_of(alpha) == 1


def test_q_scalar_examples():
    a1 = build_root_datum("A1", "sc")
    alpha = a1.pos_roots[0]
    assert make_param(a1, Fraction(1, 4)).q_scalar(alpha) == AngleQZ(1, 4)
    assert make_param(a1, Fraction(1, 3)).q_scalar(alpha) == AngleQZ(1, 3)
    c2 = build_root_datum("C2", "sc")
    q = make_param(c2, Fraction(1, 6))  # pi/l with l = 3
    long_root = next(r for r in c2.pos_roots if r.height == 1 and r.d == 2)
    assert q.q_scalar(long_root) == AngleQZ(1, 3)
    # q_alpha = q(alpha, omega_alpha) for simple roots.
    for rd, c in ((c2, Fraction(1, 6)), (build_root_datum("G2"), Fraction(1, 12))):
        qq = make_param(rd, c)
        for i in range(rd.rank):
            simple = next(r for r in rd.pos_roots if r.height == 1 and r.root_coords[i] == 1)
            assert qq.q_scalar(simple) == qq.eval(rd.simple_root(i), rd.fundamental_weight(i))


def test_rad_examples():
    a1 = build_root_datum("A1", "sc")
    assert make_param(a1, Fraction(1, 4)).rad().gens == ((8,),)
    assert make_param(a1, Fraction(1, 3)).rad().gens == ((6,),)
    assert make_param(a1, Fraction(0)).rad() == a1.weight_lattice()
    # Brute-force witness: m*omega is in the radical iff q(m w, w) = m/8 = 0.
    q = make_param(a1, Fraction(1, 4))
    for m in range(-16, 17):
        expected = (m % 8 == 0)
        assert q.rad().member([m]) == expected


def test_rad_is_cut_once_per_ambient_lattice_on_each_parameter(monkeypatch):
    # On simply connected data X = P, so classify and the X-ambient radical
    # share one cut; an equal but distinct parameter cuts again.
    rd = build_root_datum("A3", "sc")
    q = make_param(rd, Fraction(1, 8))
    cuts = count_calls(monkeypatch, qparam, "annihilator")
    classify(q)
    assert q.rad(rd.charlattice) is q.rad() and cuts == [1]
    root_rad = q.rad(rd.root_lattice())
    assert q.rad(rd.root_lattice()) is root_rad and root_rad != q.rad() and cuts == [2]
    assert make_param(rd, Fraction(1, 8)).rad() == q.rad() and cuts == [3]


def test_classify_examples():
    a1 = build_root_datum("A1", "sc")
    c14 = classify(make_param(a1, Fraction(1, 4)))
    assert (c14.max_nondegenerate, c14.all_even, c14.quasi_classical) == (True, True, False)
    c13 = classify(make_param(a1, Fraction(1, 3)))
    assert (c13.max_nondegenerate, c13.all_even, c13.quasi_classical) == (True, False, False)
    c12 = classify(make_param(a1, Fraction(1, 2)))
    assert c12.quasi_classical
    # c = 2/3 on A1 has radical 3*omega*Z, outside Q = 2*omega*Z: a witness.
    degenerate = classify(make_param(a1, Fraction(2, 3)))
    assert not degenerate.max_nondegenerate
    assert degenerate.witness is not None
    assert degenerate.witness.coords == (Fraction(3),)


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A1xA2"])
def test_form_properties_random(type_str):
    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, [Fraction(1, 6)] * len(rd.dynkin.factors))
    rng = random.Random(3)
    for _ in range(20):
        lam = Weight.of([rng.randint(-3, 3) for _ in range(rd.rank)])
        mu = Weight.of([rng.randint(-3, 3) for _ in range(rd.rank)])
        nu = Weight.of([rng.randint(-3, 3) for _ in range(rd.rank)])
        assert q.eval(lam + nu, mu) == q.eval(lam, mu) + q.eval(nu, mu)
        assert q.eval(lam, mu) == q.eval(mu, lam)
        for i in range(rd.rank):
            assert q.eval(weyl_reflect(rd, i, lam), weyl_reflect(rd, i, mu)) == q.eval(lam, mu)


@pytest.mark.parametrize(
    "type_str", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D3", "D4", "F4", "G2"]
)
def test_display_families_maximally_nondegenerate(type_str):
    rd = build_root_datum(type_str, "sc")
    base = max(rd.d)  # every d_alpha divides multiples of the longest length
    for k in (1, 2, 3):
        ell = base * k
        for c in (Fraction(1, 2 * ell), Fraction(1, ell)):
            assert classify(make_param(rd, c)).max_nondegenerate


@pytest.mark.parametrize(
    "type_str",
    ["A1", "A4", "B2", "B5", "C3", "C6", "D4", "D7", "E6", "E7", "E8", "F4", "G2",
     "A3xB2", "A1xA1xG2", "C2xD5xA1", "E6xE6"],
)
def test_int_gram_matches_the_fraction_route(type_str):
    # Random c per factor: negative, above 1, zero, integral, and with a
    # different denominator on each factor.
    rd = build_root_datum(type_str, "sc")
    rng = random.Random(type_str)
    factors = len(rd.dynkin.factors)
    choices = [[Fraction(0)] * factors, [Fraction(rng.randint(-9, 9)) for _ in range(factors)]]
    for _ in range(25):
        choices.append([Fraction(rng.randint(-200, 200), rng.randint(1, 60)) for _ in range(factors)])
    for c in choices:
        q = make_param(rd, c)
        assert q.int_gram == fraction_int_gram(q), c


@pytest.mark.parametrize(
    "type_str",
    ["A1", "B2", "G2", "A1xA1", "A2", "A3", "B3", "C2", "C3", "D4", "F4", "A1xB2", "A1xA2",
     "E6", "E7", "E8", "D8", "A12", "B4", "A3xB2"],
)
def test_l_of_agreement_randomized(type_str):
    # l_of itself raises if ord q(g, g) != ord q^2(g, -); run it broadly.  It
    # reads only the weight lattice P, so the lattice of the datum is moot.
    rd = build_root_datum(type_str, "sc")
    rng = random.Random(5)
    for _ in range(15):
        c = [Fraction(rng.randint(1, 23), rng.randint(1, 24)) for _ in rd.dynkin.factors]
        q = make_param(rd, c)
        for root in rd.pos_roots:
            q.l_of(root)


def _row_check_accepts(rd, n, g):
    """make_param's symmetry and Weyl checks: one row alpha_i . G per simple root."""
    symmetric = all((g[i][j] - g[j][i]) % n == 0 for i in range(rd.rank) for j in range(rd.rank))
    return symmetric and all(
        qparam._reflection_fixes(alpha, intlat.row_times(alpha, g), i, n) for i, alpha in enumerate(rd.simple_roots)
    )


def _random_gram(rd, rng, n):
    """An integer Gram mod n: invariant (a multiple of the Killing Gram per
    factor plus n times anything), invariant with one symmetric entry pair
    moved, random symmetric, or random."""
    r = rd.rank
    kind = rng.choice(["invariant", "perturbed", "symmetric", "random"])
    if kind in ("invariant", "perturbed"):
        t = [rng.randint(0, n - 1) for _ in rd.dynkin.factors]
        k = rd.killing_gram[1]
        g = [
            [t[rd.factor_of_index[i]] * k[i][j] + n * rng.randint(-2, 2) for j in range(r)] for i in range(r)
        ]
        if kind == "perturbed":
            i, j, delta = rng.randrange(r), rng.randrange(r), rng.randint(1, n - 1)
            g[i][j] += delta
            if i != j:
                g[j][i] += delta
        return g
    g = [[rng.randint(0, n - 1) for _ in range(r)] for _ in range(r)]
    if kind == "symmetric":
        g = [[g[min(i, j)][max(i, j)] for j in range(r)] for i in range(r)]
    return g


@pytest.mark.parametrize("type_str", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4", "E6", "A1xA1"])
def test_row_weyl_check_agrees_with_the_reflection_oracle(type_str):
    rd = build_root_datum(type_str, "sc")
    rng = random.Random(11)
    for _ in range(5):
        q = make_param(rd, [Fraction(rng.randint(1, 23), rng.randint(1, 24)) for _ in rd.dynkin.factors])
        n, g = q.int_gram
        assert reflection_oracle_accepts(rd, n, g) and _row_check_accepts(rd, n, g)
    verdicts = Counter()
    for _ in range(60):
        n = rng.choice([2, 3, 4, 6, 12, 36])
        g = _random_gram(rd, rng, n)
        verdict = reflection_oracle_accepts(rd, n, g)
        assert _row_check_accepts(rd, n, g) == verdict, (n, g)
        verdicts[verdict] += 1
    # On A1 every 1 x 1 Gram is symmetric and Weyl invariant.
    assert verdicts[True] > 0 and (rd.rank == 1 or verdicts[False] > 0)


def test_parameter_layer_makes_no_matrix_products(monkeypatch):
    # make_param, l_table, root_table and simple_ls read single rows
    # lambda . G: no L . G . R^T product.
    rd = build_root_datum("A40", "sc")
    counts = count_stage_calls(monkeypatch, {"congruent": intlat.congruent})
    q = make_param(rd, Fraction(1, 6))
    assert len(q.l_table) == len(q.root_table) == 820 and len(q.simple_ls()) == 40
    assert counts == Counter()
    # The counters are live: the Gram on a basis is one product.
    q.angle_gram([rd.simple_roots[0]])
    assert counts == Counter(congruent=1)


def test_parse_param_forms():
    assert parse_param("1/6", 1) == [Fraction(1, 6)]
    assert parse_param("1/6,1/4", 2) == [Fraction(1, 6), Fraction(1, 4)]
    assert parse_param("pi/l:3", 1) == [Fraction(1, 6)]
    assert parse_param("2pi/l:3", 1) == [Fraction(1, 3)]
    assert parse_param("1/4", 2) == [Fraction(1, 4), Fraction(1, 4)]
    with pytest.raises(ValueError):
        parse_param("1/6,1/4", 3)
