import itertools
import json
from fractions import Fraction

import pytest

from helpers import count_inverses
from qcenters.angles import AngleQZ
from qcenters.cyclo import root_of_unity
from qcenters.qparam import make_param
from qcenters.rmatrix import (
    NonInvertibleSpecialization,
    RSupport,
    _pairing_root_factor,
    batch_conductor,
    coeff,
    omega_phase,
    pairing_diag,
    squared_braiding_phase,
    support_size,
    term_table,
)
from qcenters.rootdata import Weight, build_root_datum
from qcenters.centers import center_tower


def test_support_size_examples():
    a1 = build_root_datum("A1", "sc")
    count, supports = support_size(make_param(a1, Fraction(1, 4)), a1)
    assert count == 2
    assert [s.n for s in supports] == [(0,), (1,)]

    a2 = build_root_datum("A2", "sc")
    assert support_size(make_param(a2, Fraction(1, 6)), a2)[0] == 27
    assert support_size(make_param(a2, Fraction(1, 2)), a2)[0] == 1  # quasi-classical


def test_coeff_a1_values():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    assert coeff(RSupport((0,)), q, a1) == 1
    c1 = coeff(RSupport((1,)), q, a1)
    minus_two_i = root_of_unity(AngleQZ(1, 4), 4) * (-2)
    assert c1 == minus_two_i
    assert coeff(RSupport((2,)), q, a1).is_zero()
    assert coeff(RSupport((5,)), q, a1).is_zero()


def test_coeff_zero_iff_inadmissible():
    for type_str, c in (("A1", Fraction(1, 4)), ("A2", Fraction(1, 6)), ("B2", Fraction(1, 4))):
        rd = build_root_datum(type_str, "sc")
        q = make_param(rd, c)
        ls = q.pos_root_ls()
        big_n = batch_conductor(q, rd)
        for n in itertools.product(*(range(l + 1) for l in ls)):
            support = RSupport(tuple(n))
            value = coeff(support, q, rd, conductor=big_n)
            assert value.is_zero() == (not support.is_admissible(ls))


def test_pairing_diag_examples():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    assert pairing_diag(RSupport((0,)), a1, q) == 1

    z8 = root_of_unity(AngleQZ(1, 8), 8)
    value = pairing_diag(RSupport((1,)), a1, [AngleQZ(1, 8)])
    assert value == z8 * (z8 - z8.inverse()).inverse()

    with pytest.raises(NonInvertibleSpecialization):
        pairing_diag(RSupport((2,)), a1, q)
    with pytest.raises(NonInvertibleSpecialization):
        pairing_diag(RSupport((1,)), a1, [AngleQZ(1, 2)])


@pytest.mark.parametrize(
    "type_str,c",
    [("A1", Fraction(1, 4)), ("A1", Fraction(1, 3)), ("A2", Fraction(1, 6)), ("B2", Fraction(1, 4)), ("G2", Fraction(1, 12))],
)
def test_coeff_pairing_inverse_relation(type_str, c):
    # coeff(n) * pairing(n) equals the sign/phase marker exactly, for every
    # admissible support of the rank <= 2 instances.
    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, c)
    big_n = batch_conductor(q, rd)
    _count, supports = support_size(q, rd)
    ls = q.pos_root_ls()
    for s in supports:
        value = coeff(s, q, rd, conductor=big_n)
        pairing = pairing_diag(s, rd, q, conductor=big_n)
        marker_angle = _marker_angle(q, rd, s)
        assert value * pairing == root_of_unity(marker_angle, big_n)
        # Equivalently: coeff * pairing * marker^-1 = 1.
        assert value * pairing * root_of_unity(-marker_angle, big_n) == 1


def _marker_angle(q, rd, s: RSupport) -> AngleQZ:
    """Angle of the sign/phase root of unity that coeff(s) * pairing(s) equals:
    (-1)^(sum n_g ht g) q(sum n_g g, sum_a w_a)."""
    sign_exp = sum(v * r.height for v, r in zip(s.n, rd.pos_roots))
    weighted = Weight.of([0] * rd.rank)
    for v, r in zip(s.n, rd.pos_roots):
        weighted = weighted + Weight.of(r.fw_coords).scaled(v)
    return AngleQZ.of(Fraction(sign_exp, 2)) + q.eval(weighted, Weight.of([1] * rd.rank))


def test_a1_at_1_23_coeff_times_pairing_is_the_marker():
    # A field of degree 22, larger than any the rank <= 2 sweep above uses.
    rd = build_root_datum("A1", "sc")
    q = make_param(rd, Fraction(1, 23))
    terms = term_table(q, rd)
    big_n = terms[0][1].conductor
    assert len(terms) == 23 and big_n == 46
    for s, value in terms:
        pairing = pairing_diag(s, rd, q, conductor=big_n)
        assert value * pairing == root_of_unity(_marker_angle(q, rd, s), big_n), s.n


def test_pairing_root_factor_inverts_twice_at_most(monkeypatch):
    # Once for v^-1 inside [v]!, once for (v - v^-1)^v [v]!.
    calls = count_inverses(monkeypatch)
    for v in range(1, 11):
        calls[0] = 0
        _pairing_root_factor.__wrapped__(AngleQZ(1, 23), v, 46)
        assert calls[0] <= 2, v


def test_omega_phase_examples():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    w = a1.fundamental_weight(0)
    assert omega_phase(q, Weight.of([0]), w) == AngleQZ(0, 1)
    assert omega_phase(q, w, w) == AngleQZ(7, 8)


def test_squared_phase_trivial_on_mug():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 3))
    tower = center_tower(q, a1)
    for g in tower.x_mug.gens:
        for m in range(-4, 5):
            assert squared_braiding_phase(q, Weight.of(g), Weight.of([m])).is_zero()


def test_quasi_classical_collapse():
    a2 = build_root_datum("A2", "sc")
    q = make_param(a2, Fraction(1, 2))
    assert all(l == 1 for l in q.pos_root_ls())
    count, supports = support_size(q, a2)
    assert count == 1 and supports[0].n == (0, 0, 0)
    assert coeff(supports[0], q, a2) == 1


def test_term_table_cap():
    a2 = build_root_datum("A2", "sc")
    q = make_param(a2, Fraction(1, 6))
    full = term_table(q, a2)
    assert len(full) == 27
    capped = term_table(q, a2, max_terms=5)
    assert len(capped) == 5
    assert capped == full[:5]


def test_term_table_walks_the_box_lazily(monkeypatch):
    # E8 at c = 1/10 has 5^120 admissible supports; only the first five are built.
    import qcenters.rmatrix as rmatrix

    def no_materialization(*args, **kwargs):
        raise AssertionError("term_table must not materialize the support box")

    monkeypatch.setattr(rmatrix, "support_size", no_materialization)
    e8 = build_root_datum("E8", "sc")
    terms = term_table(make_param(e8, Fraction(1, 10)), e8, max_terms=5)
    assert [s.n for s, _c in terms] == [(0,) * 119 + (k,) for k in range(5)]


def test_rmatrix_cli_truncates_a_huge_box(capsys):
    from qcenters.cli import main

    code = main(["rmatrix", "--type", "E8", "--lattice", "sc", "--param", "1/10", "--max-terms", "5"])
    section = json.loads(capsys.readouterr().out)
    assert code == 0
    assert section["support_count"] == 5**120 and section["truncated"] is True
    assert len(section["terms"]) == 5
    assert main(["rmatrix", "--type", "A1", "--param", "1/4", "--max-terms", "-1"]) == 1
