import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from helpers import count_inverses, marker_angle, oracle_conductor, oracle_coeff
from qcenters.angles import AngleQZ
from qcenters.cyclo import CycloNum, root_of_unity
from qcenters.qparam import QParam, make_param
from qcenters.rmatrix import (
    NonInvertibleSpecialization,
    RSupport,
    _coeff_row,
    _coeff_rows,
    _pairing_row,
    batch_conductor,
    coeff,
    pairing_diag,
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
            assert value.is_zero() == any(v >= l for v, l in zip(n, ls))


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
        marker = marker_angle(q, rd, s.n)
        assert value * pairing == root_of_unity(marker, big_n)
        # Equivalently: coeff * pairing * marker^-1 = 1.
        assert value * pairing * root_of_unity(-marker, big_n) == 1


def test_a1_at_1_23_coeff_times_pairing_is_the_marker():
    # A field of degree 22, larger than any the rank <= 2 sweep above uses.
    rd = build_root_datum("A1", "sc")
    q = make_param(rd, Fraction(1, 23))
    terms = term_table(q, rd)
    big_n = terms[0][1].conductor
    assert len(terms) == 23 and big_n == 46
    for s, value in terms:
        pairing = pairing_diag(s, rd, q, conductor=big_n)
        assert value * pairing == root_of_unity(marker_angle(q, rd, s.n), big_n), s.n


def test_pairing_row_inverts_once_for_all_v(monkeypatch):
    # The full product of the row is inverted once; every v reads the row.
    a1 = build_root_datum("A1", "sc")
    calls = count_inverses(monkeypatch)
    for angle, conductor in ((AngleQZ(1, 23), 46), (AngleQZ(3, 8), 8), (AngleQZ(5, 12), 12)):
        _pairing_row.cache_clear()
        calls[0] = 0
        ord2 = angle.scaled(2).order
        for v in range(1, ord2):
            pairing_diag(RSupport((v,)), a1, [angle], conductor=conductor)
        assert calls[0] == 1, angle
        with pytest.raises(NonInvertibleSpecialization):
            pairing_diag(RSupport((ord2,)), a1, [angle], conductor=conductor)
        assert calls[0] == 1, angle


ORACLE_CASES = [
    # (type, c, number of supports of prod range(l + 2) checked, conductor multiple)
    ("A1", Fraction(1, 4), None, 1),
    ("A1", Fraction(1, 3), None, 1),
    ("A2", Fraction(1, 6), None, 1),
    ("B2", Fraction(1, 4), None, 1),
    ("G2", Fraction(1, 12), None, 1),
    ("A2", Fraction(1, 2), None, 1),
    ("A3", Fraction(1, 10), 3000, 1),
    ("C3", Fraction(1, 8), 2000, 1),
    ("B2", Fraction(1, 6), None, 2),
]


@pytest.mark.parametrize("type_str,c,first,scale", ORACLE_CASES)
def test_coeff_matches_the_per_term_oracle(type_str, c, first, scale):
    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, c)
    assert batch_conductor(q, rd) == oracle_conductor(q, rd)
    big_n = scale * batch_conductor(q, rd)
    box = itertools.product(*(range(l + 2) for l in q.pos_root_ls()))
    for n in itertools.islice(box, first):
        value = coeff(RSupport(n), q, rd, conductor=big_n)
        assert value.conductor == big_n and value == oracle_coeff(q, rd, n, big_n), n


def test_term_table_work_per_term_is_flat(monkeypatch):
    # Weights, angles, their hashes and q-evaluations belong to the per-root
    # tables and rows, which are read once per parameter, so 100 and 3000
    # terms make the same number of them; each term is one product.
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(AngleQZ, "of", staticmethod(counting("AngleQZ.of", AngleQZ.of)))
    monkeypatch.setattr(AngleQZ, "__hash__", counting("AngleQZ.__hash__", AngleQZ.__hash__))
    monkeypatch.setattr(Weight, "of", staticmethod(counting("Weight.of", Weight.of)))
    monkeypatch.setattr(QParam, "eval", counting("QParam.eval", QParam.eval))
    monkeypatch.setattr(CycloNum, "__mul__", counting("mul", CycloNum.__mul__))
    monkeypatch.setattr(CycloNum, "product", staticmethod(counting("product", CycloNum.product)))
    rd = build_root_datum("A3", "sc")
    counts = {}
    for max_terms in (100, 3000):
        q = make_param(rd, Fraction(1, 10))
        _coeff_row.cache_clear()
        _coeff_rows.cache_clear()
        calls.clear()
        terms = term_table(q, rd, max_terms=max_terms)
        counts[max_terms] = {k: v for k, v in calls.items() if k not in ("mul", "product")}
    assert counts[100] == counts[3000] and counts[100]["AngleQZ.__hash__"] > 0
    assert calls["product"] == len(terms) == 3000
    assert calls["mul"] <= sum(8 * (l + 1) for l in q.pos_root_ls())


def test_coeff_rejects_a_root_datum_that_is_not_the_parameters():
    sc, adjoint = build_root_datum("A2", "sc"), build_root_datum("A2", "adjoint")
    q = make_param(sc, Fraction(1, 6))
    support = RSupport((1, 0, 1))
    with pytest.raises(ValueError, match="root datum"):
        coeff(support, q, adjoint)
    assert coeff(support, q, build_root_datum("A2", "sc")) == coeff(support, q, sc)


def test_equal_parameters_hash_equal_through_their_root_datum_and_scalars():
    for type_str, c in (("A3", Fraction(1, 10)), ("G2", Fraction(1, 12)), ("A3xB2", [Fraction(1, 6), Fraction(1, 4)])):
        rd = build_root_datum(type_str, "sc")
        p, q = make_param(rd, c), make_param(rd, c)
        assert p is not q and p == q and hash(p) == hash(q)
        assert hash(p) == hash((rd, p.c))


def test_wide_field_coefficients_match_the_per_term_oracle():
    # A1 at 1/500: a field of degree 400, where the rows run to l = 500.
    rd = build_root_datum("A1", "sc")
    q = make_param(rd, Fraction(1, 500))
    terms = term_table(q, rd, max_terms=50)
    big_n = batch_conductor(q, rd)
    assert len(terms) == 50 and big_n == oracle_conductor(q, rd)
    for s, value in terms:
        assert value.conductor == big_n and value == oracle_coeff(q, rd, s.n, big_n), s.n


def test_omega_phase_examples():
    # The degree-zero braiding phase -q(lam, mu).
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    w = a1.fundamental_weight(0)
    assert -q.eval(Weight.of([0]), w) == AngleQZ(0, 1)
    assert -q.eval(w, w) == AngleQZ(7, 8)


def test_squared_phase_trivial_on_mug():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 3))
    tower = center_tower(q, a1)
    for g in tower.x_mug.gens:
        for m in range(-4, 5):
            assert q.eval(Weight.of(g), Weight.of([m])).scaled(2).is_zero()


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
