import gc
import itertools
import json
import operator
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import (
    CASES,
    PostInitCycloNum,
    PostInitRSupport,
    case_instance,
    count_calls,
    count_inverses,
    marker_angle,
    oracle_coeff,
    oracle_coeff_row,
    oracle_conductor,
    oracle_pairing_row,
)
from qcenters import cyclo, rmatrix, sampling
from qcenters.angles import ZERO, AngleQZ
from qcenters.cyclo import CycloError, CycloNum, MulMatrix, binomial_walk, root_of_unity
from qcenters.qparam import InvariantViolation, QParam, make_param
from qcenters.rmatrix import (
    NonInvertibleSpecialization,
    RSupport,
    _coeff_row,
    _EntryMatrices,
    _pairing_row,
    _table,
    batch_conductor,
    coeff,
    pairing_diag,
    support_size,
    term_table,
)
from qcenters.rootdata import _RANK_BOUNDS, Weight, build_root_datum
from qcenters.centers import center_tower


def test_support_size_examples():
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 4))
    assert support_size(q) == 2
    assert [s.n for s, _c in term_table(q, a1)] == [(0,), (1,)]

    a2 = build_root_datum("A2", "sc")
    assert support_size(make_param(a2, Fraction(1, 6))) == 27
    assert support_size(make_param(a2, Fraction(1, 2))) == 1  # quasi-classical


def test_support_size_counts_the_box_that_term_table_walks(monkeypatch):
    walked = 0
    for case in CASES:
        rd, q = case_instance(case)
        count = support_size(q)
        assert count == prod(q.pos_root_ls()), case
        if count <= 5000:
            assert count == len(term_table(q, rd)), case
            walked += 1
    assert walked == 30

    # E8 at c = 1/10 has 5^120 admissible supports; none is built or walked.
    def no_box(*args, **kwargs):
        raise AssertionError("support_size must not build supports")

    monkeypatch.setattr(rmatrix, "RSupport", no_box)
    monkeypatch.setattr(rmatrix, "term_table", no_box)
    e8 = build_root_datum("E8", "sc")
    assert support_size(make_param(e8, Fraction(1, 10))) == 5**120


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


def _a1(c):
    """A1 sc and its parameter at c, whose one q_gamma is c."""
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, c)
    assert [qg for qg, _phase in q.root_table] == [AngleQZ.of(Fraction(c))]
    return a1, q


def test_pairing_diag_examples():
    a1, q = _a1(Fraction(1, 4))
    assert pairing_diag(RSupport((0,)), a1, q) == 1

    z8 = root_of_unity(AngleQZ(1, 8), 8)
    value = pairing_diag(RSupport((1,)), *_a1(Fraction(1, 8)))
    assert value == z8 * (z8 - z8.inverse()).inverse()

    with pytest.raises(NonInvertibleSpecialization):
        pairing_diag(RSupport((2,)), a1, q)
    with pytest.raises(NonInvertibleSpecialization):
        pairing_diag(RSupport((1,)), *_a1(Fraction(1, 2)))


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
    for s in map(RSupport, itertools.product(*(range(l) for l in q.pos_root_ls()))):
        value = coeff(s, q, rd, conductor=big_n)
        pairing = pairing_diag(s, rd, q, conductor=big_n)
        marker = marker_angle(q, rd, s.n)
        assert value * pairing == root_of_unity(marker, big_n)
        # Equivalently: coeff * pairing * marker^-1 = 1.
        assert value * pairing * root_of_unity(-marker, big_n) == 1


def test_a1_at_1_23_coeff_times_pairing_is_the_marker():
    # Fields of degree 22 and 100, larger than any the rank <= 2 sweep above
    # uses; at 1/101 the rows are walks of 101 steps.
    rd = build_root_datum("A1", "sc")
    for den in (23, 101):
        q = make_param(rd, Fraction(1, den))
        terms = term_table(q, rd)
        big_n = terms[0][1].conductor
        assert len(terms) == den and big_n == 2 * den
        for s, value in terms:
            pairing = pairing_diag(s, rd, q, conductor=big_n)
            assert value * pairing == root_of_unity(marker_angle(q, rd, s.n), big_n), s.n


def test_pairing_row_inverts_once_for_all_v(monkeypatch):
    # The row is a walk over 1/ord(2 angle), so nothing is inverted; every v
    # reads the one row of a fresh parameter's table.
    calls, built = count_inverses(monkeypatch), count_calls(monkeypatch, rmatrix, "_pairing_row")
    for c, conductor in ((Fraction(1, 23), 46), (Fraction(3, 8), 8), (Fraction(5, 12), 12)):
        a1, q = _a1(c)
        calls[0] = built[0] = 0
        ord2 = AngleQZ.of(2 * c).order
        for v in range(1, ord2):
            pairing_diag(RSupport((v,)), a1, q, conductor=conductor)
        assert calls[0] == 0 and built[0] == 1, c
        with pytest.raises(NonInvertibleSpecialization):
            pairing_diag(RSupport((ord2,)), a1, q, conductor=conductor)
        assert calls[0] == 0 and built[0] == 1, c


def test_pairing_rows_belong_to_the_parameters_tables(fresh_coeff_caches):
    # One wide row can hold megabytes, so no process-wide cache keeps rows:
    # each conductor a parameter is asked at has its own table, whose
    # pairing rows are freed with the parameter, however many were built.
    def live(cls):
        gc.collect()
        return sum(type(o) is cls for o in gc.get_objects())

    before = live(CycloNum), live(rmatrix._Table)
    a1, q = _a1(Fraction(1, 3))
    for k in range(1, 75):
        pairing_diag(RSupport((1,)), a1, q, conductor=6 * k)
    assert sorted(q.coeff_tables) == [6 * k for k in range(1, 75)]
    assert all(list(t.pairings) == [AngleQZ(1, 3)] for t in q.coeff_tables.values())
    assert live(CycloNum) >= before[0] + 74 * 3 and live(rmatrix._Table) == before[1] + 74
    del q
    assert (live(CycloNum), live(rmatrix._Table)) == before


def test_odd_conductor_applies_the_height_sign_as_an_integer():
    # -1 is no power of zeta_3, so the sign of an odd height is a negation.
    a1 = build_root_datum("A1", "sc")
    q = make_param(a1, Fraction(1, 3))
    values = [coeff(RSupport((v,)), q, a1, conductor=3) for v in range(4)]
    assert values[:3] == [1, CycloNum(3, (-1, -2)), CycloNum(3, (-3, -3))]
    assert values[3].is_zero()


def test_rows_reject_an_angle_outside_the_conductor():
    with pytest.raises(CycloError, match="does not divide"):
        pairing_diag(RSupport((1,)), *_a1(Fraction(1, 5)), conductor=6)
    with pytest.raises(CycloError, match="does not divide"):
        _pairing_row(AngleQZ(1, 5), 6)
    with pytest.raises(CycloError, match="does not divide"):
        _coeff_row(AngleQZ(1, 5), ZERO, 0, 5, 6)
    with pytest.raises(CycloError, match="does not divide"):
        _coeff_row(AngleQZ(1, 6), AngleQZ(1, 5), 0, 3, 6)


def _assert_rows_match_the_oracles(qg, phase, conductor):
    l = qg.scaled(2).order
    for parity in (0, 1):
        row = _coeff_row(qg, phase, parity, l, conductor)
        assert list(row) == oracle_coeff_row(qg, phase, parity, l, conductor), (qg, phase, parity)
    if qg.is_zero() or qg.is_half():
        with pytest.raises(NonInvertibleSpecialization):
            _pairing_row(qg, conductor)
    else:
        assert list(_pairing_row(qg, conductor)) == oracle_pairing_row(qg, conductor), qg


@pytest.mark.parametrize("case", CASES, ids=str)
def test_rows_match_the_running_product_oracles(case):
    rd, q = case_instance(case)
    big_n = batch_conductor(q, rd)
    for qg, phase in q.root_table:
        _assert_rows_match_the_oracles(qg, phase, big_n)


@pytest.mark.parametrize("conductor", [3, 8, 12, 24, 27, 36, 60, 202])
def test_rows_match_the_running_product_oracles_on_user_angles(conductor):
    for j in sorted({1, 5 % conductor, conductor // 2 + 1, conductor - 1}):
        qg = AngleQZ.of(Fraction(j, conductor))
        for phase in (ZERO, AngleQZ.of(Fraction(7 * j, conductor))):
            _assert_rows_match_the_oracles(qg, phase, conductor)


def test_building_rows_multiplies_and_inverts_nothing(monkeypatch):
    # Both rows are binomial walks of integer lists, reduced once per entry.
    rd = build_root_datum("A1", "sc")
    q = make_param(rd, Fraction(1, 101))
    big_n = batch_conductor(q, rd)
    products, inverses = count_calls(monkeypatch, cyclo, "_mul_vecs"), count_inverses(monkeypatch)
    table = _table(q, big_n)
    coeff_rows = table.rows
    pairing_diag(RSupport((1,)), rd, q)
    pairing_rows = list(table.pairings.values())
    assert big_n == 202 and [len(r) for r in coeff_rows] == [102] and [len(r) for r in pairing_rows] == [101]
    assert products == [0] and inverses == [0]


def test_a_table_builds_each_distinct_row_once(monkeypatch, fresh_coeff_caches):
    # On A1xA1 at equal scalars both roots have height 1 and equal q_gamma
    # and phase, so they share one row; G2's six roots have six keys.  A
    # parameter owns its tables, so asking again builds nothing, and an
    # equal parameter builds its own.
    built = count_calls(monkeypatch, rmatrix, "_coeff_row")
    for type_str, c, distinct in (("A1xA1", Fraction(1, 6), 1), ("G2", Fraction(1, 12), 6)):
        rd = build_root_datum(type_str, "sc")
        q = make_param(rd, c)
        big_n = batch_conductor(q, rd)
        built[0] = 0
        rows = _table(q, big_n).rows
        keys = {(qg, phase, r.height % 2, l) for (qg, phase), l, r in zip(q.root_table, q.l_table, rd.pos_roots)}
        assert built[0] == len(keys) == distinct and len({id(row) for row in rows}) == distinct
        assert _table(q, big_n) is _table(q, big_n) and built[0] == distinct
        assert q.coeff_tables == {big_n: _table(q, big_n)}
        p = make_param(rd, c)
        assert p == q and not p.coeff_tables
        assert _table(p, big_n) is not _table(q, big_n) and built[0] == 2 * distinct


def _drop_one_factor(monkeypatch, index):
    """Make every row walk skip factor `index` and repeat its last entry, so
    the rows keep their length."""
    walk = rmatrix.binomial_walk

    def dropping(angle, ks, conductor, **kwargs):
        ks = list(ks)
        del ks[index]
        row = walk(angle, ks, conductor, **kwargs)
        return row + row[-1:]

    monkeypatch.setattr(rmatrix, "binomial_walk", dropping)


def test_a_pairing_walk_that_drops_a_factor_fails_its_check(monkeypatch):
    # The table's coefficient rows are built before the walk breaks; its
    # pairing row is built on the first pairing asked for, and fails there.
    a1, q = _a1(Fraction(1, 23))
    assert coeff(RSupport((1,)), q, a1, conductor=46) == _table(q, 46).rows[0][1]
    _drop_one_factor(monkeypatch, 5)
    with pytest.raises(InvariantViolation, match="does not come back"):
        _pairing_row(AngleQZ(1, 23), 46)
    with pytest.raises(InvariantViolation, match="does not come back"):
        pairing_diag(RSupport((1,)), a1, q)
    assert not _table(q, 46).pairings


def test_a_coefficient_row_that_misses_its_zero_fails_its_check(monkeypatch):
    # Dropping the factor 1 - q^(-2l) leaves entry l nonzero.
    _drop_one_factor(monkeypatch, -1)
    with pytest.raises(InvariantViolation, match="does not vanish"):
        _coeff_row(AngleQZ(1, 23), AngleQZ(1, 23), 1, 23, 46)


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


def _clear_coeff_caches(*params):
    """Drop the coefficient tables of the parameters, so that their next
    walk starts cold."""
    for q in params:
        q.coeff_tables.clear()


def _live_tables():
    gc.collect()
    return sum(type(o) is rmatrix._Table for o in gc.get_objects())


@pytest.fixture
def fresh_coeff_caches():
    """Cold coefficient caches before the test, and none of its values after:
    the parameters a test makes start with no tables, and every table they
    build is freed with them, by the end of the test."""
    before = _live_tables()
    yield
    assert _live_tables() <= before


def _expected_coeffs(q, rd, supports, big_n):
    """Per support, the coefficient as one `CycloNum.product` of its row
    entries (entry l_gamma of a row is zero), checked against the per-term
    oracle."""
    rows = _table(q, big_n).rows
    out = {}
    for n in supports:
        value = CycloNum.product([row[min(v, len(row) - 1)] for v, row in zip(n, rows) if v], big_n)
        assert value == oracle_coeff(q, rd, n, big_n), n
        out[n] = value
    return out


def _assert_coeffs(q, rd, big_n, expected, order):
    for n in order:
        value = coeff(RSupport(n), q, rd, conductor=big_n)
        assert value.conductor == big_n and value == expected[n], n


def _sample_box(ls, first, extra, rng):
    """The first supports of the box prod range(l) in lexicographic order,
    its deepest support, and `extra` uniform draws from it."""
    box = set(itertools.islice(itertools.product(*(range(l) for l in ls)), first))
    box.add(tuple(l - 1 for l in ls))
    box.update(tuple(rng.randrange(l) for l in ls) for _ in range(extra))
    return sorted(box)


def _assert_walks_in_any_order(q, rd, supports, big_n, seed):
    expected = _expected_coeffs(q, rd, supports, big_n)
    shuffled = list(supports)
    random.Random(seed).shuffle(shuffled)
    for order in (supports, shuffled):
        _clear_coeff_caches(q)
        _assert_coeffs(q, rd, big_n, expected, order)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_memoized_coeff_matches_the_product_and_the_oracle(case, fresh_coeff_caches):
    rd, q = case_instance(case)
    big_n = batch_conductor(q, rd)
    supports = _sample_box(q.pos_root_ls(), 40, 40, random.Random(str(case)))
    _assert_walks_in_any_order(q, rd, supports, big_n, seed=str(case))


@pytest.mark.parametrize("type_str,c,first,scale", ORACLE_CASES)
def test_memoized_coeff_matches_on_the_oracle_boxes(type_str, c, first, scale, fresh_coeff_caches):
    # The boxes of the per-term oracle test, past l_gamma too; boxes above
    # 600 supports are sampled.
    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, c)
    box = list(itertools.islice(itertools.product(*(range(l + 2) for l in q.pos_root_ls())), first))
    rng = random.Random(f"{type_str} {c}")
    supports = sorted(rng.sample(box, 600)) if len(box) > 600 else box
    _assert_walks_in_any_order(q, rd, supports, scale * batch_conductor(q, rd), seed=1)


def test_memoized_coeff_keeps_parameters_and_conductors_apart(fresh_coeff_caches):
    # Two parameters of one root datum share every support tuple, and each
    # is asked at two conductors, one term of each in turn.
    rd = build_root_datum("A3", "sc")
    walks = []
    for c in (Fraction(1, 10), Fraction(3, 10)):
        q = make_param(rd, c)
        supports = list(itertools.islice(itertools.product(*(range(l) for l in q.pos_root_ls())), 150))
        for scale in (1, 2):
            big_n = scale * batch_conductor(q, rd)
            walks.append((q, big_n, _expected_coeffs(q, rd, supports, big_n), supports))
    _clear_coeff_caches(*(q for q, *_rest in walks))
    for k in range(150):
        for q, big_n, expected, supports in walks:
            _assert_coeffs(q, rd, big_n, expected, [supports[k]])


def test_memoized_coeff_survives_eviction(fresh_coeff_caches):
    # The walk is exact in any order: here the reverse lexicographic order,
    # over the whole G2 box.
    rd = build_root_datum("G2", "sc")
    q = make_param(rd, Fraction(1, 12))
    big_n = batch_conductor(q, rd)
    supports = list(itertools.product(*(range(l) for l in q.pos_root_ls())))
    expected = _expected_coeffs(q, rd, supports, big_n)
    _clear_coeff_caches(q)
    _assert_coeffs(q, rd, big_n, expected, reversed(supports))


def test_a_walk_cut_short_leaves_no_stale_prefix(monkeypatch, fresh_coeff_caches):
    # (2, 1, 1) walks from (1, 1, 0) at the first entry, and building the
    # matrix of its last entry fails after the prefix (2, 1) was walked; the
    # next support, (1, 1, 1), shares (1, 1) with the recorded walk, so a
    # stale prefix value would come back as a wrong coefficient.
    rd = build_root_datum("A2", "sc")
    q = make_param(rd, Fraction(1, 6))
    big_n = batch_conductor(q, rd)
    supports = [(1, 1, 0), (2, 1, 1), (1, 1, 1)]
    expected = _expected_coeffs(q, rd, supports, big_n)
    _clear_coeff_caches(q)
    target = _table(q, big_n).rows[2]
    build = _EntryMatrices.__missing__
    failures = [0]

    def failing_once(matrices, v):
        if matrices.row is target and not failures[0]:
            failures[0] += 1
            raise MemoryError("no room for the matrix")
        return build(matrices, v)

    monkeypatch.setattr(_EntryMatrices, "__missing__", failing_once)
    _assert_coeffs(q, rd, big_n, expected, supports[:1])
    with pytest.raises(MemoryError):
        coeff(RSupport(supports[1]), q, rd, conductor=big_n)
    assert failures == [1]
    _assert_coeffs(q, rd, big_n, expected, supports[2:] + supports)


def test_a_support_with_a_thousand_nonzero_entries_is_walked_without_recursion(fresh_coeff_caches):
    rd = build_root_datum("A45", "sc")
    q = make_param(rd, Fraction(1, 6))
    big_n = batch_conductor(q, rd)
    ones = (1,) * len(rd.pos_roots)
    assert len(ones) == 1035 and min(q.pos_root_ls()) > 1
    value = coeff(RSupport(ones), q, rd, conductor=big_n)
    assert value == reduce(operator.mul, [row[1] for row in _table(q, big_n).rows])


def _corrupt_one_matrix_entry(monkeypatch, row, v):
    """Corrupt the matrix of entry v of the coefficient row equal to `row`,
    in every table built from now on."""
    build = _EntryMatrices.__missing__

    def corrupted(matrices, w):
        m = build(matrices, w)
        if w != v or matrices.row != row:
            return m
        cols = [list(col) for col in m.cols]
        cols[0][0] += 1
        m = matrices[w] = MulMatrix(m.conductor, tuple(map(tuple, cols)), m.den)
        return m

    monkeypatch.setattr(_EntryMatrices, "__missing__", corrupted)


def _rewalk_one_entry_too_late(monkeypatch):
    common = rmatrix._common_prefix

    def too_late(a, b):
        return min(common(a, b) + 1, len(a), len(b))

    monkeypatch.setattr(rmatrix, "_common_prefix", too_late)


def _take_the_shortcut_unchecked(monkeypatch):
    """Answer "all but the last entry" whenever the last entries differ,
    whatever the entries before them are."""
    common = rmatrix._common_prefix

    def shortcut(a, b):
        return len(a) - 1 if a[-1] != b[-1] else common(a, b)

    monkeypatch.setattr(rmatrix, "_common_prefix", shortcut)


@pytest.mark.parametrize("mutation", ["matrix", "walk", "shortcut"])
def test_the_memo_differential_catches_a_broken_odometer(monkeypatch, fresh_coeff_caches, mutation):
    rd = build_root_datum("A2", "sc")
    q = make_param(rd, Fraction(1, 6))
    big_n = batch_conductor(q, rd)
    supports = list(itertools.product(*(range(l) for l in q.pos_root_ls())))
    expected = _expected_coeffs(q, rd, supports, big_n)
    _assert_walks_in_any_order(q, rd, supports, big_n, seed=0)
    if mutation == "matrix":
        # The simple roots 0 and 2 of A2 share one row and its matrices; a
        # walk reads a first nonzero entry off its row, so root 0's matrices
        # are never used and the corruption hits root 2 alone.
        rows = _table(q, big_n).rows
        assert rows[0] is rows[2] and rows[1] is not rows[0]
        _corrupt_one_matrix_entry(monkeypatch, rows[2], 1)
    elif mutation == "walk":
        _rewalk_one_entry_too_late(monkeypatch)
    else:
        _take_the_shortcut_unchecked(monkeypatch)
    with pytest.raises(AssertionError):
        _assert_walks_in_any_order(q, rd, supports, big_n, seed=0)
    for shuffled in (False, True):
        order = list(supports)
        if shuffled:
            random.Random(0).shuffle(order)
        _clear_coeff_caches(q)
        with pytest.raises(AssertionError):
            _assert_coeffs(q, rd, big_n, expected, order)


def test_term_table_work_per_term_is_flat(monkeypatch):
    # Weights, angles, their hashes and q-evaluations belong to the per-root
    # tables and rows, which are read once per parameter, so 100 and 3000
    # terms make the same number of them.  A term re-walks the table's last
    # support from its first new entry, times one cached entry matrix per
    # later nonzero entry: no `_mul_vecs` product, and in lexicographic order
    # at most one entry-matrix product per returned term.
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
    monkeypatch.setattr(cyclo, "_mul_vecs", counting("_mul_vecs", cyclo._mul_vecs))
    monkeypatch.setattr(MulMatrix, "times", counting("times", MulMatrix.times))
    rd = build_root_datum("A3", "sc")
    counts = {}
    for max_terms in (100, 3000):
        q = make_param(rd, Fraction(1, 10))
        calls.clear()
        terms = term_table(q, rd, max_terms=max_terms)
        counts[max_terms] = {k: v for k, v in calls.items() if k not in ("mul", "product", "_mul_vecs", "times")}
    assert counts[100] == counts[3000] and counts[100]["AngleQZ.__hash__"] > 0
    assert calls["product"] == calls["_mul_vecs"] == 0
    assert 0 < calls["times"] <= len(terms) == 3000
    assert calls["mul"] <= sum(8 * (l + 1) for l in q.pos_root_ls())


def test_a_support_is_a_tuple_of_nonnegative_integers():
    # A list is stored as a tuple, so equal supports are equal and hash
    # equal whatever sequence built them.
    a2 = build_root_datum("A2", "sc")
    q = make_param(a2, Fraction(1, 6))
    s = RSupport([1, 0, 1])
    assert type(s.n) is tuple and s == RSupport((1, 0, 1)) and hash(s) == hash(RSupport((1, 0, 1)))
    assert len({s, RSupport((1, 0, 1))}) == 1
    assert coeff(s, q, a2) == coeff(RSupport((1, 0, 1)), q, a2)
    assert RSupport(()).n == () and RSupport((True, 0)).n == (1, 0)
    for bad in ((1.0, 0, 1), (Fraction(1), 0, 1), (1, Fraction(1, 2), 0), (0, -1, 2)):
        with pytest.raises(ValueError, match="support exponents must be nonnegative integers"):
            RSupport(bad)


def test_field_elements_matrices_and_supports_are_slotted_and_frozen():
    e = CycloNum(6, (1, 2))
    for obj, attr in ((e, "den"), (MulMatrix.of(e), "den"), (RSupport((1, 2)), "n")):
        assert not hasattr(obj, "__dict__"), type(obj)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, attr, 3)
    with pytest.raises(TypeError):
        hash(e)


# Integers, bools, floats and Fractions, as entries and as denominators.
_scalars = st.one_of(
    st.integers(-12, 24),
    st.booleans(),
    st.floats(-4, 4, allow_nan=False),
    st.fractions(-4, 4, max_denominator=6),
)


def _as(kind, entries):
    """The entries as a list, a tuple or a generator."""
    return list(entries) if kind == "list" else tuple(entries) if kind == "tuple" else (x for x in entries)


def _built(cls, *args):
    """The instance, or the class and message of the error it raised."""
    try:
        return cls(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_built_alike(new, ref):
    """Same fields, field types and repr, or the same error class and
    message; a built instance is slotted and frozen."""
    if isinstance(ref, tuple):
        assert new == ref
        return
    names = [f.name for f in fields(new)]
    assert [(getattr(new, f), type(getattr(new, f))) for f in names] == [
        (getattr(ref, f), type(getattr(ref, f))) for f in names
    ]
    assert repr(new) == repr(ref).replace(type(ref).__name__, type(new).__name__, 1)
    assert not hasattr(new, "__dict__")
    for f in names:
        with pytest.raises(FrozenInstanceError):
            setattr(new, f, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(new, f)


@seed(27)
@settings(max_examples=400, deadline=None)
@given(st.data())
def test_hand_written_constructors_validate_as_the_post_init_checks_did(data):
    conductor = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]))
    length = max(0, len(cyclo.cyclotomic_poly(conductor)) - 1 + data.draw(st.sampled_from([-1, 0, 0, 0, 1])))
    num = data.draw(st.lists(st.one_of(st.integers(-60, 60), _scalars), min_size=length, max_size=length))
    den = data.draw(st.one_of(st.integers(-3, 12), st.sampled_from([1, 2, 6, 12]), _scalars))
    common = data.draw(st.sampled_from([1, 1, 2, 6]))  # a common factor for the gcd to take out
    num, den = [x * common for x in num], den * common
    n = data.draw(st.lists(st.one_of(st.integers(-2, 5), _scalars), max_size=6))
    kind = data.draw(st.sampled_from(["list", "tuple", "generator"]))
    # A generator is used up by the first constructor, so each gets its own.
    _assert_built_alike(_built(CycloNum, conductor, _as(kind, num), den), _built(PostInitCycloNum, conductor, _as(kind, num), den))
    _assert_built_alike(_built(RSupport, _as(kind, n)), _built(PostInitRSupport, _as(kind, n)))


def _assert_canonical(x):
    """x is stored as the constructor's gcd path leaves num / den: a tuple
    num with gcd(den, *num) = 1, the pair that a scaled copy reduces to."""
    assert type(x.num) is tuple and gcd(x.den, *x.num) == 1
    again = CycloNum(x.conductor, [3 * c for c in x.num], 3 * x.den)
    assert (again.conductor, again.num, again.den) == (x.conductor, x.num, x.den)


@pytest.mark.parametrize("type_str,c", [("A2", Fraction(1, 6)), ("B2", Fraction(3, 10)), ("G2", Fraction(1, 12))])
def test_walks_and_matrix_products_come_out_canonical(type_str, c, fresh_coeff_caches):
    # Coefficient rows and products are integral, so they skip the gcd;
    # pairing rows have den = ord(2 q_gamma) > 1, and so do their products
    # with a coefficient, either way round.
    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, c)
    big_n = batch_conductor(q, rd)
    terms = term_table(q, rd)
    rows = _table(q, big_n).rows
    pairing_rows = [_pairing_row(qg, big_n) for qg, _phase in q.root_table]
    for qg, phase in q.root_table:
        for x in binomial_walk(qg, range(1, 4), big_n, shift=phase, sign=-1, den=3):
            _assert_canonical(x)
    assert any(x.den > 1 for row in pairing_rows for x in row)
    for row in [*rows, *pairing_rows]:
        for x in row:
            _assert_canonical(x)
    for s, value in terms:
        _assert_canonical(value)
        for x in (row[v] for row, v in zip(pairing_rows, s.n) if v):
            for out in (MulMatrix.of(x).times(value), MulMatrix.of(value).times(x)):
                _assert_canonical(out)
                assert out == value * x


@pytest.mark.parametrize("type_str,c,distinct", [("A1xA1", [Fraction(1, 6)] * 2, 1), ("A2", Fraction(1, 6), 2), ("G2", Fraction(1, 12), 6)])
def test_roots_with_one_row_share_its_matrices_and_the_table_owns_them(type_str, c, distinct, fresh_coeff_caches):
    def live_matrices():
        gc.collect()
        return sum(type(o) is MulMatrix for o in gc.get_objects())

    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, c)
    big_n = batch_conductor(q, rd)
    before = live_matrices()
    table = _table(q, big_n)
    term_table(q, rd)
    maps = {id(m): m for m in table.matrices}
    assert len(maps) == distinct
    for i, j in itertools.combinations(range(len(table.rows)), 2):
        if table.rows[i] == table.rows[j]:
            assert table.rows[i] is table.rows[j] and table.matrices[i] is table.matrices[j]
    assert all(m.row is row for m, row in zip(table.matrices, table.rows))
    built = sum(map(len, maps.values()))
    assert built > 0 and live_matrices() == before + built
    del table, maps
    assert live_matrices() == before + built
    del q
    assert live_matrices() == before


def test_coeff_rejects_a_root_datum_that_is_not_the_parameters():
    sc, adjoint = build_root_datum("A2", "sc"), build_root_datum("A2", "adjoint")
    q = make_param(sc, Fraction(1, 6))
    support = RSupport((1, 0, 1))
    with pytest.raises(ValueError, match="root datum"):
        coeff(support, q, adjoint)
    assert coeff(support, q, build_root_datum("A2", "sc")) == coeff(support, q, sc)


def test_pairing_diag_and_batch_conductor_reject_a_root_datum_that_is_not_the_parameters():
    sc = build_root_datum("A2", "sc")
    q = make_param(sc, Fraction(1, 6))
    support = RSupport((1, 0, 1))
    for rd in (build_root_datum("A2", "adjoint"), build_root_datum("B2")):
        with pytest.raises(ValueError, match="^the root datum is not the parameter's$"):
            pairing_diag(support, rd, q)
        with pytest.raises(ValueError, match="^the root datum is not the parameter's$"):
            batch_conductor(q, rd)
    equal = build_root_datum("A2", "sc")
    assert batch_conductor(q, equal) == batch_conductor(q, sc) == 6
    assert pairing_diag(support, equal, q) == pairing_diag(support, sc, q)


def test_a_table_builds_each_pairing_row_once_when_a_support_first_asks(monkeypatch, fresh_coeff_caches):
    # A pairing row is built the first time a support has a nonzero entry at
    # a root with its q_gamma, once per distinct q_gamma and table: G2 at
    # 1/12 has two (short and long roots), A1xA1 at equal scalars one.  An
    # equal parameter builds its own.
    built = count_calls(monkeypatch, rmatrix, "_pairing_row")
    for type_str, c, distinct in (("A1xA1", Fraction(1, 6), 1), ("G2", Fraction(1, 12), 2)):
        rd = build_root_datum(type_str, "sc")
        angles = [qg for qg, _phase in make_param(rd, c).root_table]
        assert len(set(angles)) == distinct
        for q in (make_param(rd, c), make_param(rd, c)):
            built[0] = 0
            assert pairing_diag(RSupport((0,) * len(angles)), rd, q) == 1 and built[0] == 0
            for i in range(len(angles)):
                unit = RSupport(tuple(int(j == i) for j in range(len(angles))))
                pairing_diag(unit, rd, q)
                assert built[0] == len(set(angles[: i + 1])), (type_str, i)
            pairing_diag(RSupport((1,) * len(angles)), rd, q)
            assert built[0] == distinct
            pairings = _table(q, batch_conductor(q, rd)).pairings
            assert list(pairings) == list(dict.fromkeys(angles))
            pairing_diag(RSupport((1,) * len(angles)), rd, q, conductor=2 * batch_conductor(q, rd))
            assert built[0] == 2 * distinct and len(q.coeff_tables) == 2
        p, q = make_param(rd, c), make_param(rd, c)
        pairing_diag(RSupport((1,) * len(angles)), rd, p)
        pairing_diag(RSupport((1,) * len(angles)), rd, q)
        big_n = batch_conductor(q, rd)
        assert p == q and _table(p, big_n).pairings[angles[0]] is not _table(q, big_n).pairings[angles[0]]


def test_a_root_with_l_one_raises_only_when_asked_for(fresh_coeff_caches):
    # On A1xA1 at (1/2, 1/6) the first root has q_gamma = 1/2 and l = 1, so
    # v - v^-1 vanishes there; a support that is zero at it reads the other
    # root's row alone, and asking again raises again.
    rd = build_root_datum("A1xA1", "sc")
    q = make_param(rd, [Fraction(1, 2), Fraction(1, 6)])
    assert q.l_table == (1, 3)
    big_n = batch_conductor(q, rd)
    value = coeff(RSupport((0, 1)), q, rd) * pairing_diag(RSupport((0, 1)), rd, q)
    assert value == root_of_unity(marker_angle(q, rd, (0, 1)), big_n)
    for _ in range(2):
        with pytest.raises(NonInvertibleSpecialization, match="vanishes at angle 1/2"):
            pairing_diag(RSupport((1, 1)), rd, q)
    assert list(_table(q, big_n).pairings) == [AngleQZ(1, 6)]


_ONE_FIELD_TYPES = [f"{f}{n}" for f, ok in _RANK_BOUNDS.items() for n in range(1, 9) if ok(n)] + [
    t for types in sampling._TYPES_BY_RANK.values() for t in types if "x" in t
] + ["A2xB3"]


@pytest.mark.parametrize("type_str", _ONE_FIELD_TYPES)
def test_the_coefficient_field_is_the_field_of_the_q_gammas(type_str):
    # The phase q(gamma, rho) is c_H (gamma, rho), an integer multiple of the
    # factor's scalar c_H, and every factor has a root with d = 1, whose
    # q_gamma is c_H itself; so the phases add nothing to the conductor, and
    # the pairing values' old default field, lcm(2, q_gamma orders), is the
    # coefficients' field.
    rng = random.Random(type_str)
    for lattice in ("sc", "adjoint"):
        rd = build_root_datum(type_str, lattice)
        for _ in range(3):
            dens = [rng.randint(1, 30) for _f in rd.dynkin.factors]
            q = make_param(rd, [Fraction(rng.randint(1, den), den) for den in dens])
            assert batch_conductor(q, rd) == lcm(2, *(qg.order for qg, _phase in q.root_table)), q.c


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
    tower = center_tower(q)
    for g in tower.x_mug.gens:
        for m in range(-4, 5):
            assert q.eval(Weight.of(g), Weight.of([m])).scaled(2).is_zero()


def test_quasi_classical_collapse():
    a2 = build_root_datum("A2", "sc")
    q = make_param(a2, Fraction(1, 2))
    assert all(l == 1 for l in q.pos_root_ls())
    [(support, value)] = term_table(q, a2)
    assert support_size(q) == 1 and support.n == (0, 0, 0)
    assert value == 1 and coeff(support, q, a2) == 1


def test_term_table_cap():
    a2 = build_root_datum("A2", "sc")
    q = make_param(a2, Fraction(1, 6))
    full = term_table(q, a2)
    assert len(full) == 27
    capped = term_table(q, a2, max_terms=5)
    assert len(capped) == 5
    assert capped == full[:5]


@pytest.mark.parametrize("type_str,c,max_terms", [("A2", Fraction(1, 6), None), ("G2", Fraction(1, 12), None), ("C3", Fraction(1, 8), 2000)])
def test_term_table_builds_its_supports_as_the_constructor_does(type_str, c, max_terms):
    # term_table stores each box tuple past RSupport's checks, so what it
    # stores must be what RSupport would have built from it.
    rd = build_root_datum(type_str, "sc")
    q = make_param(rd, c)
    terms = term_table(q, rd, max_terms=max_terms)
    assert len(terms) == (max_terms or support_size(q))
    for s, _value in terms:
        _assert_built_alike(s, RSupport(s.n))


def test_term_table_walks_the_box_lazily(monkeypatch):
    # E8 at c = 1/10 has 5^120 admissible supports; only the first five are built.
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
