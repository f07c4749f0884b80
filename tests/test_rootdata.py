import itertools
import random
from fractions import Fraction
from math import lcm, prod
from types import SimpleNamespace

import pytest

from helpers import (
    bareiss_inverse,
    column_walk_positive_roots,
    count_calls,
    killing_pairing,
    rational_inverse,
    weyl_reflect,
    word_walk_positive_roots,
)
from qcenters import rootdata
from qcenters.intlat import Lattice, index
from qcenters.rootdata import (
    DynkinType,
    InvariantViolation,
    Root,
    RootDatumError,
    Weight,
    build_root_datum,
    two_rho,
)

ALL_SMALL_TYPES = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4",
    "F4", "G2",
    "A1xA1", "A1xB2", "A2xA2",
]


def test_dynkin_parsing_and_bounds():
    assert str(DynkinType.parse("A2xB3")) == "A2xB3"
    assert DynkinType.parse("A1").rank == 1
    for bad in ["B1", "C1", "D2", "E5", "E9", "F3", "G3", "H2", ""]:
        with pytest.raises(RootDatumError):
            DynkinType.parse(bad)


def test_a1_simply_connected_normalization():
    rd = build_root_datum("A1", "sc")
    assert rd.charlattice == Lattice.standard(1)  # X = P = Z omega
    assert rd.simple_roots == ((2,),)  # alpha = 2 omega
    assert rd.killing == ((Fraction(1, 2),),)  # (omega, omega) = 1/2


def test_a2_adjoint_center_index():
    rd = build_root_datum("A2", "adjoint")
    assert index(rd.charlattice, rd.weight_lattice()) == 3


def test_g2_lacing_and_symmetrizers():
    rd = build_root_datum("G2", "sc")
    assert rd.lacing == 3
    assert rd.d == (1, 3)
    for i in range(2):
        for j in range(2):
            assert rd.d[i] * rd.cartan[i][j] == rd.d[j] * rd.cartan[j][i]


def test_positive_root_enumeration_a2():
    rd = build_root_datum("A2", "sc")
    assert rd.w0_word == (0, 1, 0)
    assert [r.root_coords for r in rd.pos_roots] == [(0, 1), (1, 1), (1, 0)]


def test_positive_root_enumeration_small():
    assert [r.root_coords for r in build_root_datum("A1").pos_roots] == [(1,)]
    b2 = build_root_datum("B2")
    assert len(b2.pos_roots) == 4
    assert sorted(r.height for r in b2.pos_roots) == [1, 1, 2, 3]


def test_longest_word_lengths():
    assert len(build_root_datum("A1").w0_word) == 1
    assert len(build_root_datum("A2").w0_word) == 3
    assert len(build_root_datum("G2").w0_word) == 6
    assert len(build_root_datum("F4").w0_word) == 24


def test_weyl_reflect_examples():
    a1 = build_root_datum("A1")
    omega = a1.fundamental_weight(0)
    assert weyl_reflect(a1, 0, omega) == -omega

    a2 = build_root_datum("A2")
    assert weyl_reflect(a2, 0, a2.simple_root(0)) == -a2.simple_root(0)
    assert weyl_reflect(a2, 0, a2.simple_root(1)) == a2.simple_root(0) + a2.simple_root(1)

    with pytest.raises(RootDatumError):
        weyl_reflect(a1, 1, omega)


def test_two_rho_examples():
    assert two_rho(build_root_datum("A1")).coords == (Fraction(2),)
    assert two_rho(build_root_datum("A2")).coords == (Fraction(2), Fraction(2))
    assert two_rho(build_root_datum("B2")).coords == (Fraction(2), Fraction(2))


def test_two_rho_sums_columns_and_checks_the_sum(monkeypatch):
    # The fw coordinates are summed as integers, with no Weight per root; a
    # root set that does not sum to 2 rho still raises.
    rd = build_root_datum("A12", "sc")
    made = count_calls(monkeypatch, rootdata.Weight, "of")
    assert two_rho(rd) == rootdata.Weight((2,) * 12) and made == [0]
    with pytest.raises(InvariantViolation, match="2\\*rho"):
        two_rho(SimpleNamespace(rank=rd.rank, pos_roots=rd.pos_roots[:-1]))


@pytest.mark.parametrize("type_str", ALL_SMALL_TYPES)
def test_build_validates_all_small_types(type_str):
    # Construction runs the w0-vs-orbit cross-check and chamber checks itself.
    for lattice in ("sc", "adjoint"):
        rd = build_root_datum(type_str, lattice)
        assert len(rd.pos_roots) == len(rd.w0_word)
        assert len({r.root_coords for r in rd.pos_roots}) == len(rd.pos_roots)


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2", "A1xB2"])
def test_reflections_preserve_killing_form(type_str):
    rd = build_root_datum(type_str, "sc")
    rng = random.Random(7)
    for _ in range(25):
        lam = Weight.of([rng.randint(-4, 4) for _ in range(rd.rank)])
        mu = Weight.of([rng.randint(-4, 4) for _ in range(rd.rank)])
        for i in range(rd.rank):
            reflected = killing_pairing(rd, weyl_reflect(rd, i, lam), weyl_reflect(rd, i, mu))
            assert reflected == killing_pairing(rd, lam, mu)


@pytest.mark.parametrize("type_str", ["A2", "B3", "C3", "G2", "F4"])
def test_weight_root_pairings_divisible(type_str):
    rd = build_root_datum(type_str, "sc")
    rng = random.Random(11)
    for root in rd.pos_roots:
        gamma = Weight.of(root.fw_coords)
        for _ in range(10):
            lam = Weight.of([rng.randint(-3, 3) for _ in range(rd.rank)])
            value = killing_pairing(rd, lam, gamma)
            assert value % root.d == 0


def test_killing_matches_symmetrizers():
    for type_str in ["A3", "B3", "C3", "G2", "F4"]:
        rd = build_root_datum(type_str)
        for i in range(rd.rank):
            for j in range(rd.rank):
                assert killing_pairing(rd, rd.simple_root(i), rd.simple_root(j)) == rd.d[i] * rd.cartan[i][j]
            assert killing_pairing(rd, rd.simple_root(i), rd.fundamental_weight(i)) == rd.d[i]


def test_dynkin_type_must_be_a_string_or_dynkin_type():
    for dynkin in (5, ["A2"], None):
        with pytest.raises(RootDatumError, match="Dynkin type must be a string"):
            build_root_datum(dynkin)
    assert build_root_datum(DynkinType.parse("A2")).rank == 2


def test_lattice_spec_validation():
    with pytest.raises(RootDatumError):
        build_root_datum("A1", [[3]])  # does not contain Q = 2Z
    with pytest.raises(RootDatumError):
        build_root_datum("A2", [[1, 0]])  # rank defect
    with pytest.raises(RootDatumError):
        build_root_datum("A1", "weird")
    # Fractional generators are not in P.
    with pytest.raises((RootDatumError, ValueError)):
        build_root_datum("A1", [[Fraction(1, 2)]])
    rd = build_root_datum("A2", [[1, 1], [0, 3]])
    assert index(rd.charlattice, rd.weight_lattice()) == 3


def test_explicit_lattice_between_q_and_p():
    # X = Q + Z*(omega1) inside A3: a strictly intermediate lattice.
    a3 = build_root_datum("A3", "sc")
    rows = [list(r) for r in a3.root_lattice().gens] + [[0, 1, 0]]
    rd = build_root_datum("A3", rows)
    assert index(rd.charlattice, rd.weight_lattice()) == 2
    assert not rd.is_simply_connected() and not rd.is_adjoint()


# Every admissible almost-simple type of rank <= 8, then larger ranks and a product.
ORACLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A12", "A20", "B10", "C10", "D12", "A3xB2xG2"]
)
CARTAN_DETERMINANT = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4,
                      "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}


def _greedy_longest_word(rd):
    """Reflect rho at the lowest index with a positive coordinate until it is antidominant."""
    lam, word = Weight.of([1] * rd.rank), []
    while any(c > 0 for c in lam.coords):
        i = next(k for k, c in enumerate(lam.coords) if c > 0)
        lam = weyl_reflect(rd, i, lam)
        word.append(i)
    return tuple(word)


@pytest.mark.parametrize("type_str", ORACLE_TYPES)
def test_root_datum_matches_word_walk_and_fraction_oracles(type_str):
    rd = build_root_datum(type_str)
    assert rd.w0_word == _greedy_longest_word(rd)
    assert list(rd.pos_roots) == word_walk_positive_roots(rd)
    inv = rational_inverse(rd.cartan)
    assert [list(row) for row in rd.killing] == [[rd.d[i] * x for x in row] for i, row in enumerate(inv)]


@pytest.mark.parametrize("type_str", ORACLE_TYPES)
def test_bareiss_inverse_gives_det_and_adjugate(type_str):
    rd = build_root_datum(type_str)
    det, adj = bareiss_inverse(rd.cartan)
    assert det == prod(CARTAN_DETERMINANT[f](n) for f, n in rd.dynkin.factors)
    assert adj == [[det * x for x in row] for row in rational_inverse(rd.cartan)]


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def test_bareiss_inverse_on_random_integer_matrices():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        # B B^T + I is positive definite, so every leading principal minor is nonzero.
        m = [[sum(x * y for x, y in zip(r, s)) + (i == j) for j, s in enumerate(b)] for i, r in enumerate(b)]
        det, adj = bareiss_inverse(m)
        assert det == _leibniz_det(m)
        assert adj == [[det * x for x in row] for row in rational_inverse(m)]
    with pytest.raises(InvariantViolation, match="leading principal minor"):
        bareiss_inverse([[0, 1], [1, 0]])


def test_enumeration_column_updates_are_linear(monkeypatch):
    calls = count_calls(monkeypatch, rootdata, "_column_update")
    rd = build_root_datum("A30")
    valence = max(sum(1 for j, a in enumerate(row) if a and j != i) for i, row in enumerate(rd.cartan))
    assert len(rd.pos_roots) == 465
    assert calls[0] <= len(rd.pos_roots) * (valence + 1)


def _supports(m):
    return [[k for k, a in enumerate(row) if a] for row in m]


def _seeded_products(seed, count):
    rng = random.Random(seed)
    pool = [f"A{n}" for n in range(1, 7)] + [f"{f}{n}" for f in "BC" for n in range(2, 6)]
    pool += ["D4", "D5", "E6", "F4", "G2"]
    return ["x".join(rng.choice(pool) for _ in range(rng.randint(2, 3))) for _ in range(count)]


ORACLES_TO_RANK_40 = {
    "A": [f"A{n}" for n in range(1, 41)],
    "B": [f"B{n}" for n in range(2, 41)],
    "C": [f"C{n}" for n in range(2, 41)],
    "D": [f"D{n}" for n in range(3, 41)],
    "EFG": ["E6", "E7", "E8", "F4", "G2"],
    "products": _seeded_products(3, 12),
}


@pytest.mark.parametrize("family", list(ORACLES_TO_RANK_40))
def test_forest_elimination_and_walks_match_the_oracles_to_rank_40(family):
    # (det, adj) against dense Bareiss, (D, K) against the lowest common
    # denominator of the Fraction Killing matrix, the word against the greedy
    # descent and the roots against dense list columns, and, where the
    # quadratic re-reflection is affordable, against the word-walk oracle.
    for type_str in ORACLES_TO_RANK_40[family]:
        rd = build_root_datum(type_str)
        cartan = [list(row) for row in rd.cartan]
        assert rootdata._forest_adjugate(cartan, _supports(cartan)) == bareiss_inverse(cartan), type_str
        den = lcm(*(x.denominator for row in rd.killing for x in row))
        assert rd.killing_gram == (den, [[x.numerator * (den // x.denominator) for x in row] for row in rd.killing])
        assert rd.w0_word == _greedy_longest_word(rd), type_str
        assert list(rd.pos_roots) == column_walk_positive_roots(rd), type_str
        if rd.rank <= 12:
            assert list(rd.pos_roots) == word_walk_positive_roots(rd), type_str


def _corrupt(monkeypatch, name, corruption):
    """Route rootdata.<name> through corruption(original, *args)."""
    original = getattr(rootdata, name)
    monkeypatch.setattr(rootdata, name, lambda *args: corruption(original, *args))


@pytest.mark.parametrize("type_str", ["A3", "G2", "D4xA1"])
def test_a_word_missing_its_last_letter_has_the_wrong_length(monkeypatch, type_str):
    _corrupt(monkeypatch, "_longest_word", lambda f, *args: f(*args)[:-1])
    with pytest.raises(InvariantViolation, match="^longest word has wrong length$"):
        build_root_datum(type_str)


def test_a_dropped_neighbour_fails_the_chamber_check(monkeypatch):
    # Without its neighbour 1, node 0 of G2 still descends in |Phi+| = 6
    # steps, to an antidominant weight other than -rho.
    def drop(f, cartan, support):
        support[0].remove(1)
        return f(cartan, support)

    _corrupt(monkeypatch, "_longest_word", drop)
    with pytest.raises(InvariantViolation, match="^longest word does not reach the antidominant chamber$"):
        build_root_datum("G2")


@pytest.mark.parametrize("type_str", ["A3", "B3", "C3", "D4", "F4", "G2", "E6", "A1xA2"])
def test_no_dropped_neighbour_goes_unnoticed(monkeypatch, type_str):
    cartan = build_root_datum(type_str).cartan
    edges = [(i, j) for i, row in enumerate(cartan) for j, a in enumerate(row) if a and i != j]
    for i, j in edges:
        def drop(f, cartan, support, i=i, j=j):
            support[i].remove(j)
            return f(cartan, support)

        _corrupt(monkeypatch, "_longest_word", drop)
        with pytest.raises(InvariantViolation):
            build_root_datum(type_str)
        monkeypatch.undo()


@pytest.mark.parametrize(
    "type_str, entries, message",
    [
        ("A3", [(0, 1)], "Killing matrix is not symmetric"),
        ("B3", [(2, 2)], "Killing normalization check failed"),
        ("A1xA2", [(0, 1), (1, 0)], "cross-factor Killing pairing must vanish"),
    ],
)
def test_a_perturbed_adjugate_fails_its_killing_check(monkeypatch, type_str, entries, message):
    def perturb(f, *args):
        det, adj = f(*args)
        for i, j in entries:
            adj[i][j] += 1
        return det, adj

    _corrupt(monkeypatch, "_forest_adjugate", perturb)
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        build_root_datum(type_str)


@pytest.mark.parametrize("corruption", ["shifted", "repeated"])
def test_a_corrupted_root_fails_the_orbit_cross_check(monkeypatch, corruption):
    def corrupt(f, *args):
        roots = f(*args)
        r = roots[0]
        if corruption == "shifted":
            roots[0] = Root(tuple(c + (k == 0) for k, c in enumerate(r.root_coords)), r.fw_coords, r.height, r.factor, r.d)
        else:
            roots[1] = r
        return roots

    _corrupt(monkeypatch, "_enumerate_positive_roots", corrupt)
    with pytest.raises(InvariantViolation, match="^longest-word enumeration disagrees with orbit closure$"):
        build_root_datum("B3")


@pytest.mark.parametrize("m", [[[0, -1], [-1, 0]], [[1, -1], [-1, 1]], [[2, -1, 0], [-1, 2, -2], [0, -2, 2]]])
def test_forest_elimination_stops_at_a_vanishing_minor(m):
    with pytest.raises(InvariantViolation, match="^Cartan matrix has a vanishing leading principal minor$"):
        rootdata._forest_adjugate(m, _supports(m))


@pytest.mark.parametrize(
    "type_str, corrupt, message",
    [
        ("A2", lambda a, d: a[0].__setitem__(1, 1), "off-diagonal Cartan entries must be <= 0"),
        ("B2", lambda a, d: d.reverse(), "Cartan matrix is not symmetrized by d"),
    ],
)
def test_a_corrupted_cartan_matrix_is_an_internal_fault(monkeypatch, type_str, corrupt, message):
    def assemble(f, dynkin):
        cartan, d, factor_of_index = f(dynkin)
        corrupt(cartan, d)
        return cartan, d, factor_of_index

    _corrupt(monkeypatch, "assemble_cartan", assemble)
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        build_root_datum(type_str)


@pytest.mark.parametrize("type_str", ["A2", "A3", "B3", "C4", "D4", "A1xA3"])
def test_a_lattice_argument_is_read_by_the_lattice_it_spans(type_str):
    # A Lattice whose rows are not in HNF (a unimodular mix of the rows of
    # sc, adjoint or an intermediate lattice) gives the datum and the report
    # bytes of the lattice it spans.
    from qcenters.qparam import make_param
    from qcenters.report import build_report, to_json
    from qcenters.sampling import _random_intermediate

    rng = random.Random(type_str)
    sc = build_root_datum(type_str)
    r = sc.rank
    for spec in ("sc", "adjoint", _random_intermediate(rng, sc.dynkin)):
        rd = build_root_datum(type_str, spec)
        rows = [list(row) for row in rd.charlattice.gens]
        for _ in range(3):
            i, j = rng.sample(range(r), 2)
            k = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            rng.shuffle(rows)
        mixed = Lattice(r, tuple(map(tuple, rows)))
        assert mixed != rd.charlattice and build_root_datum(type_str, mixed) == rd
        c = [Fraction(1, 6 + k) for k in range(len(rd.dynkin.factors))]
        reports = [to_json(build_report(d, make_param(d, c), {})) for d in (rd, build_root_datum(type_str, mixed))]
        assert reports[0] == reports[1]


def test_a2_lattices_spanning_p_are_simply_connected():
    from qcenters.report import Analysis
    from qcenters.qparam import make_param

    for rows in (((1, 1), (0, 1)), ((0, 1), (1, 0))):
        rd = build_root_datum("A2", Lattice(2, rows))
        assert rd == build_root_datum("A2", "sc")
        a = Analysis(rd, make_param(rd, Fraction(1, 6)))
        assert rd.is_simply_connected() and a.verdicts.modular
    with pytest.raises(RootDatumError, match="^character lattice has wrong ambient rank$"):
        build_root_datum("A2", Lattice(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
