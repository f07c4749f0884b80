import ast
import itertools
import random
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import (
    coset_order_profile,
    exact_congruence_kernel,
    profile_of_factors,
    rational_coords,
    solution_count_bruteforce,
)
import qcenters
from qcenters.intlat import (
    FiniteAbelianGroup,
    Lattice,
    LatticeError,
    annihilator,
    congruence_kernel,
    hnf,
    index,
    intersect,
    left_kernel,
    quotient,
    smith_normal_form,
    snf,
)

small_matrix = st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=4)
)


def test_hnf_canonical_examples():
    assert hnf([[2, 0], [0, 2]]).gens == ((2, 0), (0, 2))
    # Two spanning sets of the same index-2 sublattice get the same form.
    a = hnf([[1, 1], [0, 2]])
    b = hnf([[1, -1], [0, 2]])
    assert a == b
    assert a.contains_lattice(b) and b.contains_lattice(a)
    assert hnf([[0, 0]], 2).gens == ()


@given(small_matrix)
@settings(max_examples=60)
def test_hnf_idempotent(m):
    lat = hnf(m, len(m[0]))
    again = hnf(lat.rows() or [[0] * len(m[0])], len(m[0]))
    assert again == lat


@given(small_matrix)
@settings(max_examples=60)
def test_hnf_preserves_span(m):
    lat = hnf(m, len(m[0]))
    for row in m:
        assert lat.member(row)


def test_snf_examples():
    g, _u, _v, diag = snf([[2, 0], [0, 6]])
    assert diag == [2, 6]
    assert g.invariant_factors == (2, 6)

    g, _u, _v, diag = snf([[2, 1], [1, 2]])
    assert diag == [1, 3]
    assert g.invariant_factors == (3,)

    # Cartan matrix of A2: cokernel of the root lattice inside the weight
    # lattice is the center Z/3 of SL(3).
    g, _u, _v, _diag = snf([[2, -1], [-1, 2]])
    assert g.invariant_factors == (3,)


@given(small_matrix)
@settings(max_examples=60)
def test_snf_transforms_exact(m):
    d, u, v = smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    prod_um = [[sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    prod_umv = [[sum(prod_um[i][k] * v[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
    assert prod_umv == d
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_index_examples():
    assert index(hnf([[2, 0], [0, 2]]), Lattice.standard(2)) == 4
    # A1 with l = 2: [P : lQ] = [P : Q] * [Q : lQ] = 2 * 2.
    p = Lattice.standard(1)
    lq = hnf([[4]])
    assert index(lq, p) == 4
    assert index(hnf([[1, 0]], 2), Lattice.standard(2)) is None


def test_index_rejects_non_inclusion():
    with pytest.raises(LatticeError):
        index(hnf([[3]]), hnf([[2]]))


def test_congruence_kernel_examples():
    assert congruence_kernel([([1], 2)], 1).gens == ((2,),)
    lat = congruence_kernel([([1, 1], 3)], 2)
    assert index(lat, Lattice.standard(2)) == 3
    assert congruence_kernel([], 2) == Lattice.standard(2)


@pytest.mark.parametrize("seed", range(8))
def test_congruence_kernel_against_bruteforce(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(1, 3)):
        modulus = rng.choice([1, 2, 3, 4, 6, 12])
        rows.append(([rng.randint(-3, 3) for _ in range(rank)], modulus))
    lat = congruence_kernel(rows, rank)
    for gen in lat.gens:
        for c, n in rows:
            assert sum(ci * xi for ci, xi in zip(c, gen)) % n == 0
    expected = solution_count_bruteforce(rows, rank)
    big = lcm(*(n for _c, n in rows))
    idx = index(lat, Lattice.standard(rank))
    assert idx is not None
    # Index counts cosets of the kernel; solutions mod big fill big^rank/idx.
    assert big**rank // idx == expected


def _random_kernel_matrix(rng: random.Random) -> list[list[int]]:
    """Up to 3x3 with small entries; one column may be zeroed and one row
    made a multiple of another, so zero columns and rank defects occur."""
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.4:
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    if rows > 1 and rng.random() < 0.4:
        i, k = rng.sample(range(rows), 2)
        m[i] = [rng.choice([-2, 0, 1, 3]) * x for x in m[k]]
    return m


def _kills(x, m, n):
    """Whether x . m = 0 mod n, or exactly when n = 0."""
    products = (sum(a * row[j] for a, row in zip(x, m)) for j in range(len(m[0])))
    return all((p % n if n else p) == 0 for p in products)


@pytest.mark.parametrize("seed", range(40))
def test_left_kernel_against_enumeration_mod_n(seed):
    rng = random.Random(f"left-kernel:{seed}")
    m, n = _random_kernel_matrix(rng), rng.randint(2, 12)
    kernel = left_kernel(m, n)
    assert all(_kills(row, m, n) for row in kernel)
    lat = hnf(kernel, len(m))
    # The solutions are invariant under n Z^rows, so one box of residues
    # decides the lattice.
    for x in itertools.product(range(n), repeat=len(m)):
        assert lat.member(x) == _kills(x, m, n), (m, n, x)


@pytest.mark.parametrize("seed", range(40))
def test_left_kernel_exact_case(seed):
    rng = random.Random(f"left-kernel-exact:{seed}")
    m = _random_kernel_matrix(rng)
    kernel = left_kernel(m)
    assert all(_kills(row, m, 0) for row in kernel)
    lat = hnf(kernel, len(m))
    for x in itertools.product(range(-4, 5), repeat=len(m)):
        if _kills(x, m, 0):
            assert lat.member(x), (m, x)


def test_left_kernel_examples():
    assert left_kernel([[0, 0]], 6) == [[1]]
    assert hnf(left_kernel([[2], [3]]), 2) == hnf([[3, -2]])
    assert left_kernel([[1, 0], [0, 1]]) == []
    assert hnf(left_kernel([[4]], 6), 1) == hnf([[3]])


def test_intersect_lower_rank_examples():
    assert intersect(hnf([[1, 0]]), hnf([[0, 1]])).gens == ()
    assert intersect(hnf([[1, 2]]), hnf([[2, 1]])).gens == ()
    assert intersect(hnf([[2, 2]]), hnf([[3, 3]])) == hnf([[6, 6]])
    # A rank-2 and a rank-2 lattice in Z^3 whose spans meet in a line.
    plane = hnf([[2, 0, 0], [0, 3, 0]])
    other = hnf([[1, 1, 0], [0, 0, 1]])
    meet = intersect(plane, other)
    assert meet == hnf([[6, 6, 0]])
    # A rank-1 and a rank-3 lattice: the line's multiples that land inside.
    line = hnf([[1, 2, 3]])
    full = hnf([[2, 0, 0], [0, 4, 0], [0, 0, 9]])
    assert intersect(line, full) == hnf([[6, 12, 18]])
    for a, b in ((plane, other), (line, full)):
        c = intersect(a, b)
        for x in itertools.product(range(-6, 7), repeat=3):
            assert c.member(x) == (a.member(x) and b.member(x))


@pytest.mark.parametrize("seed", range(12))
def test_index_of_equal_rank_below_ambient_rank(seed):
    rng = random.Random(f"index-low-rank:{seed}")
    ambient, rank = rng.randint(2, 4), 0
    while rank == 0:
        gens = [[rng.randint(-5, 5) for _ in range(ambient)] for _ in range(rng.randint(1, ambient - 1))]
        super_ = hnf(gens, ambient)
        rank = super_.rank
    mix = [[0]]
    while _det(mix) == 0:
        mix = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
    sub = hnf([super_.vector_from_coords(row) for row in mix], ambient)
    coords = [super_.coords_of(g) for g in sub.gens]
    assert sub.rank == rank < ambient
    assert index(sub, super_) == abs(_det(coords)) == abs(_det(mix))


def test_intersect_quotient_member_examples():
    assert intersect(hnf([[2, 0], [0, 2]]), hnf([[3, 0], [0, 3]])) == hnf([[6, 0], [0, 6]])

    # A1, l = 3, X = P: P / 3Q is cyclic of order 6.
    p = Lattice.standard(1)
    three_q = hnf([[6]])
    group = quotient(three_q, p)
    assert group.invariant_factors == (6,)
    assert coset_order_profile(three_q, p) == profile_of_factors((6,))

    # omega is not in Q for A1.
    q_lat = hnf([[2]])
    assert not q_lat.member([1])
    assert q_lat.member([2])


def test_quotient_structure_bruteforce_oracle():
    sub = hnf([[2, 0], [0, 4]])
    group = quotient(sub, Lattice.standard(2))
    assert group.invariant_factors == (2, 4)
    assert coset_order_profile(sub, Lattice.standard(2)) == profile_of_factors((2, 4))


def test_quotient_rejects_non_inclusion_and_rank_defect():
    with pytest.raises(LatticeError):
        quotient(hnf([[3]]), hnf([[2]]))
    with pytest.raises(LatticeError):
        quotient(hnf([[1, 0]], 2), Lattice.standard(2))


@pytest.mark.parametrize("seed", range(6))
def test_index_multiplicative_on_chains(seed):
    rng = random.Random(100 + seed)
    c = Lattice.standard(2)
    b = hnf([[rng.randint(1, 4), rng.randint(0, 3)], [0, rng.randint(1, 4)]])
    scales = [rng.choice([1, 2, 3]) for _ in b.gens]
    a = hnf([[x * k for x in row] for row, k in zip(b.rows(), scales)])
    assert index(a, b) * index(b, c) == index(a, c)


def test_invariant_factor_validation():
    with pytest.raises(LatticeError):
        FiniteAbelianGroup((1,))
    with pytest.raises(LatticeError):
        FiniteAbelianGroup((4, 6))
    assert FiniteAbelianGroup((2, 6)).order == 12
    assert FiniteAbelianGroup(()).order == 1


def test_non_integer_entries_rejected():
    with pytest.raises(LatticeError):
        hnf([[Fraction(1, 2)]], 1)


def test_coords_of_rejects_a_non_integer_vector():
    lat = hnf([[2, 4], [0, 6]])
    with pytest.raises(LatticeError):
        lat.member([Fraction(5, 2), 4])
    with pytest.raises(LatticeError):
        lat.coords_of([2.5, 4])
    for bad in (1.5, Fraction(1, 2)):
        with pytest.raises(LatticeError, match=re.escape(f"non-integer vector {[bad, 4]!r}")):
            lat.coords_of([bad, 4])
    for two in (Fraction(2), 2.0, 2):
        assert lat.coords_of([two, 4]) == [1, 0]
    assert Lattice.standard(2).coords_of([True, 3]) == [1, 3]


def test_vector_from_coords_rejects_a_non_integer_or_misfit_coordinate_vector():
    lat = hnf([[2, 4], [0, 6]])
    with pytest.raises(LatticeError):
        lat.vector_from_coords([Fraction(1, 2), 0])
    assert lat.vector_from_coords([Fraction(1), 0]) == [2, 4]
    for coords in ([1], [1, 1, 7]):
        with pytest.raises(LatticeError):
            lat.vector_from_coords(coords)


def test_congruence_kernel_rejects_non_integer_constraints():
    with pytest.raises(LatticeError):
        congruence_kernel([([Fraction(1, 2), 1], 2)], 2)
    with pytest.raises(LatticeError):
        congruence_kernel([([1, 1], Fraction(5, 2))], 2)
    assert congruence_kernel([([Fraction(2), 1], Fraction(4))], 2) == congruence_kernel([([2, 1], 4)], 2)


def _off_diagonal_lattice(rng: random.Random) -> Lattice:
    """A lattice in Z^r of rank < r whose HNF has a pivot right of the
    diagonal: the generators are echelon rows on a random set of pivot
    columns other than 0..k-1, mixed by elementary row operations."""
    r = rng.randint(2, 6)
    k = rng.randint(1, r - 1)
    cols = sorted(rng.sample(range(r), k))
    while cols == list(range(k)):
        cols = sorted(rng.sample(range(r), k))
    rows = [[0] * c + [rng.choice([1, 2, 3, 4, -2])] + [rng.randint(-5, 5) for _ in range(r - c - 1)] for c in cols]
    for _ in range(k):
        i, j = rng.randrange(k), rng.randrange(k)
        sign = rng.choice([-1, 1])
        if i != j:
            rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    return hnf(rows, r)


@pytest.mark.parametrize("seed", range(30))
def test_coords_of_against_rational_coordinates(seed):
    rng = random.Random(f"coords-of:{seed}")
    lat = _off_diagonal_lattice(rng)
    r, gens = lat.ambient_rank, lat.rows()
    assert lat.rank < r and lat.pivots != tuple(range(lat.rank))
    assert lat.pivots == tuple(next(j for j, x in enumerate(g) if x) for g in gens)
    seen = set()
    for _ in range(40):
        kind = rng.randrange(3)
        if kind == 0:  # a member, with some coordinates zero
            coords = [rng.choice([0, 0, rng.randint(-6, 6)]) for _ in gens]
            x = [sum(c * g[j] for c, g in zip(coords, gens)) for j in range(r)]
            assert lat.vector_from_coords(coords) == x
        elif kind == 1:  # in the rational span: half-integer coordinates
            coords = [Fraction(rng.randint(-9, 9), 2) for _ in gens]
            x = [sum(c * g[j] for c, g in zip(coords, gens)) for j in range(r)]
            if any(v.denominator != 1 for v in x):
                continue
            x = [int(v) for v in x]
        else:  # almost always outside the rational span
            x = [rng.randint(-8, 8) for _ in range(r)]
        expected = rational_coords(gens, x)
        if expected is not None and any(c.denominator != 1 for c in expected):
            expected = None
        got = lat.coords_of(x)
        assert got == expected, (gens, x)
        assert lat.member(x) == (expected is not None)
        seen.add((kind, got is None))
    assert (0, False) in seen and (2, True) in seen
    with pytest.raises(LatticeError):
        lat.coords_of([0] * (r + 1))
    with pytest.raises(LatticeError):
        lat.coords_of([0] * (r - 1))



def _random_lattice(rng: random.Random, r: int) -> Lattice:
    """The HNF of one to r random rows in Z^r, of any rank up to r."""
    return hnf([[rng.randint(-6, 6) for _ in range(r)] for _ in range(rng.randint(1, r))], r)


def _combinations(rng: random.Random, lat: Lattice, count: int) -> list[list[int]]:
    return [lat.vector_from_coords([rng.randint(-4, 4) for _ in lat.gens]) for _ in range(count)]


@pytest.mark.parametrize("seed", range(40))
def test_first_outside_and_coords_rows_read_coords_of(seed):
    rng = random.Random(f"membership-rows:{seed}")
    r = rng.randint(1, 4)
    lat = _random_lattice(rng, r)
    members = _combinations(rng, lat, rng.randint(0, 4))
    err = LookupError("outside")
    for vs in (members, members + [[rng.randint(-8, 8) for _ in range(r)] for _ in range(3)]):
        rng.shuffle(vs)
        coords = [lat.coords_of(v) for v in vs]
        outside = [v for v, c in zip(vs, coords) if c is None]
        assert lat.first_outside(vs) is (outside[0] if outside else None)
        assert lat.first_outside(iter(vs)) is (outside[0] if outside else None)
        if outside:
            with pytest.raises(LookupError) as raised:
                lat.coords_rows(vs, err)
            assert raised.value is err
        else:
            assert lat.coords_rows(vs, err) == coords
    assert lat.first_outside([]) is None and lat.coords_rows([], err) == []


@pytest.mark.parametrize("seed", range(40))
def test_contains_lattice_is_no_generator_outside(seed):
    rng = random.Random(f"contains-lattice:{seed}")
    r = rng.randint(1, 4)
    a = _random_lattice(rng, r)
    inside = hnf(_combinations(rng, a, rng.randint(1, 3)), r)  # a sublattice of a
    for b in (inside, _random_lattice(rng, r), a):
        assert a.contains_lattice(b) == (a.first_outside(b.gens) is None)
    assert a.contains_lattice(inside) and a.contains_lattice(a)

def test_equal_lattices_hash_equal_with_or_without_cached_pivots():
    a = hnf([[0, 2, 4], [0, 0, 6]], 3)
    b = hnf([[0, 2, -2], [0, 2, 4]], 3)
    assert a.pivots == (1, 2)
    # Each row's flag: zero right of its pivot, so back-substitution
    # touches its pivot entry alone.
    assert a._back_substitution == (((0, 2, 4), 1, False), ((0, 0, 6), 2, True))
    assert {"pivots", "_back_substitution"} <= set(vars(a))
    assert "pivots" not in vars(b) and "_back_substitution" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert {a: "cut"}[b] == "cut"
    assert b.pivots == (1, 2) and a == b and hash(a) == hash(b)


def _random_int_matrix(rng: random.Random) -> list[list[int]]:
    """Up to 6x6, from three families: dense entries; products through a
    narrower middle dimension, which are rank-deficient; and a diagonal of
    small entries (zeros included, divisibility not arranged) scrambled by
    elementary row and column operations, whose Smith form needs the
    divisibility repair."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    family = rng.randrange(3)
    if family == 0:
        return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if family == 1:
        k = rng.randint(0, min(rows, cols) - 1)
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
        b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
        return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
    m = [[rng.randint(0, 6) if i == j else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(2 * (rows + cols)):
        c = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5 and rows > 1:
            i, j = rng.sample(range(rows), 2)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif cols > 1:
            i, j = rng.sample(range(cols), 2)
            for row in m:
                row[i] += c * row[j]
    return m


@pytest.mark.parametrize("seed", range(50))
def test_normal_forms_match_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = _random_int_matrix(random.Random(f"normal-forms:{seed}"))
    rows, cols = len(m), len(m[0])
    d, _u, _v = smith_normal_form(m)
    expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
    assert [d[i][i] for i in range(min(rows, cols))] == [abs(expected[i, i]) for i in range(min(rows, cols))]

    lat = hnf(m, cols)
    assert lat.rank == sympy.Matrix(m).rank()
    assert _sympy_row_lattice([list(g) for g in lat.gens]) == _sympy_row_lattice(m)


def _sympy_row_lattice(gens):
    """sympy's canonical form of the row lattice of gens.  sympy's form is
    column-style, so the row lattice of gens is the column lattice of its
    transpose."""
    if not gens:
        return ()
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    h = hermite_normal_form(sympy.Matrix(gens).T)
    return tuple(tuple(int(x) for x in h.col(j)) for j in range(h.cols))


def _random_constraints(rng: random.Random) -> tuple[list[tuple[list[int], int]], int]:
    """Up to 6 variables and 5 constraints; a variable may be left out of every
    constraint and a constraint may be all zero."""
    rank = rng.randint(1, 6)
    rows = [
        ([rng.randint(-20, 20) for _ in range(rank)], rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 36, 60]))
        for _ in range(rng.randint(1, 5))
    ]
    if rng.random() < 0.3:
        j = rng.randrange(rank)
        for c, _n in rows:
            c[j] = 0
    if rng.random() < 0.2:
        rows[0] = ([0] * rank, rows[0][1])
    return rows, rank


KERNEL_EDGE_CASES = {
    "all-moduli-1": ([([1, 2, 3], 1), ([0, 5, 1], 1)], 3),
    "one-constraint": ([([2, 3], 5)], 2),
    "prime-modulus": ([([1, 4, 2], 7), ([3, 0, 5], 7)], 3),
    "zero-columns": ([([0, 1, 0], 4), ([0, 2, 0], 6)], 3),
    "zero-constraint": ([([0, 0], 6)], 2),
}


@pytest.mark.parametrize(
    "rows, rank",
    list(KERNEL_EDGE_CASES.values()) + [_random_constraints(random.Random(f"hnf-mod:{s}")) for s in range(60)],
    ids=list(KERNEL_EDGE_CASES) + [f"seed{s}" for s in range(60)],
)
def test_congruence_kernel_matches_the_exact_route(rows, rank):
    lat = congruence_kernel(rows, rank)
    assert lat == exact_congruence_kernel(rows, rank)
    big = lcm(*(n for _c, n in rows))
    assert all(0 <= x <= big for g in lat.gens for x in g)
    assert lat.pivots == tuple(range(rank))
    # sympy's opinion on the lattice the constraints cut, from the Smith-form
    # kernel rows and big * Z^rank, with none of intlat's HNF code.
    m = [[c[i] * (big // n) for c, n in rows] for i in range(rank)]
    gens = left_kernel(m, big) + [[big * (i == j) for j in range(rank)] for i in range(rank)]
    assert _sympy_row_lattice([list(g) for g in lat.gens]) == _sympy_row_lattice(gens)


# Differential tests of the report path's lattice kernels: the annihilator
# cut finished on the ambient's pivots, quotient's transform-free Smith
# invariants, and coords_of's pivot-only rows and integer type check.

ambient_lattices = st.integers(1, 5).flatmap(
    lambda r: st.lists(st.lists(st.integers(-6, 6), min_size=r, max_size=r), min_size=1, max_size=r).map(
        lambda rows: hnf(rows, r)
    )
)


@st.composite
def cuts(draw):
    """(ambient, n, m): an ambient HNF lattice of full or deficient rank, a
    modulus 1-60 and constraints with one row per ambient generator, the
    first constraint column all zero when drawn so."""
    ambient = draw(ambient_lattices)
    n = draw(st.integers(1, 60))
    width = draw(st.integers(1, 4))
    m = [draw(st.lists(st.integers(-60, 60), min_size=width, max_size=width)) for _ in ambient.gens]
    if draw(st.booleans()):
        for row in m:
            row[0] = 0
    return ambient, n, m


@seed(25)
@settings(max_examples=200, deadline=None)
@given(cuts())
def test_annihilator_equals_the_hnf_of_its_generators(cut):
    ambient, n, m = cut
    got = annihilator(ambient, n, m)
    # The generators of the cut: ambient vectors of the kernel rows mod n,
    # from the Smith-form route and from the cut of Z^r, whose rows are the
    # coordinate rows, each normalized by hnf.  So the finish on the
    # ambient's pivots is checked against a fresh hnf.
    coordinate_rows = annihilator(Lattice.standard(len(m)), n, m).gens
    for kernel in (left_kernel(m, n), coordinate_rows):
        assert got == hnf([ambient.vector_from_coords(x) for x in kernel], ambient.ambient_rank)
    assert got.rank == ambient.rank and ambient.contains_lattice(got)


def test_annihilator_on_edge_cases():
    ambient = hnf([[0, 2, 4], [0, 0, 6]], 3)
    assert annihilator(ambient, 7, [[0], [0]]) == ambient
    assert annihilator(ambient, 1, [[5], [3]]) == ambient
    assert annihilator(ambient, 4, [[1], [0]]) == hnf([[0, 8, 16], [0, 0, 6]], 3)
    assert annihilator(hnf([[0, 0]], 2), 5, []) == hnf([[0, 0]], 2)


@st.composite
def sublattice_pairs(draw):
    """(sub, super): super of full or deficient rank, sub spanned by the
    rows of T . super.gens for a random nonsingular integer T."""
    sup = draw(ambient_lattices)
    k = sup.rank
    while True:
        t = [draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k)) for _ in range(k)]
        sub = hnf([sup.vector_from_coords(row) for row in t], sup.ambient_rank)
        if sub.rank == k:
            return sub, sup


@seed(25)
@settings(max_examples=200, deadline=None)
@given(sublattice_pairs())
def test_quotient_invariant_factors_equal_snf(pair):
    sub, sup = pair
    coords = [sup.coords_of(g) for g in sub.gens]
    group, _u, _v, _diag = snf(coords)
    assert quotient(sub, sup) == group
    assert quotient(sub, sup).order == index(sub, sup)


@st.composite
def mixed_lattices(draw):
    """An HNF lattice whose rows are a mix of pivot-only rows (zero right of
    the pivot) and dense rows, on random pivot columns."""
    r = draw(st.integers(1, 6))
    cols = sorted(draw(st.sets(st.integers(0, r - 1), min_size=1, max_size=r)))
    rows = []
    for c in cols:
        pivot = draw(st.integers(1, 5))
        width = r - c - 1
        dense = draw(st.lists(st.integers(-6, 6), min_size=width, max_size=width))
        tail = [0] * width if draw(st.booleans()) else dense
        rows.append([0] * c + [pivot] + tail)
    return hnf(rows, r)


@seed(25)
@settings(max_examples=200, deadline=None)
@given(mixed_lattices(), st.data())
def test_coords_of_with_pivot_only_rows_agrees_with_rational_coordinates(lat, data):
    r, gens = lat.ambient_rank, lat.rows()
    for (row, p, alone), g in zip(lat._back_substitution, gens):
        assert list(row) == g and p == next(j for j, x in enumerate(g) if x)
        assert alone == (not any(g[p + 1 :]))
    coords = data.draw(st.lists(st.integers(-6, 6), min_size=lat.rank, max_size=lat.rank))
    outside = data.draw(st.lists(st.integers(-8, 8), min_size=r, max_size=r))
    for x in (lat.vector_from_coords(coords), outside):
        expected = rational_coords(gens, x)
        if expected is not None and any(c.denominator != 1 for c in expected):
            expected = None
        assert lat.coords_of(x) == expected
    assert lat.coords_of(lat.vector_from_coords(coords)) == coords


def _conversion_path(lat, x):
    """coords_of as it reads a vector that is not all ints: every entry
    through int(), which must equal it."""
    x = list(x)
    rem = [int(v) for v in x]
    if rem != x:
        raise LatticeError(f"non-integer vector {x!r}")
    return lat.coords_of(rem)


entries = st.one_of(
    st.integers(-12, 12),
    st.integers(-12, 12).map(float),
    st.integers(-12, 12).map(Fraction),
    st.booleans(),
    st.sampled_from([1.5, -0.5, Fraction(1, 2), Fraction(-7, 3)]),
)


@seed(25)
@settings(max_examples=300, deadline=None)
@given(st.lists(entries, min_size=2, max_size=2))
def test_the_type_check_path_agrees_with_the_conversion_path(x):
    lat = hnf([[2, 4], [0, 6]])
    try:
        expected = _conversion_path(lat, x)
    except LatticeError as exc:
        with pytest.raises(LatticeError) as raised:
            lat.coords_of(x)
        assert str(raised.value) == str(exc)
    else:
        assert lat.coords_of(x) == expected


def test_no_module_imports_a_private_intlat_name():
    # intlat is the one lattice layer: the rest of the package reaches it
    # through its public names only.
    offenders = []
    for path in sorted(Path(qcenters.__file__).parent.glob("*.py")):
        if path.name == "intlat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "intlat":
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_no_module_imports_a_private_name_from_another_qcenters_module():
    # Each module reaches the others through their public names only.
    offenders = []
    for path in sorted(Path(qcenters.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "qcenters"):
                offenders += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []
