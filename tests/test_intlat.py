import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coset_order_profile, profile_of_factors, solution_count_bruteforce
from qcenters.intlat import (
    FiniteAbelianGroup,
    Lattice,
    LatticeError,
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
    assert index(Lattice.scaled(2, 2), Lattice.standard(2)) == 4
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
    from math import lcm

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
    assert intersect(Lattice.scaled(2, 2), Lattice.scaled(2, 3)) == Lattice.scaled(2, 6)

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
    from fractions import Fraction

    with pytest.raises(LatticeError):
        hnf([[Fraction(1, 2)]], 1)


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
    from sympy.matrices.normalforms import hermite_normal_form
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    m = _random_int_matrix(random.Random(f"normal-forms:{seed}"))
    rows, cols = len(m), len(m[0])
    d, _u, _v = smith_normal_form(m)
    expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
    assert [d[i][i] for i in range(min(rows, cols))] == [abs(expected[i, i]) for i in range(min(rows, cols))]

    # sympy's form is column-style, so the row lattice of m is the column
    # lattice of m^T; both sides are brought to sympy's canonical form.
    def sympy_row_lattice(gens):
        if not gens:
            return ()
        h = hermite_normal_form(sympy.Matrix(gens).T)
        return tuple(tuple(int(x) for x in h.col(j)) for j in range(h.cols))

    lat = hnf(m, cols)
    assert lat.rank == sympy.Matrix(m).rank()
    assert sympy_row_lattice([list(g) for g in lat.gens]) == sympy_row_lattice(m)
