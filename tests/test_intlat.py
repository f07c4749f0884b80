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
    member,
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
    assert not member([1], q_lat)
    assert member([2], q_lat)


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
