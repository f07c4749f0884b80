"""Shared brute-force oracles for the test suite.

These deliberately avoid the code paths they check: group structure is read
off from element-order profiles over enumerated cosets, congruence
solutions are counted by direct enumeration, and the Q/Z-valued forms are
evaluated by Fraction and angle sums instead of integer Gram matrices.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from qcenters.angles import ZERO, AngleQZ
from qcenters.intlat import Lattice, congruence_kernel, hnf, snf
from qcenters.rootdata import _rational_inverse


def coset_order_profile(sub: Lattice, super_: Lattice, bound: int = 4096) -> Counter:
    """Multiset of element orders of super/sub, by enumerating coset reps.

    Enumerates coordinates modulo the HNF pivots of sub expressed on super's
    basis; the order profile determines a finite abelian group up to
    isomorphism.
    """
    coords = []
    for g in sub.gens:
        c = super_.coords_of(g)
        assert c is not None, "not a sublattice"
        coords.append(c)
    n = super_.rank
    # Diagonal bound per coordinate: lcm of pivot entries is a safe modulus.
    modulus = 1
    for row in coords:
        for x in row:
            if x:
                modulus = lcm(modulus, abs(x))
    reps = []
    seen = set()
    sub_in_super = Lattice.from_rows(coords, n)
    assert modulus**n <= bound, "quotient too large for brute force"
    for tup in itertools.product(range(modulus), repeat=n):
        red = tuple(_reduce_mod(sub_in_super, list(tup)))
        if red not in seen:
            seen.add(red)
            reps.append(red)
    profile = Counter()
    for rep in reps:
        order = 1
        current = rep
        while any(current):
            current = tuple(_reduce_mod(sub_in_super, [a + b for a, b in zip(current, rep)]))
            order += 1
        profile[order] += 1
    return profile


def _reduce_mod(lat: Lattice, vec: list[int]) -> list[int]:
    """Canonical representative of vec modulo the (full-rank) lattice."""
    rem = vec[:]
    for row in lat.gens:
        pcol = next(j for j, v in enumerate(row) if v != 0)
        c = rem[pcol] // row[pcol]
        rem = [a - c * b for a, b in zip(rem, row)]
    return rem


def profile_of_factors(factors: tuple[int, ...]) -> Counter:
    """Element-order profile of Z/d_1 x ... x Z/d_k."""
    profile = Counter()
    for tup in itertools.product(*(range(d) for d in factors)):
        order = 1
        for x, d in zip(tup, factors):
            if x:
                order = lcm(order, d // __import__("math").gcd(x, d))
        profile[order] += 1
    if not factors:
        profile[1] += 1
    return profile


def solution_count_bruteforce(rows: Sequence[tuple[Sequence[int], int]], rank: int) -> int:
    """Count solutions of the congruence system modulo lcm(moduli) by direct
    enumeration.  Independent oracle for congruence_kernel; small ranks only."""
    moduli = [int(n) for _c, n in rows]
    big = lcm(*moduli) if moduli else 1
    count = 0
    for x in itertools.product(range(big), repeat=rank):
        if all(sum(ci * xi for ci, xi in zip(c, x)) % n == 0 for c, n in rows):
            count += 1
    return count


def fraction_eval(q, lam: Sequence[int], mu: Sequence[int]) -> AngleQZ:
    """q(lam, mu) = sum_ij c_H(i) lam_i mu_j K_ij mod 1, summed over Fractions."""
    rd = q.rd
    total = Fraction(0)
    for i, a in enumerate(lam):
        for j, b in enumerate(mu):
            total += q.c[rd.factor_of_index[i]] * a * b * rd.killing[i][j]
    return AngleQZ.of(total)


def fraction_angle_gram(q, basis: Sequence[Sequence[int]]) -> list[list[AngleQZ]]:
    return [[fraction_eval(q, x, y) for y in basis] for x in basis]


def per_column_annihilator(ambient: Lattice, angles: Sequence[Sequence[AngleQZ]]) -> Lattice:
    """Angle kernel with one modulus per column: the lcm of that column's
    denominators."""
    n = len(ambient.gens)
    constraints = []
    for j in range(len(angles[0])):
        den = lcm(*(angles[k][j].den for k in range(n)))
        constraints.append(([angles[k][j].num * (den // angles[k][j].den) for k in range(n)], den))
    kernel = congruence_kernel(constraints, n)
    return hnf([ambient.vector_from_coords(row) for row in kernel.gens], ambient.ambient_rank)


def angle_sum_eval(form, x: Sequence[int], y: Sequence[int]) -> AngleQZ:
    """A BiformQZ on ambient vectors as a sum of scaled Gram angles."""
    cx = form.basis.coords_of(list(x))
    cy = form.basis.coords_of(list(y))
    assert cx is not None and cy is not None, "vector outside the form's domain"
    total = ZERO
    for i, a in enumerate(cx):
        for j, b in enumerate(cy):
            total = total + form.gram[i][j].scaled(a * b)
    return total


def _int_inverse(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, exactly."""
    inv = _rational_inverse([[Fraction(x) for x in row] for row in m])
    assert all(v.denominator == 1 for row in inv for v in row), "matrix is not unimodular"
    return [[int(v) for v in row] for row in inv]


def ambient_extend_psi_gram(kappa, x: Lattice) -> list[list[AngleQZ]]:
    """psi on the HNF basis of X from kappa evaluated on the ambient vectors
    d_i f_i of the Smith-adapted basis f = V^-1 b, re-expressed on b = V f."""
    coords = [x.coords_of(list(g)) for g in kappa.basis.gens]
    _group, _u, v, diag = snf(coords)
    r = x.rank
    v_inv = _int_inverse(v)
    f_rows = [[sum(v_inv[i][k] * x.gens[k][j] for k in range(r)) for j in range(x.ambient_rank)] for i in range(r)]
    adapted = []
    for i in range(r):
        row = []
        for j in range(r):
            value = angle_sum_eval(kappa, [diag[i] * c for c in f_rows[i]], [diag[j] * c for c in f_rows[j]])
            row.append(AngleQZ.of(Fraction(value.num, value.den * diag[i] * diag[j])))
        adapted.append(row)
    gram = []
    for k in range(r):
        row = []
        for m in range(r):
            total = ZERO
            for i in range(r):
                for j in range(r):
                    total = total + adapted[i][j].scaled(v[k][i] * v[m][j])
            row.append(total)
        gram.append(row)
    return gram
