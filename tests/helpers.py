"""Shared brute-force oracles for the test suite.

These deliberately avoid the code paths they check: group structure is read
off from element-order profiles over enumerated cosets, and congruence
solutions are counted by direct enumeration.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import lcm, prod
from typing import Sequence

from qcenters.intlat import Lattice


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
