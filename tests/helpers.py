"""Shared brute-force oracles for the test suite.

These deliberately avoid the code paths they check: group structure is read
off from element-order profiles over enumerated cosets, congruence
solutions are counted by direct enumeration, the Q/Z-valued forms are
evaluated by Fraction and angle sums instead of integer Gram matrices,
cyclotomic numbers are Fraction polynomials reduced by long division, with
the inverse from the extended Euclidean algorithm, and R-matrix coefficients
are evaluated term by term, from the weight sum of the support and one
quantum factorial per root.  Positive roots are re-reflected through the
rest of the longest word, matrices are inverted over Fraction, and the
commutator identity reads [m] off qbinom and eps^(1+m) off power.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

from qcenters.angles import HALF, ZERO, AngleQZ
from qcenters.cyclo import CycloNum, cyclotomic_poly, qbinom, qfact, qint, root_of_unity
from qcenters.intlat import Lattice, congruence_kernel, hnf, snf
from qcenters.rootdata import Root, Weight
from qcenters.twistcheck import COMMUTATOR_MAX_EXPONENT


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
    gram, total = form.gram, ZERO
    for i, a in enumerate(cx):
        for j, b in enumerate(cy):
            total = total + gram[i][j].scaled(a * b)
    return total


def fraction_kappa_gram(q, x_tan: Lattice) -> list[list[AngleQZ]]:
    """kappa on the HNF basis of X^Tan from the Fraction angles eps of q
    there: eps/2 in {0, 1/4} above the diagonal, its negative below."""
    eps = fraction_angle_gram(q, x_tan.gens)
    r = len(eps)
    gram = [[ZERO] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if eps[i][j] == HALF:
                gram[i][j], gram[j][i] = AngleQZ(1, 4), AngleQZ(3, 4)
    return gram


def angle_serre_witnesses(dual, kappa) -> list[tuple]:
    """(pair, m, values, verdict) per ordered adjacent pair, per pair in
    angles: M_a(b) = -kappa(a*, b*) by angle sums, and value r is
    M_a(b) (r - s) - eps_a r s with s = m - r."""
    out = []
    for i, row in enumerate(dual.cartan_star):
        for j, pairing in enumerate(row):
            if i == j or pairing == 0:
                continue
            m_angle = -angle_sum_eval(kappa, dual.star_roots[i], dual.star_roots[j])
            m = 1 - pairing
            values = tuple(
                m_angle.scaled(r - (m - r)) - dual.epsilon_scalars[i].scaled(r * (m - r)) for r in range(m + 1)
            )
            out.append(((i, j), m, values, len(set(values)) == 1))
    return out


def rational_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular matrix by Gauss-Jordan elimination over Q."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _int_inverse(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, exactly."""
    inv = rational_inverse([[Fraction(x) for x in row] for row in m])
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


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    b = _poly_trim(list(b))
    assert b, "polynomial division by zero"
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = _poly_trim([Fraction(x) for x in a])
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coeff = r[-1] / b[-1]
        q[shift] = coeff
        for i, y in enumerate(b):
            r[shift + i] -= coeff * y
        r = _poly_trim(r)
    return _poly_trim(q), r


def fraction_cyclo(n: int, poly: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """poly mod Phi_n as a coefficient tuple of length deg Phi_n."""
    phi = [Fraction(c) for c in cyclotomic_poly(n)]
    _q, r = poly_divmod(poly, phi)
    return tuple(r + [Fraction(0)] * (len(phi) - 1 - len(r)))


def fraction_lift(n: int, coeffs: Sequence[Fraction], m: int) -> tuple[Fraction, ...]:
    """Embed Q(zeta_n) into Q(zeta_m), n | m, by zeta_n = zeta_m^(m/n)."""
    poly = [Fraction(0)] * (len(coeffs) * (m // n))
    for i, c in enumerate(coeffs):
        poly[i * (m // n)] = c
    return fraction_cyclo(m, poly)


def fraction_inverse(n: int, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Inverse mod Phi_n by the extended Euclidean algorithm over Q."""
    r0, r1 = [Fraction(c) for c in cyclotomic_poly(n)], _poly_trim(list(coeffs))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, poly_mul(q, s1))
    assert len(r0) == 1, "gcd with the cyclotomic polynomial is not constant"
    return fraction_cyclo(n, [c / r0[0] for c in s0])


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Patch owner.name to count its calls in the returned one-item list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_inverses(monkeypatch) -> list[int]:
    """Patch CycloNum.inverse to count its calls in the returned one-item list."""
    return count_calls(monkeypatch, CycloNum, "inverse")


def marker_angle(q, rd, n: Sequence[int]) -> AngleQZ:
    """Angle of the sign and phase of the coefficient at support n:
    (-1)^(sum n_g ht g) q(sum n_g g, sum_a w_a), from the weight sum of n."""
    sign_exp = sum(v * r.height for v, r in zip(n, rd.pos_roots))
    weighted = Weight.of([0] * rd.rank)
    for v, r in zip(n, rd.pos_roots):
        weighted = weighted + Weight.of(r.fw_coords).scaled(v)
    return AngleQZ.of(Fraction(sign_exp, 2)) + q.eval(weighted, Weight.of([1] * rd.rank))


def oracle_conductor(q, rd) -> int:
    """lcm of 2 and the orders of every q_gamma and q(gamma, sum_a w_a)."""
    omega_sum = Weight.of([1] * rd.rank)
    n = 2
    for root in rd.pos_roots:
        n = lcm(n, q.q_scalar(root).order, q.eval(Weight.of(root.fw_coords), omega_sum).order)
    return n


@lru_cache(maxsize=None)
def coeff_root_factor(angle: AngleQZ, v: int, conductor: int) -> CycloNum:
    """q_g^(-v(v+1)/2) (q_g - q_g^-1)^v [v]_{q_g}!, with [v]! from qfact."""
    qg = root_of_unity(angle, conductor)
    out = root_of_unity(angle.scaled(-v * (v + 1) // 2), conductor)
    out = out * (qg - root_of_unity(-angle, conductor)).power(v)
    return out * qfact(v, qg)


def oracle_coeff(q, rd, n: Sequence[int], conductor: int) -> CycloNum:
    """The R-matrix coefficient at support n, term by term: the sign/phase
    root of unity times one factor per root with n_g > 0."""
    out = root_of_unity(marker_angle(q, rd, n), conductor)
    for v, r in zip(n, rd.pos_roots):
        if v:
            out = out * coeff_root_factor(q.q_scalar(r), v, conductor)
    return out


def _reflect_root_coords(cartan: Sequence[Sequence[int]], i: int, coords: list[int]) -> list[int]:
    pairing = sum(cartan[i][j] * c for j, c in enumerate(coords))
    out = coords[:]
    out[i] -= pairing
    return out


def word_walk_positive_roots(rd) -> list[Root]:
    """gamma_j = s_(i_t) ... s_(i_(j+1)) (a_(i_j)) for the word rd.w0_word,
    re-reflecting each simple root through the rest of the word, with fw
    coordinates and half squared length from the full Cartan matrix."""
    cartan, word, rank = rd.cartan, rd.w0_word, rd.rank
    roots = []
    for j, base in enumerate(word):
        coords = [int(k == base) for k in range(rank)]
        for s in word[j + 1:]:
            coords = _reflect_root_coords(cartan, s, coords)
        fw = [sum(cartan[i][k] * coords[k] for k in range(rank)) for i in range(rank)]
        dd = sum(rd.d[k] * coords[k] * sum(cartan[k][m] * coords[m] for m in range(rank)) for k in range(rank)) // 2
        roots.append(Root(tuple(coords), tuple(fw), sum(coords), rd.factor_of_index[base], dd))
    return roots


def qbinom_commutator_identity(eps_alpha: AngleQZ) -> bool:
    """eps^(1+m) [m]_eps = m for |m| <= COMMUTATOR_MAX_EXPONENT, with [m] from
    qbinom(m, 1) for m >= 1 and qint otherwise, and eps^(1+m) from power."""
    assert eps_alpha in (ZERO, HALF), "not a sign"
    conductor = eps_alpha.den
    eps = root_of_unity(eps_alpha, conductor)
    for m in range(-COMMUTATOR_MAX_EXPONENT, COMMUTATOR_MAX_EXPONENT + 1):
        binom_value = qbinom(m, 1, eps) if m >= 1 else qint(m, eps)
        if eps.power(1 + m) * binom_value != CycloNum.from_rational(conductor, m):
            return False
    return True
