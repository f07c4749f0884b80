"""Shared brute-force oracles for the test suite.

These deliberately avoid the code paths they check: group structure is read
off from element-order profiles over enumerated cosets, congruence
solutions are counted by direct enumeration, congruence kernels are also
taken by the exact HNF of their Smith-form kernel rows, lattice coordinates
are solved over Fraction, the Q/Z-valued forms are
evaluated by Fraction and angle sums instead of integer Gram matrices,
angles are reduced by `Fraction % 1` and the parameter's Gram matrix is
read off c_H * K mod 1 over Fractions,
cyclotomic numbers are Fraction polynomials reduced by long division, with
the inverse from the extended Euclidean algorithm, integer cyclotomic
products use the schoolbook double loop, one factor at a time, R-matrix
coefficients are evaluated term by term, from the weight sum of the support
and one quantum factorial per root, and the R-matrix rows are running
products of root-of-unity factors, with one inverse per pairing row.
The CycloNum and RSupport constructors are compared with the generated
dataclass constructors followed by their former __post_init__ checks.
Dynkin types are recognized by a backtracking isomorphism search over every
admissible type, not by reading rows against the datum's own Cartan matrix.
Positive roots are re-reflected through the rest of the longest word,
matrices are inverted over Fraction, (det, adj) of a Cartan matrix comes
from dense Bareiss Gauss-Jordan elimination rather than along its Dynkin
forest, the commutator identity reads [m] off
qbinom and eps^(1+m) off power, and Weyl invariance of a Gram matrix is
checked by applying each simple reflection's full matrix R_s . G . R_s^T.
The quantum integers (`qint`), Gaussian binomials (`qbinom`), simple
reflections of weights (`weyl_reflect`) and the Killing pairing of two
weights (`killing_pairing`) that these oracles use live here: the package
itself needs none of them.
"""

from __future__ import annotations

import itertools
import random
import sys
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Callable, Optional, Sequence

from qcenters.angles import HALF, ZERO, AngleQZ
from qcenters.cyclo import CycloError, CycloNum, _phi_degree, _qints, cyclotomic_poly, root_of_unity
from qcenters.intlat import Lattice, congruence_kernel, congruent, hnf, left_kernel, snf, vanishes_mod
from qcenters.qparam import QParam, make_param
from qcenters.rootdata import (
    _RANK_BOUNDS,
    DynkinType,
    InvariantViolation,
    Root,
    RootDatum,
    RootDatumError,
    Weight,
    _factor_cartan,
    build_root_datum,
)
from qcenters.sampling import random_instance
from qcenters.twistcheck import COMMUTATOR_MAX_EXPONENT


# Root data and parameters of every Cartan type, plus 30 random instances;
# the integer-form tests and the R-matrix row tests share them.
CASES = [
    ("A1", "sc", Fraction(1, 4)),
    ("A2", "sc", Fraction(1, 6)),
    ("A2", "adjoint", Fraction(1, 5)),
    ("A3", "sc", Fraction(1, 8)),
    ("B2", "sc", Fraction(1, 8)),
    ("B3", "adjoint", Fraction(1, 6)),
    ("C2", "sc", Fraction(1, 6)),
    ("C3", "sc", Fraction(1, 8)),
    ("D4", "sc", Fraction(1, 6)),
    ("F4", "sc", Fraction(1, 12)),
    ("G2", "sc", Fraction(1, 12)),
    ("A1xA1", "sc", [Fraction(1, 4), Fraction(1, 6)]),
    ("A1xB2", "sc", [Fraction(1, 6), Fraction(1, 8)]),
    # kappa on the Smith-adapted vectors leaves [0, N) where d_i d_j > 1, so
    # the smallest-numerator division must reduce first.
    ("A1xA2", "sc", [Fraction(16, 17), Fraction(1, 2)]),
    ("A1xA2", "sc", [Fraction(14, 17), Fraction(1, 18)]),
] + [("random", seed, None) for seed in range(30)]


def case_instance(case):
    """The (root datum, parameter) of a CASES entry."""
    type_str, lattice, c = case
    if type_str == "random":
        return random_instance(random.Random(lattice), max_rank=3, max_den=24)
    rd = build_root_datum(type_str, lattice)
    return rd, make_param(rd, c)


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
    sub_in_super = hnf(coords, n)
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


def exact_congruence_kernel(rows: Sequence[tuple[Sequence[int], int]], rank: int) -> Lattice:
    """congruence_kernel by the exact route: the HNF over Z of the Smith-form
    kernel rows, with no reduction mod L = lcm(moduli)."""
    constraints = [(list(c), n) for c, n in rows if n > 1]
    if not constraints:
        return Lattice.standard(rank)
    big = lcm(*(n for _c, n in constraints))
    m = [[c[i] * (big // n) for c, n in constraints] for i in range(rank)]
    return hnf(left_kernel(m, big), rank)


def rational_coords(gens: Sequence[Sequence[int]], x: Sequence[int]) -> list[Fraction] | None:
    """The c with c . gens = x over Q, or None when x is outside the rational
    span; by Gauss-Jordan elimination on every column, with no use of pivots
    or integrality.  The rows of gens must be independent."""
    k = len(gens)
    a = [[Fraction(g[j]) for g in gens] + [Fraction(xj)] for j, xj in enumerate(x)]
    for col in range(k):
        pivot = next(i for i in range(col, len(a)) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for i in range(len(a)):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [u - factor * v for u, v in zip(a[i], a[col])]
    if any(row[k] for row in a[k:]):
        return None
    return [row[k] for row in a[:k]]


def fraction_angle(value: Fraction | int) -> AngleQZ:
    """The angle of a rational, reduced into [0, 1) by `Fraction % 1`."""
    f = Fraction(value) % 1
    return AngleQZ(f.numerator, f.denominator)


def fraction_int_gram(q) -> tuple[int, list[list[int]]]:
    """(N, G) from c_H * K mod 1 over Fractions, with N the lcm of the
    reduced denominators and G = N * (c_H * K mod 1)."""
    rd = q.rd
    c = [q.c[f] for f in rd.factor_of_index]
    values = [[ci * k % 1 for k in row] for ci, row in zip(c, rd.killing)]
    n = lcm(*(x.denominator for row in values for x in row))
    return n, [[int(x * n) for x in row] for row in values]


def fraction_eval(q, lam: Sequence[int], mu: Sequence[int]) -> AngleQZ:
    """q(lam, mu) = sum_ij c_H(i) lam_i mu_j K_ij mod 1, summed over Fractions."""
    rd = q.rd
    total = Fraction(0)
    for i, a in enumerate(lam):
        for j, b in enumerate(mu):
            total += q.c[rd.factor_of_index[i]] * a * b * rd.killing[i][j]
    return fraction_angle(total)


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


def bareiss_inverse(m: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det, adj) with m . adj = det . I, by fraction-free (Bareiss)
    Gauss-Jordan elimination on [m | I].

    After the step on column k every entry is a (k+1)-minor of [m | I], so
    each division by the previous pivot is exact.  No rows are swapped: the
    leading principal minors must be nonzero, as they are for a Cartan
    matrix of finite type (d_i A_ij is positive definite)."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise InvariantViolation("Cartan matrix has a vanishing leading principal minor")
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return prev, [row[n:] for row in a]


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
            row.append(fraction_angle(Fraction(value.num, value.den * diag[i] * diag[j])))
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


def phi_remainder(poly: Sequence[int], n: int) -> list[int]:
    """poly modulo Phi_n by integer long division from the top, which needs
    no fraction as Phi_n is monic; each step subtracts only the nonzero
    coefficients of Phi_n below its leading one."""
    phi = cyclotomic_poly(n)
    d = len(phi) - 1
    low = [(i, c) for i, c in enumerate(phi[:d]) if c]
    out = list(poly) + [0] * (d - len(poly))
    for k in range(len(out) - 1, d - 1, -1):
        top = out[k]
        if top:
            for i, c in low:
                out[k - d + i] -= top * c
    return out[:d]


def schoolbook_mul_vecs(vecs: Sequence[Sequence[int]], n: int) -> list[int]:
    """Product of integer vectors in Z[x]/Phi_n: a schoolbook product with
    each factor in turn, reduced by long division by Phi_n each time."""
    out = [1] + [0] * (len(cyclotomic_poly(n)) - 2)
    for b in vecs:
        full = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            if x:
                for k, y in enumerate(b, i):
                    full[k] += x * y
        out = phi_remainder(full, n)
    return out


@dataclass(frozen=True, eq=False, slots=True)
class PostInitCycloNum:
    """The CycloNum constructor as the generated dataclass __init__ and a
    __post_init__ check: length deg Phi_N, den >= 1, gcd reduction for
    den > 1 and a tuple num."""

    conductor: int
    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if len(num) != _phi_degree(self.conductor):
            raise CycloError("coefficient vector length must equal deg Phi_N")
        if den != 1:
            if den < 1:
                raise CycloError("denominator must be positive")
            g = gcd(den, *num)
            if g != 1:
                object.__setattr__(self, "num", tuple(c // g for c in num))
                object.__setattr__(self, "den", den // g)
                return
        if type(num) is not tuple:
            object.__setattr__(self, "num", tuple(num))


@dataclass(frozen=True, slots=True)
class PostInitRSupport:
    """The RSupport constructor as the generated dataclass __init__ and a
    __post_init__ check: a tuple of nonnegative integers."""

    n: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not tuple:
            n = tuple(n)
            object.__setattr__(self, "n", n)
        if n and (min(n) < 0 or type(sum(n)) is not int):
            raise ValueError(f"support exponents must be nonnegative integers, not {n!r}")


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Patch owner.name to count its calls in the returned one-item list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_stage_calls(monkeypatch, stages: dict[str, Callable]) -> Counter:
    """Replace every binding of each function in stages, in the qcenters
    modules and on QParam, by a wrapper that counts its calls by name."""
    counts: Counter = Counter()
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "qcenters"] + [QParam]
    for name, original in stages.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return counts


def count_inverses(monkeypatch) -> list[int]:
    """Patch CycloNum.inverse to count its calls in the returned one-item list."""
    return count_calls(monkeypatch, CycloNum, "inverse")


def marker_angle(q, rd, n: Sequence[int]) -> AngleQZ:
    """Angle of the sign and phase of the coefficient at support n:
    (-1)^(sum n_g ht g) q(sum n_g g, sum_a w_a), from the weight sum of n."""
    sign_exp = sum(v * r.height for v, r in zip(n, rd.pos_roots))
    weighted = [sum(v * r.fw_coords[k] for v, r in zip(n, rd.pos_roots)) for k in range(rd.rank)]
    return AngleQZ.of(Fraction(sign_exp, 2)) + q.eval(Weight.of(weighted), Weight.of([1] * rd.rank))


def oracle_conductor(q, rd) -> int:
    """lcm of 2 and the orders of every q_gamma and q(gamma, sum_a w_a)."""
    omega_sum = Weight.of([1] * rd.rank)
    n = 2
    for root in rd.pos_roots:
        n = lcm(n, q.q_scalar(root).order, q.eval(Weight.of(root.fw_coords), omega_sum).order)
    return n


@lru_cache(maxsize=None)
def _root_factor_rows(angle: AngleQZ, conductor: int) -> list[tuple[CycloNum, CycloNum, CycloNum]]:
    """Growing list of (factor(v), [v]_{q_g}, q_g^-v) for v = 0, 1, ...,
    extended on demand by coeff_root_factor."""
    return [(CycloNum.one(conductor), CycloNum.zero(conductor), CycloNum.one(conductor))]


def coeff_root_factor(angle: AngleQZ, v: int, conductor: int) -> CycloNum:
    """factor(v) = q_g^(-v(v+1)/2) (q_g - q_g^-1)^v [v]_{q_g}!, built as
    factor(k) = factor(k-1) q_g^-k (q_g - q_g^-1) [k], with [k] = q_g [k-1]
    + q_g^-(k-1) and q_g^-k by repeated products with q_g^-1 =
    root_of_unity(-angle)."""
    rows = _root_factor_rows(angle, conductor)
    if len(rows) > v:
        return rows[v][0]
    qg, qg_inv = root_of_unity(angle, conductor), root_of_unity(-angle, conductor)
    while len(rows) <= v:
        factor, qint_k, qg_neg_k = rows[-1]
        qint_k = qg * qint_k + qg_neg_k
        qg_neg_k = qg_neg_k * qg_inv
        rows.append((factor * qg_neg_k * (qg - qg_inv) * qint_k, qint_k, qg_neg_k))
    return rows[v][0]


_Q_SCALARS: "weakref.WeakKeyDictionary[QParam, tuple[AngleQZ, ...]]" = weakref.WeakKeyDictionary()


def _q_scalars(q) -> tuple[AngleQZ, ...]:
    """q_gamma for every positive root of q, read once per parameter; held
    weakly, so a parameter (and the coefficient tables it owns) is freed
    when its test drops it."""
    scalars = _Q_SCALARS.get(q)
    if scalars is None:
        scalars = _Q_SCALARS[q] = tuple(q.q_scalar(r) for r in q.rd.pos_roots)
    return scalars


def oracle_coeff(q, rd, n: Sequence[int], conductor: int) -> CycloNum:
    """The R-matrix coefficient at support n, term by term: the sign/phase
    root of unity times one factor per root with n_g > 0."""
    out = root_of_unity(marker_angle(q, rd, n), conductor)
    for v, qg in zip(n, _q_scalars(q)):
        if v:
            out = out * coeff_root_factor(qg, v, conductor)
    return out


def oracle_coeff_row(qg: AngleQZ, phase: AngleQZ, height_parity: int, l: int, conductor: int) -> list[CycloNum]:
    """Entries v = 0..l of (-1)^(v ht) zeta^(v phase) q^(-v(v+1)/2)
    (q - q^-1)^v [v]_q!, as one running product of field elements: entry v
    is entry v-1 times the step (-1)^ht zeta^phase (q - q^-1), q^-v and
    [v], with [v+1] = q [v] + q^-v and q^-1 read as a root of unity."""
    qv, qv_inv = root_of_unity(qg, conductor), root_of_unity(-qg, conductor)
    step = root_of_unity(phase, conductor) * (qv - qv_inv)
    if height_parity:
        step = -step
    entry = qint_v = qv_neg = CycloNum.one(conductor)
    row = [entry]
    for _v in range(l):
        qv_neg = qv_neg * qv_inv
        entry = entry * step * qv_neg * qint_v
        row.append(entry)
        qint_v = qv * qint_v + qv_neg
    return row


def oracle_pairing_row(angle: AngleQZ, conductor: int) -> list[CycloNum]:
    """Entries v = 0 .. ord(2 angle) - 1 of the inverse of
    prod_{k <= v} (1 - v_g^(-2k)): the full product is inverted once by
    CycloNum.inverse and the row is walked back by the factors."""
    double = angle.scaled(2)
    one = CycloNum.one(conductor)
    v_inv2 = root_of_unity(-double, conductor)
    factors, power, total = [], one, one
    for _k in range(1, double.order):
        power = power * v_inv2
        factors.append(one - power)
        total = total * factors[-1]
    row = [total.inverse()]
    for f in reversed(factors):
        row.append(row[-1] * f)
    return row[::-1]


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


def column_walk_positive_roots(rd) -> list[Root]:
    """The enumeration of rd.w0_word from dense list columns w(alpha_k), root
    coordinates then fw coordinates, updating every column that A[i][k]
    moves; heights and half squared lengths are summed from the coordinates."""
    cartan, rank = rd.cartan, rd.rank
    cols = [[int(m == k) for m in range(rank)] + [cartan[m][k] for m in range(rank)] for k in range(rank)]
    roots = []
    for i in reversed(rd.w0_word):
        col = cols[i]
        coords, fw = col[:rank], col[rank:]
        dd = sum(dk * c * f for dk, c, f in zip(rd.d, coords, fw)) // 2
        roots.append(Root(tuple(coords), tuple(fw), sum(coords), rd.factor_of_index[i], dd))
        for k in range(rank):
            if cartan[i][k]:
                cols[k] = [x - cartan[i][k] * y for x, y in zip(cols[k], col)]
    return roots[::-1]


def qint(n: int, v: CycloNum) -> CycloNum:
    """Balanced quantum integer [n]_v = v^(n-1) + v^(n-3) + ... + v^(1-n).

    Defined for all integers via [-n] = -[n]; the Laurent-sum form is the
    correct specialization at v = +-1, where it gives (+-1)^(n-1) * n.
    """
    if n < 0:
        return -qint(-n, v)
    if n == 0:
        return CycloNum.zero(v.conductor)
    return next(itertools.islice(_qints(v), n - 1, None))


def qbinom(m: int, n: int, v: CycloNum) -> CycloNum:
    """Balanced Gaussian binomial via the division-free Pascal recursion
    [m, n] = v^n [m-1, n] + v^(n-m) [m-1, n-1]."""
    if not 0 <= n <= m:
        raise CycloError("need 0 <= n <= m")
    one = CycloNum.one(v.conductor)
    if n == 0 or n == m:
        return one
    v_inv = v.inverse()
    memo: dict[tuple[int, int], CycloNum] = {}

    def rec(mm: int, nn: int) -> CycloNum:
        if nn == 0 or nn == mm:
            return one
        key = (mm, nn)
        if key not in memo:
            memo[key] = v.power(nn) * rec(mm - 1, nn) + v_inv.power(mm - nn) * rec(mm - 1, nn - 1)
        return memo[key]

    return rec(m, n)


def killing_pairing(rd: RootDatum, lam: Weight, mu: Weight) -> Fraction:
    """The normalized Killing form (lam, mu), summed over Fraction entries of
    rd.killing rather than its integer Gram matrix."""
    return sum((x * a * b for row, a in zip(rd.killing, lam.coords) for x, b in zip(row, mu.coords)), Fraction(0))


def weyl_reflect(rd: RootDatum, i: int, lam: Weight) -> Weight:
    """Simple reflection s_i(lam) = lam - <lam, a_i^vee> a_i."""
    if not 0 <= i < rd.rank:
        raise RootDatumError(f"simple index {i} out of range")
    c = lam.coords[i]  # <lam, a_i^vee> is the i-th fundamental-weight coord
    if c == 0:
        return lam
    return lam - rd.simple_root(i).scaled(c)


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


def reflection_oracle_accepts(rd, n: int, g: Sequence[Sequence[int]]) -> bool:
    """Whether G is symmetric and R_s . G . R_s^T = G mod n for every simple
    reflection, with the rows of R_s the images s(omega_j) from weyl_reflect."""
    if not vanishes_mod([[a - b for a, b in zip(row, col)] for row, col in zip(g, zip(*g))], n):
        return False
    units = rd.weight_lattice().gens
    for s in range(rd.rank):
        reflection = [weyl_reflect(rd, s, Weight.of(u)).coords for u in units]
        if not vanishes_mod([[a - b for a, b in zip(x, y)] for x, y in zip(congruent(reflection, g), g)], n):
            return False
    return True


def simple_ls_from_l_table(q) -> list[int]:
    """l_alpha for the simple roots, found by walking all of l_table for the
    height-1 roots."""
    by_simple = {}
    for root, l in zip(q.rd.pos_roots, q.l_table):
        if root.height == 1:
            idx = next(i for i, c in enumerate(root.root_coords) if c)
            by_simple[idx] = l
    return [by_simple[i] for i in range(q.rd.rank)]


def _components(cartan: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(cartan)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and cartan[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _cartan_iso(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Simultaneous row/column permutation matching two Cartan matrices of the
    same connected rank (backtracking with degree pruning)."""
    n = len(a)
    if len(b) != n:
        return False

    def profile(m: Sequence[Sequence[int]], i: int) -> tuple:
        row = sorted(x for j, x in enumerate(m[i]) if j != i and x != 0)
        col = sorted(m[j][i] for j in range(n) if j != i and m[j][i] != 0)
        return tuple(row), tuple(col)

    prof_a = [profile(a, i) for i in range(n)]
    prof_b = [profile(b, i) for i in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return False
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if j in used or prof_a[i] != prof_b[j]:
                continue
            if any(a[i][k] != b[j][assignment[k]] or a[k][i] != b[assignment[k]][j] for k in assignment):
                continue
            assignment[i] = j
            used.add(j)
            if backtrack(i + 1):
                return True
            del assignment[i]
            used.remove(j)
        return False

    return backtrack(0)


def _candidate_types(rank: int) -> list[tuple[str, int]]:
    """Admissible factor types of the given rank, in A..G order."""
    return [(family, rank) for family, admissible in _RANK_BOUNDS.items() if admissible(rank)]


def classify_cartan(cartan: Sequence[Sequence[int]]) -> Optional[DynkinType]:
    """Recognize a valid Cartan matrix's Dynkin type, or None if no admissible
    type matches (B2 and C2 both report as B2; D3 reports as A3)."""
    factors = []
    for comp in _components(cartan):
        block = [[cartan[i][j] for j in comp] for i in comp]
        match = None
        for family, rank in _candidate_types(len(comp)):
            candidate, _d = _factor_cartan(family, rank)
            if _cartan_iso(block, candidate):
                match = (family, rank)
                break
        if match is None:
            return None
        factors.append(match)
    return DynkinType(tuple(sorted(factors)))
