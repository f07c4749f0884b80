"""Exact integer-lattice linear algebra.

Sublattices of Z^r are stored by a canonical row-style Hermite normal form
of a generator matrix, so lattice equality is plain matrix equality.  Smith
normal form provides invariant factors of finite quotients.  Everything runs
on Python's arbitrary-precision integers; there is no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Optional, Sequence


IntMatrix = list[list[int]]


class LatticeError(ValueError):
    """Raised on invalid lattice operations (non-inclusion, bad input)."""


def _as_int(x) -> int:
    i = int(x)
    if i != x:
        raise LatticeError(f"non-integer entry {x!r}")
    return i


def _as_rows(m: Iterable[Iterable[int]]) -> IntMatrix:
    rows = [[_as_int(x) for x in row] for row in m]
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise LatticeError("ragged generator matrix")
    return rows


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, u, v) with u*a + v*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _gcd_rows(a: list[int], b: list[int], col: int) -> tuple[list[int], list[int]]:
    """Rows (pivot, reduced) spanning the same as (a, b), with reduced[col] = 0
    and pivot[col] = gcd(a[col], b[col])."""
    x, y = a[col], b[col]
    g, u, v = _xgcd(x, y)
    pivot = [u * p + v * q for p, q in zip(a, b)]
    reduced = [(y // g) * p - (x // g) * q for p, q in zip(a, b)]
    return pivot, reduced


def _hnf_rows(m: IntMatrix, width: int) -> IntMatrix:
    rows = [row[:] for row in m if any(row)]
    result: IntMatrix = []
    for col in range(width):
        pivot = None
        remaining: IntMatrix = []
        for r in rows:
            if r[col] == 0:
                remaining.append(r)
            elif pivot is None:
                pivot = r
            else:
                pivot, reduced = _gcd_rows(pivot, r, col)
                if any(reduced):
                    remaining.append(reduced)
        rows = remaining
        if pivot is None:
            continue
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        result.append(pivot)
    # Reduce entries above each pivot into [0, pivot).  For a fixed row k the
    # pivots below must be applied in increasing pivot-column order, so that a
    # later reduction never disturbs an already-reduced column.
    for k in range(len(result)):
        for i in range(k + 1, len(result)):
            pcol = next(j for j, x in enumerate(result[i]) if x != 0)
            q = result[k][pcol] // result[i][pcol]
            if q:
                result[k] = [a - q * b for a, b in zip(result[k], result[i])]
    return result


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^ambient_rank given by canonical HNF generator rows."""

    ambient_rank: int
    gens: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], ambient_rank: Optional[int] = None) -> "Lattice":
        rows = _as_rows(rows)
        if ambient_rank is None:
            if not rows:
                raise LatticeError("ambient rank required for empty generator set")
            ambient_rank = len(rows[0])
        if any(len(r) != ambient_rank for r in rows):
            raise LatticeError("generator width does not match ambient rank")
        reduced = _hnf_rows(rows, ambient_rank)
        return Lattice(ambient_rank, tuple(tuple(r) for r in reduced))

    @staticmethod
    def standard(rank: int) -> "Lattice":
        return Lattice(rank, tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)))

    @staticmethod
    def scaled(rank: int, n: int) -> "Lattice":
        return Lattice.from_rows([[n if i == j else 0 for j in range(rank)] for i in range(rank)])

    @property
    def rank(self) -> int:
        return len(self.gens)

    def rows(self) -> IntMatrix:
        return [list(r) for r in self.gens]

    def coords_of(self, x: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of x on the HNF basis, or None if x is outside."""
        x = [int(v) for v in x]
        if len(x) != self.ambient_rank:
            raise LatticeError("vector has wrong ambient rank")
        coords = []
        rem = x[:]
        for row in self.gens:
            pcol = next(j for j, v in enumerate(row) if v != 0)
            c, r = divmod(rem[pcol], row[pcol])
            if r != 0:
                return None
            coords.append(c)
            rem = [a - c * b for a, b in zip(rem, row)]
        if any(rem):
            return None
        return coords

    def member(self, x: Sequence[int]) -> bool:
        return self.coords_of(x) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.member(g) for g in other.gens)

    def vector_from_coords(self, coords: Sequence[int]) -> list[int]:
        out = [0] * self.ambient_rank
        for c, row in zip(coords, self.gens):
            for j, v in enumerate(row):
                out[j] += c * v
        return out


def bilinear(g: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    """x . G . y^T for the integer Gram matrix G."""
    return sum(a * sum(gij * b for gij, b in zip(row, y) if b) for a, row in zip(x, g) if a)


def congruent(m: Sequence[Sequence[int]], g: Sequence[Sequence[int]]) -> IntMatrix:
    """M . G . M^T: the Gram matrix of G on the rows of M."""
    mg = [[sum(a * gk[j] for a, gk in zip(row, g) if a) for j in range(len(g[0]))] for row in m]
    return [[sum(a * b for a, b in zip(left, right) if a) for right in m] for left in mg]


def hnf(m: Iterable[Iterable[int]], ambient_rank: Optional[int] = None) -> Lattice:
    """Canonical Hermite normal form of a generator matrix, as a Lattice."""
    return Lattice.from_rows(m, ambient_rank)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group by its invariant factor chain d_1 | d_2 | ..."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.invariant_factors:
            if d < 2:
                raise LatticeError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise LatticeError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def smith_normal_form(m: Iterable[Iterable[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*m*V = D diagonal, d_i | d_{i+1}, U, V unimodular."""
    a = _as_rows(m)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for k in range(min(nrows, ncols)):
        while True:
            best = None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            if a[k][k] < 0:
                negate_row(k)
            clean = True
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    row_op(i, k, a[i][k] // a[k][k])
                    clean = clean and a[i][k] == 0
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    col_op(j, k, a[k][j] // a[k][k])
                    clean = clean and a[k][j] == 0
            if not clean:
                continue
            # Pivot clears its row and column; make it divide the whole block.
            offender = None
            for i in range(k + 1, nrows):
                if any(a[i][j] % a[k][k] != 0 for j in range(k + 1, ncols)):
                    offender = i
                    break
            if offender is None:
                break
            row_op(k, offender, -1)
    d = [row[:] for row in a]
    return d, u, v


def snf(m: Iterable[Iterable[int]]) -> tuple[FiniteAbelianGroup, IntMatrix, IntMatrix, list[int]]:
    """Smith data of m: (cokernel torsion, U, V, diagonal entries).

    The cokernel is Z^cols / rowspan(m); its invariant factors are the
    diagonal entries > 1.  The full diagonal, 1s and zeros included, is
    returned so callers can detect rank defects.
    """
    rows = _as_rows(m)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    d, u, v = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(nrows, ncols))]
    factors = tuple(x for x in diag if x > 1)
    return FiniteAbelianGroup(factors), u, v, diag


def kernel_basis(m: Iterable[Iterable[int]]) -> IntMatrix:
    """Basis of the integer kernel {x : m @ x = 0}, as rows of length ncols."""
    rows = _as_rows(m)
    if not rows:
        raise LatticeError("kernel of an empty matrix needs an explicit width")
    ncols = len(rows[0])
    d, _u, v = smith_normal_form(rows)
    rank = sum(1 for i in range(min(len(rows), ncols)) if d[i][i] != 0)
    return [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)]


def _coords_matrix(sub: Lattice, super_: Lattice) -> IntMatrix:
    coords = []
    for g in sub.gens:
        c = super_.coords_of(g)
        if c is None:
            raise LatticeError("sublattice is not contained in the ambient lattice")
        coords.append(c)
    return coords


def _det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise LatticeError("determinant of non-square matrix")
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def index(sub: Lattice, super_: Lattice) -> Optional[int]:
    """|super/sub| when finite, None when the ranks differ ("infinite").

    Raises LatticeError if sub is not contained in super.
    """
    coords = _coords_matrix(sub, super_)
    if sub.rank < super_.rank:
        return None
    return abs(_det(coords))


def quotient(sub: Lattice, super_: Lattice) -> FiniteAbelianGroup:
    """Invariant factors of super/sub; requires sub of finite index in super."""
    coords = _coords_matrix(sub, super_)
    if sub.rank < super_.rank:
        raise LatticeError("quotient by a lower-rank sublattice is infinite")
    if not coords:
        return FiniteAbelianGroup(())
    group, _u, _v, _diag = snf(coords)
    return group


def congruence_kernel(rows: Sequence[tuple[Sequence[int], int]], rank: int) -> Lattice:
    """Solutions {x in Z^rank : c . x = 0 mod n for every (c, n) constraint}.

    Always full rank: the lattice contains lcm(moduli) * Z^rank.
    """
    constraints = []
    for c, n in rows:
        c = [int(x) for x in c]
        n = int(n)
        if n < 1:
            raise LatticeError("moduli must be >= 1")
        if len(c) != rank:
            raise LatticeError("constraint width does not match rank")
        if n > 1:
            constraints.append((c, n))
    if not constraints:
        return Lattice.standard(rank)
    # x satisfies the system iff (x, y) solves [C | -N](x, y)^T = 0 for some
    # integer y, with N = diag(moduli); project that kernel onto x.
    k = len(constraints)
    m = []
    for i, (c, n) in enumerate(constraints):
        m.append(list(c) + [-n if i == j else 0 for j in range(k)])
    basis = kernel_basis(m)
    return Lattice.from_rows([row[:rank] for row in basis], rank)


def intersect(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two sublattices of the same ambient Z^r."""
    if a.ambient_rank != b.ambient_rank:
        raise LatticeError("ambient rank mismatch")
    if not a.gens:
        return a
    if not b.gens:
        return b
    # u @ A = v @ B: kernel of [A^T | -B^T] acting on stacked (u, v).
    r = a.ambient_rank
    m = []
    for j in range(r):
        m.append([g[j] for g in a.gens] + [-g[j] for g in b.gens])
    vectors = []
    for row in kernel_basis(m):
        u = row[: a.rank]
        vec = [0] * r
        for c, g in zip(u, a.gens):
            for j in range(r):
                vec[j] += c * g[j]
        vectors.append(vec)
    return Lattice.from_rows(vectors, r)


def member(x: Sequence[int], lattice: Lattice) -> bool:
    return lattice.member(x)
