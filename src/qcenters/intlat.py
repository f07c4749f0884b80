"""Exact integer-lattice linear algebra.

Sublattices of Z^r are stored by a canonical row-style Hermite normal form
of a generator matrix, so lattice equality is plain matrix equality.  A
Lattice caches its pivot columns, and whether each row is zero right of its
pivot, outside equality and hashing; coords_of back-substitutes on them,
and a row that is zero right of its pivot updates its pivot entry alone.
Every membership read goes through coords_of: first_outside finds the
first vector outside, and coords_rows their coordinates or the caller's
error.  One gcd column-elimination loop (_echelon) builds every lattice: at
modulus 0 it is the exact echelon form behind hnf, and at modulus n it is
the HNF mod n (Domich, Kannan and Trotter 1987; Cohen, Alg. 2.4.8) behind
every congruence cut.  The cut, annihilator(ambient, n, M), is
{x . B : x . M = 0 mod n} for B the ambient's HNF rows: the coordinate
rows x are the last rows of the echelon mod n of [M | I], upper triangular
with a positive diagonal, so X . B is already in echelon form on the
ambient's pivots and reducing above them gives the cut's canonical HNF
with no second elimination.  congruence_kernel is its front end on Z^r.
One Smith elimination loop (_smith) serves two callers: quotient reads the
invariant factors of a finite quotient off it with no transforms, and
smith_normal_form / snf also carry U and V, for kappa.extend_psi and for
left_kernel.  left_kernel and the exact intersect it backs are no part of
any cut, and check the cuts by an independent route.  The index of a
sublattice of equal rank is the product of the ratios of the two HNFs'
pivots, the diagonal of the triangular coordinate matrix of the inclusion.
Everything runs on Python's arbitrary-precision integers; there is no
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence


IntMatrix = list[list[int]]
_INT = frozenset((int,))
_NOT_CONTAINED = "sublattice is not contained in the ambient lattice"


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


def _echelon(rows: IntMatrix, width: int, n: int = 0) -> tuple[IntMatrix, list[int]]:
    """Echelon rows, and their pivot columns, of the lattice the rows span,
    joined with n * Z^width when n > 0.

    The one elimination loop: column by column, the rows with an entry in
    the column fold into one pivot by gcd row operations.  At modulus 0 the
    pivot is made positive, and a column no row reaches gets none.  At
    modulus n the rows come reduced mod n, so does every folded row, and the
    pivot is combined with n * e_col: their gcd g | n becomes the pivot
    entry, and (n / g) * pivot, 0 mod n in the column, stays a generator.
    So every column gets a pivot, and every entry lies in [0, n]."""
    echelon: IntMatrix = []
    pivots: list[int] = []
    for col in range(width):
        pivot = None
        remaining: IntMatrix = []
        for row in rows:
            if row[col] == 0:
                remaining.append(row)
            elif pivot is None:
                pivot = row
            else:
                g, u, v = _xgcd(pivot[col], row[col])
                x, y = pivot[col] // g, row[col] // g
                reduced = [y * a - x * b for a, b in zip(pivot, row)]
                pivot = [u * a + v * b for a, b in zip(pivot, row)]
                if n:
                    pivot, reduced = [a % n for a in pivot], [a % n for a in reduced]
                if any(reduced):
                    remaining.append(reduced)
        rows = remaining
        if n:
            pivot = pivot or [0] * width  # n * e_col alone where no row reaches col
            g, u, _v = _xgcd(pivot[col], n)
            if g > 1:  # at g = 1, (n / g) * pivot is 0 mod n
                kept = [(n // g) * a % n for a in pivot]
                if any(kept):
                    rows.append(kept)
            if u != 1:  # u = 1 where the pivot entry divides n and is g
                pivot = [u * a % n for a in pivot]
                pivot[col] = g
        elif pivot is None:
            continue
        elif pivot[col] < 0:
            pivot = [-a for a in pivot]
        echelon.append(pivot)
        pivots.append(col)
    return echelon, pivots


def _reduce_above_pivots(result: IntMatrix, pivots: Sequence[int]) -> IntMatrix:
    """Reduce the entries above each pivot of an echelon form into [0, pivot).

    For a fixed row k the pivots below must be applied in increasing
    pivot-column order, so that a later reduction never disturbs an
    already-reduced column."""
    for k in range(len(result)):
        for i in range(k + 1, len(result)):
            pcol = pivots[i]
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
    @cache
    def standard(rank: int) -> "Lattice":
        """Z^rank, one object per rank, so every caller shares its cached
        pivots and back-substitution table."""
        return Lattice(rank, tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.gens)

    def rows(self) -> IntMatrix:
        return [list(r) for r in self.gens]

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each HNF row; cached, outside equality and hash."""
        return tuple(next(j for j, v in enumerate(row) if v) for row in self.gens)

    @cached_property
    def _back_substitution(self) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
        """(row, pivot column, whether the row is zero right of its pivot, as
        every row of a diagonal lattice is) per HNF row; cached beside the
        pivots, outside equality and hash."""
        return tuple((row, p, not any(row[p + 1 :])) for row, p in zip(self.gens, self.pivots))

    def coords_of(self, x: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of x on the HNF basis, or None if x is outside.

        Back-substitution on the pivots: a row touches the remainder only from
        its pivot column on, and only when its coordinate is nonzero; a row
        that is zero right of its pivot touches its pivot entry alone.  A
        vector of ints is taken as it is; any other entry goes through int()
        and must be equal to it, so that integral Fractions pass."""
        rem = list(x)
        if not _INT.issuperset(map(type, rem)):
            x, rem = rem, [int(v) for v in rem]
            if rem != x:
                raise LatticeError(f"non-integer vector {x!r}")
        if len(rem) != self.ambient_rank:
            raise LatticeError("vector has wrong ambient rank")
        coords = []
        for row, p, alone in self._back_substitution:
            c, r = divmod(rem[p], row[p])
            if r:
                return None
            coords.append(c)
            if c:
                if alone:
                    rem[p] = 0
                else:
                    rem[p:] = [a - c * b for a, b in zip(rem[p:], row[p:])]
        if any(rem):
            return None
        return coords

    def member(self, x: Sequence[int]) -> bool:
        return self.coords_of(x) is not None

    def first_outside(self, vectors: Iterable[Sequence[int]]) -> Optional[Sequence[int]]:
        """The first of the vectors that is not in the lattice, or None."""
        return next((v for v in vectors if self.coords_of(v) is None), None)

    def coords_rows(self, vectors: Iterable[Sequence[int]], error: Exception) -> IntMatrix:
        """Each vector's coords_of row; raises the given error if one is outside."""
        rows = [self.coords_of(v) for v in vectors]
        if None in rows:
            raise error
        return rows

    def contains_lattice(self, other: "Lattice") -> bool:
        return self.first_outside(other.gens) is None

    def vector_from_coords(self, coords: Sequence[int]) -> list[int]:
        if len(coords) != self.rank:
            raise LatticeError("coordinate vector has wrong length")
        out = [0] * self.ambient_rank
        for c, row in zip(coords, self.gens):
            if c:
                c = _as_int(c)
                out = [a + c * b for a, b in zip(out, row)]
        return out


def row_times(lam: Sequence[int], g: Sequence[Sequence[int]]) -> list[int]:
    """lam . G, summed over the nonzero coordinates of lam only."""
    out = [0] * len(g[0])
    for a, g_row in zip(lam, g):
        if a:
            out = [x + a * y for x, y in zip(out, g_row)]
    return out


def bilinear(g: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    """x . G . y^T for the integer Gram matrix G."""
    return sum(map(mul, row_times(x, g), y))


def congruent(
    left: Sequence[Sequence[int]], g: Sequence[Sequence[int]], right: Optional[Sequence[Sequence[int]]] = None
) -> IntMatrix:
    """L . G . R^T: the Gram matrix of G between the rows of L and of R, with
    R = L by default.  Identity rows for L or R leave the side of G as it is."""
    lg = [row_times(row, g) for row in left]
    return [[sum(map(mul, row, r)) for r in (left if right is None else right)] for row in lg]


def vanishes_mod(m: Iterable[Iterable[int]], n: int) -> bool:
    """Whether every entry of the integer matrix m is 0 mod n."""
    return all(x % n == 0 for row in m for x in row)


def hnf(m: Iterable[Iterable[int]], ambient_rank: Optional[int] = None) -> Lattice:
    """The lattice spanned by the rows of m, by their canonical Hermite normal
    form; the ambient rank is the row width unless given, and must be given
    when m has no rows."""
    rows = _as_rows(m)
    if ambient_rank is None:
        if not rows:
            raise LatticeError("ambient rank required for empty generator set")
        ambient_rank = len(rows[0])
    if any(len(r) != ambient_rank for r in rows):
        raise LatticeError("generator width does not match ambient rank")
    echelon, pivots = _echelon([row for row in rows if any(row)], ambient_rank)
    return Lattice(ambient_rank, tuple(map(tuple, _reduce_above_pivots(echelon, pivots))))


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


def _smith(a: IntMatrix, u: Optional[IntMatrix] = None, v: Optional[IntMatrix] = None) -> list[int]:
    """Diagonalize a in place into Smith form and return its diagonal.

    The one elimination loop: when u and v are given, every row operation
    is applied to u and every column operation to v as well, so that
    U m V = D for identity matrices passed in; without them the loop builds
    no transforms.  Each step takes the first entry of least absolute value
    in the remaining block, row by row, clears its row and column, and
    repairs divisibility by adding an offending row."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    by_rows = [a] if u is None else [a, u]
    by_cols = [a] if v is None else [a, v]

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        for m in by_rows:
            m[i] = [x - q * y for x, y in zip(m[i], m[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for m in by_cols:
            for row in m:
                row[i] -= q * row[j]

    def swap_rows(i: int, j: int) -> None:
        for m in by_rows:
            m[i], m[j] = m[j], m[i]

    def swap_cols(i: int, j: int) -> None:
        for m in by_cols:
            for row in m:
                row[i], row[j] = row[j], row[i]

    for k in range(min(nrows, ncols)):
        while True:
            best, least = None, 0
            for i in range(k, nrows):
                row = a[i]
                for j in range(k, ncols):
                    x = abs(row[j])
                    if x and (not least or x < least):
                        best, least = (i, j), x
                if least == 1:  # no later entry is smaller
                    break
            if best is None:
                break
            i, j = best
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            if a[k][k] < 0:
                for m in by_rows:
                    m[k] = [-x for x in m[k]]
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
    return [a[i][i] for i in range(min(nrows, ncols))]


def smith_normal_form(m: Iterable[Iterable[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*m*V = D diagonal, d_i | d_{i+1}, U, V unimodular."""
    a = _as_rows(m)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    _smith(a, u, v)
    return a, u, v


def _torsion(diag: Iterable[int]) -> FiniteAbelianGroup:
    """The cokernel torsion of a Smith diagonal: its entries > 1."""
    return FiniteAbelianGroup(tuple(x for x in diag if x > 1))


def snf(m: Iterable[Iterable[int]]) -> tuple[FiniteAbelianGroup, IntMatrix, IntMatrix, list[int]]:
    """Smith data of m: (cokernel torsion, U, V, diagonal entries).

    The cokernel is Z^cols / rowspan(m); its invariant factors are the
    diagonal entries > 1.  The full diagonal, 1s and zeros included, is
    returned so callers can detect rank defects.
    """
    d, u, v = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(d), len(v)))]
    return _torsion(diag), u, v, diag


def left_kernel(m: Iterable[Iterable[int]], n: int = 0) -> IntMatrix:
    """Rows spanning {x : x . m = 0 mod n}; n = 0 asks for the exact kernel.

    With U m V = D from smith_normal_form, x . m = 0 mod n exactly when the
    coordinates y of x on the rows of U satisfy y_i d_i = 0 mod n, so the rows
    (n / gcd(n, d_i)) U_i span the solutions: U_i itself where d_i = 0, and
    no row where d_i != 0 = n.  Rows of U past the diagonal have d_i = 0.
    """
    d, u, _v = smith_normal_form(m)
    width = len(d[0]) if d else 0
    kernel = []
    for i, row in enumerate(u):
        g = gcd(n, d[i][i] if i < width else 0)
        scale = n // g if g else 1  # g = 0 only where d_i = 0 = n
        if scale:
            kernel.append([scale * x for x in row])
    return kernel


def index(sub: Lattice, super_: Lattice) -> Optional[int]:
    """|super/sub| when finite, None when the ranks differ ("infinite").

    Raises LatticeError if sub is not contained in super.  At equal rank
    both HNFs have the same pivot columns, so the inclusion's coordinate
    matrix is upper triangular with the pivot ratios on its diagonal.
    """
    coords = super_.coords_rows(sub.gens, LatticeError(_NOT_CONTAINED))
    if sub.rank < super_.rank:
        return None
    return prod(row[i] for i, row in enumerate(coords))


def quotient(sub: Lattice, super_: Lattice) -> FiniteAbelianGroup:
    """Invariant factors of super/sub; requires sub of finite index in super.
    They are the Smith invariants of the inclusion's coordinate matrix,
    taken with no transforms."""
    coords = super_.coords_rows(sub.gens, LatticeError(_NOT_CONTAINED))
    if sub.rank < super_.rank:
        raise LatticeError("quotient by a lower-rank sublattice is infinite")
    return _torsion(_smith(coords))


def annihilator(ambient: Lattice, n: int, m: Sequence[Sequence[int]]) -> Lattice:
    """The cut {x . B : x . m = 0 mod n} of ambient, for B its HNF rows and
    m one constraint row per row of B.

    With n * Z^(c+r), the rows (x . m | x) of [m | I] span the pairs
    (x . m + n a | x + n b).  Those with no entry in the c constraint
    columns are (0 | y) for y = x + n b, and y . m = x . m mod n: the
    kernel, held by the echelon rows pivoting in the last r columns.  Cut to
    those columns and reduced above their pivots, they are the kernel's HNF
    X, upper triangular with a positive diagonal.  So X . B is in echelon
    form on the ambient's pivots, and reducing above them gives the HNF."""
    c, r = len(m[0]) if m else 0, len(m)
    rows = [[x % n for x in row] + [int(i == j) % n for j in range(r)] for i, row in enumerate(m)]
    echelon, _pivots = _echelon(rows, c + r, n)
    kernel = _reduce_above_pivots([row[c:] for row in echelon[c:]], range(r))
    cut = [row_times(x, ambient.gens) for x in kernel]
    return Lattice(ambient.ambient_rank, tuple(map(tuple, _reduce_above_pivots(cut, ambient.pivots))))


def congruence_kernel(rows: Sequence[tuple[Sequence[int], int]], rank: int) -> Lattice:
    """Solutions {x in Z^rank : c . x = 0 mod n for every (c, n) constraint}.

    Always full rank: it contains L * Z^rank for L = lcm(moduli), so it is
    the annihilator cut of Z^rank mod L, and every entry lies in [0, L].
    """
    constraints = []
    for c, n in rows:
        c = [_as_int(x) for x in c]
        n = _as_int(n)
        if n < 1:
            raise LatticeError("moduli must be >= 1")
        if len(c) != rank:
            raise LatticeError("constraint width does not match rank")
        constraints.append((c, n))
    # c . x = 0 mod n iff (L / n) c . x = 0 mod L, for L = lcm(moduli).
    big = lcm(*(n for _c, n in constraints))
    m = [[c[i] * (big // n) for c, n in constraints] for i in range(rank)]
    return annihilator(Lattice.standard(rank), big, m)


def intersect(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two sublattices of the same ambient Z^r."""
    if a.ambient_rank != b.ambient_rank:
        raise LatticeError("ambient rank mismatch")
    if not a.gens:
        return a
    if not b.gens:
        return b
    # u A = v B exactly when (u, v) kills the rows of A stacked over -B.
    m = [list(g) for g in a.gens] + [[-x for x in g] for g in b.gens]
    return hnf([a.vector_from_coords(row[: a.rank]) for row in left_kernel(m)], a.ambient_rank)
