"""Semisimple root data: Cartan matrices, Weyl reflections, root enumeration.

Weights are integer vectors in the fundamental-weight basis of P, factor by
factor, so P is exactly Z^r and membership of a weight in the character
lattice X is a pure integer-matrix test.  Simple roots in this basis are the
columns of the Cartan matrix.  The Killing form is normalized so that
(alpha, alpha) = 2 at every short root of every almost-simple factor, and is
evaluated as an integer Gram matrix over one common denominator; it comes
from the integer pair (det A, adj A) of a fraction-free inverse.

The positive roots are read off a reduced word of the longest element by
carrying the images w(alpha_k) of the simple roots as integer columns, one
simple reflection per root, so the enumeration costs O(|Phi+| r).  It is
cross-checked against an orbit closure, and every validation (symmetry,
normalization, the longest word reaching the antidominant chamber) is an
integer-row computation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence, Union

from .intlat import IntMatrix, Lattice, LatticeError, congruent, hnf


class RootDatumError(ValueError):
    """Raised on inadmissible Dynkin input or invalid lattice specifications."""


_RANK_BOUNDS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

_LACING = {"A": 1, "B": 2, "C": 2, "D": 1, "E": 1, "F": 2, "G": 3}


@dataclass(frozen=True)
class DynkinType:
    """Ordered product of almost-simple factors, e.g. A2 x B3."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise RootDatumError("empty Dynkin type")
        for family, rank in self.factors:
            if family not in _RANK_BOUNDS or not _RANK_BOUNDS[family](rank):
                raise RootDatumError(f"inadmissible factor {family}{rank}")

    @staticmethod
    def parse(text: str) -> "DynkinType":
        factors = []
        for piece in text.strip().split("x"):
            m = re.fullmatch(r"\s*([A-G])\s*(\d+)\s*", piece)
            if not m:
                raise RootDatumError(f"cannot parse Dynkin factor {piece!r}")
            factors.append((m.group(1), int(m.group(2))))
        return DynkinType(tuple(factors))

    @property
    def rank(self) -> int:
        return sum(rank for _f, rank in self.factors)

    def __str__(self) -> str:
        return "x".join(f"{f}{n}" for f, n in self.factors)


def _factor_cartan(family: str, n: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix A[i][j] = 2(a_i, a_j)/(a_i, a_i) and symmetrizers d_i
    (half squared lengths, short roots length-squared 2), Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    if family == "A":
        for i in range(n - 1):
            chain(i, i + 1)
        d = [1] * n
    elif family == "B":
        # Last simple root is the short one.
        for i in range(n - 2):
            chain(i, i + 1)
        a[n - 2][n - 1] = -1
        a[n - 1][n - 2] = -2
        d = [2] * (n - 1) + [1]
    elif family == "C":
        # Last simple root is the long one.
        for i in range(n - 2):
            chain(i, i + 1)
        a[n - 2][n - 1] = -2
        a[n - 1][n - 2] = -1
        d = [1] * (n - 1) + [2]
    elif family == "D":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(n - 3, n - 1)
        d = [1] * n
    elif family == "E":
        # Bourbaki: node 2 hangs off node 4 of the A-chain 1-3-4-5-6(-7)(-8).
        chainlist = [(0, 2), (2, 3), (3, 4), (4, 5)]
        if n >= 7:
            chainlist.append((5, 6))
        if n == 8:
            chainlist.append((6, 7))
        chainlist.append((1, 3))
        for i, j in chainlist:
            chain(i, j)
        d = [1] * n
    elif family == "F":
        chain(0, 1)
        a[1][2] = -1
        a[2][1] = -2
        chain(2, 3)
        d = [2, 2, 1, 1]
    elif family == "G":
        a[0][1] = -3
        a[1][0] = -1
        d = [1, 3]
    else:  # pragma: no cover - guarded by DynkinType
        raise RootDatumError(family)
    return a, d


def _bareiss_inverse(m: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
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
            raise RootDatumError("Cartan matrix has a vanishing leading principal minor")
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return prev, [row[n:] for row in a]


def _integer(v: Union[int, Fraction]) -> int:
    if getattr(v, "denominator", None) != 1:
        raise RootDatumError(f"weight coordinate {v} is not an integer, so the weight is not in P")
    return int(v)


@dataclass(frozen=True)
class Weight:
    """Element of P = Z^r, as integer coordinates in the fundamental-weight basis."""

    coords: tuple[int, ...]

    @staticmethod
    def of(values: Iterable[Union[int, Fraction]]) -> "Weight":
        """Integers pass through and integral Fractions become ints; any other
        coordinate raises RootDatumError."""
        return Weight(tuple(_integer(v) for v in values))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scaled(self, k: Union[int, Fraction]) -> "Weight":
        """k * lambda, which must lie in P again."""
        return Weight.of(a * k for a in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class Root:
    """Positive root carrying both coordinate views."""

    root_coords: tuple[int, ...]
    fw_coords: tuple[int, ...]
    height: int
    factor: int
    d: int  # half squared length


LatticeSpec = Union[str, Sequence[Sequence[int]], Lattice]


@dataclass(frozen=True)
class RootDatum:
    """Validated semisimple root datum with Q <= X <= P."""

    dynkin: DynkinType
    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    killing: tuple[tuple[Fraction, ...], ...]
    simple_roots: tuple[tuple[int, ...], ...]  # fw coords = columns of cartan
    charlattice: Lattice
    lacing: int
    pos_roots: tuple[Root, ...]
    w0_word: tuple[int, ...]
    factor_of_index: tuple[int, ...]  # simple index -> almost-simple factor
    q_lattice: Lattice = field(compare=False, repr=False)  # Q, the HNF of the simple roots; read by root_lattice()

    @property
    def rank(self) -> int:
        return len(self.d)

    def weight_lattice(self) -> Lattice:
        return Lattice.standard(self.rank)

    def root_lattice(self) -> Lattice:
        """Q, built once with the datum."""
        return self.q_lattice

    def simple_root(self, i: int) -> Weight:
        return Weight.of(self.simple_roots[i])

    def fundamental_weight(self, i: int) -> Weight:
        return Weight.of([int(i == j) for j in range(self.rank)])

    @cached_property
    def killing_gram(self) -> tuple[int, IntMatrix]:
        """(D, K) with the Killing matrix equal to K / D over integers, read
        off the entries' numerators and denominators."""
        den = lcm(*(x.denominator for row in self.killing for x in row))
        return den, [[x.numerator * (den // x.denominator) for x in row] for row in self.killing]

    def is_simply_connected(self) -> bool:
        return self.charlattice == self.weight_lattice()

    def is_adjoint(self) -> bool:
        return self.charlattice == self.root_lattice()


def _longest_word(cartan: Sequence[Sequence[int]], rank: int) -> list[int]:
    """Greedy descent from rho: reflect at the lowest simple index with a
    positive pairing until the antidominant chamber is reached."""
    v = [1] * rank  # rho in fundamental-weight coordinates
    word: list[int] = []
    while True:
        i = next((k for k in range(rank) if v[k] > 0), None)
        if i is None:
            return word
        # s_i in fw coords: v -= v_i * (column i of cartan)
        c = v[i]
        v = [a - c * cartan[k][i] for k, a in enumerate(v)]
        word.append(i)


def _positive_roots_orbit(cartan: Sequence[Sequence[int]], support: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Positive roots by orbit closure from the simple roots.

    Each root carries its fundamental-weight coordinates, so <gamma, a_i^vee>
    is read off, s_i moves root coordinate i alone, and the image is
    positive exactly when that coordinate stays >= 0."""
    rank = len(cartan)
    frontier = [([int(i == j) for j in range(rank)], [cartan[j][i] for j in range(rank)]) for i in range(rank)]
    found = {tuple(coords) for coords, _fw in frontier}
    while frontier:
        nxt = []
        for coords, fw in frontier:
            for i, p in enumerate(fw):
                if p == 0 or coords[i] < p:
                    continue
                img = coords[:]
                img[i] -= p
                key = tuple(img)
                if key not in found:
                    found.add(key)
                    img_fw = fw[:]
                    for k in support[i]:
                        img_fw[k] -= p * cartan[k][i]
                    nxt.append((img, img_fw))
        frontier = nxt
    return found


def assemble_cartan(dynkin: DynkinType) -> tuple[list[list[int]], list[int], list[int]]:
    """The block-diagonal Cartan matrix of the type, its symmetrizers d_i and
    the almost-simple factor of each simple index.  The simple roots, in
    fundamental-weight coordinates, are the columns of the Cartan matrix."""
    rank = dynkin.rank
    cartan = [[0] * rank for _ in range(rank)]
    d: list[int] = []
    factor_of_index: list[int] = []
    offset = 0
    for fi, (family, n) in enumerate(dynkin.factors):
        a, dv = _factor_cartan(family, n)
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = a[i][j]
        d.extend(dv)
        factor_of_index.extend([fi] * n)
        offset += n
    return cartan, d, factor_of_index


def build_root_datum(dynkin: Union[DynkinType, str], lattice_spec: LatticeSpec = "sc") -> RootDatum:
    """Assemble and validate a root datum for the given type and character
    lattice ("sc", "adjoint", or explicit generator rows in fw coordinates)."""
    if isinstance(dynkin, str):
        dynkin = DynkinType.parse(dynkin)
    elif not isinstance(dynkin, DynkinType):
        raise RootDatumError(f"Dynkin type must be a string such as 'A2xB3', not {dynkin!r}")
    cartan, d, factor_of_index = assemble_cartan(dynkin)
    rank = dynkin.rank

    for i in range(rank):
        for j in range(rank):
            if i != j and cartan[i][j] > 0:
                raise RootDatumError("off-diagonal Cartan entries must be <= 0")
            if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                raise RootDatumError("Cartan matrix is not symmetrized by d")

    # Killing Gram matrix of fundamental weights: (w_i, w_j) = d_i * (A^-1)[i][j].
    det, adj = _bareiss_inverse(cartan)
    for i in range(rank):
        for j in range(rank):
            if d[i] * adj[i][j] != d[j] * adj[j][i]:
                raise RootDatumError("Killing matrix is not symmetric")
            if factor_of_index[i] != factor_of_index[j] and adj[i][j] != 0:
                raise RootDatumError("cross-factor Killing pairing must vanish")
    killing = [[Fraction(d[i] * adj[i][j], det) for j in range(rank)] for i in range(rank)]

    simple_roots = tuple(tuple(cartan[i][j] for i in range(rank)) for j in range(rank))
    lacing = lcm(*(_LACING[f] for f, _n in dynkin.factors))

    q_lat = hnf([list(col) for col in simple_roots], rank)
    if isinstance(lattice_spec, Lattice):
        charlattice = lattice_spec
    elif lattice_spec in ("sc", "simply_connected"):
        charlattice = Lattice.standard(rank)
    elif lattice_spec == "adjoint":
        charlattice = q_lat
    elif isinstance(lattice_spec, str):
        raise RootDatumError(f"unknown lattice preset {lattice_spec!r}")
    else:
        try:
            charlattice = hnf([list(row) for row in lattice_spec], rank)
        except (LatticeError, TypeError) as exc:
            raise RootDatumError(f"bad lattice generators: {exc}") from exc
    if charlattice.ambient_rank != rank:
        raise RootDatumError("character lattice has wrong ambient rank")
    if charlattice.rank != rank:
        raise RootDatumError("character lattice must have full rank")
    for row in q_lat.gens:
        if not charlattice.member(row):
            raise RootDatumError("character lattice does not contain the root lattice Q")

    word = _longest_word(cartan, rank)
    # i and its neighbours: the support of row i of A, and of column i, as d symmetrizes A.
    support = [[k for k in range(rank) if cartan[i][k]] for i in range(rank)]
    pos = _enumerate_positive_roots(cartan, d, factor_of_index, word, support)

    orbit = _positive_roots_orbit(cartan, support)
    enumerated = {r.root_coords for r in pos}
    if enumerated != orbit or len(enumerated) != len(pos):
        raise RootDatumError("longest-word enumeration disagrees with orbit closure")
    if len(word) != len(pos):
        raise RootDatumError("longest word has wrong length")

    rd = RootDatum(
        dynkin=dynkin,
        cartan=tuple(tuple(row) for row in cartan),
        d=tuple(d),
        killing=tuple(tuple(row) for row in killing),
        simple_roots=simple_roots,
        charlattice=charlattice,
        lacing=lacing,
        pos_roots=tuple(pos),
        w0_word=tuple(word),
        factor_of_index=tuple(factor_of_index),
        q_lattice=q_lat,
    )

    # (a_i, a_j) = d_i * A[i][j], checked against the assembled Killing matrix K / D.
    den, k = rd.killing_gram
    if congruent(simple_roots, k) != [[den * d[i] * cartan[i][j] for j in range(rank)] for i in range(rank)]:
        raise RootDatumError("Killing normalization check failed")

    # w0 sends the dominant chamber to the antidominant chamber; in fw
    # coordinates s_s(v) = v - v_s a_s moves v on the support of column s.
    for i in range(rank):
        v = [int(i == j) for j in range(rank)]
        for s in word:
            c = v[s]
            if c:
                for m in support[s]:
                    v[m] -= c * cartan[m][s]
        if any(c > 0 for c in v):
            raise RootDatumError("longest word does not reach the antidominant chamber")
    return rd


def _column_update(col_k: list[int], a: int, col_i: list[int]) -> list[int]:
    """col_k - a col_i: column k of w s_i from the columns of w, a = A[i][k]."""
    return [x - a * y for x, y in zip(col_k, col_i)]


def _enumerate_positive_roots(
    cartan: Sequence[Sequence[int]],
    d: Sequence[int],
    factor_of_index: Sequence[int],
    word: Sequence[int],
    support: Sequence[Sequence[int]],
) -> list[Root]:
    """Enumeration gamma_j = w_j(a_(i_j)) induced by the reduced word
    (i_1, ..., i_t), where w_t = 1 and w_(j-1) = w_j s_(i_j); that is,
    gamma_j = s_(i_t) ... s_(i_(j+1)) (a_(i_j)).

    The walk runs j = t, ..., 1 and keeps the columns w_j(a_k), each in root
    coordinates followed by fundamental-weight coordinates.  Right
    multiplication by s_i sends column k to col_k - A[i][k] col_i, which
    moves only column i and the columns of the neighbours of i, so each root
    costs O(r) and the enumeration O(|Phi+| r)."""
    rank = len(d)
    cols = [[int(m == k) for m in range(rank)] + [cartan[m][k] for m in range(rank)] for k in range(rank)]
    roots = []
    for i in reversed(word):
        col = cols[i]
        coords, fw = col[:rank], col[rank:]
        roots.append(
            Root(
                root_coords=tuple(coords),
                fw_coords=tuple(fw),
                height=sum(coords),
                factor=factor_of_index[i],
                # Half the squared length: (gamma, gamma) = sum_k d_k c_k <gamma, a_k^vee>.
                d=sum(dk * c * f for dk, c, f in zip(d, coords, fw)) // 2,
            )
        )
        for k in support[i]:
            cols[k] = _column_update(cols[k], cartan[i][k], col)
    roots.reverse()
    return roots


def two_rho(rd: RootDatum) -> Weight:
    """Sum of the positive roots, column by column over their fw coordinates;
    equals twice the sum of fundamental weights."""
    total = Weight(tuple(map(sum, zip(*(root.fw_coords for root in rd.pos_roots)))))
    if total.coords != (2,) * rd.rank:
        raise RootDatumError("sum of positive roots is not 2*rho")
    return total
