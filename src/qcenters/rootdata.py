"""Semisimple root data: Cartan matrices, Weyl reflections, root enumeration.

Weights are integer vectors in the fundamental-weight basis of P, factor by
factor, so P is exactly Z^r and membership of a weight in the character
lattice X is a pure integer-matrix test.  Simple roots in this basis are the
columns of the Cartan matrix.  The Killing form is normalized so that
(alpha, alpha) = 2 at every short root of every almost-simple factor, and is
evaluated as an integer Gram matrix over one common denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence, Union

from .intlat import IntMatrix, Lattice, LatticeError, bilinear, hnf


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


def _rational_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
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

    @property
    def rank(self) -> int:
        return len(self.d)

    def weight_lattice(self) -> Lattice:
        return Lattice.standard(self.rank)

    def root_lattice(self) -> Lattice:
        return hnf([list(a) for a in self.simple_roots], self.rank)

    def simple_root(self, i: int) -> Weight:
        return Weight.of(self.simple_roots[i])

    def fundamental_weight(self, i: int) -> Weight:
        return Weight.of([int(i == j) for j in range(self.rank)])

    @cached_property
    def killing_gram(self) -> tuple[int, IntMatrix]:
        """(D, K) with the Killing matrix equal to K / D over integers."""
        den = lcm(*(x.denominator for row in self.killing for x in row))
        return den, [[int(x * den) for x in row] for row in self.killing]

    def pairing(self, lam: Weight, mu: Weight) -> Fraction:
        """Normalized Killing form (lam, mu)."""
        den, k = self.killing_gram
        return Fraction(bilinear(k, lam.coords, mu.coords), den)

    def is_simply_connected(self) -> bool:
        return self.charlattice == self.weight_lattice()

    def is_adjoint(self) -> bool:
        return self.charlattice == self.root_lattice()


def weyl_reflect(rd: RootDatum, i: int, lam: Weight) -> Weight:
    """Simple reflection s_i(lam) = lam - <lam, a_i^vee> a_i."""
    if not 0 <= i < rd.rank:
        raise RootDatumError(f"simple index {i} out of range")
    c = lam.coords[i]  # <lam, a_i^vee> is the i-th fundamental-weight coord
    if c == 0:
        return lam
    return lam - rd.simple_root(i).scaled(c)


def _reflect_root_coords(cartan: Sequence[Sequence[int]], i: int, coords: list[int]) -> list[int]:
    pairing = sum(cartan[i][j] * c for j, c in enumerate(coords))
    out = coords[:]
    out[i] -= pairing
    return out


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


def _positive_roots_orbit(cartan: Sequence[Sequence[int]], rank: int) -> set[tuple[int, ...]]:
    """Positive roots by orbit closure from the simple roots."""
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for coords in frontier:
            for i in range(rank):
                img = tuple(_reflect_root_coords(cartan, i, list(coords)))
                if all(c >= 0 for c in img) and img not in found:
                    found.add(img)
                    nxt.append(img)
        frontier = nxt
    return found


def build_root_datum(dynkin: Union[DynkinType, str], lattice_spec: LatticeSpec = "sc") -> RootDatum:
    """Assemble and validate a root datum for the given type and character
    lattice ("sc", "adjoint", or explicit generator rows in fw coordinates)."""
    if isinstance(dynkin, str):
        dynkin = DynkinType.parse(dynkin)
    blocks = [_factor_cartan(f, n) for f, n in dynkin.factors]
    rank = dynkin.rank
    cartan = [[0] * rank for _ in range(rank)]
    d: list[int] = []
    factor_of_index: list[int] = []
    offset = 0
    for fi, (a, dv) in enumerate(blocks):
        n = len(dv)
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = a[i][j]
        d.extend(dv)
        factor_of_index.extend([fi] * n)
        offset += n

    for i in range(rank):
        for j in range(rank):
            if i != j and cartan[i][j] > 0:
                raise RootDatumError("off-diagonal Cartan entries must be <= 0")
            if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                raise RootDatumError("Cartan matrix is not symmetrized by d")

    # Killing Gram matrix of fundamental weights: (w_i, w_j) = d_i * (A^-1)[i][j].
    inv = _rational_inverse([[Fraction(x) for x in row] for row in cartan])
    killing = [[d[i] * inv[i][j] for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(rank):
            if killing[i][j] != killing[j][i]:
                raise RootDatumError("Killing matrix is not symmetric")
            if factor_of_index[i] != factor_of_index[j] and killing[i][j] != 0:
                raise RootDatumError("cross-factor Killing pairing must vanish")

    simple_roots = tuple(tuple(cartan[i][j] for i in range(rank)) for j in range(rank))
    lacing = lcm(*(_LACING[f] for f, _n in dynkin.factors))

    root_rows = [list(col) for col in simple_roots]
    if isinstance(lattice_spec, Lattice):
        charlattice = lattice_spec
    elif lattice_spec in ("sc", "simply_connected"):
        charlattice = Lattice.standard(rank)
    elif lattice_spec == "adjoint":
        charlattice = hnf(root_rows, rank)
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
    q_lat = hnf(root_rows, rank)
    for row in q_lat.gens:
        if not charlattice.member(row):
            raise RootDatumError("character lattice does not contain the root lattice Q")

    word = _longest_word(cartan, rank)
    pos = _enumerate_positive_roots(cartan, d, factor_of_index, word, rank)

    orbit = _positive_roots_orbit(cartan, rank)
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
    )

    # (a_i, a_j) = d_i * A[i][j], checked against the assembled Killing matrix.
    for i in range(rank):
        for j in range(rank):
            if rd.pairing(rd.simple_root(i), rd.simple_root(j)) != d[i] * cartan[i][j]:
                raise RootDatumError("Killing normalization check failed")

    # w0 sends the dominant chamber to the antidominant chamber.
    for i in range(rank):
        img = rd.fundamental_weight(i)
        for s in word:
            img = weyl_reflect(rd, s, img)
        if any(c > 0 for c in img.coords):
            raise RootDatumError("longest word does not reach the antidominant chamber")
    return rd


def _enumerate_positive_roots(
    cartan: Sequence[Sequence[int]],
    d: Sequence[int],
    factor_of_index: Sequence[int],
    word: Sequence[int],
    rank: int,
) -> list[Root]:
    """Enumeration gamma_j = s_{i_t} ... s_{i_{j+1}} (a_{i_j}) induced by the
    reduced word (i_1, ..., i_t), applying s_{i_{j+1}} first."""
    t = len(word)
    roots = []
    for j in range(t):
        coords = [int(k == word[j]) for k in range(rank)]
        for m in range(j + 1, t):
            coords = _reflect_root_coords(cartan, word[m], coords)
        fw = [sum(cartan[i][k] * coords[k] for k in range(rank)) for i in range(rank)]
        base = word[j]
        # d is constant on Weyl orbits within a factor; recompute from length.
        dd = sum(d[k] * coords[k] * sum(cartan[k][m] * coords[m] for m in range(rank)) for k in range(rank)) // 2
        roots.append(
            Root(
                root_coords=tuple(coords),
                fw_coords=tuple(fw),
                height=sum(coords),
                factor=factor_of_index[base],
                d=dd,
            )
        )
    return roots


def positive_roots(rd: RootDatum) -> tuple[Root, ...]:
    """Positive roots in longest-word order (already validated at build time)."""
    return rd.pos_roots


def longest_word(rd: RootDatum) -> tuple[int, ...]:
    return rd.w0_word


def two_rho(rd: RootDatum) -> Weight:
    """Sum of the positive roots; equals twice the sum of fundamental weights."""
    total = Weight.of([0] * rd.rank)
    for root in rd.pos_roots:
        total = total + Weight.of(root.fw_coords)
    if list(total.coords) != [2] * rd.rank:
        raise RootDatumError("sum of positive roots is not 2*rho")
    return total
