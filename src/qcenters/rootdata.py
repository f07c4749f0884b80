"""Semisimple root data: Cartan matrices, Weyl reflections, root enumeration.

Weights are integer vectors in the fundamental-weight basis of P, factor by
factor, so P is exactly Z^r and membership of a weight in the character
lattice X is a pure integer-matrix test.  Simple roots in this basis are the
columns of the Cartan matrix.  The Killing form is normalized so that
(alpha, alpha) = 2 at every short root of every almost-simple factor, and is
evaluated as an integer Gram matrix (D, K) over one common denominator,
read straight off the integer pair (det A, adj A).

That pair comes from Gaussian elimination along the Dynkin forest, leaves
first: the off-diagonal pattern of a finite-type Cartan matrix is a forest,
and eliminating a leaf changes its parent's diagonal entry alone, so there
is no fill-in (Parter 1961, "The use of linear graphs in Gauss
elimination").  The forward pass costs O(deg) rows of length r per node and
the back pass one row per node, O(r^2) in all, where Gauss-Jordan on
[A | I] costs O(r^3).

The positive roots are read off a reduced word of the longest element by
carrying the images w(alpha_k) of the simple roots as columns, one simple
reflection per root.  Right multiplication by s_i moves only the columns of
i and of its Dynkin neighbours, and a column is one packed integer of 2r
bytes, so a step costs O(deg) integer operations, each in C, and the walk
O(|Phi+| deg) of them; only the dense tuples of each emitted Root are O(r),
unpacked in C.  The greedy descent
that finds the word also touches only the reflected node's neighbours, with
a heap of the indices where the weight is still positive.

The enumeration is cross-checked against an orbit closure, and the word
against two identities: its length is |Phi+|, and applied to rho once it
gives w0(rho) = -rho.  As rho is regular, w0 is the one Weyl group element
sending it to -rho, so this one walk implies that every fundamental weight
lands in the antidominant chamber, which r walks checked before.  Killing
symmetry, the vanishing of cross-factor pairings and the normalization
(alpha_i, alpha_j) = d_i A_ij are integer-row checks.  A failed check is an
InvariantViolation (an internal fault); RootDatumError is kept for a bad
type string or lattice specification.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from math import gcd, lcm
from struct import Struct
from typing import Iterable, Sequence, Union

from .intlat import IntMatrix, Lattice, LatticeError, hnf, row_times


class RootDatumError(ValueError):
    """Raised on inadmissible Dynkin input or invalid lattice specifications."""


class InvariantViolation(AssertionError):
    """An identity the theory guarantees failed; indicates a bug or an input
    outside the validity envelope."""


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


def _forest_adjugate(cartan: Sequence[Sequence[int]], support: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """(det, adj) with cartan . adj = det . I, by elimination along the
    Dynkin forest, leaves first; support[v] lists v and its neighbours.

    Each tree is rooted at its lowest index.  With S(v) the principal minor
    on the subtree of v and P(v) the product of S over v's children, the
    forward pass leaves row v of A X = I as
    S(v) x_v + A[v][p] P(v) x_p = R_v, where x_v is row v of X = A^-1, p the
    parent of v, and R_v = P(v) e_v - sum_c A[v][c] (P(v) / S(c)) R_c, by
    the Schur complement S(v) = A[v][v] P(v) - sum_c A[v][c] A[c][v] P(c)
    P(v) / S(c).  The back pass, from each root down, reads adj_root =
    (det / S(root)) R_root and adj_c = (det R_c - A[c][v] P(c) adj_v) / S(c),
    every division exact.  The S(v) of the roots eliminated so far multiply
    to the leading principal minors in elimination order, so a vanishing one
    raises, as no pivot may vanish."""
    rank = len(cartan)
    order: list[int] = []
    children: list[list[int]] = [[] for _ in range(rank)]
    roots: list[int] = []
    seen = [False] * rank
    for root in range(rank):
        if seen[root]:
            continue
        seen[root] = True
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for k in support[v]:
                if not seen[k]:
                    seen[k] = True
                    children[v].append(k)
                    stack.append(k)
    minor = [0] * rank  # S(v)
    below = [1] * rank  # P(v)
    rows: list[list[int]] = [[]] * rank  # R_v
    for v in reversed(order):
        p = 1
        for c in children[v]:
            p *= minor[c]
        row = [0] * rank
        row[v] = p
        s = cartan[v][v] * p
        for c in children[v]:
            rest = p // minor[c]
            s -= cartan[v][c] * cartan[c][v] * below[c] * rest
            f = cartan[v][c] * rest
            row = [x - f * y for x, y in zip(row, rows[c])]
        if s == 0:
            raise InvariantViolation("Cartan matrix has a vanishing leading principal minor")
        minor[v], below[v], rows[v] = s, p, row
    det = 1
    for root in roots:
        det *= minor[root]
    adj: list[list[int]] = [[]] * rank
    for root in roots:
        f = det // minor[root]
        adj[root] = [f * x for x in rows[root]]
    for v in order:
        for c in children[v]:
            f = cartan[c][v] * below[c]
            adj[c] = [(det * x - f * y) // minor[c] for x, y in zip(rows[c], adj[v])]
    return det, adj


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
    simple_pos: tuple[int, ...] = field(compare=False, repr=False)  # simple index -> its place in pos_roots
    q_lattice: Lattice = field(compare=False, repr=False)  # Q, the HNF of the simple roots; read by root_lattice()
    # (D, K) with the Killing matrix equal to K / D over integers, in lowest terms.
    killing_gram: tuple[int, IntMatrix] = field(compare=False, repr=False)

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

    def is_simply_connected(self) -> bool:
        return self.charlattice == self.weight_lattice()

    def is_adjoint(self) -> bool:
        return self.charlattice == self.root_lattice()


def _longest_word(cartan: Sequence[Sequence[int]], support: Sequence[Sequence[int]]) -> list[int]:
    """Greedy descent from rho: reflect at the lowest simple index with a
    positive pairing until the antidominant chamber is reached.

    s_i moves v on the support of column i alone: v_i turns negative and
    only i's neighbours grow.  So the heap, which takes an index when its
    coordinate turns positive, holds exactly the positive indices."""
    v = [1] * len(cartan)  # rho in fundamental-weight coordinates
    positive = list(range(len(cartan)))  # sorted, so already a heap
    word: list[int] = []
    while positive:
        i = heappop(positive)
        c = v[i]
        for k in support[i]:
            before = v[k]
            v[k] = before - c * cartan[k][i]
            if before <= 0 < v[k]:
                heappush(positive, k)
        word.append(i)
    return word


def _positive_roots_orbit(cartan: Sequence[Sequence[int]], support: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Positive roots by orbit closure from the simple roots, climbing.

    Every positive root that is not simple is s_i of a lower positive root
    gamma with p = <gamma, a_i^vee> < 0, and s_i moves root coordinate i
    alone, by -p.  Each root carries its nonzero fundamental-weight
    coordinates, so p is read off and only the i with p < 0 are tried.
    Root coordinates, at most 6, are kept as bytes, the set's keys."""
    rank = len(cartan)
    frontier = [(bytes(int(i == j) for j in range(rank)), {k: cartan[k][i] for k in support[i]}) for i in range(rank)]
    found = {coords for coords, _fw in frontier}
    while frontier:
        nxt = []
        for coords, fw in frontier:
            for i, p in fw.items():
                if p >= 0:
                    continue
                img = bytearray(coords)
                img[i] -= p
                key = bytes(img)
                if key not in found:
                    found.add(key)
                    img_fw = fw.copy()
                    for k in support[i]:
                        c = img_fw.get(k, 0) - p * cartan[k][i]
                        if c:
                            img_fw[k] = c
                        else:
                            del img_fw[k]
                    nxt.append((key, img_fw))
        frontier = nxt
    return {tuple(coords) for coords in found}


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
    lattice ("sc", "adjoint", or generator rows in fw coordinates, as
    rows or as a `Lattice`, whose rows are put in HNF alike)."""
    if isinstance(dynkin, str):
        dynkin = DynkinType.parse(dynkin)
    elif not isinstance(dynkin, DynkinType):
        raise RootDatumError(f"Dynkin type must be a string such as 'A2xB3', not {dynkin!r}")
    cartan, d, factor_of_index = assemble_cartan(dynkin)
    rank = dynkin.rank

    for i in range(rank):
        for j in range(rank):
            if i != j and cartan[i][j] > 0:
                raise InvariantViolation("off-diagonal Cartan entries must be <= 0")
            if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                raise InvariantViolation("Cartan matrix is not symmetrized by d")
    # i and its neighbours: the support of row i of A, and of column i, as d symmetrizes A.
    support = [[k for k, a in enumerate(row) if a] for row in cartan]

    # Killing Gram matrix of fundamental weights: (w_i, w_j) = d_i * (A^-1)[i][j].
    det, adj = _forest_adjugate(cartan, support)
    for i in range(rank):
        for j in range(rank):
            if d[i] * adj[i][j] != d[j] * adj[j][i]:
                raise InvariantViolation("Killing matrix is not symmetric")
            if factor_of_index[i] != factor_of_index[j] and adj[i][j] != 0:
                raise InvariantViolation("cross-factor Killing pairing must vanish")
    numerators = [[di * x for x in row] for di, row in zip(d, adj)]
    # K / D in lowest terms: D is the lcm of the reduced denominators of the entries.
    g = gcd(det, *chain.from_iterable(numerators))
    killing_gram = det // g, [[x // g for x in row] for row in numerators]
    fraction = {x: Fraction(x, det) for x in set(chain.from_iterable(numerators))}.__getitem__
    killing = tuple(tuple(map(fraction, row)) for row in numerators)

    simple_roots = tuple(tuple(cartan[i][j] for i in range(rank)) for j in range(rank))
    lacing = lcm(*(_LACING[f] for f, _n in dynkin.factors))

    q_lat = hnf([list(col) for col in simple_roots], rank)
    if isinstance(lattice_spec, Lattice):
        if lattice_spec.ambient_rank != rank:
            raise RootDatumError("character lattice has wrong ambient rank")
        lattice_spec = lattice_spec.gens  # its rows, put in HNF as generator rows are
    if lattice_spec in ("sc", "simply_connected"):
        charlattice = Lattice.standard(rank)
    elif lattice_spec == "adjoint":
        charlattice = q_lat
    elif isinstance(lattice_spec, str):
        raise RootDatumError(f"unknown lattice preset {lattice_spec!r}")
    else:
        try:
            charlattice = hnf([list(row) for row in lattice_spec], rank)
        except (LatticeError, TypeError, OverflowError) as exc:  # int(1e400) overflows
            raise RootDatumError(f"bad lattice generators: {exc}") from exc
    if charlattice.rank != rank:
        raise RootDatumError("character lattice must have full rank")
    if not charlattice.contains_lattice(q_lat):
        raise RootDatumError("character lattice does not contain the root lattice Q")

    word = _longest_word(cartan, support)
    orbit = _positive_roots_orbit(cartan, support)
    if len(word) != len(orbit):
        raise InvariantViolation("longest word has wrong length")
    # w0 (rho) = -rho, the word applied to rho once; s_s(v) = v - v_s a_s
    # moves v on the support of column s.
    v = [1] * rank
    for s in word:
        c = v[s]
        for m in support[s]:
            v[m] -= c * cartan[m][s]
    if v != [-1] * rank:
        raise InvariantViolation("longest word does not reach the antidominant chamber")
    pos = _enumerate_positive_roots(cartan, d, factor_of_index, word, support)
    enumerated = {r.root_coords for r in pos}
    if enumerated != orbit or len(enumerated) != len(pos):
        raise InvariantViolation("longest-word enumeration disagrees with orbit closure")
    simple_at = {r.root_coords.index(1): p for p, r in enumerate(pos) if r.height == 1}

    rd = RootDatum(
        dynkin=dynkin,
        cartan=tuple(tuple(row) for row in cartan),
        d=tuple(d),
        killing=killing,
        simple_roots=simple_roots,
        charlattice=charlattice,
        lacing=lacing,
        pos_roots=tuple(pos),
        w0_word=tuple(word),
        factor_of_index=tuple(factor_of_index),
        simple_pos=tuple(simple_at[i] for i in range(rank)),
        q_lattice=q_lat,
        killing_gram=killing_gram,
    )

    # (a_i, w_j) = d_i delta_ij against the assembled Killing matrix K / D; as
    # a_j = sum_m A[m][j] w_m, this is (a_i, a_j) = d_i A[i][j] times A^-1.
    den, k = killing_gram
    if [row_times(alpha, k) for alpha in simple_roots] != [[den * di * (i == j) for j in range(rank)] for i, di in enumerate(d)]:
        raise InvariantViolation("Killing normalization check failed")
    return rd


def _column_update(col_k: int, a: int, col_i: int) -> int:
    """col_k - a col_i: column k of w s_i from the columns of w, a = A[i][k]."""
    return col_k - a * col_i


# A walk column packs 2r signed coordinates into one integer, one byte each:
# sum_m c_m 256^m.  Linear maps act on the packed integer exactly, and every
# coordinate of a root is at most 6 in absolute value, so adding 128 to
# every byte (the walk's bias) makes each byte c_m + 128 with no carry, and
# flipping its top bit (_TWOS_COMPLEMENT) leaves c_m as a signed byte.
_TWOS_COMPLEMENT = bytes(b ^ 0x80 for b in range(256))


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
    coordinates followed by fundamental-weight coordinates, packed into one
    integer.  Right multiplication by s_i sends column k to col_k - A[i][k]
    col_i, which moves only column i and the columns of the neighbours of i,
    so each step is O(deg) integer operations.  gamma_j has the length of
    a_(i_j), as w_j is an isometry."""
    rank = len(d)
    width = 2 * rank
    bias = int.from_bytes(b"\x80" * width, "little")
    unpack = Struct(f"<{width}b").unpack  # signed bytes to a tuple of ints
    cols = [(1 << 8 * k) + sum(cartan[m][k] << 8 * (rank + m) for m in support[k]) for k in range(rank)]
    roots = []
    for i in reversed(word):
        col = cols[i]
        fields = unpack((col + bias).to_bytes(width, "little").translate(_TWOS_COMPLEMENT))
        coords = fields[:rank]
        roots.append(Root(coords, fields[rank:], sum(coords), factor_of_index[i], d[i]))
        for k in support[i]:
            cols[k] = _column_update(cols[k], cartan[i][k], col)
    roots.reverse()
    return roots


def two_rho(rd: RootDatum) -> Weight:
    """Sum of the positive roots, column by column over their fw coordinates;
    equals twice the sum of fundamental weights."""
    total = Weight(tuple(map(sum, zip(*(root.fw_coords for root in rd.pos_roots)))))
    if total.coords != (2,) * rd.rank:
        raise InvariantViolation("sum of positive roots is not 2*rho")
    return total
