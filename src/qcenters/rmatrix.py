"""Finite support and exact coefficients of the quasi-R-matrix expansion.

A term of the expansion is indexed by a support n : Phi+ -> Z_{>=0}; its
coefficient vanishes exactly when some n_gamma reaches l_gamma, so the
admissible supports form a box of size prod l_gamma, which `support_size`
counts and `term_table` walks lazily, so no list of the box is ever built.
Coefficients and the diagonal Hopf-pairing values are evaluated exactly in
a single cyclotomic field whose conductor is the lcm of every angle
denominator that appears.  The sign (-1)^(sum n_gamma ht gamma) and the
phase q(sum n_gamma gamma, rho) of a coefficient are characters of n, so
the coefficient is a product of one factor per root, f_gamma(n_gamma),
entry n_gamma of a row over 0..l_gamma.  A parameter owns one table per
conductor (`_table`), kept in its `QParam.coeff_tables` dict, so a lookup
hashes an int and the tables are freed with the parameter: its rows, each
distinct (q_gamma, q(gamma, rho), parity of ht gamma, l_gamma) row built
once, the tuple of l_gamma, the integer matrices of the row entries
(`cyclo.MulMatrix`, one lazily filled map per distinct row, shared by the
roots of that row), the diagonal pairing rows, one per distinct q_gamma,
each built the first time a support asks for it, and the last support
`coeff` walked, with the coefficient at each of its prefixes.  A support,
whatever its number of nonzero entries, keeps the last walk up to the
first entry where the two differ and walks on from there, overwriting the
prefix values in place, reading its first nonzero entry off the row and
multiplying by the matrix of each later one; an entry reaching l_gamma,
tested only where the walk goes (the last support walked is admissible),
makes the support zero and resets the walk to the zero support.  Where
only the last entry changed, as in most steps of a lexicographic walk,
`_common_prefix` finds that by one comparison of the prefixes before it.
In lexicographic order, as `term_table` walks, a term is at most one
d x d integer product; any other order is exact too.  `term_table` stores
its box tuples, nonnegative ints by construction, as supports with no
`RSupport(...)` check.  A pairing value is a product of its table's
pairing rows (`CycloNum.product`), walked apart from the coefficient rows,
so that coeff * pairing = sign * phase checks one against the other.  Both
rows are binomial walks (`cyclo.binomial_walk`), by q^-v (q - q^-1) [v]_q =
1 - q^(-2v) and prod_{k=1}^{m-1} (1 - omega^k) = m for omega a primitive
m-th root of unity: no field product, no inverse.  Every conductor here is
even (lcm with 2), so zeta^(N/2) = -1 and a walk turns integer lists of
length N/2, each entry then reduced by the fold rows x^j mod Phi_N, j in
[d, N/2).  No other module computes in a cyclotomic field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm, prod
from operator import ne
from typing import Iterable, Optional, Sequence

from .angles import AngleQZ
from .cyclo import CycloNum, MulMatrix, binomial_walk
from .qparam import InvariantViolation, QParam
from .rootdata import RootDatum


class NonInvertibleSpecialization(ValueError):
    """A pairing factor specializes to zero, so its inverse does not exist.

    This is the obstruction that truncates the braiding expansion."""


@dataclass(frozen=True, slots=True, init=False)
class RSupport:
    """Exponent vector over the ordered positive roots: a tuple of
    nonnegative integers, whatever integer sequence it is given."""

    n: tuple[int, ...]

    def __init__(self, n: Iterable[int]) -> None:
        if type(n) is not tuple:
            n = tuple(n)
        # A sum of ints is an int, and any float or Fraction entry makes it not one.
        if n and (min(n) < 0 or type(sum(n)) is not int):
            raise ValueError(f"support exponents must be nonnegative integers, not {n!r}")
        _set_n(self, n)


# The constructor stores through the slot descriptor, past the frozen __setattr__.
_set_n = RSupport.__dict__["n"].__set__


def support_size(q: QParam) -> int:
    """Number of admissible supports: the size prod l_gamma of the box."""
    return prod(q.l_table)


def batch_conductor(q: QParam, rd: RootDatum) -> int:
    """lcm of every angle denominator the coefficient formula can produce:
    the sign, each q_gamma and each q(gamma, rho).  rd must be the
    parameter's root datum."""
    q.check_datum(rd)
    return lcm(2, *(a.order for pair in q.root_table for a in pair))


def _coeff_row(qg: AngleQZ, phase: AngleQZ, height_parity: int, l: int, conductor: int) -> tuple[CycloNum, ...]:
    """Entries v = 0..l of (-1)^(v ht) zeta^(v phase) q^(-v(v+1)/2)
    (q - q^-1)^v [v]_q! at q = exp(2 pi i qg), zeta^phase = exp(2 pi i phase).

    Since q^-k (q - q^-1) [k]_q = 1 - q^(-2k), entry v is
    ((-1)^ht zeta^phase)^v prod_{k <= v} (1 - q^(-2k)), zero at l: q^(2l) = 1."""
    row = binomial_walk(qg, range(1, l + 1), conductor, shift=phase, sign=-1 if height_parity else 1)
    if not row[l].is_zero():
        raise InvariantViolation(f"coefficient row of q_gamma = {qg} does not vanish at l = {l}")
    return tuple(row)


class _EntryMatrices(dict):
    """The multiplication matrices (`cyclo.MulMatrix`) of the entries of one
    coefficient row, keyed by entry and each built on first use."""

    __slots__ = ("row",)

    def __init__(self, row: tuple[CycloNum, ...]) -> None:
        super().__init__()
        self.row = row

    def __missing__(self, v: int) -> MulMatrix:
        matrix = self[v] = MulMatrix.of(self.row[v])
        return matrix


@dataclass(slots=True)
class _Table:
    """The coefficient rows of a parameter at one conductor, in rd.pos_roots
    order, with l_gamma and the entry matrices of each row (roots with one
    row share one map), the pairing row of each q_gamma a support has asked
    for, and the last support `coeff` walked, with the coefficient at each
    of its prefixes: values[i] for the first i entries, None while that
    prefix is all zeros."""

    rows: tuple[tuple[CycloNum, ...], ...]
    ls: tuple[int, ...]
    matrices: tuple[_EntryMatrices, ...]
    pairings: dict[AngleQZ, tuple[CycloNum, ...]]
    support: tuple[int, ...]
    values: list[Optional[CycloNum]]


def _table(q: QParam, conductor: int) -> _Table:
    """The table of q at the conductor, kept in `q.coeff_tables`; a new one
    has its walk at the zero support and no pairing row yet, and each
    distinct (q_gamma, phase, parity, l) row and its matrix map are built
    once."""
    table = q.coeff_tables.get(conductor)
    if table is None:
        keys = [(qg, phase, r.height % 2, l) for (qg, phase), l, r in zip(q.root_table, q.l_table, q.rd.pos_roots)]
        maps = {key: _EntryMatrices(_coeff_row(*key, conductor)) for key in dict.fromkeys(keys)}
        matrices = tuple(map(maps.__getitem__, keys))
        table = _Table(tuple(m.row for m in matrices), q.l_table, matrices, {}, (0,) * len(keys), [None] * (len(keys) + 1))
        q.coeff_tables[conductor] = table
    return table


def _pairing_row(angle: AngleQZ, conductor: int) -> tuple[CycloNum, ...]:
    """Entries v = 0 .. m - 1, m = ord(2 angle), of v_g^(v(v+1)/2)
    (v_g - v_g^-1)^(-v) ([v]_{v_g}!)^(-1) at v_g = exp(2 pi i angle).

    Entry v is 1 / prod_{k <= v} (1 - omega^k), omega = v_g^-2 of order m,
    so the row ends where factor k = m vanishes; as the full product is m,
    entry v is prod_{k=v+1}^{m-1} (1 - omega^k) / m, walked down from 1/m
    to entry 0, which must come back to 1."""
    if angle.is_zero() or angle.is_half():
        raise NonInvertibleSpecialization(f"(v - v^-1) vanishes at angle {angle}")
    m = angle.scaled(2).order
    row = binomial_walk(angle, range(m - 1, 0, -1), conductor, den=m)
    if row[-1] != 1:
        raise InvariantViolation(f"pairing walk of angle {angle} does not come back to prod (1 - omega^k) = {m}")
    return tuple(reversed(row))


def _common_prefix(a: Sequence[int], b: Sequence[int]) -> int:
    """The number of leading entries that a and b, of one length, share.

    When they differ in the last entry alone, as most consecutive supports
    of a lexicographic walk do, that is read off by one comparison of the
    two prefixes before it, with no scan in Python."""
    if a and a[-1] != b[-1] and a[:-1] == b[:-1]:
        return len(a) - 1
    return next(itertools.compress(itertools.count(), map(ne, a, b)), len(a))


def coeff(n: RSupport, q: QParam, rd: RootDatum, conductor: Optional[int] = None) -> CycloNum:
    """Exact coefficient of the expansion term with support n.

    The value is sign * phase * prod_gamma (q_gamma^(-n(n+1)/2)
    (q_gamma - q_gamma^-1)^n [n]_{q_gamma}!) with sign (-1)^(sum n_gamma
    ht(gamma)) and phase q(sum n_gamma gamma, rho), rho = sum_alpha
    omega_alpha.  Sign and phase are characters of n, so the value is the
    product over the nonzero n_gamma of entry n_gamma of the cached row of
    gamma.  The rows of a parameter are built, and checked to vanish at
    l_gamma, by its first coefficient at a conductor and then read from its
    table.  The last walk of the table is kept up to the first entry where
    n differs from it, and the walk goes on over the rest of n, the
    coefficient at each prefix being the one before it times the table's
    matrix of its last entry where that entry is nonzero (the row entry
    itself while the prefix before it is all zeros).  The value is exactly
    zero iff some n_gamma >= l_gamma, which is tested on the walked entries
    alone.  In lexicographic order that is at most one matrix product per
    support.  rd must be the parameter's root datum.
    """
    q.check_datum(rd)
    s = n.n
    if len(s) != len(rd.pos_roots):
        raise ValueError("support length must match the number of positive roots")
    big_n = conductor or batch_conductor(q, rd)
    table = q.coeff_tables.get(big_n) or _table(q, big_n)
    start = _common_prefix(s, table.support)
    values, matrices, ls = table.values, table.matrices, table.ls
    value = values[start]
    try:
        for i in range(start, len(s)):
            v = s[i]
            if v:
                if v >= ls[i]:
                    break
                value = matrices[i].row[v] if value is None else matrices[i][v].times(value)
            values[i + 1] = value
        else:
            table.support = s
            return CycloNum.one(big_n) if value is None else value
    except BaseException:
        # A walk cut short (a MemoryError building a wide matrix, an
        # interrupt) left values of no recorded support: start over from zero.
        table.support, table.values = (0,) * len(s), [None] * (len(s) + 1)
        raise
    # So did a walk stopped at an entry n_gamma >= l_gamma, whose support is zero.
    table.support, table.values = (0,) * len(s), [None] * (len(s) + 1)
    return CycloNum.zero(big_n)


def pairing_diag(n: RSupport, rd: RootDatum, q: QParam, conductor: Optional[int] = None) -> CycloNum:
    """Diagonal Hopf-pairing value prod_gamma v^(n(n+1)/2) (v - v^-1)^(-n)
    ([n]_v!)^(-1) at v_gamma = exp(2 pi i q_gamma), in the field of the
    conductor (by default `batch_conductor`), read off the pairing rows of
    the parameter's table there.

    Raises NonInvertibleSpecialization when an inverted factor vanishes,
    i.e. when [n_gamma]! = 0 (n_gamma >= l_gamma) or v_gamma = +-1 with
    n_gamma > 0.  rd must be the parameter's root datum.
    """
    q.check_datum(rd)
    if len(n.n) != len(rd.pos_roots):
        raise ValueError("support length must match the number of positive roots")
    big_n = conductor or batch_conductor(q, rd)
    rows = (q.coeff_tables.get(big_n) or _table(q, big_n)).pairings
    factors = []
    for v, (qg, _phase) in zip(n.n, q.root_table):
        if v:
            row = rows.get(qg) or rows.setdefault(qg, _pairing_row(qg, big_n))
            if v >= len(row):
                raise NonInvertibleSpecialization(f"[{v}]! vanishes at angle {qg}")
            factors.append(row[v])
    return CycloNum.product(factors, big_n)


def term_table(q: QParam, rd: RootDatum, max_terms: Optional[int] = None) -> list[tuple[RSupport, CycloNum]]:
    """All admissible supports with their exact coefficients, in lexicographic
    support order, optionally truncated to max_terms entries.  The box is
    walked lazily, so only the returned supports are ever built."""
    box = itertools.product(*(range(l) for l in q.l_table))
    big_n = batch_conductor(q, rd)
    out = []
    for n in itertools.islice(box, max_terms):
        s = object.__new__(RSupport)  # n holds nonnegative ints: no check to run
        _set_n(s, n)
        out.append((s, coeff(s, q, rd, conductor=big_n)))
    return out
