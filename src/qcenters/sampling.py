"""Seeded random instances for the property suites.

Instances are (root datum, parameter) pairs of bounded rank and bounded
parameter denominator, over a mix of simply-connected, adjoint, and random
intermediate character lattices.  Used by the self-test command and the
randomized acceptance suites; everything is driven by an explicit RNG so
runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from .intlat import Lattice, hnf
from .qparam import QParam, make_param
from .rootdata import DynkinType, RootDatum, assemble_cartan, build_root_datum

_TYPES_BY_RANK = {
    1: ["A1"],
    2: ["A2", "B2", "C2", "G2", "A1xA1"],
    3: ["A3", "B3", "C3", "A1xA2", "A1xB2", "A1xA1xA1"],
}


def random_instance(
    rng: random.Random,
    max_rank: int = 3,
    max_den: int = 24,
) -> tuple[RootDatum, QParam]:
    """One random (root datum, parameter) pair within the given bounds;
    max_rank must lie in the ranks the type table covers."""
    if max_rank not in _TYPES_BY_RANK:
        raise ValueError(f"max_rank must be in {min(_TYPES_BY_RANK)}..{max(_TYPES_BY_RANK)}, not {max_rank!r}")
    rank = rng.randint(1, max_rank)
    type_str = rng.choice(_TYPES_BY_RANK[rank])
    choice = rng.random()
    if choice < 0.7:
        rd = build_root_datum(type_str, "sc" if choice < 0.4 else "adjoint")
    else:
        rd = build_root_datum(type_str, _random_intermediate(rng, DynkinType.parse(type_str)))
    n_factors = len(rd.dynkin.factors)
    cs = []
    for _ in range(n_factors):
        den = rng.randint(1, max_den)
        num = rng.randint(1, den - 1) if den > 1 else 1
        cs.append(Fraction(num, den))
    return rd, make_param(rd, cs)


def _random_intermediate(rng: random.Random, dynkin: DynkinType) -> Lattice:
    """A random lattice between Q and P: Q plus a few random weight vectors.
    Q is spanned by the simple roots, the columns of the Cartan matrix."""
    cartan, _d, _factors = assemble_cartan(dynkin)
    rank = len(cartan)
    rows = [list(r) for r in hnf([list(col) for col in zip(*cartan)], rank).gens]
    for _ in range(rng.randint(1, rank)):
        rows.append([rng.randint(-2, 2) for _ in range(rank)])
    return hnf(rows, rank)
