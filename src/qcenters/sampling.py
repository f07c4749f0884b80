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
from .rootdata import RootDatum, build_root_datum

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
    """One random (root datum, parameter) pair within the given bounds."""
    rank = rng.randint(1, max_rank)
    type_str = rng.choice(_TYPES_BY_RANK[rank])
    scaffold = build_root_datum(type_str, "sc")
    choice = rng.random()
    if choice < 0.4:
        lattice = "sc"
    elif choice < 0.7:
        lattice = "adjoint"
    else:
        lattice = _random_intermediate(rng, scaffold)
    rd = build_root_datum(type_str, lattice)
    n_factors = len(rd.dynkin.factors)
    cs = []
    for _ in range(n_factors):
        den = rng.randint(1, max_den)
        num = rng.randint(1, den - 1) if den > 1 else 1
        cs.append(Fraction(num, den))
    return rd, make_param(rd, cs)


def _random_intermediate(rng: random.Random, scaffold: RootDatum) -> Lattice:
    """A random lattice between Q and P: Q plus a few random weight vectors."""
    rows = [list(r) for r in scaffold.root_lattice().gens]
    for _ in range(rng.randint(1, scaffold.rank)):
        rows.append([rng.randint(-2, 2) for _ in range(scaffold.rank)])
    return hnf(rows, scaffold.rank)
