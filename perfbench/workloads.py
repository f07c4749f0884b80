"""Seeded inputs of the three benchmark workloads.

This module is plain data: it imports nothing from qcenters, so the
benchmark can size a pass in run.py without loading the program.

The seed picks only parameter numerators and, for the intermediate
lattices, one of several generators of an isomorphic lattice (on
cyclo-wide it picks the order of the cases, see `generate`).  A parameter
(1/m_H)_H per factor H becomes (u/m_H)_H with u a unit modulo every
m_H * det(Cartan_H).  The Killing Gram of the fundamental weights has
denominators dividing det(Cartan), so every angle the parameter produces
lies in (1/M)Z/Z with M = lcm(m_H * det_H), and multiplying by u is an
automorphism of that group.  It keeps the l-tables, support boxes, lattices
and cyclotomic conductors of a case the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

DEFAULT_SEED = 0
WORKLOADS = ("report-sweep", "rmatrix-box", "cyclo-wide")

LatticeSpec = Union[str, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class Case:
    """One operation's input: a root datum, a parameter and the workload
    options that apply to it."""

    label: str
    type_str: str
    lattice: LatticeSpec  # "sc", "adjoint" or generator rows in fundamental-weight coordinates
    c: tuple[Fraction, ...]
    preset: Optional[str] = None  # preset name; its report must match the golden file
    max_terms: Optional[int] = None  # rmatrix-box cap on the term table

    def input_echo(self) -> dict:
        """The `input` section the command line writes for the same request."""
        return {
            "type": self.type_str,
            "lattice": self.lattice if isinstance(self.lattice, str) else [list(r) for r in self.lattice],
            "param": [f"{c.numerator}/{c.denominator}" for c in self.c],
        }


def _factors(type_str: str) -> list[tuple[str, int]]:
    return [(f[0], int(f[1:])) for f in type_str.split("x")]


def _cartan_det(family: str, n: int) -> int:
    return {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n, "F": 1, "G": 1}[family]


def unit_multipliers(type_str: str, dens: tuple[int, ...]) -> list[int]:
    """Multipliers u in [1, lcm(dens)) such that the parameter (u/m_H)_H is u
    times (1/m_H)_H with u a unit modulo every m_H * det(Cartan_H): the same
    l-table, lattices and conductor as (1/m_H)_H, since one u scales every
    factor alike."""
    modulus = lcm(*(den * _cartan_det(f, n) for (f, n), den in zip(_factors(type_str), dens)))
    return [u for u in range(1, lcm(*dens)) if gcd(u, modulus) == 1]


def _param(rng: random.Random, type_str: str, dens: tuple[int, ...]) -> tuple[Fraction, ...]:
    u = rng.choice(unit_multipliers(type_str, dens))
    return tuple(Fraction(u, den) for den in dens)


def _label(type_str: str, lattice: str, c: tuple[Fraction, ...], extra: str = "") -> str:
    return f"{type_str} {lattice} {','.join(map(str, c))}{extra}"


def _root_rows(type_str: str) -> list[list[int]]:
    """Simple roots in fundamental-weight coordinates for a product of A and D
    factors, whose Cartan matrices are symmetric, numbered as qcenters does."""
    rank = sum(n for _f, n in _factors(type_str))
    rows: list[list[int]] = []
    offset = 0
    for family, n in _factors(type_str):
        if family not in "AD":
            raise ValueError("intermediate lattices are only generated for A and D factors")
        links = [(i, i + 1) for i in range(n - 2 if family == "D" else n - 1)]
        if family == "D":
            links += [(n - 3, n - 1)]
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in links:
            cartan[i][j] = cartan[j][i] = -1
        for row in cartan:
            rows.append([0] * offset + row + [0] * (rank - offset - n))
        offset += n
    return rows


# (type, lattice, parameter denominators per factor)
REPORT_CASES = [
    ("A2", "sc", (6,)),
    ("C3", "sc", (8,)),
    ("F4", "sc", (12,)),
    ("E6", "sc", (10,)),
    ("E7", "sc", (10,)),
    ("E8", "sc", (10,)),
    ("A7", "adjoint", (5,)),
    ("D8", "sc", (7,)),
    ("A12", "sc", (6,)),
    ("B4", "adjoint", (9,)),
    ("A3xB2", "sc", (6, 4)),
]

# Intermediate lattices Q < X < P of fixed index [X : Q]:
# the seed picks the generator g of X = Q + Z g:
#   A5, index 3: X = Q + Z(2 w1) or Q + Z(4 w1), the same lattice;
#   D6, index 2: the two half-spin lattices Q + Z w5 and Q + Z w6, swapped
#     by the diagram automorphism;
#   A3xA3, index 4: Q + Z(w1 + w1') or Q + Z(w1 + 3 w1'), swapped by the
#     diagram automorphism of the second factor.
INTERMEDIATE_CASES = [
    ("A5", [[2, 0, 0, 0, 0], [4, 0, 0, 0, 0]], (9,)),
    ("D6", [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], (8,)),
    ("A3xA3", [[1, 0, 0, 1, 0, 0], [1, 0, 0, 3, 0, 0]], (6, 10)),
]

# (type, parameter denominator, cap on the term table or None for the full box)
RMATRIX_CASES = [
    ("A3", 10, 3000),
    ("G2", 15, 500),
    ("C3", 8, 2000),
    ("G2", 12, None),
    ("A2", 14, None),
    ("B2", 10, None),
]

CYCLO_DENOMINATORS = (11, 13, 17, 19)


# qcenters.presets.PRESET_NAMES, repeated so that this module imports nothing
# from the program; a test keeps the two in step.
PRESET_NAMES = ["sl2n-even", "sl2n-odd", "sp2n-odd-halfpi", "sl3-odd", "adjoint-odd-lusztig", "g2-small"]


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of one pass, in execution order; equal seeds give equal cases."""
    rng = random.Random(f"{workload}:{seed}")
    cases: list[Case] = []
    if workload == "report-sweep":
        for name in PRESET_NAMES:
            cases.append(Case(label=f"preset {name}", type_str="", lattice="", c=(), preset=name))
        for type_str, lattice, dens in REPORT_CASES:
            c = _param(rng, type_str, dens)
            cases.append(Case(_label(type_str, lattice, c), type_str, lattice, c))
        for type_str, generators, dens in INTERMEDIATE_CASES:
            g = rng.choice(generators)
            lattice = tuple(tuple(r) for r in _root_rows(type_str) + [g])
            c = _param(rng, type_str, dens)
            lat_text = "X=Q+(" + ",".join(map(str, g)) + ")"
            cases.append(Case(_label(type_str, lat_text, c), type_str, lattice, c))
    elif workload == "rmatrix-box":
        for type_str, den, cap in RMATRIX_CASES:
            c = _param(rng, type_str, (den,))
            extra = f" max_terms={cap}" if cap is not None else ""
            cases.append(Case(_label(type_str, "sc", c, extra), type_str, "sc", c, max_terms=cap))
    elif workload == "cyclo-wide":
        # The numerator stays 1 and the seed only orders the cases: the
        # extended Euclid inverse in Q(zeta_N) costs up to twice as much on
        # some Galois conjugates (A1 a/19 takes 4.4 s to 8.8 s over the odd
        # a), so a seeded numerator would measure the draw, not the program.
        for den in rng.sample(CYCLO_DENOMINATORS, len(CYCLO_DENOMINATORS)):
            c = (Fraction(1, den),)
            cases.append(Case(_label("A1", "sc", c), "A1", "sc", c))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return cases
