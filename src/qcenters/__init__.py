"""Exact invariants of quantum groups at roots of unity.

From a semisimple root datum and a torsion quantum parameter this package
computes, in exact arithmetic: the center sublattice tower lQ <= X^Tan <=
X^Mug <= X*, dual root data with their quasi-classical parameter, the
alternating twisting forms kappa/psi, small-quantum-group dimensions and
simple-module label groups, braiding coefficient data, and a modularity
verdict, together with self-verifying identity checks.
"""

from .angles import AngleQZ
from .centers import CenterTower, DualDatum, Verdicts, center_tower, dual_datum, verdicts, x_star
from .cyclo import CycloNum, cyclotomic_poly, qbinom, qfact, qint, root_of_unity
from .intlat import (
    FiniteAbelianGroup,
    Lattice,
    congruence_kernel,
    hnf,
    index,
    intersect,
    member,
    quotient,
    snf,
)
from .invariants import DimReport, dim_report, dims_uqk, fpdim_fiber, fpdim_sc, simples
from .kappa import BiformQZ, Radicals, ToralGroups, build_kappa, extend_psi, radicals
from .qparam import InvariantViolation, ParamClass, QParam, classify, make_param
from .report import Analysis, build_report, to_json, to_text
from .rmatrix import RSupport, coeff, omega_phase, pairing_diag, support_size
from .rootdata import (
    DynkinType,
    Root,
    RootDatum,
    Weight,
    build_root_datum,
    longest_word,
    positive_roots,
    two_rho,
    weyl_reflect,
)
from .twistcheck import TwistWitness, commutator_identity, cross_commutator_check, serre_ratio_invariance

__all__ = [
    "Analysis",
    "AngleQZ",
    "BiformQZ",
    "CenterTower",
    "CycloNum",
    "DimReport",
    "DualDatum",
    "DynkinType",
    "FiniteAbelianGroup",
    "InvariantViolation",
    "Lattice",
    "ParamClass",
    "QParam",
    "RSupport",
    "Radicals",
    "Root",
    "RootDatum",
    "ToralGroups",
    "TwistWitness",
    "Verdicts",
    "Weight",
    "build_kappa",
    "build_report",
    "build_root_datum",
    "center_tower",
    "classify",
    "coeff",
    "commutator_identity",
    "congruence_kernel",
    "cross_commutator_check",
    "cyclotomic_poly",
    "dim_report",
    "dims_uqk",
    "dual_datum",
    "extend_psi",
    "fpdim_fiber",
    "fpdim_sc",
    "hnf",
    "index",
    "intersect",
    "longest_word",
    "make_param",
    "member",
    "omega_phase",
    "pairing_diag",
    "positive_roots",
    "qbinom",
    "qfact",
    "qint",
    "quotient",
    "radicals",
    "root_of_unity",
    "serre_ratio_invariance",
    "simples",
    "snf",
    "support_size",
    "to_json",
    "to_text",
    "two_rho",
    "verdicts",
    "weyl_reflect",
    "x_star",
]
