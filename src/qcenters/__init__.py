"""Exact invariants of quantum groups at roots of unity.

From a semisimple root datum and a torsion quantum parameter this package
computes, in exact arithmetic: the center sublattice tower lQ <= X^Tan <=
X^Mug <= X*, dual root data with their quasi-classical parameter, the
alternating twisting forms kappa/psi, small-quantum-group dimensions and
simple-module label groups, braiding coefficient data, and a modularity
verdict, together with self-verifying identity checks.

`Analysis(rd, q)` computes each of these stages once, on first use, and
raises ValueError unless rd is q's root datum; its `dims`
(`invariants.dim_report`) holds every dimension and label group.  The
stages read the datum as q.rd: `center_tower(q)`, `dual_datum(q, lattice)`,
`verdicts(q, tower, param_class, g_star)`, `build_kappa(q, x_tan)`,
`radicals(q, kappa, x_star, index_x_tan)` and
`dim_report(q, tower, rads, verdicts)`.
"""

from .angles import AngleQZ
from .centers import CenterTower, DualDatum, Verdicts, center_tower, dual_datum, verdicts, x_star
from .cyclo import CycloNum, cyclotomic_poly, qfact, root_of_unity
from .intlat import (
    FiniteAbelianGroup,
    Lattice,
    annihilator,
    congruence_kernel,
    hnf,
    index,
    intersect,
    quotient,
    snf,
)
from .invariants import DimReport, dim_report
from .kappa import BiformQZ, Radicals, ToralGroups, build_kappa, extend_psi, radicals
from .qparam import InvariantViolation, ParamClass, QParam, classify, make_param
from .report import Analysis, build_report, to_json, to_text
from .rmatrix import RSupport, coeff, pairing_diag, support_size
from .rootdata import (
    DynkinType,
    Root,
    RootDatum,
    Weight,
    build_root_datum,
    two_rho,
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
    "annihilator",
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
    "dual_datum",
    "extend_psi",
    "hnf",
    "index",
    "intersect",
    "make_param",
    "pairing_diag",
    "qfact",
    "quotient",
    "radicals",
    "root_of_unity",
    "serre_ratio_invariance",
    "snf",
    "support_size",
    "to_json",
    "to_text",
    "two_rho",
    "verdicts",
    "x_star",
]
