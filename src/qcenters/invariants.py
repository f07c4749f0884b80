"""Dimension formulas and simple-module label groups, with cross-checks.

One stage, `dim_report`, reads [X : X^Tan] from the center tower, prod l_gamma
from the l-table and Sigma, Lambda, Theta from the radicals.  The fiber
dimension is [X : X^Tan] * (prod l_gamma)^2; where the verdicts find the
simply-connected even-order hypotheses, it is re-derived through |Z(G)| *
(prod_simple l_alpha) * (prod l_gamma)^2 and the two must agree.  The toral
algebra dimension [X : rad(q, kappa)] * (prod l_gamma)^2 exceeds the fiber
dimension by exactly |Sigma|, and label groups of simples are the quotients
X / rad(q, kappa) and X / X^Tan.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

from .centers import CenterTower, Verdicts, held
from .intlat import FiniteAbelianGroup, index, quotient
from .kappa import Radicals
from .qparam import InvariantViolation, QParam


@dataclass(frozen=True)
class DimReport:
    """All dimension and label data for one (root datum, parameter) pair."""

    fpdim_fiber: int
    fpdim_sc_formula: Optional[int]
    dim_uqk: int
    dim_u_plus: int
    sigma_order: int
    simple_count_uq: int
    simple_count_uqk: int
    simples_group_uq: FiniteAbelianGroup
    simples_group_uqk: FiniteAbelianGroup
    grouplike_count: int
    theta_order: int


def dim_report(q: QParam, tower: CenterTower, rads: Radicals, verdicts: Verdicts) -> DimReport:
    """Dimensions and label groups, raising InvariantViolation on fiber
    formulas that disagree, on fiber * |Sigma| != dim u, and on
    |X / X^Tan| * |Sigma| != |Lambda|, in that order.

    dim u^+ = prod l_gamma over the box 0 <= m_gamma < l_gamma, the grouplikes
    are [X : rad(q, kappa)] = |Lambda|, and dim u = grouplikes * (dim u^+)^2.
    The simply-connected formula is None unless verdicts.thm_sc_hypotheses."""
    rd = q.rd
    dim_u_plus = prod(q.l_table)
    fiber = tower.index_x_tan * dim_u_plus**2
    sc_value: Optional[int] = None
    if verdicts.thm_sc_hypotheses:
        center_order = held(index, rd.root_lattice(), rd.weight_lattice(), "Q <= P")
        sc_value = center_order * prod(q.simple_ls()) * dim_u_plus**2
        if sc_value != fiber:
            raise InvariantViolation("the two fiber-dimension formulas disagree")
    sigma, lam = rads.groups.sigma, rads.groups.lam
    dim_u = lam.order * dim_u_plus**2
    if fiber * sigma.order != dim_u:
        raise InvariantViolation("fiber dimension times |Sigma| does not equal dim u")
    group_uq = held(quotient, tower.x_tan, rd.charlattice, "X^Tan <= X")
    if group_uq.order * sigma.order != lam.order:
        raise InvariantViolation("simple-label orbit count is inconsistent with |Sigma|")
    return DimReport(
        fpdim_fiber=fiber,
        fpdim_sc_formula=sc_value,
        dim_uqk=dim_u,
        dim_u_plus=dim_u_plus,
        sigma_order=sigma.order,
        simple_count_uq=group_uq.order,
        simple_count_uqk=lam.order,
        simples_group_uq=group_uq,
        simples_group_uqk=lam,
        grouplike_count=lam.order,
        theta_order=rads.groups.theta.order,
    )
