"""Dimension formulas and simple-module label groups, with cross-checks.

The fiber dimension [X : X^Tan] * (prod l_gamma)^2 is computed directly; in
the simply-connected even-order regime it is re-derived through |Z(G)| *
(prod_simple l_alpha) * (prod l_gamma)^2 and the two must agree.  The toral
algebra dimension [X : rad(q, kappa)] * (prod l_gamma)^2 exceeds the fiber
dimension by exactly |Sigma|, and label groups of simples are the quotients
X / rad(q, kappa) and X / X^Tan.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

from .centers import CenterTower
from .intlat import FiniteAbelianGroup, index, quotient
from .kappa import Radicals
from .qparam import InvariantViolation, ParamClass, QParam
from .rootdata import RootDatum


class HypothesisNotMet(ValueError):
    """The gated formula's hypotheses fail, so the value is refused."""


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


def fpdim_fiber(q: QParam, rd: RootDatum, tower: CenterTower) -> int:
    """[X : X^Tan] * (prod l_gamma)^2."""
    n_tan = index(tower.x_tan, rd.charlattice)
    if n_tan is None:
        raise InvariantViolation("X^Tan has infinite index in X")
    return n_tan * prod(q.pos_root_ls()) ** 2


def fpdim_sc(q: QParam, rd: RootDatum, fiber: int, cls: ParamClass) -> int:
    """|Z(G)| * (prod_simple l_alpha) * (prod l_gamma)^2; only valid for a
    simply-connected datum with maximally non-degenerate even-order parameter,
    where it must equal the fiber dimension `fiber` from fpdim_fiber."""
    if not (rd.is_simply_connected() and cls.max_nondegenerate and cls.all_even):
        raise HypothesisNotMet("simply-connected even-order hypotheses are not satisfied")
    center_order = index(rd.root_lattice(), rd.weight_lattice())
    assert center_order is not None
    value = center_order * prod(q.simple_ls()) * prod(q.pos_root_ls()) ** 2
    if value != fiber:
        raise InvariantViolation("the two fiber-dimension formulas disagree")
    return value


def dims_uqk(q: QParam, rd: RootDatum, rads: Radicals) -> tuple[int, int, int]:
    """(dim u, dim u^+, grouplike count) for the toral small quantum algebra:
    dim u^+ = prod l_gamma over the box 0 <= m_gamma < l_gamma, grouplikes =
    [X : rad(q, kappa)], and dim u = grouplikes * (dim u^+)^2."""
    dim_u_plus = prod(q.pos_root_ls())
    grouplikes = index(rads.rad_qk, rd.charlattice)
    if grouplikes is None:
        raise InvariantViolation("rad(q, kappa) has infinite index in X")
    return grouplikes * dim_u_plus**2, dim_u_plus, grouplikes


def simples(q: QParam, rd: RootDatum, tower: CenterTower, rads: Radicals) -> tuple[FiniteAbelianGroup, FiniteAbelianGroup]:
    """(label group over the toral algebra, label group over the fiber algebra):
    X / rad(q, kappa), which is the group Lambda of the radicals, and X / X^Tan."""
    group_uqk = rads.groups.lam
    group_uq = quotient(tower.x_tan, rd.charlattice)
    if group_uq.order * rads.groups.sigma_order != group_uqk.order:
        raise InvariantViolation("simple-label orbit count is inconsistent with |Sigma|")
    return group_uqk, group_uq


def dim_report(q: QParam, rd: RootDatum, tower: CenterTower, rads: Radicals, cls: ParamClass) -> DimReport:
    fiber = fpdim_fiber(q, rd, tower)
    try:
        sc_value: Optional[int] = fpdim_sc(q, rd, fiber, cls)
    except HypothesisNotMet:
        sc_value = None
    dim_u, dim_u_plus, grouplikes = dims_uqk(q, rd, rads)
    sigma = rads.groups.sigma_order
    if fiber * sigma != dim_u:
        raise InvariantViolation("fiber dimension times |Sigma| does not equal dim u")
    group_uqk, group_uq = simples(q, rd, tower, rads)
    return DimReport(
        fpdim_fiber=fiber,
        fpdim_sc_formula=sc_value,
        dim_uqk=dim_u,
        dim_u_plus=dim_u_plus,
        sigma_order=sigma,
        simple_count_uq=group_uq.order,
        simple_count_uqk=group_uqk.order,
        simples_group_uq=group_uq,
        simples_group_uqk=group_uqk,
        grouplike_count=grouplikes,
        theta_order=rads.groups.theta_order,
    )
