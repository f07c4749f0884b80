import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qcenters import centers, invariants
from qcenters.centers import center_tower
from qcenters.intlat import FiniteAbelianGroup, index
from qcenters.invariants import dim_report
from qcenters.qparam import InvariantViolation, make_param
from qcenters.report import Analysis
from qcenters.rootdata import build_root_datum
from qcenters.sampling import random_instance


def _analysis(type_str, lattice, c):
    rd = build_root_datum(type_str, lattice)
    return Analysis(rd, make_param(rd, c))


def _dims(type_str, lattice, c):
    return _analysis(type_str, lattice, c).dims


def test_fpdim_fiber_examples():
    assert _dims("A1", "sc", Fraction(1, 4)).fpdim_fiber == 16
    assert _dims("A1", "sc", Fraction(1, 3)).fpdim_fiber == 54
    assert _dims("A1", "adjoint", Fraction(1, 3)).fpdim_fiber == 27


def test_fpdim_sc_examples():
    assert _dims("A1", "sc", Fraction(1, 4)).fpdim_sc_formula == 16  # 2 * 2 * 4
    assert _dims("A2", "sc", Fraction(1, 6)).fpdim_sc_formula == 3 * 9 * 729  # 19683
    assert _dims("A1", "sc", Fraction(1, 3)).fpdim_sc_formula is None  # odd-order scalar parameter
    assert _dims("A1", "adjoint", Fraction(1, 4)).fpdim_sc_formula is None  # not simply connected


def test_dims_uqk_examples():
    dims = _dims("A1", "sc", Fraction(1, 4))
    assert (dims.dim_uqk, dims.dim_u_plus, dims.grouplike_count) == (32, 2, 8)
    assert dims.dim_uqk // dims.sigma_order == 16

    dims = _dims("A1", "adjoint", Fraction(1, 3))
    assert (dims.dim_uqk, dims.dim_u_plus, dims.grouplike_count) == (27, 3, 3)
    assert dims.sigma_order == 1

    dims = _dims("A2", "sc", Fraction(1, 2))  # quasi-classical
    assert dims.dim_u_plus == 1 and dims.dim_uqk == dims.grouplike_count


def test_simples_examples():
    dims = _dims("A1", "sc", Fraction(1, 4))
    assert dims.simples_group_uq.invariant_factors == (4,)
    assert dims.simples_group_uqk.invariant_factors == (8,)
    assert _dims("A1", "sc", Fraction(1, 3)).simples_group_uq.invariant_factors == (6,)
    assert _dims("A1", "adjoint", Fraction(1, 3)).simples_group_uq.invariant_factors == (3,)


def _stages(a, tower=None, rads=None):
    """dim_report's arguments from the stages of `a`, with tower or rads replaced."""
    return a.q, tower or a.tower, rads or a.rads, a.verdicts


def test_infinite_tan_index_is_refused(monkeypatch):
    # lQ has full rank and lies in X^Tan, so [X : X^Tan] is finite; the tower
    # refuses an index read that says otherwise before any stage uses it.
    a = _analysis("A1", "sc", Fraction(1, 4))
    tan, x = a.tower.x_tan, a.rd.charlattice
    assert a.tower.index_x_tan == index(tan, x) == 4
    monkeypatch.setattr(centers, "index", lambda sub, sup: None if (sub, sup) == (tan, x) else index(sub, sup))
    with pytest.raises(InvariantViolation, match=r"X\^Tan has infinite index in X"):
        center_tower(a.q)


def test_fiber_formulas_that_disagree_are_refused(monkeypatch):
    a = _analysis("A2", "sc", Fraction(1, 6))
    dim_report(*_stages(a))
    monkeypatch.setattr(invariants, "index", lambda sub, sup: 4)  # |Z(SL3)| is 3
    with pytest.raises(InvariantViolation, match="the two fiber-dimension formulas disagree"):
        dim_report(*_stages(a))


def test_fiber_times_sigma_must_equal_dim_u():
    a = _analysis("A1", "sc", Fraction(1, 4))
    dim_report(*_stages(a))
    assert a.rads.groups.sigma.order == 2
    groups = replace(a.rads.groups, sigma=FiniteAbelianGroup(()))
    with pytest.raises(InvariantViolation, match=r"fiber dimension times \|Sigma\| does not equal dim u"):
        dim_report(*_stages(a, rads=replace(a.rads, groups=groups)))


def test_label_groups_must_differ_by_sigma(monkeypatch):
    a = _analysis("A1", "sc", Fraction(1, 4))
    dim_report(*_stages(a))
    monkeypatch.setattr(invariants, "quotient", lambda sub, sup: FiniteAbelianGroup((3,)))
    with pytest.raises(InvariantViolation, match=r"simple-label orbit count is inconsistent with \|Sigma\|"):
        dim_report(*_stages(a))


@pytest.mark.parametrize("type_str,ell", [("A1", 3), ("A2", 5)])
def test_adjoint_odd_lusztig_dimensions(type_str, ell):
    rd = build_root_datum(type_str, "adjoint")
    a = Analysis(rd, make_param(rd, Fraction(1, ell)))
    rads, report = a.rads, a.dims
    lie_dim = rd.rank + 2 * len(rd.pos_roots)
    assert report.fpdim_fiber == ell**lie_dim
    assert report.grouplike_count == ell**rd.rank
    assert rads.groups.lam.invariant_factors == tuple([ell] * rd.rank)
    assert report.simples_group_uq.invariant_factors == tuple([ell] * rd.rank)


def test_dim_report_identities_randomized():
    rng = random.Random(4242)
    count = 0
    while count < 50:
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        report = Analysis(rd, q).dims  # raises on any broken identity
        count += 1
        assert report.fpdim_fiber * report.sigma_order == report.dim_uqk
        assert report.simple_count_uq * report.sigma_order == report.simple_count_uqk
        assert report.fpdim_fiber > 0 and report.dim_uqk > 0
        if report.fpdim_sc_formula is not None:
            assert report.fpdim_sc_formula == report.fpdim_fiber
        prod_l2 = report.dim_u_plus**2
        assert report.simple_count_uq == report.fpdim_fiber // prod_l2
