import random
from fractions import Fraction

import pytest

from qcenters.invariants import HypothesisNotMet, dims_uqk, fpdim_fiber, fpdim_sc, simples
from qcenters.qparam import InvariantViolation, classify, make_param
from qcenters.report import Analysis
from qcenters.rootdata import build_root_datum
from qcenters.sampling import random_instance


def _full(type_str, lattice, c):
    rd = build_root_datum(type_str, lattice)
    a = Analysis(rd, make_param(rd, c))
    return rd, a.q, a.tower, a.rads


def test_fpdim_fiber_examples():
    rd, q, tower, rads = _full("A1", "sc", Fraction(1, 4))
    assert fpdim_fiber(q, tower) == 16
    rd, q, tower, rads = _full("A1", "sc", Fraction(1, 3))
    assert fpdim_fiber(q, tower) == 54
    rd, q, tower, rads = _full("A1", "adjoint", Fraction(1, 3))
    assert fpdim_fiber(q, tower) == 27


def test_fpdim_sc_examples():
    rd, q, tower, rads = _full("A1", "sc", Fraction(1, 4))
    assert fpdim_sc(q, rd, fpdim_fiber(q, tower), classify(q)) == 16  # 2 * 2 * 4

    rd, q, tower, rads = _full("A2", "sc", Fraction(1, 6))
    assert fpdim_sc(q, rd, fpdim_fiber(q, tower), classify(q)) == 3 * 9 * 729  # 19683
    with pytest.raises(InvariantViolation):
        fpdim_sc(q, rd, 3 * 9 * 729 + 1, classify(q))  # the fiber formula must agree

    rd, q, tower, rads = _full("A1", "sc", Fraction(1, 3))
    with pytest.raises(HypothesisNotMet):
        fpdim_sc(q, rd, fpdim_fiber(q, tower), classify(q))  # odd-order scalar parameter

    rd, q, tower, rads = _full("A1", "adjoint", Fraction(1, 4))
    with pytest.raises(HypothesisNotMet):
        fpdim_sc(q, rd, fpdim_fiber(q, tower), classify(q))  # not simply connected


def test_dims_uqk_examples():
    rd, q, tower, rads = _full("A1", "sc", Fraction(1, 4))
    dim_u, dim_u_plus, grouplikes = dims_uqk(q, rads)
    assert (dim_u, dim_u_plus, grouplikes) == (32, 2, 8)
    assert dim_u // rads.groups.sigma.order == 16

    rd, q, tower, rads = _full("A1", "adjoint", Fraction(1, 3))
    dim_u, dim_u_plus, grouplikes = dims_uqk(q, rads)
    assert (dim_u, dim_u_plus, grouplikes) == (27, 3, 3)
    assert rads.groups.sigma.order == 1

    rd, q, tower, rads = _full("A2", "sc", Fraction(1, 2))  # quasi-classical
    dim_u, dim_u_plus, grouplikes = dims_uqk(q, rads)
    assert dim_u_plus == 1 and dim_u == grouplikes


def test_simples_examples():
    rd, q, tower, rads = _full("A1", "sc", Fraction(1, 4))
    group_uqk, group_uq = simples(rd, tower, rads)
    assert group_uq.invariant_factors == (4,)
    assert group_uqk.invariant_factors == (8,)

    rd, q, tower, rads = _full("A1", "sc", Fraction(1, 3))
    _uqk, group_uq = simples(rd, tower, rads)
    assert group_uq.invariant_factors == (6,)

    rd, q, tower, rads = _full("A1", "adjoint", Fraction(1, 3))
    _uqk, group_uq = simples(rd, tower, rads)
    assert group_uq.invariant_factors == (3,)


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
