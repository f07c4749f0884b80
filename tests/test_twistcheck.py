from fractions import Fraction
from math import lcm

import pytest

from helpers import qbinom_commutator_identity
from qcenters import twistcheck
from qcenters.angles import HALF, ZERO, AngleQZ
from qcenters.kappa import BiformQZ
from qcenters.intlat import hnf
from qcenters.qparam import make_param
from qcenters.report import Analysis
from qcenters.rootdata import build_root_datum
from qcenters.twistcheck import (
    TwistPreconditionError,
    commutator_identity,
    cross_commutator_check,
    run_all,
    serre_ratio_invariance,
)


def _dual_with_kappa(type_str, c):
    rd = build_root_datum(type_str, "sc")
    a = Analysis(rd, make_param(rd, c))
    return a.g_check, a.kappa


def test_serre_ratio_simply_laced():
    dual, kappa = _dual_with_kappa("A2", Fraction(1, 6))
    witnesses = serre_ratio_invariance(dual, kappa)
    assert witnesses, "adjacent pairs must be checked"
    for w in witnesses:
        assert w.serre_exponent == 2
        assert w.verdict
        # The constant is the eps angle of the source root.
        assert all(v == dual.epsilon_scalars[w.pair[0]] for v in w.values)


def test_serre_ratio_doubled_edge():
    dual, kappa = _dual_with_kappa("C2", Fraction(1, 4))
    witnesses = serre_ratio_invariance(dual, kappa)
    exps = sorted(w.serre_exponent for w in witnesses)
    assert exps == [2, 3]  # one direction sees m = 2, the other m = 3
    assert all(w.verdict for w in witnesses)
    # Doubled edge: the Cartan entry is even, so 2 M_a(b) = 0 there.
    for w in witnesses:
        if w.serre_exponent == 3:
            i, j = w.pair
            m_val = kappa.eval(list(dual.star_roots[i]), list(dual.star_roots[j]))
            assert m_val.scaled(2) == dual.epsilon_scalars[i].scaled(dual.cartan_star[i][j])


def test_serre_ratio_tripled_edge():
    dual, kappa = _dual_with_kappa("G2", Fraction(1, 12))
    witnesses = serre_ratio_invariance(dual, kappa)
    exps = sorted(w.serre_exponent for w in witnesses)
    assert exps == [2, 4]
    assert all(w.verdict for w in witnesses)


def test_commutator_identity_signs():
    assert commutator_identity(ZERO)  # classical [e, f] eigenvalue
    assert commutator_identity(HALF)  # sign-twisted case
    with pytest.raises(TwistPreconditionError):
        commutator_identity(AngleQZ(1, 3))


@pytest.mark.parametrize("eps", [ZERO, HALF])
def test_commutator_identity_matches_qbinom_oracle(eps):
    assert commutator_identity(eps) == qbinom_commutator_identity(eps) is True


def test_commutator_identity_detects_a_wrong_inverse(monkeypatch):
    # With eps^-1 (the second root of unity asked for) read as 1 at eps = -1,
    # eps^(1-m) at m = 1 reads eps = -1 and the m = 1 check fails.
    real, asked = twistcheck.root_of_unity, []

    def inverse_read_as_one(angle, conductor):
        asked.append(angle)
        return real(angle if len(asked) == 1 else ZERO, conductor)

    monkeypatch.setattr(twistcheck, "root_of_unity", inverse_read_as_one)
    assert not commutator_identity(HALF)
    assert asked == [HALF, HALF]


def test_commutator_specific_values():
    # eps = -1, m = 3: (-1) * (-1)^3 * ((-1)^4 * 3) = 3, and m = 2 likewise.
    from qcenters.cyclo import qbinom, root_of_unity

    minus = root_of_unity(HALF, 2)
    for m, expected in ((3, 3), (2, 2)):
        binom_value = qbinom(m, 1, minus)
        assert binom_value == ((-1) ** (m + 1)) * m
        assert minus.power(1 + m) * binom_value == expected


def test_cross_commutator_examples():
    zero_gram = BiformQZ(basis=hnf([[1, 0], [0, 1]]), gram=((ZERO, ZERO), (ZERO, ZERO)))
    assert cross_commutator_check(zero_gram)

    quarter = AngleQZ(1, 4)
    threequarter = AngleQZ(3, 4)
    gram = BiformQZ(basis=hnf([[1, 0], [0, 1]]), gram=((ZERO, quarter), (threequarter, ZERO)))
    assert cross_commutator_check(gram)

    bad = BiformQZ(basis=hnf([[1, 0], [0, 1]]), gram=((ZERO, quarter), (quarter, ZERO)))
    assert not cross_commutator_check(bad)


@pytest.mark.parametrize(
    "type_str,ell",
    [("A1", 2), ("A2", 3), ("A3", 4), ("B2", 2), ("C3", 4), ("G2", 3)],
)
def test_full_sweep_on_even_order_duals(type_str, ell):
    rd = build_root_datum(type_str, "sc")
    ell = lcm(ell, rd.lacing)
    dual, kappa = _dual_with_kappa(type_str, Fraction(1, 2 * ell))
    witnesses, comm_ok, cross_ok = run_all(dual, kappa)
    assert comm_ok and cross_ok
    assert all(w.verdict for w in witnesses)
