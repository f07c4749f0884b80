from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from helpers import count_inverses, qbinom, qbinom_commutator_identity
from qcenters import twistcheck
from qcenters.angles import HALF, ZERO, AngleQZ
from qcenters.kappa import BiformQZ, KappaError
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


def test_commutator_identity_inverts_nothing(monkeypatch):
    inverses = count_inverses(monkeypatch)
    commutator_identity.cache_clear()
    assert commutator_identity(ZERO) and commutator_identity(HALF)
    assert inverses == [0]
    commutator_identity.cache_clear()


def test_commutator_identity_detects_a_wrong_inverse(monkeypatch):
    # With eps^-1 (the second root of unity asked for) read as 1 at eps = -1,
    # eps^(1-m) at m = 1 reads eps = -1 and the m = 1 check fails.
    real, asked = twistcheck.root_of_unity, []
    commutator_identity.cache_clear()

    def inverse_read_as_one(angle, conductor):
        asked.append(angle)
        return real(angle if len(asked) == 1 else ZERO, conductor)

    monkeypatch.setattr(twistcheck, "root_of_unity", inverse_read_as_one)
    assert not commutator_identity(HALF)
    assert asked == [HALF, HALF]
    commutator_identity.cache_clear()


def test_commutator_specific_values():
    # eps = -1, m = 3: (-1) * (-1)^3 * ((-1)^4 * 3) = 3, and m = 2 likewise.
    from qcenters.cyclo import root_of_unity

    minus = root_of_unity(HALF, 2)
    for m, expected in ((3, 3), (2, 2)):
        binom_value = qbinom(m, 1, minus)
        assert binom_value == ((-1) ** (m + 1)) * m
        assert minus.power(1 + m) * binom_value == expected


def test_cross_commutator_examples():
    zero_gram = BiformQZ(basis=hnf([[1, 0], [0, 1]]), int_gram=(4, [[0, 0], [0, 0]]))
    assert cross_commutator_check(zero_gram)

    gram = BiformQZ(basis=hnf([[1, 0], [0, 1]]), int_gram=(4, [[0, 1], [3, 0]]))
    assert cross_commutator_check(gram)

    bad = BiformQZ(basis=hnf([[1, 0], [0, 1]]), int_gram=(4, [[0, 1], [1, 0]]))
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


def test_serre_ratio_rejects_a_non_sign_eps():
    dual, kappa = _dual_with_kappa("A2", Fraction(1, 6))
    dual = replace(dual, epsilon_scalars=(AngleQZ(1, 3),) + dual.epsilon_scalars[1:])
    with pytest.raises(TwistPreconditionError, match="^eps scalar 1/3 at index 0 is not a sign$"):
        serre_ratio_invariance(dual, kappa)


def test_serre_ratio_rejects_a_kappa_that_is_not_a_square_root():
    dual, kappa = _dual_with_kappa("A2", Fraction(1, 6))
    zero = BiformQZ(basis=kappa.basis, int_gram=(4, [[0, 0], [0, 0]]))
    with pytest.raises(TwistPreconditionError, match="^kappa is not a square root of eps on the rescaled roots$"):
        serre_ratio_invariance(dual, zero)


def test_serre_ratio_rejects_roots_outside_kappas_domain():
    dual, kappa = _dual_with_kappa("A2", Fraction(1, 6))
    smaller = BiformQZ(basis=hnf([[2 * x for x in g] for g in kappa.basis.gens]), int_gram=kappa.int_gram)
    with pytest.raises(KappaError, match="^vector outside the form's domain lattice$"):
        serre_ratio_invariance(dual, smaller)
