import inspect
import textwrap
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from helpers import count_calls, count_inverses, qbinom, qbinom_commutator_identity
from qcenters import cyclo, twistcheck
from qcenters.angles import HALF, ZERO, AngleQZ
from qcenters.cyclo import CycloNum
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
    # The walk runs on the integer eps = +-1, which is its own inverse, so
    # no field element is built or inverted, and twistcheck binds nothing
    # of cyclo.
    inverses = count_inverses(monkeypatch)
    built = count_calls(monkeypatch, CycloNum, "__init__")
    assert commutator_identity(ZERO) and commutator_identity(HALF)
    assert inverses == [0] and built == [0]
    assert [name for name, v in vars(twistcheck).items() if getattr(v, "__module__", None) == cyclo.__name__] == []


def test_commutator_identity_detects_a_wrong_inverse():
    # With eps^-1 read as 1 in the walk, eps^(1-m) stays eps = -1, so at
    # m = 1 the product eps^(1-m) [1] reads -1 and the m = 1 check fails;
    # at eps = 1 the two readings agree.
    source = textwrap.dedent(inspect.getsource(commutator_identity))
    mutated = source.replace("down * eps", "down * 1")
    assert mutated.count("down * 1") == 1
    namespace = dict(vars(twistcheck))
    exec(compile(mutated, "mutated twistcheck", "exec"), namespace)
    assert namespace["commutator_identity"](ZERO)
    assert not namespace["commutator_identity"](HALF)
    assert commutator_identity(HALF)


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
