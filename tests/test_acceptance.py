"""Acceptance suite: the headline conclusions, one criterion per test.

Every check is exact (integer/lattice equality or exact angle/cyclotomic
equality); the randomized criteria use fixed seeds.  Each test prints a
single pass/fail line (visible under `pytest -s` or `-v` by test name).
"""

import itertools
import json
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from qcenters.angles import AngleQZ
from qcenters.centers import center_tower
from qcenters.cli import main as cli_main
from qcenters.cyclo import qbinom, root_of_unity
from qcenters.intlat import index
from qcenters.presets import PRESET_NAMES
from qcenters.qparam import make_param
from qcenters.report import Analysis
from qcenters.rmatrix import RSupport, batch_conductor, coeff, pairing_diag, support_size
from qcenters.rootdata import Weight, build_root_datum
from qcenters.sampling import random_instance


def _report(number: int, label: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    sys.stdout.write(f"[{status}] criterion {number}: {label}\n")
    assert ok, f"criterion {number} failed: {label}"


EVEN_ORDER_CASES = [
    (t, ell)
    for t, lace in (("A1", 1), ("A2", 1), ("A3", 1), ("B2", 2), ("C3", 2), ("G2", 3))
    for ell in range(1, 7)
    if ell % lace == 0
]


def test_criterion_1_even_order_regularity():
    ok = True
    for type_str, ell in EVEN_ORDER_CASES:
        rd = build_root_datum(type_str, "sc")
        q = make_param(rd, Fraction(1, 2 * ell))
        a = Analysis(rd, q)
        tower = a.tower
        v = a.verdicts
        transpose = tuple(tuple(rd.cartan[j][i] for j in range(rd.rank)) for i in range(rd.rank))
        dual = a.g_check
        ok = ok and v.thm_sc_hypotheses and bool(v.thm_sc_conclusion_check)
        ok = ok and tower.x_tan == tower.x_mug == tower.lq
        ok = ok and dual.cartan_star == transpose
    _report(1, f"Tan = Mug = lQ and transposed dual Cartan on {len(EVEN_ORDER_CASES)} even-order cases", ok)


def test_criterion_2_odd_order_counterexamples():
    ok = True
    # SL(2n) at c = 1/l: witness (l/2) * sum of odd-position simple roots.
    for n, ell in itertools.product((1, 3), (3, 5)):
        rd = build_root_datum(f"A{2 * n - 1}", "sc")
        q = make_param(rd, Fraction(1, ell))
        tower = center_tower(q, rd)
        lam0 = Weight.of([0] * rd.rank)
        for i in range(0, rd.rank, 2):
            lam0 = lam0 + rd.simple_root(i)
        lam0 = lam0.scaled(Fraction(ell, 2))
        coords = lam0.coords
        ok = ok and tower.x_tan != tower.x_mug
        ok = ok and tower.x_mug.member(coords) and not tower.x_tan.member(coords)
        ok = ok and q.eval(lam0, lam0) == AngleQZ(1, 2)
    # Sp(2n) at c = 1/(2l), odd l: witness l * beta / 2 at the long simple root.
    for n, ell in itertools.product((2, 3), (3, 5)):
        rd = build_root_datum(f"C{n}", "sc")
        q = make_param(rd, Fraction(1, 2 * ell))
        tower = center_tower(q, rd)
        lam0 = rd.simple_root(rd.rank - 1).scaled(Fraction(ell, 2))
        coords = lam0.coords
        ok = ok and tower.x_tan != tower.x_mug
        ok = ok and tower.x_mug.member(coords) and not tower.x_tan.member(coords)
        ok = ok and q.eval(lam0, lam0) == AngleQZ(1, 2)
    # SL(3) at c = 1/l, odd l: the centers agree at lQ regardless.
    for ell in (3, 5):
        rd = build_root_datum("A2", "sc")
        q = make_param(rd, Fraction(1, ell))
        tower = center_tower(q, rd)
        ok = ok and tower.x_tan == tower.x_mug == tower.lq
    _report(2, "odd-order witnesses and the SL(3) equality", ok)


def test_criterion_3_dimension_formulas_randomized():
    rng = random.Random(20240605)
    ok = True
    runs = 0
    while runs < 50:
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        a = Analysis(rd, q)
        tower = a.tower
        report = a.dims
        runs += 1
        n_tan = index(tower.x_tan, rd.charlattice)
        prod_l = 1
        for l in q.pos_root_ls():
            prod_l *= l
        ok = ok and report.fpdim_fiber == n_tan * prod_l**2
        ok = ok and report.fpdim_fiber * report.sigma_order == report.dim_uqk
        if report.fpdim_sc_formula is not None:
            ok = ok and report.fpdim_sc_formula == report.fpdim_fiber
    _report(3, "fiber-dimension identities on 50 randomized instances", ok)


def test_criterion_4_adjoint_odd_specialization():
    ok = True
    for type_str, ell in (("A1", 3), ("A2", 5)):
        rd = build_root_datum(type_str, "adjoint")
        q = make_param(rd, Fraction(1, ell))
        a = Analysis(rd, q)
        rads = a.rads
        report = a.dims
        lie_dim = rd.rank + 2 * len(rd.pos_roots)
        ok = ok and rads.groups.lam.invariant_factors == tuple([ell] * rd.rank)
        ok = ok and report.grouplike_count == ell**rd.rank
        ok = ok and report.fpdim_fiber == ell**lie_dim
    _report(4, "adjoint odd-order grouplikes (Z/l)^rank and dimension l^dim(g)", ok)


def test_criterion_5_kappa_psi_properties():
    rng = random.Random(5150)
    instances = []
    for type_str, ell in EVEN_ORDER_CASES:
        rd = build_root_datum(type_str, "sc")
        instances.append((rd, make_param(rd, Fraction(1, 2 * ell))))
    for _ in range(20):
        instances.append(random_instance(rng, max_rank=3, max_den=24))
    ok = True
    for rd, q in instances:
        a = Analysis(rd, q)
        tower = a.tower
        if tower.x_tan.rank > 4:
            continue
        kappa = a.kappa
        psi = a.psi
        for x in tower.x_tan.gens:
            ok = ok and kappa.eval(x, x).is_zero()
            for y in tower.x_tan.gens:
                ok = ok and (kappa.eval(x, y) + kappa.eval(y, x)).is_zero()
                ok = ok and kappa.eval(x, y).scaled(2) == q.eval(Weight.of(x), Weight.of(y))
                ok = ok and psi.eval(x, y) == kappa.eval(x, y)
    _report(5, "kappa alternating square-root identities and exact psi restriction", ok)


def test_criterion_6_bruteforce_tannakian_crosscheck():
    rng = random.Random(8086)
    ok = True
    done = 0
    attempts = 0
    while done < 20 and attempts < 2000:
        attempts += 1
        rd, q = random_instance(rng, max_rank=2, max_den=12)
        basis = [list(g) for g in rd.charlattice.gens]
        gram = q.angle_gram(basis)
        n = len(basis)
        modulus = 2 * lcm(*(gram[i][j].den for i in range(n) for j in range(n)), 1)
        if modulus**n > 10_000:
            continue
        done += 1
        tower = center_tower(q, rd)
        ok = ok and tower.x_tan.contains_lattice(tower.lq)
        ok = ok and tower.x_mug.contains_lattice(tower.x_tan)
        ok = ok and tower.x_star.contains_lattice(tower.x_mug)
        x_weights = [Weight.of(g) for g in basis]
        for coords in itertools.product(range(modulus), repeat=n):
            vec = rd.charlattice.vector_from_coords(list(coords))
            lam = Weight.of(vec)
            brute = all(q.eval_sq(lam, w).is_zero() for w in x_weights) and q.eval(lam, lam).is_zero()
            if tower.x_tan.member(vec) != brute:
                ok = False
                break
    ok = ok and done == 20
    _report(6, "chain plus brute-force Tannakian membership on 20 instances", ok)


def test_criterion_7_rmatrix_suite():
    ok = True
    a1 = build_root_datum("A1", "sc")
    q4 = make_param(a1, Fraction(1, 4))
    count, supports = support_size(q4, a1)
    ok = ok and count == 2
    values = [coeff(s, q4, a1) for s in supports]
    minus_two_i = root_of_unity(AngleQZ(1, 4), 4) * (-2)
    ok = ok and values[0] == 1 and values[1] == minus_two_i

    rank_le_2 = [
        ("A1", Fraction(1, 4)),
        ("A1", Fraction(1, 3)),
        ("A2", Fraction(1, 6)),
        ("B2", Fraction(1, 4)),
        ("G2", Fraction(1, 12)),
    ]
    for type_str, c in rank_le_2:
        rd = build_root_datum(type_str, "sc")
        q = make_param(rd, c)
        ls = q.pos_root_ls()
        prod_l = 1
        for l in ls:
            prod_l *= l
        count, supports = support_size(q, rd, cap=None)
        ok = ok and count == prod_l and len(supports) == count
        big_n = batch_conductor(q, rd)
        omega_sum = Weight.of([1] * rd.rank)
        # Zero exactly outside the box, inverse relation inside it.
        for n in itertools.product(*(range(l + 1) for l in ls)):
            support = RSupport(tuple(n))
            value = coeff(support, q, rd, conductor=big_n)
            admissible = support.is_admissible(ls)
            ok = ok and value.is_zero() == (not admissible)
            if admissible:
                pairing = pairing_diag(support, rd, q, conductor=big_n)
                sign_exp = sum(v * r.height for v, r in zip(support.n, rd.pos_roots))
                weighted = Weight.of([0] * rd.rank)
                for v, r in zip(support.n, rd.pos_roots):
                    weighted = weighted + Weight.of(r.fw_coords).scaled(v)
                marker_angle = AngleQZ.of(Fraction(sign_exp, 2)) + q.eval(weighted, omega_sum)
                ok = ok and value * pairing * root_of_unity(-marker_angle, big_n) == 1
        if not ok:
            break
    _report(7, "support box, vanishing locus, A1 coefficients {1, -2i}, pairing inverses", ok)


def test_criterion_8_rescaling_identities():
    from qcenters.twistcheck import run_all

    ok = True
    for type_str, ell in EVEN_ORDER_CASES:
        rd = build_root_datum(type_str, "sc")
        q = make_param(rd, Fraction(1, 2 * ell))
        a = Analysis(rd, q)
        dual = a.g_check
        kappa = a.kappa
        witnesses, comm_ok, cross_ok = run_all(dual, kappa)
        ok = ok and comm_ok and cross_ok and all(w.verdict for w in witnesses)
    minus = root_of_unity(AngleQZ(1, 2), 2)
    for m in range(1, 11):
        ok = ok and qbinom(m, 1, minus) == ((-1) ** (m + 1)) * m
    _report(8, "Serre-ratio/commutator/cross-commutator checks and the sign binomial identity", ok)


def test_criterion_9_preset_byte_stability(capsys):
    ok = True
    import io
    from contextlib import redirect_stdout

    for name in PRESET_NAMES:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(["analyze", "--preset", name, "--json"])
            outputs.append((code, buf.getvalue()))
        ok = ok and outputs[0] == outputs[1] and outputs[0][0] == 0
        parsed = json.loads(outputs[0][1])
        ok = ok and json.dumps(parsed, indent=2, sort_keys=True) + "\n" == outputs[0][1]
    with capsys.disabled():
        pass
    _report(9, "byte-stable deterministic JSON for the six presets", ok)
