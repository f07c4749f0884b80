"""Randomized property suites runnable from the command line.

Three suites, each from its own `random.Random(seed)`:

- one sweep over 50 random instances that builds one `Analysis` per
  instance and runs every report stage, each of which raises on a violated
  identity (the center chain, the dimension identities and the rest), then
  requires the twist checks to pass and re-checks kappa and psi through
  `eval`;
- a brute-force cross-check of the Tannakian sublattice;
- the normal-form properties of the integer lattice layer, with the
  report path's cut and quotient checked against an independent route.

A nonzero failure count means either a bug or an input outside the
validity envelope.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm
from typing import Callable

from .centers import center_tower
from .intlat import Lattice, annihilator, congruence_kernel, congruent, hnf, index, left_kernel, quotient, smith_normal_form, snf
from .qparam import QParam
from .report import Analysis, twistcheck_section
from .rootdata import RootDatum, Weight
from .sampling import random_instance


@dataclass
class SuiteResult:
    name: str
    runs: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _tan_modulus(q: QParam, rd: RootDatum) -> int:
    """m = 2 * lcm of the q-angle denominators on the basis of X; both
    defining conditions of X^Tan are invariant under translation by m*X, by
    bilinearity."""
    gram = q.angle_gram(rd.charlattice.gens)
    return 2 * lcm(*(a.den for row in gram for a in row), 1)


def bruteforce_tan_residues(q: QParam, rd: RootDatum, modulus: int) -> set[tuple[int, ...]]:
    """Residue set of the Tannakian condition modulo modulus * X, for a
    modulus from `_tan_modulus`."""
    basis = [list(g) for g in rd.charlattice.gens]
    x_weights = [Weight.of(g) for g in basis]
    members = set()
    for coords in itertools.product(range(modulus), repeat=len(basis)):
        lam = Weight.of(rd.charlattice.vector_from_coords(list(coords)))
        if any(not q.eval(lam, w).scaled(2).is_zero() for w in x_weights):
            continue
        if not q.eval(lam, lam).is_zero():
            continue
        members.add(coords)
    return members


def bruteforce_tan_suite(rng: random.Random, runs: int = 20, max_index: int = 10_000) -> SuiteResult:
    """Brute-force coset enumeration of the Tannakian condition against the
    lattice-algebra computation."""
    failures = []
    done = 0
    attempts = 0
    while done < runs and attempts < runs * 60:
        attempts += 1
        rd, q = random_instance(rng, max_rank=2, max_den=12)
        modulus, n = _tan_modulus(q, rd), rd.charlattice.rank
        if modulus**n > max_index:
            continue
        done += 1
        tower = center_tower(q)
        brute = bruteforce_tan_residues(q, rd, modulus)
        lattice_side = set()
        for coords in itertools.product(range(modulus), repeat=n):
            vec = rd.charlattice.vector_from_coords(list(coords))
            if tower.x_tan.member(vec):
                lattice_side.add(coords)
        if brute != lattice_side:
            failures.append(f"{rd.dynkin} c={q.c}: brute-force Tannakian set disagrees")
    if done < runs:
        failures.append(f"only {done} of {runs} instances fit the index bound")
    return SuiteResult("brute-force Tannakian cross-check", done, failures)


def instance_suite(rng: random.Random, runs: int = 50) -> SuiteResult:
    """Every report stage on random instances, in report order: tower,
    verdicts, dual data, kappa, radicals, psi and dims raise on a violated
    identity, and the twist checks must all pass.  Then kappa's zero
    diagonal, antisymmetry and 2 kappa = q, and psi restricting to kappa, are
    re-checked through eval on X^Tan."""
    failures = []
    for k in range(runs):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        a = Analysis(rd, q)
        where = f"run {k} ({rd.dynkin}, c={q.c})"
        try:
            a.verdicts, a.g_check, a.rads, a.psi, a.dims  # computed for the checks they make
            twist_ok = twistcheck_section(a)["all_pass"]
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            failures.append(f"{where}: {exc}")
            continue
        if not twist_ok:
            failures.append(f"{where}: twist checks fail")
        kappa, psi = a.kappa, a.psi
        for gi in a.tower.x_tan.gens:
            for gj in a.tower.x_tan.gens:
                if psi.eval(gi, gj) != kappa.eval(gi, gj):
                    failures.append(f"{where}: psi restriction mismatch")
                if not (kappa.eval(gi, gj) + kappa.eval(gj, gi)).is_zero():
                    failures.append(f"{where}: kappa not antisymmetric")
                if kappa.eval(gi, gj).scaled(2) != q.eval(Weight.of(gi), Weight.of(gj)):
                    failures.append(f"{where}: kappa squared mismatch")
            if not kappa.eval(gi, gi).is_zero():
                failures.append(f"{where}: kappa diagonal nonzero")
    return SuiteResult("report stages and twisting-form identities", runs, failures)


def normal_form_suite(rng: random.Random, runs: int = 60) -> SuiteResult:
    """HNF idempotence, SNF exactness, index multiplicativity, quotient
    against snf, and the congruence kernel and the annihilator cut against
    their exact route."""
    failures = []
    for k in range(runs):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        lat = hnf(m, cols)
        if hnf(lat.rows() or [[0] * cols], cols) != lat:
            failures.append(f"run {k}: hnf not idempotent")
        d, u, v = smith_normal_form(m)
        if congruent(u, m, list(zip(*v))) != d:
            failures.append(f"run {k}: U m V != D")
        if hnf(u, rows) != Lattice.standard(rows) or hnf(v, cols) != Lattice.standard(cols):
            failures.append(f"run {k}: transforms not unimodular")
        # Random finite-index chain A <= B <= C in Z^2.
        c_lat = Lattice.standard(2)
        b_lat = hnf([[rng.randint(1, 4), rng.randint(0, 3)], [0, rng.randint(1, 4)]])
        scales = [rng.choice([1, 2, 3]) for _ in b_lat.gens]
        a_lat = hnf([[x * k for x in row] for row, k in zip(b_lat.rows(), scales)])
        iab = index(a_lat, b_lat)
        ibc = index(b_lat, c_lat)
        iac = index(a_lat, c_lat)
        if None in (iab, ibc, iac) or iab * ibc != iac:
            failures.append(f"run {k}: index multiplicativity fails")
        # quotient's transform-free invariants against snf, which carries U
        # and V: of m itself when its rows have full rank, and of a <= b.
        if lat.rank == cols and quotient(lat, Lattice.standard(cols)) != snf(m)[0]:
            failures.append(f"run {k}: quotient differs from the Smith form of m")
        if quotient(a_lat, b_lat) != snf([b_lat.coords_of(g) for g in a_lat.gens])[0]:
            failures.append(f"run {k}: quotient differs from the Smith form of the inclusion")
        # The HNF mod L of congruence_kernel against the exact HNF of the same
        # Smith-form kernel rows, with the columns of m as the constraints.
        constraints = [(list(col), rng.choice([1, 2, 3, 4, 6, 7, 12])) for col in zip(*m)]
        big = lcm(*(n for _c, n in constraints))
        scaled = [[c[i] * (big // n) for c, n in constraints] for i in range(rows)]
        if congruence_kernel(constraints, rows) != hnf(left_kernel(scaled, big), rows):
            failures.append(f"run {k}: congruence kernel differs from the exact route")
        # The annihilator cut of the row lattice of m by its own rows mod L,
        # finished on the ambient's pivots, against the HNF of the ambient
        # vectors of the Smith-form kernel rows.
        cut = lat.rows()
        exact = hnf([lat.vector_from_coords(x) for x in left_kernel(cut, big)], cols)
        if annihilator(lat, big, cut) != exact:
            failures.append(f"run {k}: annihilator differs from the exact route")
    return SuiteResult("integer normal forms", runs, failures)


ALL_SUITES: list[Callable[[random.Random], SuiteResult]] = [
    instance_suite,
    bruteforce_tan_suite,
    normal_form_suite,
]


def run_selftest(seed: int = 0) -> list[SuiteResult]:
    results = []
    for suite in ALL_SUITES:
        results.append(suite(random.Random(seed)))
    return results
