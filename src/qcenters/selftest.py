"""Randomized property suites runnable from the command line.

Each suite draws seeded random instances and asserts the structural
identities the theory guarantees: the center chain, the brute-force
cross-check of the Tannakian sublattice, the dimension identities, the
twisting-form identities, and the normal-form properties of the integer
lattice layer.  A nonzero failure count means either a bug or an input
outside the validity envelope.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm
from typing import Callable

from .centers import center_tower
from .intlat import Lattice, hnf, index
from .qparam import QParam
from .report import Analysis
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


def chain_suite(rng: random.Random, runs: int = 50) -> SuiteResult:
    """lQ <= X^Tan <= X^Mug <= X* on random instances (raises on violation)."""
    failures = []
    for k in range(runs):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        try:
            tower = center_tower(q, rd)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            failures.append(f"run {k}: {exc}")
            continue
        for sub, sup in ((tower.lq, tower.x_tan), (tower.x_tan, tower.x_mug), (tower.x_mug, tower.x_star)):
            if not sup.contains_lattice(sub):
                failures.append(f"run {k}: chain inclusion broken for {rd.dynkin} c={q.c}")
    return SuiteResult("center chain", runs, failures)


def bruteforce_tan_residues(q: QParam, rd: RootDatum) -> tuple[int, set[tuple[int, ...]]]:
    """(modulus, residue set of the Tannakian condition) modulo m*X, where
    m = 2 * lcm of the q-angle denominators on X; both defining conditions
    are invariant under translation by m*X, by bilinearity."""
    basis = [list(g) for g in rd.charlattice.gens]
    gram = q.angle_gram(basis)
    n = len(basis)
    modulus = 2 * lcm(*(gram[i][j].den for i in range(n) for j in range(n)), 1)
    x_weights = [Weight.of(g) for g in basis]
    members = set()
    for coords in itertools.product(range(modulus), repeat=n):
        lam = Weight.of(rd.charlattice.vector_from_coords(list(coords)))
        if any(not q.eval_sq(lam, w).is_zero() for w in x_weights):
            continue
        if not q.eval(lam, lam).is_zero():
            continue
        members.add(coords)
    return modulus, members


def bruteforce_tan_suite(rng: random.Random, runs: int = 20, max_index: int = 10_000) -> SuiteResult:
    """Brute-force coset enumeration of the Tannakian condition against the
    lattice-algebra computation."""
    failures = []
    done = 0
    attempts = 0
    while done < runs and attempts < runs * 60:
        attempts += 1
        rd, q = random_instance(rng, max_rank=2, max_den=12)
        basis = [list(g) for g in rd.charlattice.gens]
        gram = q.angle_gram(basis)
        n = len(basis)
        modulus = 2 * lcm(*(gram[i][j].den for i in range(n) for j in range(n)), 1)
        if modulus**n > max_index:
            continue
        done += 1
        tower = center_tower(q, rd)
        _mod, brute = bruteforce_tan_residues(q, rd)
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


def dims_suite(rng: random.Random, runs: int = 50) -> SuiteResult:
    """fpdim identities and label-group consistency on random instances.

    dim_report raises on any violated identity, so a clean pass is the check.
    """
    failures = []
    for k in range(runs):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        try:
            Analysis(rd, q).dims
        except Exception as exc:  # noqa: BLE001
            failures.append(f"run {k} ({rd.dynkin}, c={q.c}): {exc}")
    return SuiteResult("dimension identities", runs, failures)


def kappa_suite(rng: random.Random, runs: int = 30) -> SuiteResult:
    """kappa alternating/square-root identities and exact psi restriction."""
    failures = []
    for k in range(runs):
        rd, q = random_instance(rng, max_rank=3, max_den=24)
        a = Analysis(rd, q)
        try:
            tower, kappa, psi = a.tower, a.kappa, a.psi
        except Exception as exc:  # noqa: BLE001
            failures.append(f"run {k} ({rd.dynkin}, c={q.c}): {exc}")
            continue
        for gi in tower.x_tan.gens:
            for gj in tower.x_tan.gens:
                if psi.eval(gi, gj) != kappa.eval(gi, gj):
                    failures.append(f"run {k}: psi restriction mismatch")
                if not (kappa.eval(gi, gj) + kappa.eval(gj, gi)).is_zero():
                    failures.append(f"run {k}: kappa not antisymmetric")
                if kappa.eval(gi, gj).scaled(2) != q.eval(Weight.of(gi), Weight.of(gj)):
                    failures.append(f"run {k}: kappa squared mismatch")
            if not kappa.eval(gi, gi).is_zero():
                failures.append(f"run {k}: kappa diagonal nonzero")
    return SuiteResult("twisting-form identities", runs, failures)


def normal_form_suite(rng: random.Random, runs: int = 60) -> SuiteResult:
    """HNF idempotence, SNF exactness, and index multiplicativity."""
    failures = []
    for k in range(runs):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        lat = hnf(m, cols)
        if hnf(lat.rows() or [[0] * cols], cols) != lat:
            failures.append(f"run {k}: hnf not idempotent")
        from .intlat import smith_normal_form

        d, u, v = smith_normal_form(m)
        prod_ = _mat_mul(_mat_mul(u, m), v)
        if prod_ != d:
            failures.append(f"run {k}: U m V != D")
        if abs(_det_int(u)) != 1 or abs(_det_int(v)) != 1:
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
    return SuiteResult("integer normal forms", runs, failures)


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _det_int(m) -> int:
    from .intlat import _det

    return _det([row[:] for row in m])


ALL_SUITES: list[Callable[[random.Random], SuiteResult]] = [
    chain_suite,
    bruteforce_tan_suite,
    dims_suite,
    kappa_suite,
    normal_form_suite,
]


def run_selftest(seed: int = 0) -> list[SuiteResult]:
    results = []
    for suite in ALL_SUITES:
        results.append(suite(random.Random(seed)))
    return results
