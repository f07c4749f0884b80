"""Output checks run after each pass, outside the timed region.

Each check returns a list of problems; an empty list means the output
passed.  Cyclotomic numbers are compared by (conductor, coeffs): CycloNum
equality lifts across conductors while its hash does not, so neither `==`
nor hashing is used here.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import prod
from typing import Optional

from qcenters.angles import AngleQZ
from qcenters.cyclo import root_of_unity
from qcenters.rmatrix import pairing_diag
from qcenters.rootdata import Weight

from ops import Output, Prepared, digest

MARKER_SAMPLE = 16  # rmatrix-box supports per case checked against the marker


def report_problems(text: str, golden: Optional[str]) -> list[str]:
    """Golden bytes (presets), canonical JSON form and the dimension
    identities of one `analyze` report."""
    if golden is not None and text != golden:
        return ["report differs from the golden file"]
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if json.dumps(rep, indent=2, sort_keys=True) + "\n" != text:
        problems.append("report is not in canonical JSON form")
    try:
        problems += identity_problems(rep)
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks a field the identities need: {exc!r}")
    return problems


def identity_problems(rep: dict) -> list[str]:
    idx = rep["centers"]["indices"]
    dims = rep["dims"]
    ls = rep["l_table"]["per_pos_root"]
    chain = idx["x_over_x_star"] * idx["x_star_over_x_mug"] * idx["x_mug_over_x_tan"]
    checks = {
        "index chain product = [X:X^Tan]": chain == idx["x_over_x_tan"],
        "fpdim_fiber = [X:X^Tan] (prod l)^2": dims["fpdim_fiber"] == idx["x_over_x_tan"] * prod(ls) ** 2,
        "dim_uqk = grouplikes dim_u_plus^2": dims["dim_uqk"] == dims["grouplike_count"] * dims["dim_u_plus"] ** 2,
        "simples uqk = simples uq |Sigma|": dims["simple_count_uqk"] == dims["simple_count_uq"] * dims["sigma_order"],
        "fpdim_fiber |Sigma| = dim_uqk": dims["fpdim_fiber"] * dims["sigma_order"] == dims["dim_uqk"],
    }
    return [f"identity fails: {name}" for name, ok in checks.items() if not ok]


def marker(q, rd, n: tuple[int, ...], conductor: int):
    """The root of unity coeff(n) * pairing(n) must equal: the sign
    (-1)^(sum n_g ht g) times the phase q(sum n_g g, sum_a w_a)."""
    sign_exp = sum(v * r.height for v, r in zip(n, rd.pos_roots))
    weighted = [Fraction(0)] * rd.rank
    for v, r in zip(n, rd.pos_roots):
        weighted = [w + v * x for w, x in zip(weighted, r.fw_coords)]
    angle = AngleQZ.of(Fraction(sign_exp, 2)) + q.eval(Weight.of(weighted), Weight.of([1] * rd.rank))
    return root_of_unity(angle, conductor)


def _same(a, b) -> bool:
    return (a.conductor, a.coeffs) == (b.conductor, b.coeffs)


def terms_problems(prep: Prepared, out: Output, rng: random.Random) -> list[str]:
    """Supports are the first entries of the lexicographic admissible box, and
    coeff * pairing equals the marker on every support that has a pairing,
    or on a seeded sample of supports when the operation made none."""
    q, rd = prep.q, prep.rd
    ls = q.pos_root_ls()
    want = prod(ls) if prep.case.max_terms is None else min(prod(ls), prep.case.max_terms)
    supports = [s.n for s, _c in out.terms]
    if supports != list(itertools.islice(itertools.product(*(range(l) for l in ls)), want)):
        return [f"expected the first {want} admissible supports in lexicographic order"]
    if out.pairings is not None:
        if len(out.pairings) != len(out.terms):
            return ["one pairing per support expected"]
        rows = range(len(out.terms))
    else:
        rows = sorted(rng.sample(range(len(out.terms)), min(MARKER_SAMPLE, len(out.terms))))
    problems = []
    for i in rows:
        s, c = out.terms[i]
        p = out.pairings[i] if out.pairings is not None else pairing_diag(s, rd, q, conductor=c.conductor)
        if not _same(c * p, marker(q, rd, s.n, c.conductor)):
            problems.append(f"coeff * pairing differs from the sign/phase marker at n = {s.n}")
    return problems


def problems(workload: str, prep: Prepared, out: Output, golden: Optional[str],
             expected_digest: Optional[str], rng: random.Random) -> list[str]:
    """All checks of one operation's output.  `expected_digest` is given on
    the default seed only."""
    if workload == "report-sweep":
        found = report_problems(out.report_json, golden)
        if out.preset_failures:
            found += [f"preset conclusion fails: {f}" for f in out.preset_failures]
    else:
        found = terms_problems(prep, out, rng)
    if expected_digest is not None:
        if digest(out) != expected_digest:
            found.append("sha256 digest differs from the recorded one")
    return found
