"""Report assembly: one cached Analysis per (root datum, parameter) pair,
serialized section by section into one deterministic JSON/text document.
The dual, rmatrix and verify-twist commands print one-section views of it,
`{schema, input, **section}`; `to_json` and `to_text` are the only
serializers, and each renders the full report and a view alike.

All angles are serialized as "a/b" strings, rationals likewise, lattices as
their HNF generator rows, and cyclotomic numbers as a conductor plus
coefficient list, so emitted JSON is byte-stable for fixed inputs and
round-trips through the parser unchanged.
"""

from __future__ import annotations

from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Optional

from .centers import CenterTower, DualDatum, Verdicts, center_tower, dual_datum, verdicts
from .cyclo import CycloNum
from .intlat import FiniteAbelianGroup, Lattice
from .invariants import DimReport, dim_report
from .kappa import BiformQZ, Radicals, build_kappa, extend_psi, psi_vanishes_on, radicals
from .qparam import ParamClass, QParam, classify
from .rmatrix import support_size, term_table
from .rootdata import RootDatum, Weight
from .twistcheck import TwistWitness, run_all

SCHEMA_VERSION = 1

# Python's int <-> str conversions refuse more than 4300 digits by default.
_DIGIT_LIMIT = 10**4300


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _lattice(l: Lattice) -> list[list[int]]:
    return [list(r) for r in l.gens]


def _group(g: FiniteAbelianGroup) -> dict[str, Any]:
    return {"order": g.order, "invariant_factors": list(g.invariant_factors)}


def _weight(w: Optional[Weight]) -> Optional[list[str]]:
    if w is None:
        return None
    return [_frac(c) for c in w.coords]


def _cyclo(c: CycloNum) -> dict[str, Any]:
    return {"conductor": c.conductor, "coeffs": [_frac(x) for x in c.coeffs]}


def _biform(b: BiformQZ) -> dict[str, Any]:
    return {
        "basis": _lattice(b.basis),
        "gram": [[str(x) for x in row] for row in b.gram],
    }


def _dual(d: DualDatum) -> dict[str, Any]:
    return {
        "star_roots": [list(r) for r in d.star_roots],
        "cartan": [list(r) for r in d.cartan_star],
        "char_lattice": _lattice(d.char_lattice),
        "dynkin_type": str(d.dual_type) if d.dual_type else None,
        "epsilon_scalars": [str(e) for e in d.epsilon_scalars],
        "l_simple": list(d.l_simple),
    }


def _int(value: Optional[int]) -> Any:
    """value itself (None included) while its decimal form has at most 4300
    digits, else that decimal form as a string, written through `decimal`, to
    which the limit does not apply.  The threshold is fixed, so the output
    does not depend on the process's own limit."""
    if value is None or -_DIGIT_LIMIT < value < _DIGIT_LIMIT:
        return value
    return str(Decimal(value))


def _record(record: Any) -> dict[str, Any]:
    """A DimReport or Verdicts by field name: groups via `_group`, the rest via `_int`."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record))
    return {k: _group(v) if isinstance(v, FiniteAbelianGroup) else _int(v) for k, v in values}


class Analysis:
    """One (root datum, parameter) pair.  Each stage is computed on first use,
    from the stages it depends on, and cached, so no stage runs twice.  The
    stages read q.rd, so rd must be q's datum or equal to it, else ValueError."""

    def __init__(self, rd: RootDatum, q: QParam) -> None:
        q.check_datum(rd)
        self.rd = q.rd
        self.q = q

    @cached_property
    def tower(self) -> CenterTower:
        return center_tower(self.q)

    @cached_property
    def param_class(self) -> ParamClass:
        return classify(self.q)

    @cached_property
    def g_star(self) -> DualDatum:
        return dual_datum(self.q, self.tower.x_star)

    @cached_property
    def g_check(self) -> DualDatum:
        """Quotient dual datum: the roots and Cartan data of G*, character lattice X^Tan."""
        return replace(self.g_star, char_lattice=self.tower.x_tan)

    @cached_property
    def verdicts(self) -> Verdicts:
        return verdicts(self.q, self.tower, self.param_class, self.g_star)

    @cached_property
    def kappa(self) -> BiformQZ:
        return build_kappa(self.q, self.tower.x_tan)

    @cached_property
    def rads(self) -> Radicals:
        return radicals(self.q, self.kappa, self.tower.x_star, self.tower.index_x_tan)

    @cached_property
    def psi(self) -> BiformQZ:
        return extend_psi(self.kappa, self.rd.charlattice)

    @cached_property
    def dims(self) -> DimReport:
        return dim_report(self.q, self.tower, self.rads, self.verdicts)

    @cached_property
    def twist(self) -> tuple[list[TwistWitness], bool, bool]:
        return run_all(self.g_check, self.kappa)


def centers_section(a: Analysis) -> dict[str, Any]:
    tower = a.tower
    return {
        "lQ": _lattice(tower.lq),
        "x_star": _lattice(tower.x_star),
        "x_mug": _lattice(tower.x_mug),
        "x_tan": _lattice(tower.x_tan),
        "indices": {
            "x_over_x_star": tower.index_x_star,
            "x_star_over_x_mug": tower.index_mug_in_star,
            "x_mug_over_x_tan": tower.index_tan_in_mug,
            "x_tan_over_lQ": tower.index_lq_in_tan,
            "x_over_x_tan": tower.index_x_tan,
        },
        "witness_mug_not_tan": _weight(tower.witness_mug_not_tan),
        "witness_star_not_mug": _weight(tower.witness_star_not_mug),
        "witness_tan_not_lq": _weight(tower.witness_tan_not_lq),
        "verdicts": _record(a.verdicts),
    }


def parameter_section(a: Analysis) -> dict[str, Any]:
    cls = a.param_class
    return {
        "c_per_factor": [_frac(c) for c in a.q.c],
        "max_nondegenerate": cls.max_nondegenerate,
        "all_even_orders": cls.all_even,
        "quasi_classical": cls.quasi_classical,
        "rad_witness_outside_q": _weight(cls.witness),
    }


def l_table_section(a: Analysis) -> dict[str, Any]:
    q = a.q
    return {
        "per_simple": q.simple_ls(),
        "per_pos_root": list(q.l_table),
        "q_scalars_simple": [str(s) for s in q.simple_scalars()],
    }


def root_datum_section(a: Analysis) -> dict[str, Any]:
    rd = a.rd
    return {
        "dynkin_type": str(rd.dynkin),
        "cartan": [list(r) for r in rd.cartan],
        "symmetrizers": list(rd.d),
        "lacing": rd.lacing,
        "killing": [[_frac(x) for x in row] for row in rd.killing],
        "char_lattice": _lattice(rd.charlattice),
        "simply_connected": rd.is_simply_connected(),
        "adjoint": rd.is_adjoint(),
        "w0_word": [i + 1 for i in rd.w0_word],
        "pos_roots": [list(r.root_coords) for r in rd.pos_roots],
    }


def dual_section(a: Analysis) -> dict[str, Any]:
    return {"g_star": _dual(a.g_star), "g_check": _dual(a.g_check)}


def twisting_section(a: Analysis) -> dict[str, Any]:
    rads = a.rads
    return {
        "kappa": _biform(a.kappa),
        "psi": _biform(a.psi),
        "psi_vanishes_on_rad_qk": psi_vanishes_on(a.psi, rads.rad_qk, a.rd.charlattice),
        "rad_q_in_x": _lattice(rads.rad_q),
        "rad_kappa": _lattice(rads.rad_kappa),
        "rad_qk": _lattice(rads.rad_qk),
    }


def groups_section(a: Analysis) -> dict[str, Any]:
    groups = a.rads.groups
    return {"sigma": _group(groups.sigma), "lambda": _group(groups.lam), "theta": _group(groups.theta)}


def dims_section(a: Analysis) -> dict[str, Any]:
    return _record(a.dims)


def twistcheck_section(a: Analysis) -> dict[str, Any]:
    witnesses, comm_ok, cross_ok = a.twist
    return {
        "serre_ratio": [
            {
                "pair": list(w.pair),
                "serre_exponent": w.serre_exponent,
                "values": [str(v) for v in w.values],
                "verdict": w.verdict,
            }
            for w in witnesses
        ],
        "commutator": comm_ok,
        "cross_commutator": cross_ok,
        "all_pass": comm_ok and cross_ok and all(w.verdict for w in witnesses),
    }


def rmatrix_section(a: Analysis, max_terms: Optional[int]) -> dict[str, Any]:
    count = support_size(a.q)
    terms = term_table(a.q, a.rd, max_terms=max_terms)
    return {
        "support_count": _int(count),
        "truncated": max_terms is not None and count > max_terms,
        "terms": [{"support": list(s.n), "coeff": _cyclo(c)} for s, c in terms],
    }


def document(input_echo: dict[str, Any], sections: dict[str, Any]) -> dict[str, Any]:
    """A JSON document: the schema version and input echo, then the sections."""
    return {"schema": SCHEMA_VERSION, "input": input_echo, **sections}


def build_report(
    rd: RootDatum,
    q: QParam,
    input_echo: dict[str, Any],
    max_terms: Optional[int] = None,
) -> dict[str, Any]:
    """Full analysis of one (root datum, parameter) pair as a JSON-ready dict;
    the braiding term list is included exactly when max_terms is given."""
    a = Analysis(rd, q)
    # The sections are listed so that the stages run as tower, verdicts, dual
    # data, kappa, radicals, psi, dims and twist checks; that order fixes
    # which identity check fails first.
    report = document(input_echo, {
        "centers": centers_section(a),
        "parameter": parameter_section(a),
        "l_table": l_table_section(a),
        "root_datum": root_datum_section(a),
        "dual": dual_section(a),
        "groups": groups_section(a),
        "twisting": twisting_section(a),
        "dims": dims_section(a),
        "twistcheck": twistcheck_section(a),
    })
    if max_terms is not None:
        report["rmatrix"] = rmatrix_section(a, max_terms)
    return report


_CONSTANTS = {None: "null", True: "true", False: "false"}
_INTS, _STRS = frozenset((int,)), frozenset((str,))


def to_json(report: dict[str, Any]) -> str:
    """The report as `json.dumps(report, indent=2, sort_keys=True) + "\\n"`,
    byte for byte, in one pass: keys sorted, two-space indent, strings with
    ASCII escapes.  Values are dicts with str keys, lists, tuples, str, int,
    bool and None; any other type, float included, raises TypeError."""
    return _encode(report, "\n") + "\n"


def _encode(x: Any, newline: str) -> str:
    """The JSON of x, where newline is the line break plus the indent of the
    line x starts on.  A list of only ints or only strs is one join."""
    kind = type(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return int.__repr__(x)
    if x is None or kind is bool:
        return _CONSTANTS[x]
    inner = newline + "  "
    if kind is dict:
        if not x:
            return "{}"
        pairs = [_quote(k) + ": " + _encode(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(pairs) + newline + "}"
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        kinds = set(map(type, x))
        if kinds == _INTS:
            items = map(int.__repr__, x)
        elif kinds == _STRS:
            items = map(_quote, x)
        else:
            items = [_encode(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def to_text(report: dict[str, Any]) -> str:
    """Human-readable summary, in the standard notation, of every section the
    document holds: the full report, or a one-section view."""
    for key, name in (("g_star", "dual"), ("serre_ratio", "twistcheck"), ("support_count", "rmatrix")):
        if key in report:
            report = {name: report}
    lines = []
    if "centers" in report:
        rdat = report["root_datum"]
        lines.append(f"type {rdat['dynkin_type']}  (lacing {rdat['lacing']}, "
                     f"{'simply connected' if rdat['simply_connected'] else 'adjoint' if rdat['adjoint'] else 'intermediate X'})")
        lines.append(f"parameter c = {', '.join(report['parameter']['c_per_factor'])} per factor")
        lines.append(f"l per simple root: {report['l_table']['per_simple']}")
        lines.append(f"l per positive root: {report['l_table']['per_pos_root']}")
        c = report["centers"]
        lines.append("center tower (HNF rows):")
        lines.append(f"  lQ     = {c['lQ']}")
        lines.append(f"  X^Tan  = {c['x_tan']}")
        lines.append(f"  X^Mug  = {c['x_mug']}")
        lines.append(f"  X*     = {c['x_star']}")
        lines.append(f"  indices: [X:X^Tan] = {c['indices']['x_over_x_tan']}, "
                     f"[X^Mug:X^Tan] = {c['indices']['x_mug_over_x_tan']}, "
                     f"[X^Tan:lQ] = {c['indices']['x_tan_over_lQ']}")
        if c["witness_mug_not_tan"] is not None:
            lines.append(f"  witness in X^Mug - X^Tan: {c['witness_mug_not_tan']}")
        v = c["verdicts"]
        lines.append(f"verdicts: X^Tan = X^Mug: {v['tan_equals_mug']}, sc/even hypotheses: {v['thm_sc_hypotheses']}, "
                     f"Langlands dual: {v['langlands_dual']}, pivot trivial on X^Tan: {v['pivot_trivial_on_xtan']}, "
                     f"modular: {v['modular']}")
        g = report["groups"]
        lines.append(f"Sigma: order {g['sigma']['order']} {g['sigma']['invariant_factors']}, "
                     f"Lambda: order {g['lambda']['order']} {g['lambda']['invariant_factors']}, "
                     f"Theta: order {g['theta']['order']} {g['theta']['invariant_factors']}")
        d = report["dims"]
        lines.append(f"FPdim(fiber) = {d['fpdim_fiber']}"
                     + (f" = sc formula {d['fpdim_sc_formula']}" if d["fpdim_sc_formula"] is not None else ""))
        lines.append(f"dim u = {d['dim_uqk']} = {d['grouplike_count']} * {d['dim_u_plus']}^2, |Sigma| = {d['sigma_order']}")
        lines.append(f"simples: u_q labels X/X^Tan = {d['simples_group_uq']['invariant_factors']} "
                     f"({d['simple_count_uq']}), toral labels X/rad(q,kappa) = "
                     f"{d['simples_group_uqk']['invariant_factors']} ({d['simple_count_uqk']})")
        t = report["twisting"]
        lines.append(f"kappa gram on X^Tan basis: {t['kappa']['gram']}")
        lines.append(f"psi gram on X basis: {t['psi']['gram']} (vanishes on rad(q,kappa): {t['psi_vanishes_on_rad_qk']})")
    if "dual" in report:
        for key in ("g_star", "g_check"):
            d = report["dual"][key]
            lines.append(f"{key}: type {d['dynkin_type']}, Cartan {d['cartan']}, "
                         f"char lattice {d['char_lattice']}, eps {d['epsilon_scalars']}")
    if "twistcheck" in report:
        t = report["twistcheck"]
        for w in t["serre_ratio"]:
            lines.append(f"serre ratio {tuple(w['pair'])} (m = {w['serre_exponent']}): {'ok' if w['verdict'] else 'FAIL'}")
        lines.append(f"commutator identity: {'ok' if t['commutator'] else 'FAIL'}")
        lines.append(f"cross-commutator antisymmetry: {'ok' if t['cross_commutator'] else 'FAIL'}")
        lines.append(f"twist checks pass: {t['all_pass']}")
    if "rmatrix" in report:
        r = report["rmatrix"]
        lines.append(f"braiding support count: {r['support_count']}" + (" (truncated list)" if r["truncated"] else ""))
        for term in r["terms"]:
            lines.append(f"  n = {term['support']}: conductor {term['coeff']['conductor']}, coeffs {term['coeff']['coeffs']}")
    return "\n".join(lines) + "\n"
