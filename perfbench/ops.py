"""The timed operation of each workload, and its inputs built in set-up.

Program functions are reached through their module attributes (for
example `report.build_report`), never through names bound at import, so
the traced run sees every call once the tracer rebinds those attributes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from qcenters import presets, qparam, report, rmatrix, rootdata

from workloads import Case


@dataclass
class Prepared:
    """A case with the objects its operation needs, built before timing."""

    case: Case
    preset: Optional[Any] = None  # qcenters.presets.PresetCase for preset cases
    rd: Optional[Any] = None  # root datum for the rmatrix workloads
    q: Optional[Any] = None  # parameter for the rmatrix workloads


@dataclass
class Output:
    """What an operation produced, kept for the untimed output checks."""

    items: int  # reports, terms or supports with both values
    report_json: Optional[str] = None
    preset_failures: Optional[list[str]] = None
    terms: Optional[list] = None  # [(RSupport, CycloNum)] from term_table
    pairings: Optional[list] = None  # CycloNum per term, cyclo-wide only


def prepare(workload: str, case: Case) -> Prepared:
    """Set-up work for one case: presets are instantiated, and the rmatrix
    workloads get their root datum and parameter, which are their inputs."""
    if case.preset is not None:
        return Prepared(case, preset=presets.make_preset(case.preset))
    if workload == "report-sweep":
        return Prepared(case)
    rd = rootdata.build_root_datum(case.type_str, case.lattice)
    return Prepared(case, rd=rd, q=qparam.make_param(rd, list(case.c)))


def run(workload: str, prep: Prepared, traced_call) -> Output:
    """One operation.  `traced_call(name, fn, *args)` calls fn; the traced run
    records a span around it, which is how a preset's per-instance `check`
    callable is measured."""
    if workload == "report-sweep":
        return _report(prep, traced_call)
    terms = rmatrix.term_table(prep.q, prep.rd, max_terms=prep.case.max_terms)
    if workload == "rmatrix-box":
        return Output(items=len(terms), terms=terms)
    conductor = terms[0][1].conductor
    pairings = [rmatrix.pairing_diag(s, prep.rd, prep.q, conductor=conductor) for s, _c in terms]
    return Output(items=len(pairings), terms=terms, pairings=pairings)


def _report(prep: Prepared, traced_call) -> Output:
    if prep.preset is not None:
        pc = prep.preset
        type_str, lattice, c, echo = pc.type_str, pc.lattice, list(pc.c), pc.input_echo()
    else:
        case = prep.case
        type_str, lattice, c, echo = case.type_str, case.lattice, list(case.c), case.input_echo()
    rd = rootdata.build_root_datum(type_str, lattice)
    q = qparam.make_param(rd, c)
    rep = report.build_report(rd, q, echo)
    text = report.to_json(rep)
    failures = None
    if prep.preset is not None:
        failures = traced_call("presets.PresetCase.check", prep.preset.check, rep, rd, q)
    return Output(items=1, report_json=text, preset_failures=failures)


def _cyclo_key(c) -> list:
    return [c.conductor, [str(x) for x in c.coeffs]]


def digest(out: Output) -> str:
    """sha256 of the operation's output in a canonical text form."""
    if out.report_json is not None:
        text = out.report_json
    else:
        rows = [[list(s.n), _cyclo_key(c)] for s, c in out.terms]
        if out.pairings is not None:
            rows = [row + [_cyclo_key(p)] for row, p in zip(rows, out.pairings)]
        text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
