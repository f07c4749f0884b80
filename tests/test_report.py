"""The Analysis pipeline: each stage runs once per report, and the dual,
rmatrix and verify-twist commands print sections of the analyze report."""

import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from helpers import count_calls
from qcenters import centers, kappa, qparam
from qcenters.cli import main
from qcenters.cyclo import CycloNum, qbinom
from qcenters.qparam import QParam, make_param
from qcenters.report import build_report
from qcenters.rootdata import build_root_datum
from qcenters.twistcheck import commutator_identity

STAGES = {
    "l_of": QParam.l_of,
    "center_tower": centers.center_tower,
    "x_star": centers.x_star,
    "classify": qparam.classify,
    "dual_datum": centers.dual_datum,
    "build_kappa": kappa.build_kappa,
    "radicals": kappa.radicals,
}


def _count_calls(monkeypatch) -> Counter:
    """Replace every binding of each stage function, in the qcenters modules
    and on QParam, by a wrapper that counts its calls."""
    counts: Counter = Counter()
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "qcenters"] + [QParam]
    for name, original in STAGES.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return counts


def test_each_stage_runs_once_per_report(monkeypatch, capsys):
    rd = build_root_datum("C3", "sc")
    q = make_param(rd, Fraction(1, 8))
    counts = _count_calls(monkeypatch)
    build_report(rd, q, {})
    assert counts["l_of"] == len(rd.pos_roots)
    for name in STAGES:
        if name != "l_of":
            assert counts[name] == 1, name

    counts.clear()
    assert main(["rmatrix", "--type", "C3", "--lattice", "sc", "--param", "1/8", "--max-terms", "3"]) == 0
    assert counts["center_tower"] == 0


@pytest.mark.parametrize("type_str,param", [("A2", "1/6"), ("C2", "1/8")])
def test_subcommands_print_sections_of_the_report(type_str, param, capsys):
    def run(*args):
        assert main([*args, "--type", type_str, "--lattice", "sc", "--param", param]) == 0
        return json.loads(capsys.readouterr().out)

    report = run("analyze", "--json", "--max-terms", "5")
    views = {
        "dual": run("dual", "--json"),
        "rmatrix": run("rmatrix", "--max-terms", "5"),
        "twistcheck": run("verify-twist", "--json"),
    }
    for section, payload in views.items():
        assert payload == {"schema": report["schema"], "input": report["input"], **report[section]}, section


def test_e8_report_makes_few_cyclotomic_multiplies(monkeypatch):
    rd = build_root_datum("E8", "sc")
    q = make_param(rd, Fraction(1, 10))
    commutator_identity.cache_clear()
    muls = count_calls(monkeypatch, CycloNum, "__mul__")
    monkeypatch.setattr(CycloNum, "__rmul__", CycloNum.__mul__)
    powers = count_calls(monkeypatch, CycloNum, "power")
    binoms = [count_calls(monkeypatch, m, "qbinom") for name, m in sys.modules.items()
              if name.split(".")[0] == "qcenters" and getattr(m, "qbinom", None) is qbinom]
    build_report(rd, q, {})
    assert powers[0] == 0 and all(calls[0] == 0 for calls in binoms)
    assert 0 < muls[0] <= 100


def test_a_second_report_makes_no_cyclotomic_multiply(monkeypatch):
    # The commutator identity depends only on the sign eps, so only the first
    # report of a process lifts it to Q(zeta_2).
    rd = build_root_datum("A2", "sc")
    commutator_identity.cache_clear()
    muls = count_calls(monkeypatch, CycloNum, "__mul__")
    monkeypatch.setattr(CycloNum, "__rmul__", CycloNum.__mul__)
    first = build_report(rd, make_param(rd, Fraction(1, 6)), {})
    assert muls[0] > 0
    muls[0] = 0
    assert build_report(rd, make_param(rd, Fraction(1, 6)), {}) == first
    assert muls[0] == 0
