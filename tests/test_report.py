"""The Analysis pipeline: each stage runs once per report, and the dual,
rmatrix and verify-twist commands print sections of the analyze report."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import count_calls, count_inverses, count_stage_calls
from qcenters import centers, cyclo, intlat, kappa, qparam, sampling
from qcenters.cli import main
from qcenters.cyclo import CycloNum
from qcenters.qparam import QParam, make_param
from qcenters.report import Analysis, build_report, l_table_section, to_json
from qcenters.rootdata import _RANK_BOUNDS, build_root_datum

STAGES = {
    "l_of": QParam.l_of,
    "center_tower": centers.center_tower,
    "x_star": centers.x_star,
    "classify": qparam.classify,
    "dual_datum": centers.dual_datum,
    "build_kappa": kappa.build_kappa,
    "radicals": kappa.radicals,
}


def test_each_stage_runs_once_per_report(monkeypatch, capsys):
    rd = build_root_datum("C3", "sc")
    q = make_param(rd, Fraction(1, 8))
    counts = count_stage_calls(monkeypatch, STAGES)
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
    # Only the R-matrix computes in a cyclotomic field, so a report without
    # terms multiplies no field elements at all.
    rd = build_root_datum("E8", "sc")
    q = make_param(rd, Fraction(1, 10))
    muls = count_calls(monkeypatch, CycloNum, "__mul__")
    monkeypatch.setattr(CycloNum, "__rmul__", CycloNum.__mul__)
    powers, inverses = count_calls(monkeypatch, CycloNum, "power"), count_inverses(monkeypatch)
    # qint, qbinom and weyl_reflect are test oracles: no package module binds them.
    bound = [(name, attr) for name, m in sys.modules.items() if name.split(".")[0] == "qcenters"
             for attr in ("qint", "qbinom", "weyl_reflect") if hasattr(m, attr)]
    build_report(rd, q, {})
    assert bound == [] and powers[0] == inverses[0] == 0
    assert muls[0] == 0


def test_report_products_stay_in_conductor_two(monkeypatch):
    # The one product path is the schoolbook sum, which costs d^2 terms in a
    # field of degree d.  Reports (term lists included) take none: the terms
    # are entry-matrix products, and the commutator identity runs in integers.
    cases = [("A2", (6,)), ("C3", (8,)), ("G2", (12,)), ("E8", (10,)), ("A5xD6", (6, 8))]
    conductors, mul_vecs = [], cyclo._mul_vecs

    def recording(a, b, n):
        conductors.append(n)
        return mul_vecs(a, b, n)

    monkeypatch.setattr(cyclo, "_mul_vecs", recording)
    for type_str, dens in cases:
        rd = build_root_datum(type_str, "sc")
        build_report(rd, make_param(rd, [Fraction(1, d) for d in dens]), {}, max_terms=50)
    assert conductors == []


def test_a_second_report_makes_no_cyclotomic_multiply(monkeypatch):
    # The commutator identity runs on the integer sign eps, so no report of
    # a process, the first included, builds a field element, and a second
    # report is the first one's equal.
    rd = build_root_datum("A2", "sc")
    muls = count_calls(monkeypatch, CycloNum, "__mul__")
    monkeypatch.setattr(CycloNum, "__rmul__", CycloNum.__mul__)
    built = count_calls(monkeypatch, CycloNum, "__init__")
    first = build_report(rd, make_param(rd, Fraction(1, 6)), {})
    assert muls[0] == built[0] == 0
    assert build_report(rd, make_param(rd, Fraction(1, 6)), {}) == first
    assert muls[0] == built[0] == 0


def test_x_over_x_tan_is_computed_once_per_report(monkeypatch):
    # [X : X^Tan] is read off the tower by the radicals, the fiber dimension
    # and the centers section, and [X : rad(q, kappa)] = |Lambda| off the
    # radicals by the grouplike count.
    rd = build_root_datum("C3", "sc")
    q = make_param(rd, Fraction(1, 8))
    x_tan = centers.center_tower(q).x_tan
    rad_qk = Analysis(rd, q).rads.rad_qk
    index, pairs = intlat.index, []

    def recording(sub, super_):
        pairs.append((sub, super_))
        return index(sub, super_)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qcenters" and getattr(module, "index", None) is index:
            monkeypatch.setattr(module, "index", recording)
    report = build_report(rd, q, {})
    assert pairs.count((x_tan, rd.charlattice)) == 1
    assert (rad_qk, rd.charlattice) not in pairs
    assert report["centers"]["indices"]["x_over_x_tan"] == index(x_tan, rd.charlattice)


def test_a_report_cuts_its_lattices_without_a_smith_form(monkeypatch, capsys):
    # Every cut is one HNF mod N of [M | I]; Smith elimination runs only where
    # group structure is read.  quotient takes the invariant factors with no
    # transforms, so the Smith form with U and V runs once, under snf in
    # extend_psi.
    names = ("left_kernel", "intersect", "smith_normal_form", "snf", "quotient")
    counts = count_stage_calls(monkeypatch, {name: getattr(intlat, name) for name in names})
    counted_snf = kappa.snf

    def psi_snf(m):
        counts["snf in kappa"] += 1
        return counted_snf(m)

    monkeypatch.setattr(kappa, "snf", psi_snf)
    assert main(["analyze", "--type", "A40", "--lattice", "sc", "--param", "1/6", "--json"]) == 0
    capsys.readouterr()
    assert counts["left_kernel"] == counts["intersect"] == 0
    assert counts["smith_normal_form"] == counts["snf"] == counts["snf in kappa"] == 1
    assert counts["quotient"] > 1


# JSON trees as reports hold them, plus the awkward cases of the format:
# keys with quotes, backslashes, control and non-ASCII characters, empty
# containers, tuples, mixed lists, and True/1 and False/0 side by side.
odd_text = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "\u00e9", "\u2603", "\U0001f600", "a\"b\\c", ""])
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.sampled_from([True, 1, False, 0, -1])
    | odd_text
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=6)
    | st.lists(kids, max_size=6).map(tuple)
    | st.lists(st.integers(), max_size=6)
    | st.lists(odd_text, max_size=6)
    | st.dictionaries(odd_text, kids, max_size=6),
    max_leaves=40,
)


@given(json_trees)
@example({"a": [True, 1, False, 0], "b": [{}, [], (), {"": None}], "\"\\\n\u00e9": (1, "x", None)})
@example([[1, 2], ["a", "b"], [1, "a"], [True, 1], [None]])
def test_to_json_is_json_dumps_byte_for_byte(tree):
    assert to_json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@given(json_trees, st.floats(allow_nan=False))
def test_to_json_rejects_floats(tree, x):
    for doc in ({"tree": tree, "x": x}, [tree, x], [x]):
        with pytest.raises(TypeError, match="float"):
            to_json(doc)


def test_to_json_rejects_non_string_keys():
    with pytest.raises(TypeError, match="int"):
        to_json({"a": {1: 2}})


def test_a_datum_that_is_not_the_parameters_is_refused():
    # The stages read q.rd; a different datum beside it is a caller's
    # mistake, refused up front with rmatrix.coeff's message.
    a2, b2 = build_root_datum("A2"), build_root_datum("B2")
    q = make_param(a2, Fraction(1, 6))
    for rd in (b2, build_root_datum("A2", "adjoint")):
        with pytest.raises(ValueError, match="^the root datum is not the parameter's$"):
            Analysis(rd, q)
        with pytest.raises(ValueError, match="^the root datum is not the parameter's$"):
            build_report(rd, q, {})
    equal = build_root_datum("A2")
    assert equal is not a2 and Analysis(equal, q).rd is a2
    assert build_report(equal, q, {}) == build_report(a2, q, {})


_SIMPLE_RECORD_TYPES = [f"{f}{n}" for f, ok in _RANK_BOUNDS.items() for n in range(1, 9) if ok(n)] + [
    t for types in sampling._TYPES_BY_RANK.values() for t in types if "x" in t
] + ["A2xB3"]


@pytest.mark.parametrize("type_str", _SIMPLE_RECORD_TYPES)
def test_simple_pos_places_each_simple_root_and_keeps_the_scalar_bytes(type_str):
    # Each entry names a height-1 root whose 1 sits at its own index, and
    # q_scalars_simple, now in simple-root order, keeps the bytes of the
    # pos_roots-order scan, with a distinct scalar on every factor.
    rd = build_root_datum(type_str)
    assert len(rd.simple_pos) == rd.rank
    for i, p in enumerate(rd.simple_pos):
        root = rd.pos_roots[p]
        assert root.height == 1 and root.root_coords[i] == 1
    q = make_param(rd, [Fraction(1, 5 + k) for k in range(len(rd.dynkin.factors))])
    scan = [str(q.q_scalar(r)) for r in rd.pos_roots if r.height == 1]
    assert l_table_section(Analysis(rd, q))["q_scalars_simple"] == scan
