import contextlib
import hashlib
import io
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qcenters import centers, cli, kappa
from qcenters.centers import DualDatumError
from qcenters.cli import main, read_spec_file
from qcenters.intlat import Lattice, LatticeError
from qcenters.kappa import KappaError
from qcenters.presets import PRESET_NAMES, PresetError, make_preset, parse_preset
from qcenters.qparam import InputError, InvariantViolation, make_param
from qcenters.report import Analysis, build_report, to_json, to_text
from qcenters import rootdata
from qcenters.rootdata import RootDatumError, build_root_datum

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text_output(capsys):
    code, out, _err = run_cli(["analyze", "--type", "A1", "--lattice", "sc", "--param", "pi/l:2"], capsys)
    assert code == 0
    assert "FPdim(fiber) = 16" in out
    assert "modular: True" in out


def test_analyze_sl2_odd_counterexample(capsys):
    code, out, _err = run_cli(["analyze", "--type", "A1", "--lattice", "sc", "--param", "2pi/l:3", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["centers"]["verdicts"]["tan_equals_mug"] is False
    assert report["centers"]["witness_mug_not_tan"] == ["3/1"]
    assert report["dims"]["fpdim_fiber"] == 54


@pytest.mark.parametrize("param", ["1/4", "1/10"])
def test_analyze_g2_even_order_exits_zero(param, capsys):
    code, out, _err = run_cli(["analyze", "--type", "G2", "--param", param, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["centers"]["verdicts"]["thm_sc_conclusion_check"] is True


def test_analyze_preset_checks_conclusion(capsys):
    code, out, _err = run_cli(["analyze", "--preset", "sl3-odd-5", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["centers"]["x_tan"] == report["centers"]["lQ"] == [[5, 5], [0, 15]]


def test_bad_inputs_exit_one(capsys):
    assert run_cli(["analyze", "--type", "Z9", "--param", "1/2"], capsys)[0] == 1
    assert run_cli(["analyze", "--type", "A1", "--param", "nonsense"], capsys)[0] == 1
    assert run_cli(["analyze", "--preset", "no-such-preset"], capsys)[0] == 1
    assert run_cli(["analyze", "--type", "A1"], capsys)[0] == 1
    assert run_cli(["analyze", "--type", "A1", "--lattice", "[[3]]", "--param", "1/2"], capsys)[0] == 1


@pytest.mark.parametrize(
    "error",
    [InputError, PresetError, RootDatumError, LatticeError, DualDatumError, KappaError, ValueError],
    ids=lambda cls: cls.__name__,
)
def test_input_errors_exit_one(error, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "build_report", failing)
    assert run_cli(["analyze", "--type", "A1", "--param", "1/4"], capsys) == (1, "", "error: boom\n")


def test_missing_spec_file_exits_one(tmp_path, capsys):
    code, out, err = run_cli(["analyze", "--spec", str(tmp_path / "missing.spec")], capsys)
    assert (code, out) == (1, "") and err.startswith("error: ") and "missing.spec" in err


def test_invariant_violation_exits_two(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise InvariantViolation("boom")

    monkeypatch.setattr(cli, "build_report", failing)
    assert run_cli(["analyze", "--type", "A1", "--param", "1/4"], capsys) == (2, "", "internal identity violated: boom\n")


def test_root_datum_fault_exits_two(monkeypatch, capsys):
    # An orbit closure that disagrees with the walk is an internal fault.
    def orbit(cartan, support):
        found = original(cartan, support)
        found.discard(max(found))
        found.add((7,) * len(cartan))
        return found

    original = rootdata._positive_roots_orbit
    monkeypatch.setattr(rootdata, "_positive_roots_orbit", orbit)
    assert run_cli(["analyze", "--type", "B3", "--param", "1/4"], capsys) == (
        2, "", "internal identity violated: longest-word enumeration disagrees with orbit closure\n"
    )


@pytest.mark.parametrize(
    "module, name, fake, inclusion",
    [
        # X* replaced by P on an adjoint datum: [X : X*] reads an inclusion that fails.
        (centers, "x_star", lambda q: Lattice.standard(q.rd.rank), "X* <= X"),
        # Both radical cuts replaced by P: Sigma's quotient reads a failing inclusion.
        (kappa, "annihilator", lambda ambient, n, m: Lattice.standard(ambient.ambient_rank), "rad(q, kappa) <= X^Tan"),
    ],
    ids=["x_star", "radicals"],
)
def test_internal_lattice_faults_exit_two(module, name, fake, inclusion, monkeypatch, capsys):
    # Inclusions that hold by construction are internal faults when they fail,
    # not bad input, while the library's index and quotient raise LatticeError.
    monkeypatch.setattr(module, name, fake)
    code, out, err = run_cli(["analyze", "--type", "A2", "--lattice", "adjoint", "--param", "1/6"], capsys)
    assert (code, out) == (2, "")
    assert err == f"internal identity violated: inclusion {inclusion} fails\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--type", "B1"], "inadmissible factor B1"),
        (["--type", "A2", "--lattice", "[[2, 0], [0, 1]]"], "character lattice does not contain the root lattice Q"),
    ],
)
def test_root_datum_input_errors_exit_one(argv, message, capsys):
    assert run_cli(["analyze", *argv, "--param", "1/4"], capsys) == (1, "", f"error: {message}\n")


def test_rmatrix_command(capsys):
    code, out, _err = run_cli(["rmatrix", "--type", "A1", "--lattice", "sc", "--param", "pi/l:2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["support_count"] == 2
    coeffs = [t["coeff"] for t in payload["terms"]]
    assert coeffs[0]["coeffs"][0] == "1/1"
    # -2i at conductor 4: coefficient vector (0, -2).
    assert coeffs[1]["conductor"] == 4
    assert coeffs[1]["coeffs"] == ["0/1", "-2/1"]


def test_analyze_with_term_list(capsys):
    code, out, _err = run_cli(
        ["analyze", "--type", "A1", "--lattice", "sc", "--param", "pi/l:2", "--max-terms", "10", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["rmatrix"]["support_count"] == 2
    assert not report["rmatrix"]["truncated"]
    assert [t["support"] for t in report["rmatrix"]["terms"]] == [[0], [1]]
    # Text rendering of the same report includes the term lines.
    code, out, _err = run_cli(
        ["analyze", "--type", "A1", "--lattice", "sc", "--param", "pi/l:2", "--max-terms", "1"], capsys
    )
    assert code == 0
    assert "braiding support count: 2 (truncated list)" in out


def test_rmatrix_quasi_classical(capsys):
    code, out, _err = run_cli(["rmatrix", "--type", "A2", "--lattice", "sc", "--param", "2pi/l:1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["support_count"] == 1


def test_verify_twist_command(capsys):
    code, out, _err = run_cli(["verify-twist", "--type", "A2", "--lattice", "sc", "--param", "pi/l:3"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_dual_command(capsys):
    code, out, _err = run_cli(["dual", "--type", "C2", "--lattice", "sc", "--param", "1/8", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["g_star"]["cartan"] == [[2, -1], [-2, 2]]
    assert payload["g_star"]["dynkin_type"] == "B2"


def test_presets_command(capsys):
    code, out, _err = run_cli(["presets"], capsys)
    assert code == 0
    for name in PRESET_NAMES:
        assert name in out


def test_preset_argument_forms():
    assert parse_preset("sl3-odd-5").c == (pytest.importorskip("fractions").Fraction(1, 5),)
    assert parse_preset("sl2n-odd:n=3,l=3").type_str == "A5"
    assert parse_preset("adjoint-odd-lusztig:type=A2,l=5").lattice == "adjoint"
    assert parse_preset("adjoint-odd-lusztig:A1,l=3").type_str == "A1"  # bare type argument
    with pytest.raises(PresetError):
        parse_preset("sl2n-odd:n=2,l=3")  # even n is outside this family
    with pytest.raises(PresetError):
        parse_preset("sl3-odd:l=4")


@pytest.mark.parametrize(
    "name,messages",
    [
        (
            "sl2n-odd:n=3,l=3",
            [
                "expected X^Tan to be a proper sublattice of X^Mug",
                "expected the half-sum witness to lie in X^Mug",
                "expected the half-sum witness to avoid X^Tan",
                "expected self-pairing -1 at the half-sum witness",
            ],
        ),
        (
            "sp2n-odd-halfpi:n=3,l=5",
            [
                "expected X^Tan to be a proper sublattice of X^Mug",
                "expected l*beta/2 to lie in X^Mug",
                "expected l*beta/2 to avoid X^Tan",
                "expected self-pairing -1 at l*beta/2",
            ],
        ),
    ],
)
def test_strict_inclusion_presets_report_every_failed_conclusion(name, messages):
    case = parse_preset(name)
    rd, q = case.build()
    assert case.check(build_report(rd, q, {}), rd, q) == []
    # Doctored: X^Tan = X^Mug reported, the true X^Tan (which avoids the
    # witness) as X^Mug, all of P as X^Tan, and the trivial parameter.
    doctored = {
        "centers": {
            "verdicts": {"tan_equals_mug": True},
            "x_mug": [list(g) for g in Analysis(rd, q).tower.x_tan.gens],
            "x_tan": [list(g) for g in rd.weight_lattice().gens],
        }
    }
    assert case.check(doctored, rd, make_param(rd, 0)) == messages


def test_spec_file_roundtrip(tmp_path, capsys):
    spec = tmp_path / "input.spec"
    spec.write_text('type = "A2"\nlattice = "sc"\n# comment line\nparam = "1/6"\n')
    parsed = read_spec_file(str(spec))
    assert parsed == {"type": "A2", "lattice": "sc", "param": "1/6"}
    code, out, _err = run_cli(["analyze", "--spec", str(spec), "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["input"]["type"] == "A2"

    matrix_spec = tmp_path / "matrix.spec"
    matrix_spec.write_text('type = "A2"\nlattice = [[1, 1], [0, 3]]\nparam = "1/6"\n')
    code, out, _err = run_cli(["analyze", "--spec", str(matrix_spec), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["root_datum"]["char_lattice"] == [[1, 1], [0, 3]]


@pytest.mark.parametrize("type_str, param", [("A2", "-1/6"), ("A2xB2", "-1/6,1/4")])
def test_a_negative_param_reads_the_same_as_a_flag_or_a_spec_key(type_str, param, tmp_path, capsys):
    spec = tmp_path / "negative.spec"
    spec.write_text(f'type = "{type_str}"\nparam = "{param}"\n')
    forms = (["--type", type_str, "--param", param], ["--type", type_str, f"--param={param}"], ["--spec", str(spec)])
    outs = [run_cli(["analyze", *argv, "--json"], capsys) for argv in forms]
    assert outs[0] == outs[1] == outs[2]
    code, out, err = outs[0]
    assert (code, err) == (0, "")
    assert json.loads(out)["input"]["param"] == param.split(",")


def test_json_reports_roundtrip_bytes(capsys):
    code, out, _err = run_cli(["analyze", "--preset", "g2-small", "--json"], capsys)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_match_golden_files(name, capsys):
    code, out, _err = run_cli(["analyze", "--preset", name, "--json"], capsys)
    assert code == 0
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert out == golden


@pytest.mark.parametrize(
    "type_str, digest",
    [
        ("A40", "4d2e5dea28bdc744cd4e0d12e02ffccd5ebf99ce1700a52959f303b503a5e193"),
        ("A60", "f68d16e633c18e75dd15d1f2758c1685d02763e3e845c585a11c926c26c361d1"),
        ("A80", "6a2f593058365b15a66f1d6fcfa58765a55bbd4f54b8f889a53c4678c6cd88eb"),
        # Recorded before the root datum was eliminated along its Dynkin forest.
        ("A100", "c0a65dde89884f22eec210c019604b6150fba691ce21c0ffd5e5125f605e30f8"),
    ],
)
def test_large_rank_reports_keep_their_bytes(type_str, digest, monkeypatch, capsys):
    # Digests of the reports whose cuts took a Smith-form left kernel first
    # (then its exact HNF at A40 and A60, its HNF mod L at A80); they pin the
    # one HNF mod N of [M | I] to the same lattices at ranks where the Smith
    # form's kernel rows are thousands of bits wide.  The same document also
    # renders as text, and its JSON parses.
    docs = []
    monkeypatch.setattr(cli, "to_json", lambda doc: docs.append(doc) or to_json(doc))
    code, out, _err = run_cli(["analyze", "--type", type_str, "--lattice", "sc", "--param", "1/6", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert json.loads(out)["root_datum"]["dynkin_type"] == type_str
    text = to_text(docs[0])
    assert text.startswith(f"type {type_str}  (lacing 1, simply connected)\nparameter c = 1/6 per factor\n")


def test_dimensions_past_the_integer_string_limit_are_decimal_strings(capsys):
    # fpdim_fiber has 5042 digits and dim_uqk 5054, past the 4300 that
    # int <-> str conversion allows by default.
    argv = ["analyze", "--type", "A40", "--param", "1/2000"]
    code, out, _err = run_cli([*argv, "--json"], capsys)
    assert code == 0
    dims = json.loads(out)["dims"]
    rd = build_root_datum("A40", "sc")
    expected = Analysis(rd, make_param(rd, Fraction(1, 2000))).dims
    for field in ("fpdim_fiber", "fpdim_sc_formula", "dim_uqk"):
        assert dims[field] == str(Decimal(getattr(expected, field))), field
    assert isinstance(dims["dim_u_plus"], int) and dims["dim_u_plus"] == expected.dim_u_plus
    code, out, _err = run_cli(argv, capsys)
    assert code == 0 and f"FPdim(fiber) = {dims['fpdim_fiber']}" in out


def test_support_count_past_the_integer_string_limit_is_a_decimal_string(capsys):
    rd = build_root_datum("A60", "sc")
    count = prod(make_param(rd, Fraction(1, 2000)).pos_root_ls())
    argv = ["--type", "A60", "--param", "1/2000", "--max-terms", "0"]
    code, out, _err = run_cli(["rmatrix", *argv], capsys)
    assert code == 0
    section = json.loads(out)
    assert section["support_count"] == str(Decimal(count)) and len(section["support_count"]) > 4300
    assert section["truncated"] is True and section["terms"] == []
    code, out, _err = run_cli(["analyze", *argv], capsys)
    assert code == 0 and f"braiding support count: {section['support_count']} (truncated list)" in out


def test_dimensions_below_the_integer_string_limit_stay_numbers(capsys):
    # A30 at 1/2000: dim_uqk has 2891 digits.
    code, out, _err = run_cli(["analyze", "--type", "A30", "--param", "1/2000", "--json"], capsys)
    assert code == 0
    dims = json.loads(out)["dims"]
    assert isinstance(dims["dim_uqk"], int) and len(str(dims["dim_uqk"])) == 2891
    assert all(isinstance(dims[field], int) for field in ("fpdim_fiber", "fpdim_sc_formula", "dim_u_plus"))


def test_decimal_string_threshold_does_not_follow_the_process_limit():
    argv = ["analyze", "--type", "A40", "--param", "1/2000", "--json"]
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "qcenters.cli", *argv], capture_output=True, text=True, check=True
        ).stdout
        for flags in ([], ["-X", "int_max_str_digits=0"])
    ]
    assert outs[0] == outs[1] and '"fpdim_fiber": "' in outs[0]


def test_selftest_smoke(capsys):
    code, out, _err = run_cli(["selftest", "--seed", "7"], capsys)
    assert code == 0
    assert out.count("[pass]") == 3


def test_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qcenters.cli", "analyze", "--preset", "sl2n-even", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dims"]["fpdim_fiber"] == 16


@pytest.mark.parametrize(
    "argv",
    [
        ["--type", "A2", "--param", "1/0"],
        ["--type", "A2", "--param", "pi/l:0"],
        ["--type", "A2", "--param", "2pi/l:0"],
        ["--type", "A2", "--lattice", "[1,", "--param", "1/6"],
        ["--spec", "{spec}"],
        ["--spec", "{int_type}"],
        ["--spec", "{list_type}"],
        ["--preset", "sl2n-even:l=0"],
        ["--preset", "g2-small:l=0"],
        ["--preset", "adjoint-odd-lusztig:l=-1"],
        ["--preset", "sl2n-even:l=-2"],
        ["--preset", "sl3-odd:l=-3"],
        ["--preset", "sl2n-even:n=0"],
        ["--spec", "{typo}"],
        ["--preset", "sl3-odd", "--type", "B2"],
        ["--preset", "sl3-odd", "--lattice", "adjoint"],
        ["--preset", "sl3-odd", "--param", "1/6"],
        ["--preset", "sl3-odd", "--spec", "{good}"],
        ["--spec", "{good}", "--type", "B2"],
        ["--spec", "{good}", "--param", "1/4"],
        ["--spec", "{twice}"],
    ],
)
def test_malformed_inputs_exit_one_without_traceback(argv, tmp_path):
    specs = {
        "spec": 'type = "A2"\nparam = "1/0"\n',
        "int_type": 'type = 5\nparam = "1/6"\n',
        "list_type": 'type = ["A2"]\nparam = "1/6"\n',
        "typo": 'type = "A2"\nlattce = "adjoint"\nparam = "1/6"\n',
        "good": 'type = "A2"\nparam = "1/6"\n',
        "twice": 'type = "A2"\nparam = "1/6"\ntype = "B2"\n',
    }
    paths = {name: tmp_path / f"{name}.spec" for name in specs}
    for name, text in specs.items():
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "qcenters.cli", "analyze", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    if str(paths["twice"]) in argv:
        twice = paths["twice"]
        assert proc.stderr == f"error: {twice}:3: key 'type' is also given at {twice}:1\n"


def test_unknown_spec_keys_and_conflicting_flags_are_named(tmp_path, capsys):
    typo = tmp_path / "typo.spec"
    typo.write_text('type = "A2"\nlattce = "adjoint"\nparam = "1/6"\n')
    code, out, err = run_cli(["analyze", "--spec", str(typo)], capsys)
    assert (code, out) == (1, "") and f"{typo}:2:" in err and "'lattce'" in err
    for flag, value in (("--type", "B2"), ("--lattice", "adjoint"), ("--param", "1/6"), ("--spec", str(typo))):
        code, out, err = run_cli(["analyze", "--preset", "sl3-odd", flag, value], capsys)
        assert (code, out) == (1, "") and flag in err, flag
    good = tmp_path / "good.spec"
    good.write_text('type = "A2"\nparam = "1/6"\n')
    code, out, err = run_cli(["dual", "--spec", str(good), "--type", "B2"], capsys)
    assert (code, out) == (1, "") and "--type" in err
    # A flag for a key the spec does not set still completes it.
    code, out, _err = run_cli(["analyze", "--spec", str(good), "--lattice", "adjoint", "--json"], capsys)
    assert code == 0 and json.loads(out)["input"]["lattice"] == "adjoint"


def test_failed_twist_checks_exit_two_from_every_view(monkeypatch, capsys):
    from qcenters import report
    from qcenters.twistcheck import TwistWitness

    monkeypatch.setattr(report, "run_all", lambda *args: ([TwistWitness((0, 1), 2, (), False)], True, True))
    argv = ["--type", "A2", "--param", "1/6"]
    for command in ("analyze", "verify-twist"):
        code, out, _err = run_cli([command, *argv], capsys)
        assert code == 2 and "serre ratio (0, 1) (m = 2): FAIL" in out, command
    code, out, _err = run_cli(["analyze", *argv, "--json"], capsys)
    assert code == 2 and json.loads(out)["twistcheck"]["all_pass"] is False


@pytest.mark.parametrize("type_str, param", [("C2", "1/8"), ("A2", "1/6")])
def test_text_views_keep_their_facts(type_str, param, capsys):
    argv = ["--type", type_str, "--param", param]
    views = {}
    for command in ("dual", "verify-twist", "analyze"):
        code, out, _err = run_cli([command, *argv], capsys)
        assert code == 0
        views[command] = out.splitlines()
    dual = json.loads(run_cli(["dual", *argv, "--json"], capsys)[1])
    for key in ("g_star", "g_check"):
        assert [line for line in views["dual"] if f"char lattice {dual[key]['char_lattice']}" in line], key
    witnesses = json.loads(run_cli(["verify-twist", *argv, "--json"], capsys)[1])["serre_ratio"]
    assert len([line for line in views["verify-twist"] if line.startswith("serre ratio ")]) == len(witnesses) > 0
    assert set(views["dual"] + views["verify-twist"]) <= set(views["analyze"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["analyze", "--frob", "1"],
        ["analyze", "--max-terms", "abc"],
        ["analyze", "--type", "A2", "--param", "1/6", "--max-terms", "-1"],
        ["rmatrix", "--type", "A2", "--param", "1/6", "--max-terms", "-1"],
        ["analyze", "--type", "A2", "--param", "--json"],
    ],
)
def test_usage_errors_exit_one_without_traceback(argv):
    # argparse exits 2 on a usage error; 2 is kept for violated identities.
    proc = subprocess.run([sys.executable, "-m", "qcenters.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    if "--max-terms" in argv:
        assert "argument --max-terms" in proc.stderr
    if argv[-2:] == ["--param", "--json"]:  # --json is a flag, not the value of --param
        assert "argument --param: expected one argument" in proc.stderr


VALID_TYPES = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2",
    "A1xA1", "A1xB2", "A2xA2", "A1xA3", "B2xG2", "A1xA1xA2", "A1xA1xA1xA1",
)
MALFORMED_TYPES = ("", "Z9", "A0", "B1", "D2", "E5", "E9", "G3", "A", "A2x", "xA2", "A2xxA1", "A-1", "A2.5", "2A", "a2")
MALFORMED_LATTICES = ("[[1,", "[1, 2]", "[[1.5]]", "[['a']]", "[[1e400]]", "[[1, 0], [0, 1j]]", "[]", "[[]]", "{}", "lat")
MALFORMED_PARAMS = ("", "abc", "1/0", "0/0", "pi/l:", "pi/l:x", "2pi/l:0", "1//2", "1/2/3", "nan", "inf", "-x", "1/2,,1/3")


def _rank(type_str):
    return sum(int(f[1:]) for f in type_str.split("x")) if type_str in VALID_TYPES else 2


@st.composite
def report_argv(draw):
    """argv for one report command.  Each input is malformed one time in four
    or so, and otherwise: a type of rank <= 4; sc, adjoint, Q plus random
    rows, or random rows; a parameter with denominator <= 30, as a fraction,
    the pi/l sugar or one value per factor.  --json is on or off, and rmatrix
    always gets --max-terms <= 50."""

    def pick(valid, malformed):
        return draw(st.sampled_from(malformed) if draw(st.integers(0, 3)) == 3 else valid)

    command = draw(st.sampled_from(["analyze", "dual", "verify-twist", "rmatrix"]))
    type_str = pick(st.sampled_from(VALID_TYPES), MALFORMED_TYPES + (draw(st.text("ABGx -", max_size=4)),))
    width = _rank(type_str) if draw(st.integers(0, 7)) else draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width), min_size=1, max_size=3))
    if type_str in VALID_TYPES and draw(st.booleans()):
        rows += [list(g) for g in build_root_datum(type_str, "adjoint").charlattice.gens]
    lattice = pick(st.sampled_from(["sc", "adjoint", str(rows)]), MALFORMED_LATTICES)
    fraction = st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 30))
    sugar = st.builds("{}/l:{}".format, st.sampled_from(["pi", "2pi"]), st.integers(-3, 30))
    per_factor = st.lists(fraction, min_size=type_str.count("x") + 1, max_size=type_str.count("x") + 1).map(",".join)
    param = pick(fraction | sugar | per_factor, MALFORMED_PARAMS)
    argv = [command, "--type", type_str, "--lattice", lattice, "--param", param]
    if command == "rmatrix":
        argv += ["--max-terms", str(draw(st.integers(0, 50)))]
    return argv + (["--json"] if draw(st.booleans()) else [])


@seed(29)
@settings(max_examples=300, deadline=None)
@given(report_argv())
def test_report_commands_exit_zero_or_one_on_any_argv(argv):
    # A valid input passes every identity (never exit 2), a malformed one is
    # named on stderr, and no input escapes main as an exception.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        assert "error:" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_help_exits_zero(capsys):
    code, out, _err = run_cli(["analyze", "--help"], capsys)
    assert code == 0 and "--max-terms" in out


def test_rmatrix_help_words_json_as_its_default(capsys):
    code, out, _err = run_cli(["rmatrix", "--help"], capsys)
    assert code == 0 and "--json JSON output (the default here)" in " ".join(out.split())
    code, out, _err = run_cli(["analyze", "--help"], capsys)
    assert code == 0 and "--json emit JSON instead of text" in " ".join(out.split())


def test_preset_orders_must_be_positive_integers(capsys):
    for spec in ("sl2n-even:l=0", "sl2n-odd:n=-1", "sl3-odd:l=x", "sl2n-even:l=2.0", "g2-small:l=-6"):
        with pytest.raises(PresetError, match="integer >= 1"):
            parse_preset(spec)
    # Order 1 is valid, and its Lambda = (Z/1)^r lists no invariant factor.
    code, _out, err = run_cli(["analyze", "--preset", "adjoint-odd-lusztig:A2,l=1"], capsys)
    assert (code, err) == (0, "")


def test_a_preset_argument_given_twice_is_refused(capsys):
    # As spec files refuse a repeated key, a preset refuses a repeated
    # argument in either form, bare or key=value, instead of keeping the last.
    for spec, key in (
        ("sl3-odd:l=5,l=7", "l"),
        ("sl3-odd:5,l=7", "l"),
        ("sl3-odd:l=5, 5", "l"),
        ("adjoint-odd-lusztig:A2,type=B2", "type"),
        ("sl2n-odd:n=3,l=3,n=5", "n"),
    ):
        with pytest.raises(PresetError, match=f"^preset argument {key} is given twice$"):
            parse_preset(spec)
        code, out, err = run_cli(["analyze", "--preset", spec], capsys)
        assert (code, out) == (1, "") and f"preset argument {key} is given twice" in err, spec


def test_sp2n_preset_needs_rank_two_before_any_root_datum(monkeypatch, capsys):
    from qcenters import presets

    def no_root_datum(*args):
        raise AssertionError("a root datum was built for an out-of-range preset")

    monkeypatch.setattr(presets, "build_root_datum", no_root_datum)
    code, out, err = run_cli(["analyze", "--preset", "sp2n-odd-halfpi:n=1"], capsys)
    assert (code, out) == (1, "")
    assert "preset argument n must be an integer >= 2" in err
    assert "n >= 2" in make_preset("sp2n-odd-halfpi").description


def test_star_import_resolves_every_exported_name():
    import qcenters

    namespace: dict = {}
    exec("from qcenters import *", namespace)
    assert len(set(qcenters.__all__)) == len(qcenters.__all__)
    for name in qcenters.__all__:
        assert namespace[name] is getattr(qcenters, name)
