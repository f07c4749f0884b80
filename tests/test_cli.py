import json
import subprocess
import sys
from pathlib import Path

import pytest

from qcenters.cli import main, read_spec_file
from qcenters.presets import PRESET_NAMES, parse_preset, PresetError
from qcenters.qparam import make_param
from qcenters.report import Analysis, build_report

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


def test_selftest_smoke(capsys):
    code, out, _err = run_cli(["selftest", "--seed", "7"], capsys)
    assert code == 0
    assert out.count("[pass]") == 5


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
    ],
)
def test_malformed_inputs_exit_one_without_traceback(argv, tmp_path):
    specs = {
        "spec": 'type = "A2"\nparam = "1/0"\n',
        "int_type": 'type = 5\nparam = "1/6"\n',
        "list_type": 'type = ["A2"]\nparam = "1/6"\n',
    }
    for name, text in specs.items():
        (tmp_path / f"{name}.spec").write_text(text)
    argv = [a.format(**{name: tmp_path / f"{name}.spec" for name in specs}) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "qcenters.cli", "analyze", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_star_import_resolves_every_exported_name():
    import qcenters

    namespace: dict = {}
    exec("from qcenters import *", namespace)
    assert len(set(qcenters.__all__)) == len(qcenters.__all__)
    for name in qcenters.__all__:
        assert namespace[name] is getattr(qcenters, name)
