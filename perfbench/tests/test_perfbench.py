"""Tests of the benchmark itself: inputs, output checks, tracing and failure paths."""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import checks
import ops
import worker
import workloads
from qcenters import centers, cyclo, report
from qcenters.angles import AngleQZ
from qcenters.presets import PRESET_NAMES
from qcenters.rmatrix import batch_conductor
from tracer import LAYER_FUNCTIONS, Tracer
from workloads import Case

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
NO_CALL_SITE = lambda _name, fn, *args: fn(*args)  # noqa: E731


def test_preset_names_match_the_program():
    assert workloads.PRESET_NAMES == PRESET_NAMES


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    for seed in (0, 1, 7, 12345):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)
    assert len({tuple(workloads.generate(workload, s)) for s in range(6)}) > 1


def _work_size(workload: str, case: Case):
    prep = ops.prepare(workload, case)
    if prep.q is None:  # report-sweep builds its datum inside the operation
        from qcenters.qparam import make_param
        from qcenters.rootdata import build_root_datum

        prep.rd = build_root_datum(case.type_str, case.lattice)
        prep.q = make_param(prep.rd, list(case.c))
    ls = prep.q.pos_root_ls()
    return ls, prod(ls), batch_conductor(prep.q, prep.rd)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_size_does_not_change_across_seeds(workload):
    sizes = []
    for seed in (0, 1, 2):
        cases = sorted(workloads.generate(workload, seed), key=lambda c: (c.type_str, c.c[0].denominator if c.c else 0))
        sizes.append([_work_size(workload, c) for c in cases if c.preset is None])
    assert sizes[0] == sizes[1] == sizes[2]


def _report_output(label: str):
    case = next(c for c in workloads.generate("report-sweep", workloads.DEFAULT_SEED) if c.label == label)
    prep = ops.prepare("report-sweep", case)
    return prep, ops.run("report-sweep", prep, NO_CALL_SITE)


def _digest(workload: str, label: str) -> str:
    return json.loads(worker.DIGESTS.read_text())[workload][label]


def _corrupt(text: str, pos: int) -> str:
    old = text[pos]
    new = {"0": "1", " ": "\t", "\n": " "}.get(old, "0" if old != "0" else "1")
    return text[:pos] + new + text[pos + 1:]


def test_report_checker_rejects_a_corrupted_byte():
    prep, out = _report_output("A2 sc 1/6")
    digest = _digest("report-sweep", "A2 sc 1/6")
    rng = random.Random(0)
    assert checks.problems("report-sweep", prep, out, None, digest, rng) == []
    for pos in random.Random(1).sample(range(len(out.report_json)), 25):
        bad = ops.Output(items=1, report_json=_corrupt(out.report_json, pos))
        assert checks.problems("report-sweep", prep, bad, None, digest, rng), pos
    # Without a recorded digest (seeds other than the default) the
    # identities still catch a corrupted dimension.
    dims = json.loads(out.report_json)["dims"]
    text = out.report_json.replace(f'"fpdim_fiber": {dims["fpdim_fiber"]}', f'"fpdim_fiber": {dims["fpdim_fiber"] + 1}')
    assert "identity fails" in " ".join(checks.report_problems(text, None))


def test_preset_report_checker_rejects_a_corrupted_byte():
    prep, out = _report_output("preset sl3-odd")
    golden = (ROOT / "tests" / "golden" / "sl3-odd.json").read_text()
    assert checks.report_problems(out.report_json, golden) == []
    for pos in random.Random(2).sample(range(len(golden)), 25):
        assert checks.report_problems(_corrupt(out.report_json, pos), golden), pos


def _terms_output(workload: str, type_str: str, c: Fraction, max_terms=None):
    case = Case(f"{type_str} sc {c}", type_str, "sc", (c,), max_terms=max_terms)
    prep = ops.prepare(workload, case)
    return prep, ops.run(workload, prep, NO_CALL_SITE)


@pytest.mark.parametrize("workload,type_str,c", [("rmatrix-box", "A2", Fraction(1, 4)), ("cyclo-wide", "A1", Fraction(1, 5))])
def test_terms_checker_rejects_a_wrong_coefficient(workload, type_str, c):
    prep, out = _terms_output(workload, type_str, c)
    assert 1 < len(out.terms) <= checks.MARKER_SAMPLE  # the sample covers every support
    assert checks.terms_problems(prep, out, random.Random(0)) == []
    for i in range(len(out.terms)):
        s, coeff = out.terms[i]
        wrong = coeff * cyclo.root_of_unity(AngleQZ(1, coeff.conductor), coeff.conductor)
        bad = ops.Output(items=out.items, terms=out.terms[:i] + [(s, wrong)] + out.terms[i + 1:], pairings=out.pairings)
        assert checks.terms_problems(prep, bad, random.Random(0)), i
    dropped = ops.Output(items=out.items - 1, terms=out.terms[:-1], pairings=out.pairings and out.pairings[:-1])
    assert checks.terms_problems(prep, dropped, random.Random(0))


def test_cyclo_values_are_compared_by_conductor_and_coefficients():
    one2, one4 = cyclo.CycloNum.one(2), cyclo.CycloNum.one(4)
    assert one2 == one4  # equality lifts across conductors ...
    assert not checks._same(one2, one4)  # ... the checks do not


def test_tracer_rebinds_every_holder_and_restores_them():
    original = centers.center_tower
    tracer = Tracer()
    tracer.install()
    try:
        assert centers.center_tower is not original
        assert report.center_tower is centers.center_tower
        assert cyclo.CycloNum.__rmul__ is cyclo.CycloNum.__mul__
        assert isinstance(vars(AngleQZ)["of"], staticmethod)
    finally:
        tracer.uninstall()
    assert centers.center_tower is original and report.center_tower is original


def test_self_times_are_nonnegative_and_within_the_op():
    prep = ops.prepare("report-sweep", workloads.generate("report-sweep", 0)[1])  # preset sl2n-odd
    tracer = Tracer()
    tracer.install()
    try:
        for label in ("first", "second"):
            with tracer.operation(label):
                ops.run("report-sweep", prep, tracer.call)
    finally:
        tracer.uninstall()
    own = tracer.self_ns()
    assert min(own) >= 0
    roots = [i for i, name in enumerate(tracer.name) if name == 0]
    assert len(roots) == 2
    for root in roots:
        op_wall = tracer.end[root] - tracer.start[root]
        inside = [i for i, op in enumerate(tracer.op) if op == tracer.op[root] and i != root]
        assert inside and sum(own[i] for i in inside) <= op_wall
    totals = tracer.layer_totals()
    assert set(totals) == set(LAYER_FUNCTIONS)
    for name in ("report.build_report", "centers.center_tower", "presets.PresetCase.check", "qparam.QParam.l_of"):
        assert totals[name][0] > 0, name
    # Both operations did the same work, so every count is even.
    assert all(calls % 2 == 0 for calls, _ns in totals.values())


def test_deadline_stops_an_operation(monkeypatch):
    monkeypatch.setattr(worker, "OP_DEADLINE_S", 0.2)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        start = time.perf_counter()
        value, error = worker.bounded(time.sleep, 5)
        assert value is None and "deadline" in error
        assert time.perf_counter() - start < 2
        assert worker.bounded(lambda: 1 // 0)[1].startswith("ZeroDivisionError")
    finally:
        signal.signal(signal.SIGALRM, previous)


def _copy_bench(dest: Path) -> None:
    shutil.copytree(BENCH_DIR, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def test_run_fails_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cyclo-wide", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_corrupted_output_fails_the_run(tmp_path):
    _copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests" / "golden", tmp_path / "tests" / "golden")
    rmatrix_py = tmp_path / "src" / "qcenters" / "rmatrix.py"
    text = rmatrix_py.read_text()
    assert "        out.append((s, coeff(s, q, rd, conductor=big_n)))\n" in text
    rmatrix_py.write_text(text.replace(
        "        out.append((s, coeff(s, q, rd, conductor=big_n)))\n",
        "        out.append((s, coeff(s, q, rd, conductor=big_n) * (2 if len(out) == 3 else 1)))\n"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cyclo-wide", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] == 4
    assert "marker" in proc.stdout and "digest" in proc.stdout
