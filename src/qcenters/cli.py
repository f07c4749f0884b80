"""Command-line front end.

Subcommands: analyze, dual, rmatrix, verify-twist, presets, selftest.
Exit codes: 0 success, 1 bad input, 2 violated internal identity.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Optional

from .centers import DualDatumError
from .intlat import LatticeError
from .kappa import KappaError
from .presets import PresetCase, PresetError, make_preset, parse_preset, PRESET_NAMES
from .qparam import InvariantViolation, QParam, make_param, parse_param
from .report import (
    Analysis,
    build_report,
    document,
    dual_section,
    rmatrix_section,
    to_json,
    to_text,
    twistcheck_section,
)
from .rootdata import RootDatum, RootDatumError, build_root_datum
from .selftest import run_selftest


class InputError(ValueError):
    pass


def read_spec_file(path: str) -> dict[str, Any]:
    """Parse a key-value spec document: `type = "A2xB3"`, `lattice = "sc"` or
    a row matrix, `param = "1/6"`.  Values use Python literal syntax."""
    spec: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected `key = value`")
            key, value = line.split("=", 1)
            try:
                spec[key.strip()] = ast.literal_eval(value.strip())
            except (ValueError, SyntaxError) as exc:
                raise InputError(f"{path}:{lineno}: bad value: {exc}") from exc
    return spec


def _resolve_inputs(args: argparse.Namespace) -> tuple[RootDatum, QParam, dict[str, Any], Optional[PresetCase]]:
    """(root datum, parameter, input echo, preset case or None)."""
    if getattr(args, "preset", None):
        case = parse_preset(args.preset)
        rd, q = case.build()
        return rd, q, case.input_echo(), case

    type_str: Optional[str] = getattr(args, "type", None)
    lattice: Any = getattr(args, "lattice", None) or "sc"
    param: Optional[str] = getattr(args, "param", None)
    if getattr(args, "spec", None):
        spec = read_spec_file(args.spec)
        type_str = spec.get("type", type_str)
        lattice = spec.get("lattice", lattice)
        if "param" in spec:
            param = str(spec["param"])
    if not type_str:
        raise InputError("missing --type (or --preset / --spec)")
    if not param:
        raise InputError("missing --param (or --preset / --spec)")
    if isinstance(lattice, str) and lattice.startswith("["):
        lattice = ast.literal_eval(lattice)
    rd = build_root_datum(type_str, lattice)
    values = parse_param(param, len(rd.dynkin.factors))
    q = make_param(rd, values)
    echo = {
        "type": type_str,
        "lattice": lattice if isinstance(lattice, str) else [list(r) for r in lattice],
        "param": [f"{c.numerator}/{c.denominator}" for c in values],
    }
    return rd, q, echo, None


def _cmd_analyze(args: argparse.Namespace) -> int:
    rd, q, echo, case = _resolve_inputs(args)
    report = build_report(rd, q, echo, max_terms=args.max_terms)
    sys.stdout.write(to_json(report) if args.json else to_text(report))
    if case is not None:
        failures = case.check(report, rd, q)
        if failures:
            for f in failures:
                sys.stderr.write(f"preset conclusion failed: {f}\n")
            return 2
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    rd, q, echo, _case = _resolve_inputs(args)
    payload = document(echo, dual_section(Analysis(rd, q)))
    if args.json:
        sys.stdout.write(to_json(payload))
    else:
        for key in ("g_star", "g_check"):
            d = payload[key]
            sys.stdout.write(
                f"{key}: type {d['dynkin_type']}, Cartan {d['cartan']}, "
                f"char lattice {d['char_lattice']}, eps {d['epsilon_scalars']}\n"
            )
    return 0


def _cmd_rmatrix(args: argparse.Namespace) -> int:
    rd, q, echo, _case = _resolve_inputs(args)
    sys.stdout.write(to_json(document(echo, rmatrix_section(Analysis(rd, q), args.max_terms))))
    return 0


def _cmd_verify_twist(args: argparse.Namespace) -> int:
    rd, q, echo, _case = _resolve_inputs(args)
    analysis = Analysis(rd, q)
    payload = document(echo, twistcheck_section(analysis))
    if args.json:
        sys.stdout.write(to_json(payload))
    else:
        witnesses, comm_ok, cross_ok = analysis.twist
        for w in witnesses:
            sys.stdout.write(f"serre ratio {w.pair} (m = {w.serre_exponent}): {'ok' if w.verdict else 'FAIL'}\n")
        sys.stdout.write(f"commutator identity: {'ok' if comm_ok else 'FAIL'}\n")
        sys.stdout.write(f"cross-commutator antisymmetry: {'ok' if cross_ok else 'FAIL'}\n")
    return 0 if payload["all_pass"] else 2


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in PRESET_NAMES:
        case = make_preset(name)
        sys.stdout.write(f"{name}: {case.description} (defaults: {case.name})\n")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(seed=args.seed)
    bad = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        sys.stdout.write(f"[{status}] {r.name}: {r.runs} runs\n")
        for f in r.failures:
            bad = True
            sys.stdout.write(f"    {f}\n")
    return 2 if bad else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", help="Dynkin type string, e.g. A2 or A2xB3")
    parser.add_argument("--lattice", help='"sc", "adjoint", or generator rows like [[1,0],[0,2]]')
    parser.add_argument("--param", help='parameter: "1/6", "1/6,1/4", "pi/l:3", "2pi/l:3"')
    parser.add_argument("--preset", help="named preset, e.g. sl2n-odd or sl3-odd-5")
    parser.add_argument("--spec", help="path to a key-value spec file (type/lattice/param)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcenters",
        description="Exact center-lattice, dual-datum, twisting and dimension invariants "
        "of quantum groups at roots of unity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full report for one (type, lattice, param) triple")
    _add_common(p_analyze)
    p_analyze.add_argument("--max-terms", type=int, default=None, help="include the braiding term list, capped")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_dual = sub.add_parser("dual", help="dual root data only")
    _add_common(p_dual)
    p_dual.set_defaults(func=_cmd_dual)

    p_rmatrix = sub.add_parser("rmatrix", help="admissible braiding supports with exact coefficients")
    _add_common(p_rmatrix)
    p_rmatrix.add_argument("--max-terms", type=int, default=None)
    p_rmatrix.set_defaults(func=_cmd_rmatrix)

    p_twist = sub.add_parser("verify-twist", help="scalar rescaling identity checks")
    _add_common(p_twist)
    p_twist.set_defaults(func=_cmd_verify_twist)

    p_presets = sub.add_parser("presets", help="list the named presets")
    p_presets.set_defaults(func=_cmd_presets)

    p_selftest = sub.add_parser("selftest", help="randomized property suites")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PresetError, RootDatumError, LatticeError, DualDatumError, KappaError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InvariantViolation as exc:
        sys.stderr.write(f"internal identity violated: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
