"""Command-line front end.

Subcommands: analyze, dual, rmatrix, verify-twist, presets, selftest.  The
first four print views of one report (`analyze` all of it, the others one
section) through one handler, as `report.to_text` text or `--json`.
Exit codes: 0 success, 1 bad input (usage errors, conflicting flags, and
unknown or repeated spec keys included), 2 violated internal identity
(failed twist checks or preset conclusions included).
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Optional

from .presets import PresetCase, make_preset, parse_preset, PRESET_NAMES
from .qparam import InputError, InvariantViolation, QParam, make_param, parse_param
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
from .rootdata import RootDatum, build_root_datum
from .selftest import run_selftest


SPEC_KEYS = ("type", "lattice", "param")


def read_spec_file(path: str) -> dict[str, Any]:
    """Parse a key-value spec document: `type = "A2xB3"`, `lattice = "sc"` or
    a row matrix, `param = "1/6"`.  Values use Python literal syntax; any
    other key, or a key given twice, is an error."""
    spec: dict[str, Any] = {}
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in SPEC_KEYS:
                raise InputError(f"{path}:{lineno}: unknown key {key!r} (expected type, lattice or param)")
            if key in seen:
                raise InputError(f"{path}:{lineno}: key {key!r} is also given at {path}:{seen[key]}")
            seen[key] = lineno
            try:
                spec[key] = ast.literal_eval(value)
            except (ValueError, SyntaxError) as exc:
                raise InputError(f"{path}:{lineno}: bad value: {exc}") from exc
    return spec


def _resolve_inputs(args: argparse.Namespace) -> tuple[RootDatum, QParam, dict[str, Any], Optional[PresetCase]]:
    """(root datum, parameter, input echo, preset case or None).  A preset
    takes no other input flag, and a spec file no flag for a key it sets."""
    given = {key: getattr(args, key) for key in (*SPEC_KEYS, "spec") if getattr(args, key)}
    if args.preset:
        if given:
            raise InputError(f"--preset cannot be combined with --{next(iter(given))}")
        case = parse_preset(args.preset)
        rd, q = case.build()
        return rd, q, case.input_echo(), case

    if "spec" in given:
        spec = read_spec_file(given.pop("spec"))
        clash = [key for key in SPEC_KEYS if key in spec and key in given]
        if clash:
            raise InputError(f"{args.spec}: key {clash[0]!r} is also given as --{clash[0]}")
        given.update(spec)
    type_str = given.get("type")
    lattice: Any = given.get("lattice", "sc")
    if not type_str:
        raise InputError("missing --type (or --preset / --spec)")
    if "param" not in given:
        raise InputError("missing --param (or --preset / --spec)")
    if isinstance(lattice, str) and lattice.startswith("["):
        try:
            lattice = ast.literal_eval(lattice)
        except (ValueError, SyntaxError) as exc:
            raise InputError(f"bad lattice {lattice!r}: {exc}") from exc
    rd = build_root_datum(type_str, lattice)
    values = parse_param(str(given["param"]), len(rd.dynkin.factors))
    q = make_param(rd, values)
    echo = {
        "type": type_str,
        "lattice": lattice if isinstance(lattice, str) else [list(r) for r in lattice],
        "param": [f"{c.numerator}/{c.denominator}" for c in values],
    }
    return rd, q, echo, None


def _cmd_report(args: argparse.Namespace) -> int:
    """Print the full report, or the one-section view args.view builds, as
    text or JSON.  Exit 2 when the printed twist checks fail, or when a
    preset's conclusion fails on the full report; else 0."""
    rd, q, echo, case = _resolve_inputs(args)
    if args.view is None:
        doc = build_report(rd, q, echo, max_terms=args.max_terms)
    else:
        doc = document(echo, args.view(Analysis(rd, q), args.max_terms))
    sys.stdout.write(to_json(doc) if args.json else to_text(doc))
    failures = case.check(doc, rd, q) if case is not None and args.view is None else []
    for f in failures:
        sys.stderr.write(f"preset conclusion failed: {f}\n")
    return 2 if failures or doc.get("twistcheck", doc).get("all_pass") is False else 0


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


def _max_terms(text: str) -> int:
    """The --max-terms value: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _add_report(sub: Any, name: str, help_text: str, view: Any, max_terms: bool = False, json: bool = False) -> None:
    """A report command: the full report when view is None, else the
    one-section view `view(analysis, max_terms)`; JSON by default when json."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("--type", help="Dynkin type string, e.g. A2 or A2xB3")
    parser.add_argument("--lattice", help='"sc", "adjoint", or generator rows like [[1,0],[0,2]]')
    parser.add_argument("--param", help='parameter: "1/6", "1/6,1/4", "pi/l:3", "2pi/l:3"')
    parser.add_argument("--preset", help="named preset, e.g. sl2n-odd or sl3-odd-5")
    parser.add_argument("--spec", help="path to a key-value spec file (type/lattice/param)")
    parser.add_argument("--json", action="store_true", default=json,
                        help="JSON output (the default here)" if json else "emit JSON instead of text")
    if max_terms:
        parser.add_argument("--max-terms", type=_max_terms, help="include the braiding term list, capped")
    parser.set_defaults(func=_cmd_report, view=view, max_terms=None)


def _attach_negative_param(argv: list[str]) -> list[str]:
    """argv with a --param value that starts with a minus and a digit, as in
    `--param -1/6`, attached as `--param=-1/6`: argparse reads any other
    word that starts with a minus as an option, not as the flag's value."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--param" and word[:1] == "-" and word[1:2].isdigit():
            out[-1] = f"--param={word}"
        else:
            out.append(word)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcenters",
        description="Exact center-lattice, dual-datum, twisting and dimension invariants "
        "of quantum groups at roots of unity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_report(sub, "analyze", "full report for one (type, lattice, param) triple", None, max_terms=True)
    _add_report(sub, "dual", "dual root data only", lambda a, _: dual_section(a))
    _add_report(sub, "rmatrix", "admissible braiding supports with exact coefficients", rmatrix_section,
                max_terms=True, json=True)
    _add_report(sub, "verify-twist", "scalar rescaling identity checks", lambda a, _: twistcheck_section(a))

    p_presets = sub.add_parser("presets", help="list the named presets")
    p_presets.set_defaults(func=_cmd_presets)

    p_selftest = sub.add_parser("selftest", help="randomized property suites")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.set_defaults(func=_cmd_selftest)

    try:
        args = parser.parse_args(_attach_negative_param(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InvariantViolation as exc:
        sys.stderr.write(f"internal identity violated: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
