"""Named example fixtures with their expected conclusions.

Each preset fixes a (type, lattice, parameter) triple and a checker that
inspects the finished report; a preset run fails loudly when its documented
conclusion stops holding.  Presets accept overrides as `name:k=v,...` and
the shorthand `name-<l>` for the order parameter l.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable

from .intlat import hnf, index
from .qparam import QParam, make_param
from .rootdata import RootDatum, Weight, build_root_datum


class PresetError(ValueError):
    """Unknown preset or malformed preset arguments."""


@dataclass(frozen=True)
class PresetCase:
    name: str
    type_str: str
    lattice: str
    c: tuple[Fraction, ...]
    description: str
    check: Callable[[dict[str, Any], RootDatum, QParam], list[str]]

    def build(self) -> tuple[RootDatum, QParam]:
        rd = build_root_datum(self.type_str, self.lattice)
        return rd, make_param(rd, list(self.c))

    def input_echo(self) -> dict[str, Any]:
        return {
            "preset": self.name,
            "type": self.type_str,
            "lattice": self.lattice,
            "param": [f"{c.numerator}/{c.denominator}" for c in self.c],
        }


def _odd_half_sum_witness(rd: RootDatum, ell: int) -> Weight:
    """(l/2) * (alpha_1 + alpha_3 + ...) over the odd-position simple roots."""
    total = Weight.of([0] * rd.rank)
    for i in range(0, rd.rank, 2):
        total = total + rd.simple_root(i)
    return total.scaled(Fraction(ell, 2))


def _check_even_regular(report: dict[str, Any], rd: RootDatum, q: QParam) -> list[str]:
    fails = []
    v = report["centers"]["verdicts"]
    if not v["thm_sc_hypotheses"]:
        fails.append("expected the simply-connected even-order hypotheses to hold")
    if not v["tan_equals_mug"]:
        fails.append("expected X^Tan = X^Mug")
    if report["centers"]["x_tan"] != report["centers"]["lQ"]:
        fails.append("expected X^Tan = lQ")
    if not v["langlands_dual"]:
        fails.append("expected the dual datum to be of Langlands-dual type")
    transpose = [[rd.cartan[j][i] for j in range(rd.rank)] for i in range(rd.rank)]
    if report["dual"]["g_check"]["cartan"] != transpose:
        fails.append("expected the dual Cartan matrix to equal the transpose")
    return fails


def _check_strict_inclusion(
    witness: Callable[[RootDatum], Weight], name: str
) -> Callable[[dict[str, Any], RootDatum, QParam], list[str]]:
    """X^Tan < X^Mug strictly, shown by the witness weight (called `name` in
    the messages): in X^Mug, outside X^Tan, with self-pairing -1."""

    def check(report: dict[str, Any], rd: RootDatum, q: QParam) -> list[str]:
        fails = []
        if report["centers"]["verdicts"]["tan_equals_mug"]:
            fails.append("expected X^Tan to be a proper sublattice of X^Mug")
        lam0 = witness(rd)
        coords = lam0.coords
        if not hnf(report["centers"]["x_mug"]).member(coords):
            fails.append(f"expected {name} to lie in X^Mug")
        if hnf(report["centers"]["x_tan"]).member(coords):
            fails.append(f"expected {name} to avoid X^Tan")
        if not q.eval(lam0, lam0).is_half():
            fails.append(f"expected self-pairing -1 at {name}")
        return fails

    return check


def _check_tan_is_lq(report: dict[str, Any], rd: RootDatum, q: QParam) -> list[str]:
    fails = []
    c = report["centers"]
    if not (c["x_tan"] == c["x_mug"] == c["lQ"]):
        fails.append("expected X^Tan = X^Mug = lQ")
    return fails


def _check_adjoint_lusztig(ell: int) -> Callable[[dict[str, Any], RootDatum, QParam], list[str]]:
    def check(report: dict[str, Any], rd: RootDatum, q: QParam) -> list[str]:
        fails = _check_tan_is_lq(report, rd, q)
        dims = report["dims"]
        expected_grouplikes = ell ** rd.rank
        if dims["grouplike_count"] != expected_grouplikes:
            fails.append(f"expected {expected_grouplikes} grouplikes")
        factors = [ell] * rd.rank if ell > 1 else []  # (Z/1)^r has no invariant factors
        if report["groups"]["lambda"]["invariant_factors"] != factors:
            fails.append(f"expected grouplike group (Z/{ell})^{rd.rank}")
        lie_dim = rd.rank + 2 * len(rd.pos_roots)
        if dims["fpdim_fiber"] != ell**lie_dim:
            fails.append(f"expected fiber dimension l^dim(g) = {ell**lie_dim}")
        return fails

    return check


def _positive(overrides: dict[str, Any], key: str, default: int, least: int = 1) -> int:
    """Pop the override `key` (default if absent), which must be an integer >= least."""
    value = overrides.pop(key, default)
    if not str(value).isdecimal() or int(value) < least:
        raise PresetError(f"preset argument {key} must be an integer >= {least}, got {value!r}")
    return int(value)


def make_preset(name: str, **overrides: Any) -> PresetCase:
    """Instantiate a named preset; overrides are integers n, l and type.

    Each description states the preset's range of n and l; arguments outside
    it raise PresetError naming the argument before any root datum is built.
    """
    if name == "sl2n-even":
        n = _positive(overrides, "n", 1)
        ell = _positive(overrides, "l", 2)
        if ell % 2:
            raise PresetError("sl2n-even needs an even order l")
        case = PresetCase(
            name=f"sl2n-even:n={n},l={ell}",
            type_str=f"A{2 * n - 1}",
            lattice="sc",
            c=(Fraction(1, 2 * ell),),
            description=f"SL({2*n}) at the even-order form of order 2l = {2*ell} (n >= 1, even l >= 2)",
            check=_check_even_regular,
        )
    elif name == "sl2n-odd":
        n = _positive(overrides, "n", 1)
        ell = _positive(overrides, "l", 3)
        if n % 2 == 0 or ell % 2 == 0:
            raise PresetError("sl2n-odd needs odd n and odd l")
        case = PresetCase(
            name=f"sl2n-odd:n={n},l={ell}",
            type_str=f"A{2 * n - 1}",
            lattice="sc",
            c=(Fraction(1, ell),),
            description=f"SL({2*n}) at an odd order l = {ell}: strict Tannakian center (odd n >= 1, odd l >= 1)",
            check=_check_strict_inclusion(lambda rd: _odd_half_sum_witness(rd, ell), "the half-sum witness"),
        )
    elif name == "sp2n-odd-halfpi":
        n = _positive(overrides, "n", 2, least=2)  # C_n needs rank n >= 2
        ell = _positive(overrides, "l", 3)
        if ell % 2 == 0:
            raise PresetError("sp2n-odd-halfpi needs odd l")
        case = PresetCase(
            name=f"sp2n-odd-halfpi:n={n},l={ell}",
            type_str=f"C{n}",
            lattice="sc",
            c=(Fraction(1, 2 * ell),),
            description=f"Sp({2*n}) at the half-angle form with odd l = {ell} (n >= 2, odd l >= 1)",
            # beta is the unique long simple root.
            check=_check_strict_inclusion(lambda rd: rd.simple_root(rd.rank - 1).scaled(Fraction(ell, 2)), "l*beta/2"),
        )
    elif name == "sl3-odd":
        ell = _positive(overrides, "l", 3)
        if ell % 2 == 0:
            raise PresetError("sl3-odd needs odd l")
        case = PresetCase(
            name=f"sl3-odd:l={ell}",
            type_str="A2",
            lattice="sc",
            c=(Fraction(1, ell),),
            description=f"SL(3) at odd order l = {ell}: centers agree at lQ anyway (odd l >= 1)",
            check=_check_tan_is_lq,
        )
    elif name == "adjoint-odd-lusztig":
        type_str = str(overrides.pop("type", "A1"))
        ell = _positive(overrides, "l", 3)
        scaffold = build_root_datum(type_str, "adjoint")
        det = index(scaffold.root_lattice(), scaffold.weight_lattice())
        if ell % 2 == 0 or gcd(ell, scaffold.lacing) != 1 or det is None or gcd(ell, det) != 1:
            raise PresetError("adjoint-odd-lusztig needs odd l coprime to the lacing number and det(Cartan)")
        case = PresetCase(
            name=f"adjoint-odd-lusztig:{type_str},l={ell}",
            type_str=type_str,
            lattice="adjoint",
            c=tuple(Fraction(1, ell) for _ in scaffold.dynkin.factors),
            description=f"adjoint {type_str} at generic odd order l = {ell} "
            "(odd l >= 1 coprime to the lacing number and det(Cartan))",
            check=_check_adjoint_lusztig(ell),
        )
    elif name == "g2-small":
        ell = _positive(overrides, "l", 6)
        if ell % 6:
            raise PresetError("g2-small needs 6 | l so that the lacing number divides l")
        case = PresetCase(
            name=f"g2-small:l={ell}",
            type_str="G2",
            lattice="sc",
            c=(Fraction(1, 2 * ell),),
            description=f"G2 at the even-order form with l = {ell} (l >= 6 with 6 | l)",
            check=_check_even_regular,
        )
    else:
        raise PresetError(f"unknown preset {name!r}")
    if overrides:
        raise PresetError(f"unused preset arguments: {sorted(overrides)}")
    return case


PRESET_NAMES = [
    "sl2n-even",
    "sl2n-odd",
    "sp2n-odd-halfpi",
    "sl3-odd",
    "adjoint-odd-lusztig",
    "g2-small",
]


def parse_preset(spec: str) -> PresetCase:
    """Parse `name`, `name-<l>`, or `name:k=v,...` into a preset case; an
    argument given twice, as `k=v` or bare, raises PresetError naming it."""
    spec = spec.strip()
    if ":" in spec:
        name, argstr = spec.split(":", 1)
        kwargs: dict[str, Any] = {}
        for piece in argstr.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" in piece:
                k, v = (part.strip() for part in piece.split("=", 1))
            elif re.fullmatch(r"[A-G]\d+(x[A-G]\d+)*", piece):
                k, v = "type", piece  # bare Dynkin type, e.g. name:A1,l=3
            elif piece.isdigit():
                k, v = "l", int(piece)
            else:
                raise PresetError(f"bad preset argument {piece!r}")
            if k in kwargs:
                raise PresetError(f"preset argument {k} is given twice")
            kwargs[k] = v
        return make_preset(name.strip(), **kwargs)
    if spec not in PRESET_NAMES:
        for name in PRESET_NAMES:
            if spec.startswith(name + "-"):
                suffix = spec[len(name) + 1 :]
                if suffix.isdigit():
                    return make_preset(name, l=int(suffix))
        raise PresetError(f"unknown preset {spec!r}")
    return make_preset(spec)
