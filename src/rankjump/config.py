"""Surface definitions in a plain key-value text format.

A config file holds one surface. Keys and values are separated by '=',
'#' starts a comment, polynomial values are comma- or space-separated
exact rationals ("p/q"), constant term first:

    kind = twist
    label = quadratic-twist
    f = 0, -1, 0, 1      # x^3 - x
    g = 0, 1             # t

Kinds: twist (fields f, g), km (a3, a2, a1, a0), weierstrass (A, B).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import DomainError
from .polynomial import RatPoly
from .surfaces import (
    KMFamily,
    NotRationalElliptic,
    TwistFamily,
    WeierstrassQt,
    is_twist_case,
)
from .kodaira import InvalidModelError


class ConfigError(ValueError):
    """A malformed or invalid surface definition, located by line and field."""


_FIELDS = {
    "twist": ("f", "g"),
    "km": ("a3", "a2", "a1", "a0"),
    "weierstrass": ("A", "B"),
}


@dataclass(frozen=True)
class SurfaceConfig:
    kind: str
    label: str
    polys: dict

    @cached_property
    def echo(self) -> dict:
        """JSON-ready echo of the definition, coefficients as 'p/q' strings;
        built once per config, shared by every record written and line read."""
        out = {"kind": self.kind, "label": self.label}
        for name, poly in self.polys.items():
            out[name] = [str(c) for c in poly.coeffs]
        return out

    @cached_property
    def definition(self) -> tuple:
        """The surface itself, label aside, coefficients as str(Fraction),
        canonical and quick to hash: equal exactly for the same surface."""
        return self.kind, tuple(sorted((n, tuple(map(str, p.coeffs)))
                                       for n, p in self.polys.items()))

    @cached_property
    def fibred(self):
        """The twist or km form, built once per config, that searches and
        verification run on; a weierstrass config must hide a twist."""
        surface = build_surface(self)
        if not isinstance(surface, WeierstrassQt):
            return surface
        recovered = is_twist_case(surface)
        if recovered is None:
            raise ConfigError("a generic weierstrass model carries no conic bundle here; "
                              "supply the surface in twist or km form")
        return recovered


#: Bound on the numerator and the denominator of every coefficient. Fibre
#: values are factored: with coefficients of height B and x0 of height H,
#: f(x0) has a numerator near 4 B^4 H^3 (below 10^22 at B = 10^4, H = 30,
#: well under a second to factor) and a km discriminant near its square
#: (tens of seconds at worst). At 10^400 one factorisation never ended.
MAX_COEFFICIENT = 10**4

_EXPONENT = re.compile(r"([-+]?[0-9_.]*)[eE]([-+]?[0-9_]+)")
_DIGIT_RUN = re.compile(r"[0-9]+")


def _parse_rational(token: str, where: str) -> Fraction:
    # Fraction builds 10^|k| for an exponent k before any bound is checked.
    # Within the bound, a nonzero D 10^(k - j) (D the mantissa's digits, j of
    # them after the point) has |k| <= len(token) + 4; past that only the
    # mantissa is parsed, and if it is nonzero the value is out of bounds.
    # It builds 10^j for j digits after the point, too, before int() refuses
    # a run of digits past the interpreter's limit (0: none): refuse it first.
    exp = _EXPONENT.fullmatch(token)
    limit = sys.get_int_max_str_digits()
    try:
        if limit and max(map(len, _DIGIT_RUN.findall(token)), default=0) > limit:
            raise ValueError
        huge = exp is not None and abs(int(exp[2])) > len(token) + 4
        value = Fraction(exp[1] if huge else token)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: bad rational {token[:20]!r}") from None
    if huge and value or max(abs(value.numerator), value.denominator) > MAX_COEFFICIENT:
        raise ConfigError(f"{where}: coefficient {token[:20]!r} "
                          f"has a numerator or denominator above {MAX_COEFFICIENT}")
    return value


def _poly(tokens, where: str) -> RatPoly:
    """The polynomial of coefficient tokens, constant term first, each bounded."""
    return RatPoly([_parse_rational(tok, where) for tok in tokens])


def parse_surface_config(text: str) -> SurfaceConfig:
    """Parse the key-value format; raises ConfigError with line precision."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, val)

    if "kind" not in values:
        raise ConfigError("missing required key 'kind'")
    kind = values.pop("kind")[1]
    if kind not in _FIELDS:
        raise ConfigError(f"unknown kind {kind!r}; expected twist, km or weierstrass")
    label = values.pop("label", (0, kind))[1]

    polys = {}
    for name in _FIELDS[kind]:
        if name not in values:
            raise ConfigError(f"kind {kind!r} requires field '{name}'")
        lineno, val = values.pop(name)
        polys[name] = _poly(val.replace(",", " ").split(), f"line {lineno}: field '{name}'")
    if values:
        stray = ", ".join(sorted(values))
        raise ConfigError(f"unknown keys for kind {kind!r}: {stray}")
    return SurfaceConfig(kind=kind, label=label, polys=polys)


def build_surface(cfg: SurfaceConfig):
    """Construct the surface object, translating invariant violations."""
    try:
        if cfg.kind == "twist":
            return TwistFamily(cfg.polys["f"], cfg.polys["g"])
        if cfg.kind == "km":
            return KMFamily(cfg.polys["a3"], cfg.polys["a2"], cfg.polys["a1"], cfg.polys["a0"])
        return WeierstrassQt(cfg.polys["A"], cfg.polys["B"])
    except (DomainError, InvalidModelError, NotRationalElliptic) as exc:
        raise ConfigError(f"invalid {cfg.kind} surface: {exc}") from exc


def surface_config_from_dict(data: dict) -> SurfaceConfig:
    """Rebuild a SurfaceConfig from its JSON echo, bounded as configs are:
    only the kind's keys, and each coefficient a string, as echo writes it."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise ConfigError(f"unknown kind {str(kind)[:20]!r} in stored record")
    if stray := data.keys() - {"kind", "label", *_FIELDS[kind]}:
        raise ConfigError(f"unknown keys for kind {kind!r}: {', '.join(sorted(stray))[:40]}")
    label = data.get("label", kind)
    if not isinstance(label, str):
        raise ConfigError(f"bad stored label {str(label)[:20]!r}")
    polys = {}
    for name in _FIELDS[kind]:
        coeffs = data.get(name)
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ConfigError(f"stored record has no list of strings for field '{name}'")
        polys[name] = _poly(coeffs, f"stored field '{name}'")
    return SurfaceConfig(kind=kind, label=label, polys=polys)


def parse_cover_file(text: str) -> list[RatPoly]:
    """Covers y^2 = h(t), one polynomial per line, coefficients as in configs."""
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        covers.append(_poly(line.replace(",", " ").split(), f"line {lineno}: field 'cover'"))
    return covers
