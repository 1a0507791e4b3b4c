"""Certificate records and the append-only JSON-lines store.

A record is a rank-jump certificate plus engine version, budget and an
optional run stamp, serialised with sorted keys and exact rationals as
strings, so identical runs produce byte-identical streams; a reduced int
pair (n, d), d > 0, is written as str(Fraction) writes n/d (ratio_str) and
read back to it by _rational. The store is a directory of .jsonl files
keyed by a hash of the surface label; re-runs append only t0 pairs not
already present for the same surface definition, so unlabelled surfaces
sharing a file lose nothing. Store files
are read as bytes, one line at a time, by one reader (_read_lines), and
each line is decoded as UTF-8 on its own, so a line that does not decode is
one unreadable record, as is one that is no JSON object, lacks a field or
has one of the wrong JSON type (README lists them; _field reads and types
each once). Records are verified in the fibred (twist or km) form of their
config, the form the search ran in.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from pathlib import Path

from . import __version__
from .arith import ratio_str, reduced
from .config import SurfaceConfig, surface_config_from_dict
from .jumps import Budget, RankJumpCertificate, verify_certificate


@dataclass(frozen=True)
class CertificateRecord:
    certificate: RankJumpCertificate
    surface: SurfaceConfig
    budget: Budget
    timestamp: str | None = None
    verified: bool = False          # set by an independent re-verification pass

    def reverified(self) -> tuple["CertificateRecord", list[str]]:
        """The same record with the verification flag established afresh, on
        the fibred form of its config, and the reasons of a failure."""
        ok, reasons = verify_certificate(self.surface.fibred, self.certificate)
        return CertificateRecord(self.certificate, self.surface, self.budget,
                                 self.timestamp, ok), reasons

    @cached_property
    def line(self) -> str:
        """to_json(), serialised once: the line printed is the line stored."""
        return self.to_json()

    def to_json(self) -> str:
        cert = self.certificate
        payload = {
            "label": self.surface.label,
            "surface": self.surface.echo,
            "t0": ratio_str(*cert.t0),
            "curve": {"A": ratio_str(*cert.curve[0]), "B": ratio_str(*cert.curve[1])},
            "points": [[ratio_str(*x), ratio_str(*y)] for x, y in cert.points],
            "provenance": [ratio_str(*x0) for x0 in cert.provenance],
            "generic_rank_bound": cert.generic_rank_bound,
            "rank_bound_exact": cert.rank_bound_exact,
            "claimed_rank_lower_bound": cert.claimed_rank_lower_bound,
            "regulator": (
                None
                if cert.regulator is None
                else {"determinant": cert.regulator[0], "error": cert.regulator[1]}
            ),
            "version": __version__,
            "budget": [self.budget.x0_height, self.budget.param_height, self.budget.count],
            "timestamp": self.timestamp,
            "verified": self.verified,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: The forms str(Fraction) writes, denominator nonzero, read to the pair Fraction
#: would reduce them to; any other, an exponent above all, is refused (Fraction would
#: build 10^k), as is a digit run past int()'s limit (0: none), which int() would echo.
_STORED_RATIONAL = re.compile(r"(-?([0-9]+))(?:/(0*[1-9][0-9]*))?")


def _rational(s) -> tuple[int, int]:
    m = _STORED_RATIONAL.fullmatch(s) if isinstance(s, str) else None
    limit = sys.get_int_max_str_digits()
    if m is None or limit and len(s) > limit and max(len(m[2]), len(m[3] or "")) > limit:
        raise ValueError(f"bad stored rational {str(s)[:20]!r}")
    return reduced(int(m[1]), int(m[3] or 1))


def _typed(value, types: tuple, field: str):
    """value, if JSON gave it as one of the types exactly (a bool is no int)."""
    if type(value) not in types:
        raise ValueError(f"bad stored {field} {str(value)[:20]!r}")
    return value


def _field(data: dict, key: str, types: tuple, field: str | None = None):
    """data[key], typed by _typed in one lookup (types never hold NoneType);
    a missing key is refused, and both messages name field (key by default)."""
    if type(value := data.get(key)) in types:
        return value
    if key not in data:
        raise ValueError(f"missing stored {field or key}")
    return _typed(value, types, field or key)


def record_from_json(line: str) -> CertificateRecord:
    data = _typed(json.loads(line), (dict,), "record")
    return _record(data, surface_config_from_dict(_field(data, "surface", (dict,))))


def _record(data: dict, cfg: SurfaceConfig) -> CertificateRecord:
    """record_from_json of a parsed line whose surface parses to cfg, with cfg's label."""
    if (label := _field(data, "label", (str,))) != cfg.label:
        raise ValueError(f"label {label[:20]!r} differs from the surface's")
    _field(data, "version", (str,))
    points = _field(data, "points", (list,))
    if not all(type(P) is list and len(P) == 2 for P in points):
        raise ValueError(f"bad stored points {str(points)[:20]!r}")
    curve = _field(data, "curve", (dict,))
    reg = _typed(data.get("regulator"), (dict, type(None)), "regulator")
    cert = RankJumpCertificate(
        t0=_rational(_field(data, "t0", (str,))),
        curve=(_rational(_field(curve, "A", (str,), "curve")),
               _rational(_field(curve, "B", (str,), "curve"))),
        points=[(_rational(x), _rational(y)) for x, y in points],
        provenance=[_rational(x0) for x0 in _field(data, "provenance", (list,))],
        generic_rank_bound=_field(data, "generic_rank_bound", (int,)),
        rank_bound_exact=_field(data, "rank_bound_exact", (bool,)),
        claimed_rank_lower_bound=_field(data, "claimed_rank_lower_bound", (int,)),
        regulator=None if reg is None else tuple(
            _field(reg, k, (int, float), "regulator") for k in ("determinant", "error")),
    )
    if not all(map(isfinite, cert.regulator or ())):  # json reads NaN and Infinity
        raise ValueError(f"bad stored regulator {cert.regulator}")
    budget = [_typed(n, (int,), "budget") for n in _field(data, "budget", (list,))]
    try:
        budget = Budget(*budget)
    except (TypeError, ValueError):  # not three, or not positive: Budget's own rule
        raise ValueError(f"bad stored budget {str(budget)[:20]!r}") from None
    timestamp = _typed(data.get("timestamp"), (str, type(None)), "timestamp")
    return CertificateRecord(cert, cfg, budget, timestamp,
                             _typed(data.get("verified", False), (bool,), "verified"))


def store_file(store_dir: str | Path, label: str) -> Path:
    key = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    return Path(store_dir) / f"{key}.jsonl"


def stored_t0(store_dir: str | Path, label: str) -> set[tuple[tuple, tuple[int, int]]]:
    """(surface definition, t0 pair) of every readable record in the label's file;
    a line whose surface or t0 cannot be read is skipped."""
    path = store_file(store_dir, label)
    out = set()
    for _, data, cfg in _read_lines(path, {}) if path.exists() else ():
        if cfg is not None:
            with suppress(ArithmeticError, ValueError):
                out.add((cfg.definition, _rational(_field(data, "t0", (str,)))))
    return out


def _read_lines(path: Path, configs: dict):
    """(line number, parsed JSON, its SurfaceConfig) per non-blank line of a
    store file, or (line number, exception, None) if the line does not read
    as JSON with a valid surface; configs caches them by canonical JSON."""
    cfg = None  # a surface == cfg.echo (strings, unlike 1 == True) reuses cfg
    with path.open("rb") as lines:
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:  # RecursionError, too: JSON nested too deep
                data = _typed(json.loads(line.decode("utf-8")), (dict,), "record")
                surface = _field(data, "surface", (dict,))
                if cfg is None or surface != cfg.echo:
                    key = json.dumps(surface, sort_keys=True)
                    cfg = configs.get(key) or surface_config_from_dict(surface)
                    configs[key] = cfg
            except Exception as exc:
                yield lineno, exc, None
            else:
                yield lineno, data, cfg


def append_records(store_dir: str | Path, label: str, records) -> int:
    """Append records whose (surface definition, t0 pair) is not yet stored;
    returns how many were new. An empty batch opens nothing; with none new
    the file is left as it was. The stored keys are read and the new lines
    appended under one exclusive flock on the file, so concurrent appenders
    store each key once, and the lines go out in one O_APPEND write,
    repeated only on a short write, so they do not interleave."""
    path = store_file(store_dir, label)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = list(records)
    if not records:
        return 0
    with path.open("ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
        known = stored_t0(store_dir, label)
        lines = []
        for rec in records:
            key = (rec.surface.definition, rec.certificate.t0)
            if key not in known:
                lines.append(rec.line + "\n")
                known.add(key)
        data = memoryview("".join(lines).encode("utf-8"))
        while data:
            data = data[os.write(fh.fileno(), data):]
    return len(lines)


def verify_store(store_dir: str | Path) -> list[tuple[str, list[tuple[int, bool, list[str]]]]]:
    """Independently re-verify every stored record, streaming each file:
    (path, [(line number, ok, reasons), ...]) per .jsonl file, in path
    order; corrupt lines are reported but do not abort the batch. Each
    distinct surface is parsed, and its fibred form built, once per call."""
    configs = {}
    return [(str(path), [(lineno, *_verify_line(data, cfg))
                         for lineno, data, cfg in _read_lines(path, configs)])
            for path in sorted(Path(store_dir).glob("*.jsonl"))]


def _verify_line(data, cfg: SurfaceConfig | None) -> tuple[bool, list[str]]:
    """(ok, reasons) of a line from _read_lines; data is its error if cfg is None."""
    if cfg is None:
        return False, [f"corrupt record: {data}"]
    try:
        rec = _record(data, cfg)
    except Exception as exc:
        return False, [f"corrupt record: {exc}"]
    try:
        return verify_certificate(cfg.fibred, rec.certificate)
    except Exception as exc:
        return False, [f"verification error: {exc}"]
