"""Certificate records and the append-only JSON-lines store.

A record is a rank-jump certificate plus engine version, budget and an
optional run stamp, serialised with sorted keys and exact rationals as
strings, so identical runs produce byte-identical streams. The store is a
directory of .jsonl files keyed by a hash of the surface label; re-runs
append only parameter values not already present for the same surface
definition, so unlabelled surfaces sharing a file lose nothing.

Records are verified in the fibred (twist or km) form of their config, the
form the search ran in; a batch builds that form once per distinct surface
definition.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .config import SurfaceConfig, fibred_surface, surface_config_from_dict
from .jumps import Budget, RankJumpCertificate, verify_certificate


def _frac(s) -> Fraction:
    return Fraction(s)


@dataclass(frozen=True)
class CertificateRecord:
    certificate: RankJumpCertificate
    surface: SurfaceConfig
    budget: Budget
    timestamp: str | None = None
    verified: bool = False          # set by an independent re-verification pass

    def reverified(self, surface) -> tuple["CertificateRecord", list[str]]:
        """The same record with the verification flag established afresh,
        and the reasons of a failure; surface is the fibred form of the
        record's config (see config.fibred_surface)."""
        ok, reasons = verify_certificate(surface, self.certificate)
        return CertificateRecord(self.certificate, self.surface, self.budget,
                                 self.timestamp, ok), reasons

    def to_json(self) -> str:
        cert = self.certificate
        payload = {
            "label": cert.label,
            "surface": self.surface.as_dict(),
            "t0": str(cert.t0),
            "curve": {"A": str(cert.curve[0]), "B": str(cert.curve[1])},
            "points": [[str(x), str(y)] for x, y in cert.points],
            "provenance": [str(x0) for x0 in cert.provenance],
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


def record_from_json(line: str) -> CertificateRecord:
    data = json.loads(line)
    cfg = surface_config_from_dict(data["surface"])
    reg = data.get("regulator")
    cert = RankJumpCertificate(
        label=data["label"],
        t0=_frac(data["t0"]),
        curve=(_frac(data["curve"]["A"]), _frac(data["curve"]["B"])),
        points=[(_frac(x), _frac(y)) for x, y in data["points"]],
        provenance=[_frac(x0) for x0 in data["provenance"]],
        generic_rank_bound=int(data["generic_rank_bound"]),
        rank_bound_exact=bool(data["rank_bound_exact"]),
        claimed_rank_lower_bound=int(data["claimed_rank_lower_bound"]),
        regulator=None if reg is None else (reg["determinant"], reg["error"]),
    )
    budget = Budget(*data["budget"])
    return CertificateRecord(cert, cfg, budget, data.get("timestamp"),
                             bool(data.get("verified", False)))


def store_file(store_dir: str | Path, label: str) -> Path:
    key = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    return Path(store_dir) / f"{key}.jsonl"


def stored_t0(store_dir: str | Path, label: str) -> set[tuple[tuple, Fraction]]:
    """(surface definition, t0) of every readable record in the label's file;
    a line whose surface or t0 cannot be read is skipped."""
    path = store_file(store_dir, label)
    out = set()
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                out.add((surface_config_from_dict(data["surface"]).definition, _frac(data["t0"])))
            except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError):
                continue
    return out


def append_records(store_dir: str | Path, label: str, records) -> int:
    """Append records whose (surface definition, t0) is not yet stored;
    returns how many were new. With none new the file is not touched."""
    path = store_file(store_dir, label)
    path.parent.mkdir(parents=True, exist_ok=True)
    known = stored_t0(store_dir, label)
    lines = []
    for rec in records:
        key = (rec.surface.definition, rec.certificate.t0)
        if key not in known:
            lines.append(rec.to_json() + "\n")
            known.add(key)
    if lines:
        with path.open("a", encoding="utf-8") as fh:
            fh.writelines(lines)
    return len(lines)


@dataclass
class VerificationReport:
    path: str
    results: list  # (line number, ok, reasons)

    @property
    def failures(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def verify_store(store_dir: str | Path) -> list[VerificationReport]:
    """Independently re-verify every stored record; corrupt lines are
    reported but do not abort the batch."""
    reports = []
    surfaces = {}  # fibred surface by surface definition, for this batch
    for path in sorted(Path(store_dir).glob("*.jsonl")):
        results = []
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = record_from_json(line)
            except Exception as exc:
                results.append((lineno, False, [f"corrupt record: {exc}"]))
                continue
            try:
                key = rec.surface.definition
                if key not in surfaces:
                    surfaces[key] = fibred_surface(rec.surface)
                ok, reasons = verify_certificate(surfaces[key], rec.certificate)
            except Exception as exc:
                ok, reasons = False, [f"verification error: {exc}"]
            results.append((lineno, ok, reasons))
        reports.append(VerificationReport(str(path), results))
    return reports
