"""Output checks behind `fail_share`, made with the harness's own arithmetic.

Each check takes one command's stdout lines and returns (attempted,
failed, reasons): attempted counts the outputs the command was asked for,
failed counts those that are missing or wrong. An unexpected exit code is
one more failure, counted by the caller.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_VERIFY_LINE = re.compile(r"^(?P<path>.+):(?P<lineno>\d+): (?P<status>ok|FAIL: .*)$")
_VERIFY_SUMMARY = re.compile(r"^# verified (\d+) records, (\d+) failures$")
_CENSUS_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)$")


def check_jump(lines: list[str], count: int, rank: int) -> tuple[int, int, list[str]]:
    """Certificate lines: each parses, is verified, has a fresh t0, its
    curve is nonsingular and its `rank` points lie on it; `count` expected."""
    failed, reasons = 0, []
    seen = set()
    for n, line in enumerate(lines, 1):
        why = _certificate_fault(line, rank, seen)
        if why is not None:
            failed += 1
            reasons.append(f"certificate {n}: {why}")
    if len(lines) < count:
        failed += count - len(lines)
        reasons.append(f"{count - len(lines)} of {count} certificates missing")
    return max(count, len(lines)), failed, reasons


def _certificate_fault(line: str, rank: int, seen: set) -> str | None:
    try:
        rec = json.loads(line)
        t0 = Fraction(rec["t0"])
        A, B = Fraction(rec["curve"]["A"]), Fraction(rec["curve"]["B"])
        points = [(Fraction(x), Fraction(y)) for x, y in rec["points"]]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unparsable ({exc!r})"
    if rec.get("verified") is not True:
        return "not marked verified"
    if t0 in seen:
        return f"repeated t0 {t0}"
    seen.add(t0)
    if 4 * A**3 + 27 * B**2 == 0:
        return "singular curve"
    if len(points) != rank:
        return f"{len(points)} points for a rank-{rank} certificate"
    for x, y in points:
        if y * y != x**3 + A * x + B:
            return f"point ({x}, {y}) is off the curve"
    return None


def check_verify(lines: list[str], records: int) -> tuple[int, int, list[str]]:
    """Verify output: one `ok` line per fixture record and a matching summary."""
    failed, reasons = 0, []
    results = 0
    summary = None
    for line in lines:
        m = _VERIFY_LINE.match(line)
        if m:
            results += 1
            if m["status"] != "ok":
                failed += 1
                reasons.append(f"record {m['lineno']}: {m['status']}")
            continue
        s = _VERIFY_SUMMARY.match(line)
        if s:
            summary = (int(s[1]), int(s[2]))
    if results != records:
        failed += abs(records - results)
        reasons.append(f"{results} results for {records} records")
    if summary != (records, 0):
        failed += 1
        reasons.append(f"summary {summary} does not report {records} records, 0 failures")
    return max(records, results), failed, reasons


def check_census(lines: list[str], height: int) -> tuple[int, int, list[str]]:
    """Census output: one row per height 1..height, counts non-decreasing."""
    failed, reasons = 0, []
    rows = [tuple(map(int, m.groups())) for m in map(_CENSUS_ROW.match, lines) if m]
    previous = (0, 0)
    for i, (h, distinct, solvable) in enumerate(rows, 1):
        if h != i or distinct < previous[0] or solvable < previous[1] or distinct > solvable:
            failed += 1
            reasons.append(f"row {i} ({h}, {distinct}, {solvable}) breaks height order")
        previous = (distinct, solvable)
    if len(rows) != height:
        failed += abs(height - len(rows))
        reasons.append(f"{len(rows)} rows for heights 1..{height}")
    return max(height, len(rows)), failed, reasons
