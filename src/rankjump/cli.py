"""Command-line interface: classify, jump, census, verify.

Exit codes: 0 success, 2 invalid input, 3 budget exhausted before the
requested certificate count, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from itertools import accumulate
from pathlib import Path

from .config import (
    ConfigError,
    build_surface,
    parse_cover_file,
    parse_surface_config,
)
from .conics import height
from .jumps import SEARCH_COUNTS, Budget, CoverChallenge, field_census, jump1, jump2
from .store import CertificateRecord, append_records, store_file, stored_t0, verify_store
from .surfaces import (
    InconsistentClassification,
    TwistFamily,
    classify_fibres,
    euler_number,
    is_twist_case,
    shioda_tate_bound,
    to_chatelet,
    to_weierstrass,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _read_input(path: str, what: str) -> str:
    """The text of a config or cover file; unreadable or non-UTF-8 is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_config(path: str):
    return parse_surface_config(_read_input(path, "config"))


def _parse_budget(spec: str) -> Budget:
    try:  # not three parts gives a TypeError, a part not a positive int a ValueError
        return Budget(*(int(part) for part in spec.split(",")))
    except (TypeError, ValueError):
        raise ConfigError(
            f"bad budget {spec!r}; expected three positive integers 'x0,param,count'"
        ) from None


def cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    surface = build_surface(cfg)
    w = to_weierstrass(surface)
    fibres = classify_fibres(w)
    try:
        bound = shioda_tate_bound(fibres)
    except InconsistentClassification as exc:
        raise ConfigError(str(exc)) from None
    print(f"surface: {cfg.label} (kind {cfg.kind})")
    print(f"model: y^2 = x^3 + ({w.A!r}) x + ({w.B!r})")
    print("singular fibres:")
    for fd in fibres:
        k = fd.kodaira
        red = "reduced" if k.reduced else "non-reduced"
        print(f"  place {fd.place!r}: type {k.symbol}, {k.components} components, {red}, "
              f"euler {k.euler}")
    print(f"euler number: {euler_number(fibres)}")
    print(f"shioda-tate rank bound: {bound}")
    twist = surface if isinstance(surface, TwistFamily) else is_twist_case(w)
    if twist is None:
        print("twist form: none (not a quadratic twist family)")
    else:
        print(f"twist form: g(t) y^2 = f(x) with f = {twist.f.format('x')}, g = {twist.g!r}")
        chatelet = to_chatelet(twist)  # (a, F)
        if chatelet is not None:
            print(f"chatelet model: w^2 - ({chatelet[0]}) y^2 = {chatelet[1].format('x')}")
    return EXIT_OK


def cmd_jump(args) -> int:
    cfg = _load_config(args.config)
    surface = cfg.fibred
    budget = _parse_budget(args.budget)
    challenge = None
    if args.avoid:
        polys = parse_cover_file(_read_input(args.avoid, "cover file"))
        try:
            challenge = CoverChallenge(tuple(polys))
        except ValueError as exc:
            raise ConfigError(f"bad cover file: {exc}") from exc
    log = Counter()
    search = jump1 if args.rank == 1 else jump2
    records = []
    failed = 0
    for cert in search(surface, budget, avoid=challenge, log=log):
        rec, reasons = CertificateRecord(cert, cfg, budget, args.timestamp).reverified()
        if not rec.verified:
            failed += 1
            print(f"# re-verification failed at t0 = {cert.t0}: {'; '.join(reasons)}",
                  file=sys.stderr)
            continue
        records.append(rec)
        print(rec.line)
    if args.store:
        added = append_records(args.store, cfg.label, records)
        print(
            f"# store: {added} new of {len(records)} certificates -> "
            f"{store_file(args.store, cfg.label)}",
            file=sys.stderr,
        )
    counts = ", ".join(f"{name} {log[name]}" for name in SEARCH_COUNTS)
    print(f"# search: {len(records)} certificates; {counts}", file=sys.stderr)
    if failed:
        return EXIT_VERIFY
    return EXIT_OK if len(records) >= budget.count else EXIT_BUDGET


def cmd_census(args) -> int:
    if args.height < 1:
        raise ConfigError(f"bad height {args.height}; expected a positive integer")
    if args.store and not Path(args.store).is_dir():
        raise ConfigError(f"no store directory {args.store!r}")
    cfg = _load_config(args.config)
    rows, degenerate = field_census(cfg.fibred, args.height)
    stored = Counter()
    if args.store:
        stored = Counter(height(s) for definition, s in stored_t0(args.store, cfg.label)
                         if definition == cfg.definition)
    header = "height  distinct_classes  solvable_fibres"
    if args.store:
        header += "  stored_certificates"
    print(f"surface: {cfg.label}")
    print(header)
    stored_up_to = accumulate(stored[h] for h in range(1, args.height + 1))
    for h, ((distinct, solvable), n_stored) in enumerate(zip(rows, stored_up_to), start=1):
        row = f"{h:6d}  {distinct:16d}  {solvable:15d}"
        if args.store:
            row += f"  {n_stored:19d}"
        print(row)
    print(f"# degenerate fibre parameters skipped: {degenerate}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not Path(args.store).is_dir():
        raise ConfigError(f"no store directory {args.store!r}")
    files = verify_store(args.store)
    if not files:
        print(f"no records under {args.store}")
        return EXIT_OK
    verdicts = Counter()
    for path, results in files:
        for lineno, ok, reasons in results:
            status = "ok" if ok else "FAIL: " + "; ".join(reasons)
            print(f"{path}:{lineno}: {status}")
            verdicts[ok] += 1
    print(f"# verified {verdicts.total()} records, {verdicts[False]} failures")
    return EXIT_OK if not verdicts[False] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankjump",
        description="rank-jump search engine for rational elliptic surfaces over Q(t)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="singular fibres, rank bound, twist form")
    p.add_argument("--config", required=True, help="surface definition file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("jump", help="stream rank-jump certificates as JSON lines")
    p.add_argument("--config", required=True)
    p.add_argument("--rank", type=int, choices=(1, 2), default=1)
    p.add_argument("--budget", default="20,16,100",
                   help="x0 height, parameter height, certificate count")
    p.add_argument("--avoid", help="file of quadratic covers to avoid")
    p.add_argument("--store", help="append certificates to this store directory")
    p.add_argument("--timestamp", default=None,
                   help="run stamp recorded in certificates (default: none, "
                        "keeping streams byte-reproducible)")
    p.set_defaults(func=cmd_jump)

    p = sub.add_parser("census", help="distinct quadratic-extension classes by height")
    p.add_argument("--config", required=True)
    p.add_argument("--height", type=int, default=30)
    p.add_argument("--store", help="also count stored certificates by t0 height")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="re-verify every certificate in a store")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
