"""Child process of the benchmark: runs CLI commands in a closed loop.

    python worker.py PLAN.json

The plan names the configs to set up, the commands to run and how long to
run them. One cycle runs every command once, one after another; cycles
repeat until the time is spent and at least `min_cycles` have run. Each
command's stdout goes to its own file while the time of every line is
recorded, and a reference task is timed between commands to gauge the
host's speed. With `"setup_only": true` the worker only sets up, which is
what the set-up time measures. With `"trace": true`, cycles alternate between
untraced and traced, and the spans are dumped at the end.

Importing this module loads only the standard library, so a set-up run
pays for the program's imports and nothing else.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

REFERENCE_ADDS = 1200


class LineClock(io.TextIOBase):
    """A text sink that writes to a file and stamps every completed line."""

    def __init__(self, fh):
        self.fh = fh
        self.stamps: list[float] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.fh.write(s)
        n = s.count("\n")
        if n:
            now = perf_counter()
            self.stamps.extend([now] * n)
        return len(s)

    def flush(self):
        self.fh.flush()


def reference_s() -> float:
    """Wall time of a fixed task of exact elliptic-curve additions that shares
    no code with the program: a gauge of the host's speed at this moment."""
    x, y = Fraction(-2), Fraction(3)          # a point on y^2 = x^3 + 17
    qx, qy = x, y
    start = perf_counter()
    for _ in range(REFERENCE_ADDS):
        if qx == x:
            lam = 3 * qx * qx / (2 * qy)
        else:
            lam = (y - qy) / (x - qx)
        nx = lam * lam - x - qx
        qx, qy = nx, lam * (x - nx) - y
        if qx.denominator > 10**60:            # keep every addition the same size
            qx, qy = x, y
    return perf_counter() - start


def set_up(configs: list[str]):
    """What every CLI invocation pays before its first result: the imports,
    including the lazily loaded sympy and mpmath, then config parse,
    surface build and fibre classification."""
    import mpmath  # noqa: F401
    import sympy  # noqa: F401

    from rankjump.cli import main  # noqa: F401
    from rankjump.config import build_surface, parse_surface_config
    from rankjump.surfaces import classify_fibres, to_weierstrass

    for path in configs:
        cfg = parse_surface_config(Path(path).read_text(encoding="utf-8"))
        classify_fibres(to_weierstrass(build_surface(cfg)))


def run_command(main, argv: list[str], out: Path) -> dict:
    """One in-process CLI invocation with stdout and stderr captured."""
    saved = sys.stdout, sys.stderr
    with out.open("w", encoding="utf-8") as fh, \
            out.with_suffix(".err").open("w", encoding="utf-8") as eh:
        clock = LineClock(fh)
        sys.stdout, sys.stderr = clock, eh
        start = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed command, not a crash of the loop
            traceback.print_exc(file=eh)
            rc = "exception"
        finally:
            end = perf_counter()
            sys.stdout, sys.stderr = saved
    return {"rc": rc, "start": start, "end": end, "stamps": clock.stamps}


def run(plan: dict) -> dict:
    set_up(plan["configs"])
    if plan.get("setup_only"):
        return {}
    from rankjump import cli

    tracer = None
    if plan.get("trace"):
        from layertrace import Tracer

        tracer = Tracer()
    work = Path(plan["work"])
    cycles = []
    begin = perf_counter()
    while True:
        c = len(cycles)
        traced = tracer is not None and c % 2 == 1
        if traced:
            tracer.install()
        commands = []
        ref = reference_s()
        for i, argv in enumerate(plan["commands"]):
            argv = [a.replace("{store}", str(work / f"store-{c}-{i}")) for a in argv]
            # through the module, so that a traced run sees the patched main
            rec = run_command(cli.main, argv, work / f"out-{c}-{i}.txt")
            after = reference_s()
            rec["ref"] = (ref + after) / 2     # the host's speed around the command
            ref = after
            commands.append(rec)
        if traced:
            tracer.uninstall()
        wall = sum(rec["end"] - rec["start"] for rec in commands)
        cycles.append({"traced": traced, "wall": wall, "commands": commands})
        enough = len(cycles) >= plan["min_cycles"] and (tracer is None or len(cycles) % 2 == 0)
        if enough and perf_counter() - begin >= plan["seconds"]:
            break
    if tracer is not None:
        tracer.dump(work / "trace.json")
    return {
        "cycles": cycles,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    result = run(plan)
    if result:
        (Path(plan["work"]) / "result.json").write_text(json.dumps(result), encoding="utf-8")
