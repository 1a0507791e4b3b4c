"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at tiny budgets, untraced and traced, and asserts that
each run is correct and prints exactly the metrics BENCHMARK.json names,
each with its unit. Then feeds tampered outputs to the checks and shows
that each counts as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_budgets():
    run.RANK1_COUNT = 6
    run.FIXTURE_RANK1_COUNT = 6
    run.RANK2_COUNT = 1
    run.CENSUS_HEIGHT = 5
    run.MIN_CYCLES = 2
    run.SETUP_REPEATS = 1


def check_metrics():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0, trace=trace)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                outcome = run.bench(args)
            assert outcome["correct"] and outcome["failed"] == 0, (workload, trace, outcome)
            assert outcome["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in outcome["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            printed = {line.split()[0]: line.split()[-1]
                       for line in out.getvalue().splitlines() if line.count(" ") == 2}
            for name, unit in want.items():
                assert printed.get(name) == unit, (workload, name, printed.get(name))
            print(f"ok: {workload} trace {trace}: {len(got)} metrics, "
                  f"{outcome['attempted']} outputs checked")


def certificate_line(work: Path) -> tuple[str, Path]:
    """One genuine rank-1 certificate line and a store holding it."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from rankjump.cli import main

    inputs = run.gen.write_inputs(0, work)
    store = work / "store"
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["jump", "--config", str(inputs["mordell"]), "--budget", "4,4,1",
                   "--store", str(store)])
    assert rc == 0
    return out.getvalue().splitlines()[0], store


def check_tampering():
    work = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench-work"))
    line, store = certificate_line(work)
    try:
        assert checks.check_jump([line], 1, 1)[1] == 0
        rec = json.loads(line)
        x, y = rec["points"][0]
        off_curve = dict(rec, points=[[x, str(int(y.split("/")[0]) + 1)]])
        unverified = dict(rec, verified=False)
        for bad in (off_curve, unverified):
            assert checks.check_jump([json.dumps(bad)], 1, 1)[1] == 1, bad
        assert checks.check_jump([line, line], 2, 1)[1] == 1      # repeated t0
        assert checks.check_jump([], 1, 1)[1] == 1                # missing
        print("ok: tampered certificate lines count as failures")

        # a tampered store record: the CLI's verify reports it, the check counts it
        from rankjump.cli import main

        path = next(store.glob("*.jsonl"))
        path.write_text(json.dumps(off_curve) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = main(["verify", "--store", str(store)])
        attempted, failed, reasons = checks.check_verify(out.getvalue().splitlines(), 1)
        assert rc == 4 and attempted == 1 and failed >= 1, (rc, attempted, failed)
        print(f"ok: a tampered store record counts as a failure ({reasons[0]})")

        rows = ["   1  1  2", "   2  0  3"]
        assert checks.check_census(rows, 2)[1] == 1
        print("ok: a census row that shrinks with height counts as a failure")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    (run.ROOT / ".perfbench-work").mkdir(exist_ok=True)
    check_tampering()
    tiny_budgets()
    check_metrics()
