"""Benchmark of the rankjump command line.

    python3 perfbench/run.py --workload rank1-search --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. Inputs are generated from the seed (see
gen.py); the program only reads the generated files. A child process
(worker.py) drives `rankjump.cli.main` in a closed loop: one cycle runs
each of the workload's commands once, one after another, and cycles repeat
until the time is spent. Every output is checked (checks.py).

Timings are scaled to a reference speed. The host's speed changes by up
to 2x for seconds to minutes at a time, so a fixed task that shares no
code with the program is timed around every command (worker.reference_s,
exact arithmetic) and every set-up (import_reference_s, imports), and
each timing is multiplied by the task's nominal time over its time
measured around it. A slower program still reads slower; a slower host
does not. Each figure is the median over a run's repeats.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
per-layer metrics of a traced run (layertrace.py). The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import gen
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "fixture"
BASELINE = HERE / "baseline.json"

WORKLOADS = ("rank1-search", "rank2-search", "verify-store", "census")
# The budgets of ROADMAP W1-W7, with the rank-1 counts cut from 1500 to 300
# (and 500 for the verify fixture) so that every command repeats at least
# MIN_CYCLES times within a run.
RANK1_BUDGET = "30,30,{count}"
RANK1_COUNT = 300
RANK2_BUDGETS = {"split-twist": "18,10,{count}", "usual-twist": "12,10,{count}",
                 "mordell": "8,8,{count}"}
RANK2_COUNT = 5
FIXTURE_RANK1_COUNT = 500
CENSUS_HEIGHT = 30
MIN_CYCLES = 5          # repeats of every command in one run
SETUP_REPEATS = 5       # fresh interpreters timed for setup_s
WORKER_TIMEOUT = 150    # seconds; a whole run must end within 180
REFERENCE_S = 0.030     # the reference task's time at the speed timings are scaled to
IMPORT_REFERENCE = ("decimal", "email.mime.multipart", "http.client", "xml.dom.minidom",
                    "unittest", "asyncio", "logging.handlers", "json", "csv", "sqlite3",
                    "urllib.request", "tarfile", "zipfile", "difflib", "inspect", "pydoc")
IMPORT_REFERENCE_S = 0.175  # its time, at the speed set-up times are scaled to

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# plans


def _jump(config: Path, rank: int, budget: str, count: int, *extra: str) -> dict:
    return {"argv": ["jump", "--config", str(config), "--rank", str(rank),
                     "--budget", budget.format(count=count), *extra],
            "check": "jump", "count": count, "rank": rank}


def commands_for(workload: str, inputs: dict, fixture: Path | None = None) -> list[dict]:
    """The commands of one cycle, each with what its output must contain."""
    if workload == "rank1-search":
        return [
            _jump(inputs["mordell"], 1, RANK1_BUDGET, RANK1_COUNT, "--store", "{store}"),
            _jump(inputs["usual-twist"], 1, RANK1_BUDGET, RANK1_COUNT,
                  "--avoid", str(inputs["covers"])),
        ]
    if workload == "rank2-search":
        return [_jump(inputs[kind], 2, budget, RANK2_COUNT)
                for kind, budget in RANK2_BUDGETS.items()]
    if workload == "verify-store":
        # one store per surface label, as a search with --store leaves them
        return [{"argv": ["verify", "--store", str(store)], "check": "verify",
                 "records": fixture_records(store)}
                for store in sorted(fixture.iterdir())]
    return [{"argv": ["census", "--config", str(inputs[kind]), "--height", str(CENSUS_HEIGHT)],
             "check": "census", "height": CENSUS_HEIGHT}
            for kind in ("mordell", "split-twist", "usual-twist")]


def fixture_commands(inputs: dict, store: Path) -> list[list[str]]:
    """The searches whose stored records make the verify-store fixture:
    the rank-1 search of both rank-1 surfaces, at FIXTURE_RANK1_COUNT
    certificates each, plus the rank-2 search."""
    store_args = ["--store", str(store)]
    rank1 = [_jump(inputs["mordell"], 1, RANK1_BUDGET, FIXTURE_RANK1_COUNT, *store_args),
             _jump(inputs["usual-twist"], 1, RANK1_BUDGET, FIXTURE_RANK1_COUNT,
                   "--avoid", str(inputs["covers"]), *store_args)]
    rank2 = [_jump(inputs[kind], 2, budget, RANK2_COUNT, *store_args)
             for kind, budget in RANK2_BUDGETS.items()]
    return [c["argv"] for c in rank1 + rank2]


def fixture_records(store: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in store.glob("**/*.jsonl"))


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RANKJUMP_PRECISION", None)   # it changes the height work
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(plan: dict, work: Path, name: str, timeout: float = WORKER_TIMEOUT) -> float:
    """Run worker.py on a plan; returns its wall time."""
    path = work / f"{name}.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    start = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                          env=child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall


def search_into(inputs: dict, store: Path, work: Path):
    """Run the fixture's searches once, storing their records in `store`."""
    store.mkdir()
    plan = {"configs": [], "commands": fixture_commands(inputs, store), "seconds": 0,
            "min_cycles": 1, "work": str(work)}
    run_worker(plan, work, "fixture")


def prepare_fixture(seed: int, inputs: dict, work: Path) -> Path:
    """The stores that verify-store re-verifies, one directory per store
    file: the kept ones for seed 0 (checked against their digests),
    otherwise generated now, before timing."""
    fixture = work / "fixture"
    if seed == 0:
        fixture.mkdir()
        manifest = json.loads((FIXTURE / "manifest.json").read_text(encoding="utf-8"))
        for name, digest in manifest["sha256"].items():
            data = gzip.decompress((FIXTURE / f"{name}.gz").read_bytes())
            if hashlib.sha256(data).hexdigest() != digest:
                raise BenchError(f"fixture {name} does not match its digest")
            (fixture / name).write_bytes(data)
    else:
        search_into(inputs, fixture, work)
    for path in sorted(fixture.glob("*.jsonl")):
        (fixture / path.stem).mkdir()
        path.rename(fixture / path.stem / path.name)
    return fixture


def write_fixture():
    """Regenerate the kept seed-0 fixture from the current program."""
    work = ROOT / ".perfbench-work" / "make-fixture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        store = work / "fixture"
        search_into(gen.write_inputs(0, work / "inputs"), store, work)
        shutil.rmtree(FIXTURE, ignore_errors=True)
        FIXTURE.mkdir()
        digests = {}
        for path in sorted(store.glob("*.jsonl")):
            data = path.read_bytes()
            digests[path.name] = hashlib.sha256(data).hexdigest()
            (FIXTURE / f"{path.name}.gz").write_bytes(gzip.compress(data, mtime=0))
        manifest = {"records": fixture_records(store), "sha256": digests}
        (FIXTURE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                               encoding="utf-8")
        print(f"fixture: {manifest['records']} records in {len(digests)} files")
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# measurement


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    return sorted_xs[max(0, math.ceil(q / 100 * len(sorted_xs)) - 1)]


def highest_percentile(n: int) -> float | None:
    """The highest of p50, p90, p99, p99.9 with at least 10 samples beyond it."""
    best = None
    for q in (50, 90, 99, 99.9):
        if n - math.ceil(q / 100 * n) >= 10:
            best = q
    return best


def check_cycles(cmds: list[dict], cycles: list[dict], work: Path) -> tuple[int, int, list]:
    """Check every output of every cycle; returns (attempted, failed, reasons)."""
    attempted = failed = 0
    reasons = []
    for c, cycle in enumerate(cycles):
        for i, (cmd, rec) in enumerate(zip(cmds, cycle["commands"])):
            lines = (work / f"out-{c}-{i}.txt").read_text(encoding="utf-8").splitlines()
            if cmd["check"] == "jump":
                a, f, why = checks.check_jump(lines, cmd["count"], cmd["rank"])
            elif cmd["check"] == "verify":
                a, f, why = checks.check_verify(lines, cmd["records"])
            else:
                a, f, why = checks.check_census(lines, cmd["height"])
            if rec["rc"] != 0:
                f += 1
                why = why + [f"exit code {rec['rc']}, expected 0"]
            attempted += a
            failed += f
            reasons += [f"cycle {c} command {i}: {w}" for w in why]
    return attempted, failed, reasons


def items_of(cmd: dict, lines: list[str]) -> int:
    """Outputs of one command: certificates, records re-verified, or fibre
    parameters classified."""
    if cmd["check"] == "jump":
        return len(lines)
    if cmd["check"] == "verify":
        return sum(1 for line in lines if line.endswith(": ok") or ": FAIL" in line)
    return gen.rationals_up_to(cmd["height"])


def _waits(cmd: dict, rec: dict, n: int) -> list[float]:
    """How long each of a command's n outputs kept the user waiting."""
    if cmd["check"] == "jump":
        # a streaming command: the gap before each certificate line
        stamps = [rec["start"]] + rec["stamps"]
        return [b - a for a, b in zip(stamps, stamps[1:])]
    # verify and census print only when done: each output waits wall / n
    return [(rec["end"] - rec["start"]) / n] * n


def scaled_wall(cycle: dict) -> float:
    """A cycle's command time at the reference speed."""
    return sum((r["end"] - r["start"]) * REFERENCE_S / r["ref"] for r in cycle["commands"])


def end_to_end(cmds: list[dict], cycles: list[dict], work: Path) -> tuple[dict, dict]:
    """Throughput and item latency at the reference speed: each command's
    median over its repeats, and each output's median wait over the repeats
    (streams repeat exactly, so the k-th output is the same in every one)."""
    items_total = 0
    wall_total = raw_total = 0.0
    samples: list[float] = []
    for i, cmd in enumerate(cmds):
        repeats = []
        for c, cycle in enumerate(cycles):
            rec = cycle["commands"][i]
            lines = (work / f"out-{c}-{i}.txt").read_text(encoding="utf-8").splitlines()
            repeats.append((rec, items_of(cmd, lines), REFERENCE_S / rec["ref"]))
        items_total += repeats[0][1]
        wall_total += statistics.median((r["end"] - r["start"]) * k for r, _, k in repeats)
        raw_total += statistics.median(r["end"] - r["start"] for r, _, _ in repeats)
        waits = [[w * k for w in _waits(cmd, r, n)] for r, n, k in repeats]
        samples += [statistics.median(ws) for ws in zip(*waits)]
    ms = sorted(s * 1000 for s in samples)
    values = {
        "items_per_s": items_total / wall_total,
        "item_p50_ms": percentile(ms, 50),
        "item_p90_ms": percentile(ms, 90),
    }
    q = highest_percentile(len(ms))
    info = {"samples": len(ms), "items": items_total, "wall_s": wall_total,
            "raw_s": raw_total, "highest": (q, percentile(ms, q)) if q else None}
    return values, info


def import_reference_s() -> float:
    """Wall time of a fresh interpreter that imports a fixed set of standard
    library modules: a gauge of the host's speed at starting a program."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(IMPORT_REFERENCE)],
                   env=child_env(), check=True, timeout=60)
    return perf_counter() - start


def measure_setup(configs: list[str], work: Path) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only set up, as measured and at
    the reference speed; the first, which may compile bytecode, is not
    counted. Set-up is mostly imports, so its gauge is an import too."""
    plan = {"configs": configs, "setup_only": True, "work": str(work)}
    run_worker(plan, work, "setup", timeout=60)
    raw, scaled = [], []
    ref = import_reference_s()
    for _ in range(SETUP_REPEATS):
        wall = run_worker(plan, work, "setup", timeout=60)
        after = import_reference_s()
        raw.append(wall)
        scaled.append(wall * IMPORT_REFERENCE_S / ((ref + after) / 2))
        ref = after
    return raw, scaled


# ---------------------------------------------------------------------------
# reporting


def environment() -> list[str]:
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    was = os.environ.get("RANKJUMP_PRECISION")
    return [
        f"# env: python {platform.python_version()}, sympy {version('sympy')}, "
        f"mpmath {version('mpmath')}, gmpy2 {version('gmpy2')}, nproc {os.cpu_count()}",
        f"# env: commit {commit}; RANKJUMP_PRECISION cleared in children "
        f"(was {'unset' if was is None else repr(was)}); PYTHONHASHSEED=0",
    ]


def stream_digest(cmds: list[dict], work: Path) -> str:
    """sha256 of the certificate stream: the first cycle's stdout, work
    directory paths removed, and the records of the verify fixture."""
    h = hashlib.sha256()
    for i in range(len(cmds)):
        text = (work / f"out-0-{i}.txt").read_text(encoding="utf-8")
        h.update(text.replace(str(work), "").encode("utf-8"))
    for path in sorted((work / "fixture").glob("*/*.jsonl")):
        h.update(path.read_bytes())
    return h.hexdigest()


def bench(args) -> dict:
    if not (ROOT / "src" / "rankjump" / "cli.py").is_file():
        raise BenchError(f"program source src/rankjump not found under {ROOT}")
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # still in use by another run
            work.parent.rmdir()


def _bench(args, work: Path) -> dict:
    inputs = gen.write_inputs(args.seed, work / "inputs")
    configs = [str(inputs[kind]) for kind in ("mordell", "split-twist", "usual-twist")]
    fixture = prepare_fixture(args.seed, inputs, work) if args.workload == "verify-store" else None
    cmds = commands_for(args.workload, inputs, fixture)
    print(f"# workload {args.workload}, seed {args.seed}, {len(cmds)} commands per cycle, "
          f"trace {args.trace}")
    for line in environment():
        print(line)

    setup_raw, setup = ([], []) if args.trace else measure_setup(configs, work)
    plan = {"configs": configs, "commands": [c["argv"] for c in cmds],
            "seconds": args.seconds, "min_cycles": MIN_CYCLES, "trace": bool(args.trace),
            "work": str(work)}
    run_worker(plan, work, "plan")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    cycles = result["cycles"]
    attempted, failed, reasons = check_cycles(cmds, cycles, work)
    for why in reasons[:20]:
        print(f"# FAILED {why}")
    print(f"# checks: {failed} failed of {attempted} outputs attempted; "
          f"fail_share {failed / attempted:.6f}")

    digest = stream_digest(cmds, work)
    known = json.loads(BASELINE.read_text(encoding="utf-8")).get("stream_sha256", {})
    print(f"# stream sha256 {digest}")
    if args.seed == 0 and known.get(args.workload) not in (None, digest):
        print(f"# notice: the seed-0 stream differs from the recorded one "
              f"({known[args.workload]}); say in CHANGES.md which lines changed and why")

    untraced = [cy for cy in cycles if not cy["traced"]]
    if args.trace:
        dump = json.loads((work / "trace.json").read_text(encoding="utf-8"))
        traced = [cy for cy in cycles if cy["traced"]]
        values = layertrace.layer_metrics(dump, [cy["wall"] for cy in traced])
        values["trace.overhead"] = (statistics.median(map(scaled_wall, traced))
                                    / statistics.median(map(scaled_wall, untraced)) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layertrace.PER_LAYER}
        print(f"# traced cycles {len(cycles) - len(untraced)}, untraced {len(untraced)}; "
              f"per-layer figures are per traced cycle")
    else:
        values, info = end_to_end(cmds, untraced, work)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = result["maxrss_kb"] / 1024
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"# {len(untraced)} cycles; {info['items']} items in {info['wall_s']:.3f} s at the "
              f"reference speed ({info['raw_s']:.3f} s as measured), medians over the repeats")
        print(f"# setup_s: median of {len(setup)} fresh interpreters at the reference speed; "
              f"as measured {', '.join(f'{s:.3f}' for s in setup_raw)} s")
        q = info["highest"]
        print(f"# item latency: {info['samples']} samples"
              + (f"; highest percentile with 10 beyond it: p{q[0]} = {q[1]:.3f} ms" if q else ""))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fixture", action="store_true",
                        help="regenerate the kept seed-0 verify-store fixture and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_fixture:
            write_fixture()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        outcome = bench(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
