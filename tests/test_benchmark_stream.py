"""The seed-0 rank-1 and rank-2 certificate streams of the benchmark, pinned
here.

perfbench/baseline.json records the sha256 of the stdout of the commands of
the rank1-search and rank2-search workloads at seed 0. A faster torsion or
relation decision, or a rewritten fibre loop, must leave every certificate
byte-identical and every dependence found. These tests build the commands
from the benchmark's own inputs (perfbench/gen.py) and budgets
(perfbench/run.py), run them in process and compare. The benchmark files
are read, not changed.
"""

import hashlib
import json
import re
from pathlib import Path

from rankjump.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _baseline_stream(workload: str) -> str:
    baseline = json.loads((PERFBENCH / "baseline.json").read_text(encoding="utf-8"))
    return baseline["stream_sha256"][workload]


def test_seed0_rank1_stream_matches_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    inputs = gen.write_inputs(0, tmp_path / "inputs")
    digest = hashlib.sha256()
    for i, cmd in enumerate(run.commands_for("rank1-search", inputs)):
        argv = [a.replace("{store}", str(tmp_path / f"store-{i}")) for a in cmd["argv"]]
        assert main(argv) == 0
        out, _ = capsys.readouterr()
        digest.update(out.replace(str(tmp_path), "").encode("utf-8"))
    assert digest.hexdigest() == _baseline_stream("rank1-search")


def test_seed0_rank2_stream_matches_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    inputs = gen.write_inputs(0, tmp_path)
    digest = hashlib.sha256()
    decisions = []
    for cmd in run.commands_for("rank2-search", inputs):
        assert main(cmd["argv"]) == 0
        out, err = capsys.readouterr()
        digest.update(out.replace(str(tmp_path), "").encode("utf-8"))
        decisions += re.findall(r"dependent pairs (\d+), inconclusive (\d+)", err)
    assert digest.hexdigest() == _baseline_stream("rank2-search")
    assert decisions == [("42", "0"), ("42", "0"), ("2", "0")]
