"""The seed-0 rank-2 certificate stream of the benchmark, pinned here.

perfbench/baseline.json records the sha256 of the stdout of the three
`jump --rank 2` commands of the rank2-search workload at seed 0. A faster
torsion or relation decision must leave every certificate byte-identical and
every dependence found. This test builds the commands from the benchmark's
own inputs (perfbench/gen.py) and budgets (perfbench/run.py), runs them in
process and compares. The benchmark files are read, not changed.
"""

import hashlib
import json
import re
from pathlib import Path

from rankjump.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    baseline = json.loads((PERFBENCH / "baseline.json").read_text(encoding="utf-8"))
    assert digest.hexdigest() == baseline["stream_sha256"]["rank2-search"]
    assert decisions == [("42", "0"), ("42", "0"), ("2", "0")]
