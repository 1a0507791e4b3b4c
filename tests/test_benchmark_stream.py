"""The seed-0 rank-1, rank-2 and verify-store certificate streams of the
benchmark, pinned here.

perfbench/baseline.json records the sha256 of the stdout of the commands of
the rank1-search, rank2-search and verify-store workloads at seed 0. A
faster torsion or relation decision, or a rewritten fibre loop, must leave
every certificate and every verdict byte-identical and every dependence
found. These tests build the commands from the benchmark's own inputs
(perfbench/gen.py), budgets and fixture (perfbench/run.py), run them in
process and compare. The rank-2 searches' summary lines are pinned too: a
search stops building fibres once its certificate count is reached. The
benchmark files are read, not changed.
"""

import gzip
import hashlib
import json
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


RANK2_SEARCH_LINES = [
    "# search: 5 certificates; fibres tried 40, degenerate 3, unsolvable 0, "
    "torsion rejects 0, dependent pairs 42, inconclusive 0, avoided t0 0",
    "# search: 5 certificates; fibres tried 40, degenerate 3, unsolvable 0, "
    "torsion rejects 0, dependent pairs 42, inconclusive 0, avoided t0 0",
    "# search: 5 certificates; fibres tried 7, degenerate 0, unsolvable 0, "
    "torsion rejects 12, dependent pairs 2, inconclusive 0, avoided t0 0",
]


def test_seed0_rank2_stream_matches_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    inputs = gen.write_inputs(0, tmp_path)
    digest = hashlib.sha256()
    summaries = []
    for cmd in run.commands_for("rank2-search", inputs):
        assert main(cmd["argv"]) == 0
        out, err = capsys.readouterr()
        digest.update(out.replace(str(tmp_path), "").encode("utf-8"))
        summaries += [line for line in err.splitlines() if line.startswith("# search:")]
    assert digest.hexdigest() == _baseline_stream("rank2-search")
    assert summaries == RANK2_SEARCH_LINES


def test_seed0_verify_stream_matches_baseline(tmp_path, capsys):
    # the fixture laid out as run.prepare_fixture does: one directory per
    # store file; the digest is run.stream_digest's, stdout then fixture bytes
    fixture = tmp_path / "fixture"
    for gz in sorted((PERFBENCH / "fixture").glob("*.gz")):
        name = gz.name.removesuffix(".gz")
        store = fixture / Path(name).stem
        store.mkdir(parents=True)
        (store / name).write_bytes(gzip.decompress(gz.read_bytes()))
    digest = hashlib.sha256()
    for store in sorted(fixture.iterdir()):
        assert main(["verify", "--store", str(store)]) == 0
        out, _ = capsys.readouterr()
        digest.update(out.replace(str(tmp_path), "").encode("utf-8"))
    for path in sorted(fixture.glob("*/*.jsonl")):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == _baseline_stream("verify-store")
