"""src/rankjump stays within the line cap that ROADMAP.md sets for the
round: new code pays for itself with deletions."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rankjump"
LINE_CAP = 3075


def test_src_within_line_cap():
    # newlines, as `wc -l src/rankjump/*.py` counts them
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= LINE_CAP, counts
