"""Input the program did not write: store, config and cover files holding
bytes that are not UTF-8, store lines that are malformed JSON or malformed
records, record fields forged or of the wrong JSON type, rationals whose
exponent or digits would build a huge integer, and a second writer holding
the store lock.

A store line is decoded on its own, so a bad line is one corrupt record
for verify (exit 4) and one skipped line for census and jump; a config or
cover file that does not decode is invalid input (exit 2). No case may end
in a traceback.
"""

import contextlib
import fcntl
import gzip
import io
import json
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import child_env, read_lines_canonical
from rankjump.cli import main
from rankjump.config import build_surface, parse_surface_config
from rankjump.jumps import Budget, jump1
from rankjump.store import (
    CertificateRecord,
    _read_lines,
    record_from_json,
    store_file,
    verify_store,
)

ROOT = Path(__file__).resolve().parents[1]

TWIST_CFG = """\
kind = twist
label = usual-twist
f = 0, -1, 0, 1    # x^3 - x
g = 0, 1
"""


def _record(index: int = 0) -> CertificateRecord:
    cfg = parse_surface_config(TWIST_CFG)
    budget = Budget(6, 6, index + 1)
    return [CertificateRecord(c, cfg, budget) for c in jump1(build_surface(cfg), budget)][index]


RECORD_LINE = _record().to_json().encode("utf-8")


def _fixture_line(marker: bytes) -> bytes:
    """The first record of the benchmark's verify fixture holding marker."""
    for gz in sorted((ROOT / "perfbench" / "fixture").glob("*.jsonl.gz")):
        for line in gzip.decompress(gz.read_bytes()).splitlines():
            if marker in line:
                return line
    raise AssertionError(f"the fixture holds no record with {marker!r}")


#: The first rank-2 record of the fixture, a split-twist pair that verify
#: proves by 2-descent, with no height.
PAIR_LINE = _fixture_line(b'"regulator":{')
#: A rank-1 mordell record of the fixture whose one fibre is x0 = 1.
MORDELL_LINE = _fixture_line(b'"provenance":["1"]')


def _run(argv) -> tuple[int, str, str]:
    """main(argv) with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _store_with(tmp_path: Path, *lines: bytes) -> tuple[str, str, Path]:
    """(config path, store directory, store file) with the lines stored for
    the config's label, each ended by a newline."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text(TWIST_CFG)
    path = store_file(tmp_path / "store", "usual-twist")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return str(cfg), str(path.parent), path


class TestNonUtf8:
    def test_verify_reports_the_line_exit_4(self, tmp_path):
        _, store, path = _store_with(tmp_path, RECORD_LINE, b'{"label": "\xff"}',
                                     RECORD_LINE.replace(b'"label":"', b'"label":"\xfe'))
        code, out, _ = _run(["verify", "--store", store])
        assert code == 4
        assert out.splitlines() == [
            f"{path}:1: ok",
            f"{path}:2: FAIL: corrupt record: 'utf-8' codec can't decode byte 0xff "
            "in position 11: invalid start byte",
            f"{path}:3: FAIL: corrupt record: 'utf-8' codec can't decode byte 0xfe "
            f"in position {RECORD_LINE.index(b'label') + 8}: invalid start byte",
            "# verified 3 records, 2 failures",
        ]

    def test_census_store_skips_the_line(self, tmp_path):
        cfg, store, _ = _store_with(tmp_path, b"\xff", RECORD_LINE)
        code, out, _ = _run(["census", "--config", cfg, "--height", "32", "--store", store])
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line[:1].isspace()]
        assert rows[-1][0] == "32" and rows[-1][3] == "1"

    def test_jump_store_appends_past_the_line(self, tmp_path):
        cfg, store, path = _store_with(tmp_path, RECORD_LINE, b"\xff\xfe")
        code, out, err = _run(["jump", "--config", cfg, "--budget", "6,6,2", "--store", store])
        assert code == 0
        assert f"# store: 1 new of 2 certificates -> {path}" in err
        first, bad, new = path.read_bytes().splitlines()
        assert (first, bad) == (RECORD_LINE, b"\xff\xfe")
        assert record_from_json(new).certificate.t0 == _record(1).certificate.t0

    def test_classify_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(TWIST_CFG.encode("utf-8").replace(b"x^3", b"x\xff3"))
        code, out, err = _run(["classify", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read config {str(cfg)!r}: 'utf-8' codec")

    def test_jump_cover_file_exit_2(self, tmp_path):
        cfg, _, _ = _store_with(tmp_path)
        covers = tmp_path / "covers.txt"
        covers.write_bytes(b"0, 1\n\xff5, 1\n")
        code, out, err = _run(["jump", "--config", cfg, "--budget", "6,6,2",
                               "--avoid", str(covers)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read cover file {str(covers)!r}: 'utf-8' codec")


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh process, which must end within 5 s."""
    env = child_env()
    return subprocess.run([sys.executable, "-m", "rankjump.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=5)


def _forged(base: bytes = RECORD_LINE, **fields) -> bytes:
    """The record line base, RECORD_LINE by default, with the fields replaced."""
    data = json.loads(base)
    data.update(fields)
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


class TestForgedInput:
    def test_point_without_provenance_fails(self, tmp_path):
        # a rank-1 record plus the off-curve point (1, 1), provenance and
        # claimed bound unchanged
        data = json.loads(RECORD_LINE)
        data["points"].append(["1", "1"])
        forged = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        _, store, path = _store_with(tmp_path, RECORD_LINE, forged)
        code, out, _ = _run(["verify", "--store", store])
        assert code == 4
        assert out.splitlines() == [
            f"{path}:1: ok",
            f"{path}:2: FAIL: point count 2 does not match provenance count 1",
            "# verified 2 records, 1 failures",
        ]

    def _verify_second_line(self, tmp_path, forged: bytes, first: bytes = RECORD_LINE) -> str:
        """verify's report on the forged line stored after first, which must
        fail it with exit 4."""
        _, store, path = _store_with(tmp_path, first, forged)
        code, out, _ = _run(["verify", "--store", store])
        assert code == 4
        lines = out.splitlines()
        assert lines[0] == f"{path}:1: ok" and lines[2] == "# verified 2 records, 1 failures"
        assert lines[1].startswith(f"{path}:2: FAIL: ")
        return lines[1].removeprefix(f"{path}:2: FAIL: ")

    def test_flipped_rank_bound_exact_fails(self, tmp_path):
        reason = self._verify_second_line(tmp_path, _forged(rank_bound_exact=False))
        assert reason == "recorded exactness of the rank bound is wrong"

    def test_regulator_on_one_point_fails(self, tmp_path):
        forged = _forged(regulator={"determinant": 123.0, "error": 0.0})
        reason = self._verify_second_line(tmp_path, forged)
        assert reason == "a regulator is recorded without a pair of points"

    def test_fractional_rank_bounds_are_corrupt(self, tmp_path):
        # int() would truncate both to the true 0 and 1
        forged = _forged(generic_rank_bound=0.5, claimed_rank_lower_bound=1.5)
        reason = self._verify_second_line(tmp_path, forged)
        assert reason == "corrupt record: bad stored generic_rank_bound '0.5'"

    @pytest.mark.parametrize("fields, reason", [
        ({"rank_bound_exact": 1}, "bad stored rank_bound_exact '1'"),
        ({"claimed_rank_lower_bound": True}, "bad stored claimed_rank_lower_bound 'True'"),
        ({"regulator": {"determinant": "123", "error": 0.0}}, "bad stored regulator '123'"),
        ({"budget": [6, 6.5, 1]}, "bad stored budget '6.5'"),
    ])
    def test_mistyped_field_is_corrupt(self, tmp_path, fields, reason):
        assert self._verify_second_line(tmp_path, _forged(**fields)) == "corrupt record: " + reason

    # each verified ok while these fields were read untyped: a string or an
    # object in place of a list iterates by characters or by keys
    @pytest.mark.parametrize("fields, reason", [
        ({"timestamp": {"a": 1}}, "bad stored timestamp \"{'a': 1}\""),
        ({"timestamp": [1, 2]}, "bad stored timestamp '[1, 2]'"),
        ({"timestamp": 7}, "bad stored timestamp '7'"),
        ({"timestamp": True}, "bad stored timestamp 'True'"),
        ({"version": 7}, "bad stored version '7'"),
        ({"label": 5, "surface": dict(json.loads(MORDELL_LINE)["surface"], label=5)},
         "bad stored label '5'"),
        ({"provenance": "1"}, "bad stored provenance '1'"),
        ({"provenance": {"1": 0}}, "bad stored provenance \"{'1': 0}\""),
        ({"points": [{"1": 0, "1/2": 0}]}, "bad stored points \"[{'1': 0, '1/2': 0}]\""),
    ])
    def test_untyped_field_of_fixture_record_is_corrupt(self, tmp_path, fields, reason):
        forged = _forged(MORDELL_LINE, **fields)
        reason_seen = self._verify_second_line(tmp_path, forged, first=MORDELL_LINE)
        assert reason_seen == "corrupt record: " + reason

    # Budget(*budget) filled [] and [1, 2] from its field defaults, and
    # took [0, 0, 0]; verify printed ok for all three
    @pytest.mark.parametrize("budget, shown", [
        ([], "'[]'"), ([1, 2], "'[1, 2]'"), ([0, 0, 0], "'[0, 0, 0]'"),
        ([6, -6, 1], "'[6, -6, 1]'"), ([6, 6, 1, 1], "'[6, 6, 1, 1]'"),
    ])
    def test_malformed_budget_is_corrupt(self, tmp_path, budget, shown):
        forged = _forged(budget=budget)
        with pytest.raises(ValueError, match="bad stored budget"):
            record_from_json(forged.decode("utf-8"))
        reason = self._verify_second_line(tmp_path, forged)
        assert reason == "corrupt record: bad stored budget " + shown

    # each read as the bare KeyError text, such as 'A' or 't0', while the
    # record's keys were read by indexing
    @pytest.mark.parametrize("key", ["label", "version", "points", "curve", "t0", "provenance",
                                     "generic_rank_bound", "rank_bound_exact",
                                     "claimed_rank_lower_bound", "budget", "surface"])
    def test_missing_field_is_named(self, tmp_path, key):
        data = json.loads(MORDELL_LINE)
        del data[key]
        forged = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        with pytest.raises(ValueError, match=f"^missing stored {key}$"):
            record_from_json(forged.decode("utf-8"))
        reason = self._verify_second_line(tmp_path, forged, first=MORDELL_LINE)
        assert reason == f"corrupt record: missing stored {key}"

    @pytest.mark.parametrize("fields, reason", [
        ({"curve": {"1": "1"}}, "missing stored curve"),
        ({"curve": {"A": "1"}}, "missing stored curve"),
        ({"regulator": {"1": "1"}}, "missing stored regulator"),
        ({"regulator": {"determinant": 1.0}}, "missing stored regulator"),
    ])
    def test_missing_inner_field_is_named(self, tmp_path, fields, reason):
        forged = _forged(MORDELL_LINE, **fields)
        reason_seen = self._verify_second_line(tmp_path, forged, first=MORDELL_LINE)
        assert reason_seen == "corrupt record: " + reason

    @pytest.mark.parametrize("line, shown", [
        (b"[1, 2]", "'[1, 2]'"), (b"7", "'7'"), (b'"surface"', "'surface'"), (b"null", "'None'"),
    ])
    def test_line_not_an_object_is_corrupt(self, tmp_path, line, shown):
        reason = self._verify_second_line(tmp_path, line)
        assert reason == "corrupt record: bad stored record " + shown

    def test_non_finite_regulator_is_corrupt(self, tmp_path):
        # json reads NaN and Infinity, and the descent never reads the
        # stored regulator, so this pair once verified ok
        pair = PAIR_LINE
        data = json.loads(pair)
        data["regulator"] = {"determinant": float("nan"), "error": float("inf")}
        forged = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert b'"determinant":NaN' in forged and b'"error":Infinity' in forged
        reason = self._verify_second_line(tmp_path, forged, first=pair)
        assert reason == "corrupt record: bad stored regulator (nan, inf)"

    # both verified ok while a stored surface was read by its kind's keys
    # alone and its coefficients through str(), unlike a config file
    @pytest.mark.parametrize("surface, reason", [
        ({"junk": 1}, "unknown keys for kind 'twist': junk"),
        ({"f": [0, -1.0, 0, 1], "g": [-1, 0, 1.0]},
         "stored record has no list of strings for field 'f'"),
    ])
    def test_stored_surface_follows_the_config_rules(self, tmp_path, surface, reason):
        data = json.loads(PAIR_LINE)
        data["surface"].update(surface)
        forged = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        reason_seen = self._verify_second_line(tmp_path, forged, first=PAIR_LINE)
        assert reason_seen == "corrupt record: " + reason

    def test_non_boolean_verified_is_corrupt(self, tmp_path):
        # bool("no") is True
        forged = _forged(verified="no")
        with pytest.raises(ValueError, match="bad stored verified 'no'"):
            record_from_json(forged.decode("utf-8"))
        reason = self._verify_second_line(tmp_path, forged)
        assert reason == "corrupt record: bad stored verified 'no'"

    def test_long_decimal_in_config_exit_2(self, tmp_path):
        # Fraction builds 10^j for j digits after the point before int()
        # refuses them, and the whole token was echoed
        cfg = tmp_path / "long.cfg"
        cfg.write_text("kind = twist\nf = 0, -1, 0, 1\ng = 0." + "0" * 10**6 + ", 1\n")
        done = _run_cli("classify", "--config", str(cfg))
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.encode("utf-8")) < 200
        assert done.stderr == "error: line 3: field 'g': bad rational '0.000000000000000000'\n"

    # Fraction(token) builds 10^k for an exponent k: these took 13 s, 15 s
    # and 36 s before being refused
    def test_huge_exponent_in_config_exit_2(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("kind = twist\nf = 0, -1, 0, 1e10000000\ng = 0, 1\n")
        done = _run_cli("classify", "--config", str(cfg))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("error: line 2: field 'f': coefficient '1e10000000' has a "
                               "numerator or denominator above 10000\n")

    def test_huge_exponent_in_cover_file_exit_2(self, tmp_path):
        cfg, _, _ = _store_with(tmp_path)
        covers = tmp_path / "covers.txt"
        covers.write_text("1e10000000, 1\n")
        done = _run_cli("jump", "--config", cfg, "--budget", "6,6,2", "--avoid", str(covers))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("error: line 1: field 'cover': coefficient '1e10000000' has a "
                               "numerator or denominator above 10000\n")

    def test_huge_exponent_in_stored_t0(self, tmp_path):
        data = json.loads(RECORD_LINE)
        data["t0"] = "1e1000000"
        forged = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        cfg, store, path = _store_with(tmp_path, forged, RECORD_LINE)
        done = _run_cli("verify", "--store", store)
        assert done.returncode == 4
        assert done.stdout.splitlines() == [
            f"{path}:1: FAIL: corrupt record: bad stored rational '1e1000000'",
            f"{path}:2: ok",
            "# verified 2 records, 1 failures",
        ]
        # census --store skips the line
        done = _run_cli("census", "--config", cfg, "--height", "32", "--store", store)
        assert done.returncode == 0
        rows = [line.split() for line in done.stdout.splitlines() if line[:1].isspace()]
        assert rows[-1][0] == "32" and rows[-1][3] == "1"

    # verify printed "corrupt record: Fraction(1, 0)" for the first, and
    # int()'s refusal, past the default limit of 4300 digits, for the second
    @pytest.mark.parametrize("t0", ["1/0", "1" * 5000])
    def test_bad_stored_rational_is_named(self, tmp_path, t0):
        data = json.loads(RECORD_LINE)
        data["t0"] = t0
        forged = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        cfg, store, path = _store_with(tmp_path, forged, RECORD_LINE)
        code, out, _ = _run(["verify", "--store", store])
        assert code == 4
        assert out.splitlines() == [
            f"{path}:1: FAIL: corrupt record: bad stored rational {t0[:20]!r}",
            f"{path}:2: ok",
            "# verified 2 records, 1 failures",
        ]
        # census --store skips the line
        code, out, _ = _run(["census", "--config", cfg, "--height", "32", "--store", store])
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line[:1].isspace()]
        assert rows[-1][0] == "32" and rows[-1][3] == "1"


#: The JSON type README documents for each top-level field of a record,
#: NoneType where null is allowed; JSON tells a boolean from an integer.
DOCUMENTED_TYPES = {
    "budget": (list,), "claimed_rank_lower_bound": (int,), "curve": (dict,),
    "generic_rank_bound": (int,), "label": (str,), "points": (list,), "provenance": (list,),
    "rank_bound_exact": (bool,), "regulator": (dict, type(None)), "surface": (dict,),
    "t0": (str,), "timestamp": (str, type(None)), "verified": (bool,), "version": (str,),
}
#: One value of each JSON type: string, integer, float, boolean, null, list, object.
JSON_TYPE_VALUES = ("1", 1, 1.5, True, None, ["1"], {"1": "1"})


def test_every_mistyped_top_level_field_is_corrupt(tmp_path):
    """Each top-level field of a fixture record set to a value of each JSON
    type: verify reports a corrupt record wherever the type is not README's,
    naming the field for curve, regulator and budget."""
    assert sorted(json.loads(MORDELL_LINE)) == sorted(DOCUMENTED_TYPES)
    cases = [(name, value) for name in DOCUMENTED_TYPES for value in JSON_TYPE_VALUES]
    _, store, path = _store_with(tmp_path, *(_forged(MORDELL_LINE, **{name: value})
                                             for name, value in cases))
    code, out, _ = _run(["verify", "--store", store])
    assert code == 4
    results = out.splitlines()
    assert results[-1].startswith(f"# verified {len(cases)} records, ")
    for lineno, ((name, value), result) in enumerate(zip(cases, results), 1):
        assert result.startswith(f"{path}:{lineno}: ")
        if type(value) not in DOCUMENTED_TYPES[name]:
            assert result.startswith(f"{path}:{lineno}: FAIL: corrupt record: "), (name, value)
            if name in ("curve", "regulator", "budget"):
                assert f": corrupt record: bad stored {name} " in result, (name, value)


# append_records of the record in the file line, after printing "ready"
APPENDER = """
import sys
from pathlib import Path
from rankjump.store import append_records, record_from_json

store, line = sys.argv[1:]
rec = record_from_json(Path(line).read_text())
print("ready", flush=True)
print(append_records(store, rec.surface.label, [rec]))
"""


def test_append_under_the_lock_stores_a_key_once(tmp_path):
    """While this test holds the store file's lock, a second process
    appends a record and this test writes the same t0: the appender reads
    the stored keys only once it holds the lock, so it adds nothing."""
    line = tmp_path / "line.json"
    line.write_bytes(RECORD_LINE)
    _, store, path = _store_with(tmp_path)
    env = child_env()
    with path.open("ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        proc = subprocess.Popen([sys.executable, "-c", APPENDER, store, str(line)],
                                stdout=subprocess.PIPE, text=True, env=env)
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)  # the appender reaches the lock and waits on it
        assert proc.poll() is None
        fh.write(RECORD_LINE + b"\n")
        fh.flush()
    out, _ = proc.communicate(timeout=60)
    assert (out, proc.returncode) == ("0\n", 0)
    assert path.read_bytes() == RECORD_LINE + b"\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)
RECORD = json.loads(RECORD_LINE)


@st.composite
def field_edits(draw) -> bytes:
    """The record with one field, or one field of its surface, replaced."""
    data = json.loads(RECORD_LINE)
    if draw(st.booleans()):
        data["surface"][draw(st.sampled_from(sorted(RECORD["surface"])))] = draw(JSON_VALUES)
    else:
        data[draw(st.sampled_from(sorted(RECORD)))] = draw(JSON_VALUES)
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


@st.composite
def byte_edits(draw) -> bytes:
    """The record line with one slice replaced by arbitrary bytes."""
    i = draw(st.integers(0, len(RECORD_LINE)))
    j = draw(st.integers(i, min(i + 12, len(RECORD_LINE))))
    return RECORD_LINE[:i] + draw(st.binary(max_size=6)) + RECORD_LINE[j:]


MALFORMED_LINES = st.lists(st.one_of(st.binary(max_size=120), field_edits(), byte_edits()),
                           min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(MALFORMED_LINES)
@example([b"\xff"])
@example([b"[" * 100000])  # json.loads raises RecursionError
@example([RECORD_LINE.replace(b'"t0":"', b'"t0":"1e400')])
@example([b'{"surface": {"kind": "twist", "f": [], "g": ["0", "1"]}, "t0": "1"}'])
def test_malformed_store_lines(lines):
    """verify exits 0 or 4 and census --store exits 0, with no traceback,
    within a time bound, whatever the stored lines hold."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, store, _ = _store_with(Path(tmp), RECORD_LINE, *lines)
        started = time.perf_counter()
        code, out, _ = _run(["verify", "--store", store])
        assert code in (0, 4)
        assert out.splitlines()[0].endswith(":1: ok")
        code, _, _ = _run(["census", "--config", cfg, "--height", "3", "--store", store])
        assert code == 0
        assert time.perf_counter() - started < 10


def _lines_read(rows) -> list:
    """_read_lines output with each config as its label and definition and
    each error as its type and message, comparable across readers."""
    return [(n, (type(d), str(d)) if cfg is None else (d, cfg.label, cfg.definition))
            for n, d, cfg in rows]


def _zeros_as(value) -> bytes:
    """The record line with its surface coefficients "0" stored as value."""
    data = json.loads(RECORD_LINE)
    data["surface"] = {k: [value if c == "0" else c for c in v] if isinstance(v, list) else v
                       for k, v in data["surface"].items()}
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


INT_ZEROS, FALSE_ZEROS, FLOAT_ZEROS = map(_zeros_as, (0, False, 0.0))
NULL_SURFACE = _forged(surface=None)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(st.sampled_from([RECORD_LINE, INT_ZEROS, FALSE_ZEROS, FLOAT_ZEROS,
                                           NULL_SURFACE]), field_edits(), byte_edits()),
                min_size=1, max_size=6))
@example([NULL_SURFACE, RECORD_LINE, NULL_SURFACE])
@example([RECORD_LINE, INT_ZEROS, FALSE_ZEROS, RECORD_LINE, FLOAT_ZEROS, INT_ZEROS])
@example([INT_ZEROS, FALSE_ZEROS, INT_ZEROS, RECORD_LINE])
def test_reader_matches_canonical_keys(lines):
    """A surface equal to the last one keyed reuses its config without its
    canonical JSON, and every line reads as under the canonical key alone:
    0 == False == 0.0 as Python values, but a coefficient 0 parses and
    false does not."""
    with tempfile.TemporaryDirectory() as tmp:
        _, _, path = _store_with(Path(tmp), *lines)
        assert (_lines_read(_read_lines(path, {}))
                == _lines_read(read_lines_canonical(path, {})))


def test_verify_keys_each_store_file_once(tmp_path, monkeypatch):
    """The fixture's records share one surface per file, so verify builds
    one canonical key per file, not one per line (1,005 per cycle before)."""
    for gz in sorted((ROOT / "perfbench" / "fixture").glob("*.jsonl.gz")):
        (tmp_path / gz.stem).write_bytes(gzip.decompress(gz.read_bytes()))
    keys, dumps = [], json.dumps

    def counted(obj, **kwargs):
        keys.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    files = verify_store(tmp_path)
    assert sum(len(results) for _, results in files) == 1005
    assert all(ok for _, results in files for _, ok, _ in results)
    assert len(keys) == len(files) == 3


def test_fixture_records_are_typed_at_the_boundary():
    """verify_certificate takes a record's rationals as store._record types
    them: t0, the curve, the points and the provenance are Fractions."""
    records = [record_from_json(line)
               for gz in sorted((ROOT / "perfbench" / "fixture").glob("*.jsonl.gz"))
               for line in gzip.decompress(gz.read_bytes()).splitlines()]
    assert len(records) == 1005
    for rec in records:
        cert = rec.certificate
        values = [cert.t0, *cert.curve, *cert.provenance, *(c for P in cert.points for c in P)]
        assert all(type(v) is Fraction for v in values)
