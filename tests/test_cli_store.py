import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    child_env,
    moved_point,
    pair_add,
    point,
    pullback_fraction,
    scalar_mul,
    specialize_fraction,
)
from rankjump.cli import main
from rankjump.conics import ConicFibre
from rankjump.config import (
    MAX_COEFFICIENT,
    ConfigError,
    build_surface,
    parse_cover_file,
    parse_surface_config,
    surface_config_from_dict,
)
from rankjump.curves import specialize
from rankjump.jumps import Budget, jump1
from rankjump.store import (
    CertificateRecord,
    append_records,
    record_from_json,
    verify_store,
)
from rankjump.surfaces import TwistFamily

TWIST_CFG = """\
kind = twist
label = usual-twist
f = 0, -1, 0, 1    # x^3 - x
g = 0, 1
"""

MORDELL_CFG = """\
kind = km
label = mordell
a3 = 1
a2 = 0
a1 = 0
a0 = 0, 1
"""

KM_SWEEP_MISS_CFG = """\
kind = km
label = km-sweep-miss
a3 = -1, -1, 1
a2 = -5, 5/2, 3/4
a1 = 3/2, 1/4, -5/4
a0 = -3, 1, -2
"""

#: y^2 = x^3 + t^2 + 1, Shioda-Tate bound 2 (II at t^2 + 1, IV* at infinity);
#: at t0 = 1/2 the point (1, -3/2) is dependent on the specialised section
#: (-1, t): 2 P + S = O
KM_BOUND_2_CFG = """\
kind = km
label = km-bound-2
a3 = 1
a2 = 0
a1 = 0
a0 = 1, 0, 1
"""

#: ROADMAP item 8's km surface: at x0 = 4/3 the sweep _naive_search(32)
#: finds no point, so the fibre's base point comes from Lagrange's descent
KM_DESCENT_CFG = """\
kind = km
label = km-descent
a3 = -4, 0, 4
a2 = -6
a1 = -3, -1, 7/3
a0 = -4, 1, 7/2
"""


ROOT = Path(__file__).resolve().parents[1]

# append_records of count copies of the record in the file line, with t0 =
# first, first + 1, ..., as soon as the file go exists. The lines are
# serialised before that, so that two such processes write at the same time.
APPENDER = """
import sys
from dataclasses import replace
from pathlib import Path
from rankjump.store import CertificateRecord, append_records, record_from_json

store, line, first, count, go = sys.argv[1:]
first, count, go = int(first), int(count), Path(go)
rec = record_from_json(Path(line).read_text())
batch = [CertificateRecord(replace(rec.certificate, t0=first + i), rec.surface, rec.budget)
         for i in range(count)]
lines = {r.certificate.t0: r.to_json() for r in batch}
CertificateRecord.to_json = lambda r: lines[r.certificate.t0]
print("ready", flush=True)
while not go.exists():
    pass
print(append_records(store, rec.surface.label, batch))
"""


class TestConfig:
    def test_parse_twist(self):
        cfg = parse_surface_config(TWIST_CFG)
        assert cfg.kind == "twist" and cfg.label == "usual-twist"
        s = build_surface(cfg)
        assert isinstance(s, TwistFamily)

    def test_parse_km(self):
        cfg = parse_surface_config(MORDELL_CFG)
        assert build_surface(cfg).a0.degree == 1

    def test_bad_rational_is_line_precise(self):
        with pytest.raises(ConfigError, match="line 3.*'f'.*'1/x'"):
            parse_surface_config("kind = twist\nlabel = x\nf = 0, 1/x\ng = 0, 1\n")

    def test_missing_field(self):
        with pytest.raises(ConfigError, match="requires field 'g'"):
            parse_surface_config("kind = twist\nf = 0, -1, 0, 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_surface_config("kind = cubic\n")

    def test_nonseparable_rejected_citing_hypothesis(self):
        cfg = parse_surface_config("kind = twist\nf = 0, 0, 0, 1\ng = 0, 1\n")
        with pytest.raises(ConfigError, match="separable"):
            build_surface(cfg)

    def test_config_dict_roundtrip(self):
        cfg = parse_surface_config(TWIST_CFG)
        assert surface_config_from_dict(cfg.echo).polys == cfg.polys

    def test_cover_file(self):
        covers = parse_cover_file("0, 1  # t\n-5, 1\n")
        assert len(covers) == 2 and covers[1](5) == 0

    def test_coefficient_bound(self):
        with pytest.raises(ConfigError, match="line 2.*'f'.*above"):
            parse_surface_config(f"kind = twist\nf = {MAX_COEFFICIENT + 1}, 1, 0, 1\ng = 0, 1\n")
        with pytest.raises(ConfigError, match="'a0'.*above"):
            parse_surface_config(f"kind = km\na3 = 1\na2 = 0\na1 = 0\n"
                                 f"a0 = 1/{MAX_COEFFICIENT + 1}, 1\n")
        parse_surface_config(f"kind = twist\nf = -{MAX_COEFFICIENT}/{MAX_COEFFICIENT - 1}, "
                             f"1, 0, 1\ng = 0, 1\n")

    def test_shipped_configs_parse(self):
        for path in sorted((ROOT / "configs").glob("*.cfg")):
            build_surface(parse_surface_config(path.read_text(encoding="utf-8")))
        assert parse_cover_file((ROOT / "configs" / "covers-example.txt").read_text())


class TestStore(object):
    def _records(self, n=4):
        cfg = parse_surface_config(TWIST_CFG)
        s = build_surface(cfg)
        budget = Budget(6, 6, n)
        return [CertificateRecord(c, cfg, budget) for c in jump1(s, budget)], cfg

    def test_json_roundtrip_identity(self):
        records, _ = self._records()
        for rec in records:
            line = rec.to_json()
            again = record_from_json(line).to_json()
            assert line == again

    def test_streams_byte_identical(self):
        a, _ = self._records()
        b, _ = self._records()
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_append_dedupes_on_t0(self, tmp_path):
        records, cfg = self._records()
        assert append_records(tmp_path, cfg.label, records) == len(records)
        assert append_records(tmp_path, cfg.label, records) == 0

    def test_append_dedupes_on_the_rational_t0(self, tmp_path):
        # a hand-written t0 "12/2" is the stored key of t0 = 6 all the same
        records, cfg = self._records()
        append_records(tmp_path, cfg.label, records)
        path = next(tmp_path.glob("*.jsonl"))
        lines = path.read_text().splitlines()
        data = json.loads(lines[0])
        t0 = Fraction(data["t0"])
        data["t0"] = f"{2 * t0.numerator}/{2 * t0.denominator}"
        lines[0] = json.dumps(data, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        assert append_records(tmp_path, cfg.label, records) == 0

    def test_concurrent_appends_keep_whole_lines(self, tmp_path):
        # two processes append batches of far more than 64 KiB to one store
        # file at the same moment; every line must still parse as a record.
        # The lines are a few KiB, shorter than a usual 8 KiB write buffer,
        # so a writer that sends fixed-size pieces would cut some of them.
        records, cfg = self._records(1)
        rec = replace(records[0], surface=replace(cfg, label="x" * 3000))
        line, count = tmp_path / "line.json", 3000
        line.write_text(rec.to_json())
        assert line.stat().st_size * count > 100 * 65536
        env = child_env()
        go = tmp_path / "go"
        procs = [subprocess.Popen([sys.executable, "-c", APPENDER, str(tmp_path / "store"),
                                   str(line), str(first), str(count), str(go)],
                                  stdout=subprocess.PIPE, text=True, env=env)
                 for first in (1, 10**6)]
        assert [proc.stdout.readline() for proc in procs] == ["ready\n"] * 2
        go.touch()
        assert [proc.communicate(timeout=60)[0] for proc in procs] == [f"{count}\n"] * 2
        assert [proc.returncode for proc in procs] == [0, 0]
        lines = next((tmp_path / "store").glob("*.jsonl")).read_text().splitlines()
        t0s = sorted(record_from_json(l).certificate.t0 for l in lines)
        assert t0s == [*range(1, count + 1), *range(10**6, 10**6 + count)]

    def test_verify_good_store(self, tmp_path):
        records, cfg = self._records()
        append_records(tmp_path, cfg.label, records)
        [(_, results)] = verify_store(tmp_path)
        assert all(ok for _, ok, _ in results)

    def test_verify_detects_tampering(self, tmp_path):
        records, cfg = self._records()
        append_records(tmp_path, cfg.label, records)
        path = next(tmp_path.glob("*.jsonl"))
        lines = path.read_text().splitlines()
        data = json.loads(lines[0])
        data["points"][0][0] = str(Fraction(data["points"][0][0]) + 1)
        lines[0] = json.dumps(data, sort_keys=True, separators=(",", ":"))
        data2 = json.loads(lines[1])
        data2["claimed_rank_lower_bound"] = 5
        lines[1] = json.dumps(data2, sort_keys=True, separators=(",", ":"))
        lines.append("{ not json")
        path.write_text("\n".join(lines) + "\n")
        _, results = verify_store(tmp_path)[0]
        outcomes = dict((lineno, (ok, reasons)) for lineno, ok, reasons in results)
        assert not outcomes[1][0] and any("off the curve" in r for r in outcomes[1][1])
        assert not outcomes[2][0]
        assert not outcomes[len(lines)][0]  # corrupt line reported, not fatal
        assert [ok for _, ok, _ in results].count(False) == 3

    def test_verify_parses_each_surface_once(self, tmp_path, monkeypatch):
        # g = t and g = -t share the label "twist" and so one store file,
        # and two lines carry a malformed surface: the reports are those of
        # reading and re-verifying every line on its own, each good surface
        # dict is parsed once, and each malformed one on every line
        from rankjump import store
        from rankjump.jumps import verify_certificate

        for g in ("0, 1", "0, -1"):
            cfg = parse_surface_config(f"kind = twist\nf = 0, -1, 0, 1\ng = {g}\n")
            budget = Budget(6, 6, 3)
            append_records(tmp_path, cfg.label,
                           [CertificateRecord(c, cfg, budget) for c in jump1(build_surface(cfg), budget)])
        path = next(tmp_path.glob("*.jsonl"))
        lines = path.read_text().splitlines()
        bad = json.loads(lines[0])
        bad["surface"]["kind"] = "cubic"
        bad_line = json.dumps(bad, sort_keys=True, separators=(",", ":"))
        lines[2:2] = [bad_line]
        lines.append(bad_line)
        path.write_text("\n".join(lines) + "\n")

        expected = []
        for lineno, line in enumerate(lines, 1):
            try:
                rec = record_from_json(line)
            except Exception as exc:
                expected.append((lineno, False, [f"corrupt record: {exc}"]))
                continue
            expected.append((lineno, *verify_certificate(rec.surface.fibred, rec.certificate)))
        parses = []

        def counting(data):
            parses.append(1)
            return surface_config_from_dict(data)

        monkeypatch.setattr(store, "surface_config_from_dict", counting)
        [(_, results)] = verify_store(tmp_path)
        assert results == expected
        assert [ok for _, ok, _ in expected].count(False) == 2
        assert len(parses) == 2 + 2

    def test_stored_t0_parses_each_surface_once(self, tmp_path, monkeypatch):
        # the store of test_verify_parses_each_surface_once, plus lines with
        # an unreadable t0 and a blank line: the keys are those of reading
        # every line on its own, each good surface dict is parsed once, and
        # the malformed one on every line
        from rankjump import store

        budget = Budget(6, 6, 3)
        for g in ("0, 1", "0, -1"):
            cfg = parse_surface_config(f"kind = twist\nf = 0, -1, 0, 1\ng = {g}\n")
            append_records(tmp_path, cfg.label,
                           [CertificateRecord(c, cfg, budget) for c in jump1(build_surface(cfg), budget)])
        path = next(tmp_path.glob("*.jsonl"))
        lines = path.read_text().splitlines()
        bad, no_t0 = json.loads(lines[0]), json.loads(lines[1])
        bad["surface"]["kind"] = "cubic"
        no_t0["t0"] = "1/0"
        lines[2:2] = [json.dumps(bad), json.dumps(no_t0), "", "{", json.dumps(bad)]
        path.write_text("\n".join(lines) + "\n")

        expected = set()
        for line in lines:
            try:
                data = json.loads(line)
                expected.add((surface_config_from_dict(data["surface"]).definition,
                               Fraction(data["t0"])))
            except (ValueError, KeyError, ZeroDivisionError):
                continue
        parses = []

        def counting(data):
            parses.append(1)
            return surface_config_from_dict(data)

        monkeypatch.setattr(store, "surface_config_from_dict", counting)
        assert store.stored_t0(tmp_path, "twist") == expected
        assert len(expected) == 6
        assert len(parses) == 2 + 2


class TestCli:
    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_classify_ok(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        assert main(["classify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "I0*" in out and "shioda-tate rank bound: 0" in out

    def test_classify_invalid_exit_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "bad.cfg", "kind = twist\nf = 0,0,0,1\ng = 0,1\n")
        assert main(["classify", "--config", cfg]) == 2
        assert "separable" in capsys.readouterr().err

    def test_jump_stream_and_store(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = str(tmp_path / "store")
        assert main(["jump", "--config", cfg, "--budget", "6,6,5", "--store", store]) == 0
        out = capsys.readouterr().out
        payloads = [json.loads(l) for l in out.splitlines() if l and not l.startswith("#")]
        assert len(payloads) == 5
        assert all(p["claimed_rank_lower_bound"] == 1 for p in payloads)
        assert main(["verify", "--store", store]) == 0

    def test_jump_budget_exhausted_exit_3(self, tmp_path):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        assert main(["jump", "--config", cfg, "--budget", "2,2,999"]) == 3

    def test_jump_idempotent_store(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = str(tmp_path / "store")
        main(["jump", "--config", cfg, "--budget", "6,6,4", "--store", store])
        path = next(Path(store).glob("*.jsonl"))
        before = path.read_text()
        main(["jump", "--config", cfg, "--budget", "6,6,4", "--store", store])
        assert path.read_text() == before

    def test_jump_avoid(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        covers = self._write(tmp_path, "covers.txt", "0, 1\n-5, 1\n")
        assert main(["jump", "--config", cfg, "--budget", "8,8,10", "--avoid", covers]) == 0
        out = capsys.readouterr().out
        t0s = [Fraction(json.loads(l)["t0"]) for l in out.splitlines()
               if l and not l.startswith("#")]
        assert Fraction(6) not in t0s

    def test_verify_tampered_exit_4(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = str(tmp_path / "store")
        main(["jump", "--config", cfg, "--budget", "6,6,3", "--store", store])
        capsys.readouterr()
        path = next(Path(store).glob("*.jsonl"))
        lines = path.read_text().splitlines()
        data = json.loads(lines[0])
        data["points"][0][1] = "12345"
        lines[0] = json.dumps(data, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--store", store]) == 4

    def test_verify_label_disagreement_exit_4(self, tmp_path, capsys):
        # the top-level label of a record is its surface's; a line whose two
        # labels differ is corrupt, however sound its certificate
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = str(tmp_path / "store")
        main(["jump", "--config", cfg, "--budget", "6,6,3", "--store", store])
        capsys.readouterr()
        path = next(Path(store).glob("*.jsonl"))
        lines = path.read_text().splitlines()
        data = json.loads(lines[1])
        data["label"] = "another-twist"
        lines[1] = json.dumps(data, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--store", store]) == 4
        out = capsys.readouterr().out.splitlines()
        status = [l.split(": ", 1)[1] for l in out[:3]]
        assert status[0] == status[2] == "ok" and status[1].startswith("FAIL: corrupt record")
        assert out[3] == "# verified 3 records, 1 failures"

    def test_jump_timestamp_stamps_each_line(self, tmp_path, capsys):
        # --timestamp changes each record's stamp and nothing else; the
        # stamped lines are stored and verify as they are
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = str(tmp_path / "store")
        assert main(["jump", "--config", cfg, "--budget", "6,6,5"]) == 0
        plain = capsys.readouterr().out.splitlines()
        stamp = "2024-01-02T03:04:05Z"
        assert main(["jump", "--config", cfg, "--budget", "6,6,5", "--timestamp", stamp,
                     "--store", store]) == 0
        stamped = capsys.readouterr().out.splitlines()
        assert len(plain) == 5 and all('"timestamp":null' in l for l in plain)
        assert stamped == [l.replace('"timestamp":null', f'"timestamp":"{stamp}"') for l in plain]
        assert next(Path(store).glob("*.jsonl")).read_text().splitlines() == stamped
        assert main(["verify", "--store", store]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [l.endswith(": ok") for l in out] == [True] * 5 + [False]
        assert out[-1] == "# verified 5 records, 0 failures"

    def test_verify_inverse_pair_exit_4(self, tmp_path, capsys):
        # a rank-2 record whose second point is the negation of the first,
        # from the same fibre x = x0: P + Q = O is a dependence, not a crash
        cfg = self._write(tmp_path, "m.cfg", MORDELL_CFG)
        store = str(tmp_path / "store")
        assert main(["jump", "--config", cfg, "--rank", "2", "--budget", "8,8,1",
                     "--store", store]) == 0
        capsys.readouterr()
        path = next(Path(store).glob("*.jsonl"))
        data = json.loads(path.read_text().splitlines()[0])
        x, y = data["points"][0]
        data["points"][1] = [x, str(-Fraction(y))]
        data["provenance"][1] = data["provenance"][0]
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        assert main(["verify", "--store", store]) == 4
        assert "FAIL: regulator verdict is dependent" in capsys.readouterr().out

    @pytest.mark.parametrize("forgery", ["plus 2-torsion", "triple"])
    def test_verify_forged_split_twist_pair_exit_4(self, tmp_path, capsys, forgery):
        # a split-twist rank-2 record whose second point is P + T, T in E[2],
        # or 3P, pulled back to its own fibre: the 2-descent cannot prove
        # such a pair independent, and the regulator finds it dependent
        cfg = str(ROOT / "configs" / "split-twist.cfg")
        store = str(tmp_path / "store")
        assert main(["jump", "--config", cfg, "--rank", "2", "--budget", "18,10,1",
                     "--store", store]) == 0
        capsys.readouterr()
        path = next(Path(store).glob("*.jsonl"))
        data = json.loads(path.read_text().splitlines()[0])
        surface = build_surface(parse_surface_config(Path(cfg).read_text()))
        spec = specialize(surface, Fraction(data["t0"]))
        E, P = spec.curve, point(*data["points"][0])
        if forgery == "triple":
            Q = scalar_mul(E, 3, P)
        else:
            Q = pair_add(E, P, moved_point(spec, surface.f_roots[0], 0))
        data["points"][1] = [str(Q[0]), str(Q[1])]
        chart = specialize_fraction(surface, Fraction(data["t0"]))[1]
        data["provenance"][1] = str(pullback_fraction(chart, *Q)[0])
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        assert main(["verify", "--store", store]) == 4
        assert "FAIL: regulator verdict is dependent" in capsys.readouterr().out

    def _forged_pair(self, tmp_path, capsys, forge):
        """verify's output on the first Mordell rank-2 record after forge
        edits its JSON fields, and its exit code."""
        cfg = self._write(tmp_path, "m.cfg", MORDELL_CFG)
        store = str(tmp_path / "store")
        assert main(["jump", "--config", cfg, "--rank", "2", "--budget", "8,8,1",
                     "--store", store]) == 0
        capsys.readouterr()
        path = next(Path(store).glob("*.jsonl"))
        data = json.loads(path.read_text().splitlines()[0])
        forge(data)
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        code = main(["verify", "--store", store])
        return code, capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("count", [0, 3])
    def test_verify_unsupported_point_count_exit_4(self, tmp_path, capsys, count):
        # provenance, claimed bound and regulator all match the point count,
        # so the count is the one reason
        def forge(data):
            data["points"] = (data["points"] * 2)[:count]
            data["provenance"] = (data["provenance"] * 2)[:count]
            data["claimed_rank_lower_bound"] = data["generic_rank_bound"] + count
            data["regulator"] = None

        code, out = self._forged_pair(tmp_path, capsys, forge)
        assert code == 4
        assert out[0].endswith(f": FAIL: unsupported point count {count}")

    @pytest.mark.parametrize("field, value, reason", [
        ("curve", {"A": "0", "B": "1/4"}, "recorded curve does not match the specialised fibre"),
        ("generic_rank_bound", 1, "recorded generic rank bound is wrong"),
    ], ids=["curve", "generic-rank-bound"])
    def test_verify_forged_field_exit_4(self, tmp_path, capsys, field, value, reason):
        code, out = self._forged_pair(tmp_path, capsys, lambda data: data.update({field: value}))
        assert code == 4
        assert out[0].endswith(f": FAIL: {reason}")
        assert out[1] == "# verified 1 records, 1 failures"

    def test_positive_generic_bound_claims_the_point_count(self, tmp_path, capsys):
        """Where the generic rank bound is 2 and not exact, a record claims
        only its one point; the claim bound + points fails verify."""
        cfg = self._write(tmp_path, "k.cfg", KM_BOUND_2_CFG)
        store = tmp_path / "store"
        assert main(["jump", "--config", cfg, "--budget", "4,4,3", "--store", str(store)]) == 0
        [path] = store.glob("*.jsonl")
        data = next(d for d in map(json.loads, path.read_text().splitlines()) if d["t0"] == "1/2")
        assert (data["generic_rank_bound"], data["rank_bound_exact"]) == (2, False)
        assert data["points"] == [["1", "-3/2"]] and data["claimed_rank_lower_bound"] == 1
        assert main(["verify", "--store", str(store)]) == 0
        data["claimed_rank_lower_bound"] = 3
        path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        capsys.readouterr()
        assert main(["verify", "--store", str(store)]) == 4
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(": FAIL: claimed rank bound does not match the evidence")

    def test_verify_error_is_reported_with_the_batch(self, tmp_path, capsys, monkeypatch):
        """A height that raises inside verify_certificate fails its own line
        as a verification error; the lines around it are still verified.
        The 2-descent modulo primes proves KM_SLOW_RECORD's pair without a
        height, so it is made to defer here."""
        from test_heights import KM_SLOW_RECORD

        import rankjump.curves
        import rankjump.jumps

        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = tmp_path / "store"
        assert main(["jump", "--config", cfg, "--budget", "6,6,2", "--store", str(store)]) == 0
        path = next(store.glob("*.jsonl"))
        first, second = path.read_text().splitlines()
        path.write_text("\n".join([first, KM_SLOW_RECORD, second]) + "\n")
        capsys.readouterr()
        monkeypatch.setattr(rankjump.curves, "_FORMAL_GROUP_BITS_CAP", 0)
        monkeypatch.setattr(rankjump.jumps, "descent_mod_p", lambda *args: False)
        assert main(["verify", "--store", str(store)]) == 4
        out = capsys.readouterr().out.splitlines()
        assert [line.split(": ", 1)[1] for line in out[:3:2]] == ["ok", "ok"]
        assert out[1].split(": ", 1)[1].startswith("FAIL: verification error: ")
        assert out[3] == "# verified 3 records, 1 failures"

    def test_census(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        assert main(["census", "--config", cfg, "--height", "6"]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [l.split() for l in out if l and l[0].isspace() or l[:1].isdigit()]
        counts = [int(r[1]) for r in rows if r and r[0].isdigit()]
        assert counts == sorted(counts)  # nondecreasing in the bound

    def test_census_counts_each_fibre_once(self, tmp_path, capsys):
        # every fibre of y^2 = x^3 + t is a solvable conic w^2 = t + x0^3, so
        # the solvable fibres up to height h are the rationals of height <= h
        cfg = self._write(tmp_path, "m.cfg", MORDELL_CFG)
        assert main(["census", "--config", cfg, "--height", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [[int(c) for c in l.split()] for l in out if l[:1].isspace()]
        assert [r[0] for r in rows] == list(range(1, 9))
        for h, _, solvable in rows:
            assert solvable == len({Fraction(a, b) for b in range(1, h + 1)
                                    for a in range(-h, h + 1)})
        assert out[-1] == "# degenerate fibre parameters skipped: 0"

    def test_missing_config_exit_2(self):
        assert main(["classify", "--config", "/nonexistent/path.cfg"]) == 2

    def test_weierstrass_twist_recovery(self, tmp_path, capsys):
        # A = -(t^2-1)^2, B = 0 hides the split twist family
        cfg = self._write(
            tmp_path, "w.cfg",
            "kind = weierstrass\nlabel = hidden-twist\nA = -1, 0, 2, 0, -1\nB = 0\n",
        )
        store = str(tmp_path / "store")
        assert main(["jump", "--config", cfg, "--budget", "6,6,3", "--store", store]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 3
        assert all(json.loads(l)["verified"] is True for l in lines)
        assert main(["verify", "--store", store]) == 0
        assert "3 records, 0 failures" in capsys.readouterr().out

    def test_failed_reverification_exit_4(self, tmp_path, capsys, monkeypatch):
        import rankjump.store

        monkeypatch.setattr(rankjump.store, "verify_certificate",
                            lambda surface, cert: (False, ["forced failure"]))
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = tmp_path / "store"
        assert main(["jump", "--config", cfg, "--budget", "6,6,2", "--store", str(store)]) == 4
        captured = capsys.readouterr()
        assert not [l for l in captured.out.splitlines() if l and not l.startswith("#")]
        failures = [l for l in captured.err.splitlines() if "re-verification failed" in l]
        assert len(failures) == 2 and all("forced failure" in l for l in failures)
        assert "t0 = " in failures[0]
        assert not "".join(p.read_text() for p in store.glob("*.jsonl"))
        assert not list(store.glob("*.jsonl"))

    def test_store_keeps_unlabelled_surfaces_apart(self, tmp_path, capsys):
        # both configs default to the label "twist", so they share a store
        # file; x^3 - x is odd, so g = t and g = -t share four of five t0
        plus = self._write(tmp_path, "plus.cfg", "kind = twist\nf = 0, -1, 0, 1\ng = 0, 1\n")
        minus = self._write(tmp_path, "minus.cfg", "kind = twist\nf = 0, -1, 0, 1\ng = 0, -1\n")
        store = str(tmp_path / "store")
        assert main(["jump", "--config", plus, "--budget", "6,6,5", "--store", store]) == 0
        capsys.readouterr()
        assert main(["jump", "--config", minus, "--budget", "6,6,5", "--store", store]) == 0
        assert "# store: 5 new of 5 certificates" in capsys.readouterr().err
        assert main(["verify", "--store", store]) == 0
        assert "verified 10 records, 0 failures" in capsys.readouterr().out
        assert main(["census", "--config", plus, "--height", "32", "--store", store]) == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines() if l[:1].isspace()]
        assert rows[-1][0] == "32" and rows[-1][3] == "5"

    def test_census_store_skips_unreadable_t0(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = str(tmp_path / "store")
        assert main(["jump", "--config", cfg, "--budget", "6,6,5", "--store", store]) == 0
        path = next(Path(store).glob("*.jsonl"))
        data = json.loads(path.read_text().splitlines()[0])
        data["t0"] = "abc"
        with path.open("a") as fh:
            fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        capsys.readouterr()
        assert main(["census", "--config", cfg, "--height", "32", "--store", store]) == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines() if l[:1].isspace()]
        assert rows[-1][0] == "32" and rows[-1][3] == "5"

    def test_weierstrass_without_conics_exit_2(self, tmp_path, capsys):
        cfg = self._write(
            tmp_path, "w.cfg",
            "kind = weierstrass\nlabel = mordell-w\nA = 0\nB = 0, 1\n",
        )
        assert main(["classify", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["jump", "--config", cfg, "--budget", "4,4,2"]) == 2
        assert "twist or km form" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "kind = weierstrass\nA = -1\nB = -3/4\n",                              # constant
        "kind = km\na3 = 0, 0, 1\na2 = 0\na1 = 0\na0 = 0, 0, 1\n",           # t^2 (x^3 + 1)
    ], ids=["constant", "km-t2-times-constant"])
    def test_classify_not_rational_elliptic_exit_2(self, tmp_path, text):
        """Euler number 0: classify once printed four lines and a traceback."""
        cfg = self._write(tmp_path, "s.cfg", text)
        env = child_env()
        done = subprocess.run([sys.executable, "-m", "rankjump.cli", "classify", "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=10)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: Euler number 0 != 12; not a rational elliptic surface\n"

    def test_oversized_coefficient_exit_2(self, tmp_path):
        """f = 10^400 + x + x^3 once left census factoring a fibre value
        without end; each command now refuses the config at once."""
        cfg = self._write(tmp_path, "big.cfg", "kind = twist\nf = 1e400, 1, 0, 1\ng = 0, 1\n")
        env = child_env()
        for argv in (["classify"], ["jump", "--budget", "3,3,2"], ["census", "--height", "3"]):
            done = subprocess.run([sys.executable, "-m", "rankjump.cli", *argv, "--config", cfg],
                                  capture_output=True, text=True, env=env, timeout=10)
            assert done.returncode == 2, done.stderr
            assert "above" in done.stderr and "Traceback" not in done.stderr

    def test_oversized_stored_coefficient(self, tmp_path, capsys):
        """A stored surface is bounded as a config is: a record with
        f = x^3 - x + 10^400 is a corrupt record for verify, at once, and
        census --store skips it."""
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        store = tmp_path / "store"
        assert main(["jump", "--config", cfg, "--budget", "6,6,5", "--store", str(store)]) == 0
        path = next(store.glob("*.jsonl"))
        data = json.loads(path.read_text().splitlines()[0])
        data["surface"]["f"][0] = str(10**400)
        with path.open("a") as fh:
            fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        env = child_env()
        done = subprocess.run([sys.executable, "-m", "rankjump.cli", "verify", "--store", str(store)],
                              capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == 4, done.stderr
        failed = [line for line in done.stdout.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and ":6: FAIL: corrupt record: stored field 'f'" in failed[0]
        assert "above" in failed[0] and "Traceback" not in done.stderr
        capsys.readouterr()
        assert main(["census", "--config", cfg, "--height", "32", "--store", str(store)]) == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines() if l[:1].isspace()]
        assert rows[-1][0] == "32" and rows[-1][3] == "5"

    def test_fibre_without_small_point(self, tmp_path, capsys):
        """The fibre x0 = -8/5 of this surface has no point the small-t
        sweep finds; jump once ended there in a RuntimeError."""
        cfg = self._write(tmp_path, "km-sweep-miss.cfg", KM_SWEEP_MISS_CFG)
        assert main(["jump", "--config", cfg, "--rank", "1", "--budget", "8,2,100"]) in (0, 3)
        assert "# search:" in capsys.readouterr().err

    def test_jump_through_lagrange_descent(self, tmp_path, capsys, monkeypatch):
        """jump --rank 1 takes the base point of the fibre x0 = 4/3 from
        ConicFibre._descend, counted by wrapping it; the certificates it
        carries pass re-verification and verify. The stream is not pinned,
        as a smaller descent point would change it."""
        calls, descend = [], ConicFibre._descend

        def counted(fibre):
            calls.append(fibre.x0)
            return descend(fibre)

        monkeypatch.setattr(ConicFibre, "_descend", counted)
        cfg = self._write(tmp_path, "km-descent.cfg", KM_DESCENT_CFG)
        store = str(tmp_path / "store")
        code = main(["jump", "--config", cfg, "--rank", "1", "--budget", "4,4,100",
                     "--store", store])
        captured = capsys.readouterr()
        assert code in (0, 3)
        assert Fraction(4, 3) in calls
        provenance = [json.loads(line)["provenance"] for line in captured.out.splitlines()]
        assert ["4/3"] in provenance
        assert "# re-verification failed" not in captured.err
        assert main(["verify", "--store", store]) == 0
        results = capsys.readouterr().out.splitlines()
        assert results[-1] == f"# verified {len(provenance)} records, 0 failures"
        assert all(line.endswith(": ok") for line in results[:-1])

    def test_bad_budget_exit_2(self, tmp_path):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        assert main(["jump", "--config", cfg, "--budget", "0,0"]) == 2

    @pytest.mark.parametrize("budget", ["0,4,4", "4,4,0"])
    def test_nonpositive_budget_part_exit_2(self, tmp_path, capsys, budget):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        assert main(["jump", "--config", cfg, "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: bad budget {budget!r}; "
                                "expected three positive integers 'x0,param,count'\n")

    @pytest.mark.parametrize("cover, reason", [
        ("3\n", "covers must be nonconstant"),
        ("0, 1\n1, 2, 1\n", "cover polynomial t^2 + 2*t + 1 is not squarefree"),
    ], ids=["constant", "repeated-root"])
    def test_bad_cover_file_exit_2(self, tmp_path, capsys, cover, reason):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        covers = self._write(tmp_path, "covers.txt", cover)
        assert main(["jump", "--config", cfg, "--budget", "4,4,2", "--avoid", covers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad cover file: {reason}\n"

    @pytest.mark.parametrize("height", ["0", "-3"])
    def test_census_nonpositive_height_exit_2(self, tmp_path, capsys, height):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        assert main(["census", "--config", cfg, "--height", height]) == 2
        captured = capsys.readouterr()
        assert "bad height" in captured.err and captured.out == ""

    def test_verify_missing_store_exit_2(self, tmp_path, capsys):
        assert main(["verify", "--store", str(tmp_path / "no-such-store")]) == 2
        assert "no store directory" in capsys.readouterr().err
        assert main(["verify", "--store", str(tmp_path)]) == 0
        assert "no records under" in capsys.readouterr().out

    def test_census_missing_store_exit_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "m.cfg", MORDELL_CFG)
        argv = ["census", "--config", cfg, "--height", "2", "--store"]
        assert main([*argv, str(tmp_path / "no-such-store")]) == 2
        captured = capsys.readouterr()
        assert "no store directory" in captured.err and captured.out == ""
        assert main([*argv, str(tmp_path)]) == 0
        # the rationals of height <= 2 are 0, +-1, +-2 and +-1/2, none stored
        assert capsys.readouterr().out.splitlines()[-2].split() == ["2", "7", "7", "0"]
