import json
from fractions import Fraction
from pathlib import Path

import pytest

from rankjump.cli import main
from rankjump.config import (
    ConfigError,
    build_surface,
    parse_cover_file,
    parse_surface_config,
    surface_config_from_dict,
)
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
        assert surface_config_from_dict(cfg.as_dict()).polys == cfg.polys

    def test_cover_file(self):
        covers = parse_cover_file("0, 1  # t\n-5, 1\n")
        assert len(covers) == 2 and covers[1](5) == 0


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

    def test_verify_good_store(self, tmp_path):
        records, cfg = self._records()
        append_records(tmp_path, cfg.label, records)
        reports = verify_store(tmp_path)
        assert len(reports) == 1 and reports[0].failures == 0

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
        report = verify_store(tmp_path)[0]
        outcomes = dict((lineno, (ok, reasons)) for lineno, ok, reasons in report.results)
        assert not outcomes[1][0] and any("off the curve" in r for r in outcomes[1][1])
        assert not outcomes[2][0]
        assert not outcomes[len(lines)][0]  # corrupt line reported, not fatal
        assert report.failures == 3


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

    def test_bad_budget_exit_2(self, tmp_path):
        cfg = self._write(tmp_path, "s.cfg", TWIST_CFG)
        assert main(["jump", "--config", cfg, "--budget", "0,0"]) == 2
