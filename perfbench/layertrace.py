"""Layer tracing done from outside the program.

Each traced function is replaced by a wrapper in every rankjump module that
holds a reference to it, because `from .x import f` binds a second name that
patching the defining module alone would miss. Methods are patched on their
class. Spans (id, parent id, name, start, end) are held in memory and
written out when the run ends; generators get one span per next(). The hot
leaves are counted, not timed.

`layer_metrics` turns the written spans and counters into the per-layer
metrics: call counts, self time (span time minus child spans), outcome
counts and ratios, all per traced cycle.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute path): timed with one span per call
SPANS = (
    ("cli", "main"),
    ("config", "build_surface"),
    ("store", "CertificateRecord.reverified"),
    ("store", "CertificateRecord.to_json"),
    ("store", "append_records"),
    ("store", "record_from_json"),
    ("store", "verify_store"),
    ("jumps", "rank_bound_data"),
    ("jumps", "verify_certificate"),
    ("jumps", "field_census"),
    ("conics", "conic_fibre"),
    ("conics", "conic_solvable"),
    ("conics", "branch_locus"),
    ("conics", "ConicFibre.base_point"),
    ("curves", "specialize"),
    ("curves", "EllipticCurveQ.torsion_order"),
    ("curves", "canonical_height"),
    ("curves", "regulator"),
    ("surfaces", "KMFamily.short_AB"),
    ("surfaces", "classify_fibres"),
    ("polynomial", "factor_rational"),
    ("arith", "ternary_obstruction"),
)
# (module, attribute path, span name): generators, one span per next()
GENERATORS = (
    ("conics", "parametrize_heights", "conics.parametrize_heights"),
    ("conics", "parametrize", "conics.parametrize"),
    ("jumps", "jump1", "jumps.search"),
    ("jumps", "jump2", "jumps.search"),
    ("jumps", "avoid_covers", "jumps.search"),
)
# (module, attribute path): hot leaves, counted only
COUNTERS = (
    ("curves", "EllipticCurveQ.add"),
    ("curves", "EllipticCurveQ.is_on"),
    ("curves", "neron_tate_pairing"),
    ("surfaces", "to_weierstrass"),
    ("kodaira", "kodaira_type"),
    ("arith", "is_square"),
    ("config", "parse_surface_config"),
)


def _store_bytes(store_dir) -> int:
    return sum(p.stat().st_size for p in Path(store_dir).glob("*.jsonl"))


def _file_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class Tracer:
    """Installs and removes the wrappers; owns the spans and counters."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, parent, name, start, end)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._names: list[str] = []         # span name by id
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> tuple[int, int, float]:
        sid = len(self._names)
        self._names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, sid: int, parent: int, name: str, start: float):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def parent_name(self) -> str | None:
        return self._names[self._stack[-1]] if self._stack else None

    def span(self, name: str, fn, outcome=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            if name == "curves.specialize" and self.parent_name() == "jumps.search":
                self.count("jumps.search.specialize")
            sid, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if outcome is not None:
                key = outcome(result)
                if key is not None:
                    self.count(f"{name}.{key}")
            return result

        return wrapper

    def generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            top = name == "jumps.search" and self.parent_name() != "jumps.search"
            gen = fn(*args, **kwargs)
            while True:
                sid, parent, start = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid, parent, name, start)
                self.count(name + ".next")
                if top:
                    self.count("jumps.search.certificates")
                yield item

        return wrapper

    def counter(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, module: str, path: str, make):
        mod = importlib.import_module(f"rankjump.{module}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        # every use site: each rankjump module that bound the same object
        for name, m in list(sys.modules.items()):
            if name == "rankjump" or name.startswith("rankjump."):
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)

    def install(self):
        outcomes = {
            "curves.EllipticCurveQ.torsion_order": lambda r: "hits" if r is not None else None,
            "curves.regulator": lambda r: r.verdict,
            "conics.conic_solvable": lambda r: "solvable" if r else None,
        }
        for module, path in SPANS:
            name = f"{module}.{path}"
            self._patch(module, path,
                        lambda fn, n=name: self.span(n, fn, outcomes.get(n)))
        for module, path, name in GENERATORS:
            self._patch(module, path, lambda fn, n=name: self.generator(n, fn))
        for module, path in COUNTERS:
            self._patch(module, path, lambda fn, n=f"{module}.{path}": self.counter(n, fn))
        self._patch_store_bytes()

    def _patch_store_bytes(self):
        """Count store bytes around the store functions. Installed after the
        spans, so the stat calls stay outside the timed layer."""
        store = importlib.import_module("rankjump.store")

        def reads(of):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    self.count("store.bytes_read", of(*args))
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def writes(fn):
            @functools.wraps(fn)
            def wrapper(store_dir, label, records):
                path = store.store_file(store_dir, label)
                before = _file_bytes(path)
                try:
                    return fn(store_dir, label, records)
                finally:
                    self.count("store.bytes_written", _file_bytes(path) - before)
            return wrapper

        self._patch("store", "stored_t0",
                    reads(lambda d, label: _file_bytes(store.store_file(d, label))))
        self._patch("store", "verify_store", reads(_store_bytes))
        self._patch("store", "append_records", writes)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path):
        """Write spans and counters as one JSON document."""
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}),
                        encoding="utf-8")


# ---------------------------------------------------------------------------
# per-layer metrics from a dump

def _timed(name: str, calls: str | None = "calls") -> list[tuple[str, str]]:
    return ([(f"{name}.{calls}", "count")] if calls else []) + [(f"{name}.self_s", "s")]


#: (metric name, unit) of every per-layer metric, by layer. Counts, bytes
#: and self times are per traced cycle.
PER_LAYER = (
    _timed("cli.main", None)
    + _timed("config.build_surface")
    + [("config.parse_surface_config.calls", "count")]
    + _timed("store.CertificateRecord.reverified")
    + _timed("store.CertificateRecord.to_json")
    + _timed("store.append_records", None)
    + _timed("store.record_from_json")
    + _timed("store.verify_store", None)
    + [("store.bytes_read", "B"), ("store.bytes_written", "B")]
    + _timed("jumps.search", None)
    + [("jumps.certs_per_specialize", "ratio")]
    + _timed("jumps.rank_bound_data")
    + _timed("jumps.verify_certificate")
    + _timed("jumps.field_census", None)
    + _timed("conics.conic_fibre")
    + _timed("conics.conic_solvable")
    + [("conics.solvable_ratio", "ratio")]
    + _timed("conics.branch_locus")
    + _timed("conics.ConicFibre.base_point")
    + _timed("conics.parametrize_heights", "next")
    + _timed("conics.parametrize", "next")
    + _timed("curves.specialize")
    + _timed("curves.EllipticCurveQ.torsion_order")
    + [("curves.torsion_hit_ratio", "ratio"),
       ("curves.EllipticCurveQ.add.calls", "count"),
       ("curves.EllipticCurveQ.is_on.calls", "count")]
    + _timed("curves.canonical_height")
    + [("curves.neron_tate_pairing.calls", "count")]
    + _timed("curves.regulator")
    + [("curves.regulator.independent", "count"),
       ("curves.regulator.dependent", "count"),
       ("curves.regulator.inconclusive", "count"),
       ("curves.regulator.useful_ratio", "ratio")]
    + _timed("surfaces.KMFamily.short_AB")
    + _timed("surfaces.classify_fibres")
    + [("surfaces.to_weierstrass.calls", "count"), ("kodaira.kodaira_type.calls", "count")]
    + _timed("polynomial.factor_rational")
    + _timed("arith.ternary_obstruction")
    + [("arith.is_square.calls", "count"),
       ("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict, traced_walls: list[float]) -> dict:
    """Per-layer metrics per traced cycle, from one worker's trace dump and
    the wall time of each traced cycle; all but trace.overhead."""
    spans = dump["spans"]
    counts = dump["counts"]
    cycles = len(traced_walls)
    duration = {}
    child = {}
    for sid, parent, name, start, end in spans:
        duration[sid] = (name, end - start)
        child[parent] = child.get(parent, 0.0) + (end - start)
    self_s: dict[str, float] = {}
    for sid, (name, dur) in duration.items():
        self_s[name] = self_s.get(name, 0.0) + dur - child.get(sid, 0.0)
    values = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0) / cycles
        elif unit == "count" or unit == "B":
            values[name] = counts.get(name, 0) / cycles
    torsion = "curves.EllipticCurveQ.torsion_order"
    values["curves.torsion_hit_ratio"] = _ratio(counts.get(f"{torsion}.hits", 0),
                                                counts.get(f"{torsion}.calls", 0))
    reg_calls = counts.get("curves.regulator.calls", 0)
    values["curves.regulator.useful_ratio"] = _ratio(
        counts.get("curves.regulator.independent", 0), reg_calls)
    values["conics.solvable_ratio"] = _ratio(counts.get("conics.conic_solvable.solvable", 0),
                                             counts.get("conics.conic_solvable.calls", 0))
    values["jumps.certs_per_specialize"] = _ratio(counts.get("jumps.search.certificates", 0),
                                                  counts.get("jumps.search.specialize", 0))
    # wall time not inside any layer span: the CLI's own self time is uncovered
    uncovered = sum(traced_walls) - sum(
        dur for sid, (name, dur) in duration.items() if name == "cli.main")
    uncovered += self_s.get("cli.main", 0.0)
    values["trace.coverage"] = 1.0 - uncovered / sum(traced_walls)
    return values
