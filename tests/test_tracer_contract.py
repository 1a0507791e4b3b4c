"""The names the benchmark's layer tracer patches still exist in rankjump,
and the benchmark's workloads call them.

perfbench/layertrace.py wraps functions and methods by name from outside the
program. A rename there would only show up in a traced benchmark run; this
test makes it fail here instead. A name that exists but that no workload
calls reads 0 in every per-layer metric, so the last test runs the four
seed-0 workloads and requires a call of every wrapped name but the few it
lists with a reason. The tracer file is read, not changed.
"""

import functools
import gzip
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_contract", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _layertrace()


def _resolve(module: str, path: str):
    """The object the tracer wraps: a module attribute, or a method looked up
    in its class's own namespace, as Tracer._patch does."""
    mod = importlib.import_module(f"rankjump.{module}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        assert attr in owner.__dict__, f"{module}.{path} is not defined on {owner_name}"
        return owner.__dict__[attr]
    assert hasattr(mod, attr), f"rankjump.{module} has no {attr}"
    return getattr(mod, attr)


@pytest.mark.parametrize("module,path", TRACER.SPANS + TRACER.COUNTERS)
def test_wrapped_name_is_a_function(module, path):
    assert inspect.isfunction(_resolve(module, path))


@pytest.mark.parametrize("module,path,span", TRACER.GENERATORS)
def test_generator_name_is_a_generator_function(module, path, span):
    assert inspect.isgeneratorfunction(_resolve(module, path))


#: wrapped names that no workload calls, with the reason; ROADMAP item 3
#: deletes the first two once the tracer stops wrapping them
UNREACHED = {
    ("jumps", "avoid_covers"): "jump1 and jump2 take avoid= themselves; only tests call it",
    ("conics", "branch_locus"): "jump2 compares the fibres' kernels; only tests call it",
    ("store", "record_from_json"): "the CLI reads stores by _read_lines and _record",
}


def _count_calls(monkeypatch, calls: Counter, module: str, path: str):
    """Wrap the named object where the tracer would, counting its calls: a
    method on its class, a function in every rankjump module bound to it."""
    owner_name, _, attr = path.rpartition(".")
    original = _resolve(module, path)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls[module, path] += 1
        return original(*args, **kwargs)

    if owner_name:
        monkeypatch.setattr(getattr(importlib.import_module(f"rankjump.{module}"), owner_name),
                            attr, counted)
        return
    for name, mod in list(sys.modules.items()):
        if name == "rankjump" or name.startswith("rankjump."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)


def test_workloads_call_every_wrapped_name(tmp_path, capsys, monkeypatch):
    """One cycle of each workload, built as tests/test_benchmark_stream.py
    builds them. The tracer's span jumps.search merges jump1, jump2 and
    avoid_covers, so each name is counted here by its own wrapper; cli.main
    is called through its module, where its wrapper sits."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    names = [(module, path) for module, path, *_ in
             TRACER.SPANS + TRACER.GENERATORS + TRACER.COUNTERS]
    calls = Counter()
    for module, path in names:
        _count_calls(monkeypatch, calls, module, path)
    fixture = tmp_path / "fixture"  # one directory per store file, as run.py lays it out
    for gz in sorted((PERFBENCH / "fixture").glob("*.jsonl.gz")):
        store = fixture / Path(gz.stem).stem
        store.mkdir(parents=True)
        (store / gz.stem).write_bytes(gzip.decompress(gz.read_bytes()))
    inputs = gen.write_inputs(0, tmp_path / "inputs")
    cli = importlib.import_module("rankjump.cli")
    for workload in run.WORKLOADS:
        for i, cmd in enumerate(run.commands_for(workload, inputs, fixture)):
            store = str(tmp_path / f"store-{workload}-{i}")
            assert cli.main([a.replace("{store}", store) for a in cmd["argv"]]) == 0
    capsys.readouterr()
    assert sorted(name for name in names if not calls[name]) == sorted(UNREACHED), calls
