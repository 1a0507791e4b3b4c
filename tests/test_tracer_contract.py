"""The names the benchmark's layer tracer patches still exist in rankjump.

perfbench/layertrace.py wraps functions and methods by name from outside the
program. A rename there would only show up in a traced benchmark run; this
test makes it fail here instead. The tracer file is read, not changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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
