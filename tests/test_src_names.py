"""Every function, method and class defined in src/rankjump has a use.

A definition passes when src/ refers to it outside the definition itself
and outside every definition found unused, when perfbench/layertrace.py
wraps it (the tracer file is read, as in test_tracer_contract.py), when it
is a dunder, or when ALLOWED names it with a reason. A method is referred
to as an attribute, anything else as a name or an attribute; imports do
not count. Names are matched as text, so the scan errs only towards
leniency: another object's attribute of the same name counts as a use.
"""

import ast
from collections import Counter
from pathlib import Path

from test_tracer_contract import TRACER

SRC = Path(__file__).resolve().parents[1] / "src" / "rankjump"

#: (module, qualified name) -> why it stays without a caller in src/
ALLOWED = {}

TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _definitions(tree, prefix="", in_class=False):
    """(qualified name, node, is a method) of every def and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node, in_class
            yield from _definitions(node, prefix + node.name + ".",
                                    isinstance(node, ast.ClassDef))
        else:
            yield from _definitions(node, prefix, in_class)


def _refs(node, skip) -> Counter:
    """Names as 'x' and attributes as '.x' under node, outside the nodes in skip."""
    out, stack = Counter(), [node]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out["." + node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return out


def _unused() -> list[str]:
    """Definitions with no use, to a fixed point: a definition used only
    inside unused ones is unused too."""
    wrapped = {(module, path) for module, path, *_ in
               TRACER.SPANS + TRACER.GENERATORS + TRACER.COUNTERS}
    candidates = [(f"{module}.{qualname}", node, method)
                  for module, tree in TREES.items()
                  for qualname, node, method in _definitions(tree)
                  if not (node.name.startswith("__") and node.name.endswith("__"))
                  and (module, qualname) not in wrapped]
    dead: dict[int, str] = {}
    while True:
        uses = sum((_refs(tree, dead) for tree in TREES.values()), Counter())
        new = {}
        for name, node, method in candidates:
            if id(node) not in dead:
                outside = uses - _refs(node, dead)
                if not outside["." + node.name] and (method or not outside[node.name]):
                    new[id(node)] = name
        if not new:
            return sorted(dead.values())
        dead.update(new)


def test_every_definition_in_src_has_a_use():
    # an ALLOWED name that gains a caller leaves the list, too
    unused = _unused()
    assert unused == sorted(f"{module}.{qualname}" for module, qualname in ALLOWED), unused
