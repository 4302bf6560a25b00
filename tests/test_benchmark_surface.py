"""The benchmark in czbench/ traces czsim functions by name; each must exist.

czbench/run.py lists them in its TRACED tuple as "module.attr".  The
tracer names a public function or class by its own name, and a public
method of a class by the method's name, so each attr must be one of those
in czsim.<module>.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "czbench" / "run.py"


def _traced_names() -> tuple[str, ...]:
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {RUN_PY}")


def _public_names(module) -> set[str]:
    names = set()
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            names.add(attr)
        elif inspect.isclass(obj):
            names.add(attr)
            names.update(k for k, v in vars(obj).items()
                         if inspect.isfunction(v) and not k.startswith("_"))
    return names


def test_traced_names_exist():
    traced = _traced_names()
    assert traced
    missing = []
    for name in traced:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"czsim.{module_name}")
        if attr not in _public_names(module):
            missing.append(name)
    assert not missing, f"traced by czbench/run.py but not public in czsim: {missing}"
