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


WORKLOADS_PY = RUN_PY.parent / "workloads.py"
REFERENCE_PY = RUN_PY.parent / "reference.py"


def _chain(node):
    """(root name, attrs) of an attribute chain such as a.b.c, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and attrs:
        return node.id, attrs[::-1]
    return None


def _missing_chains(path: Path, roots: dict) -> list[str]:
    """Attribute chains in a file, rooted at a name in roots, that do not resolve.

    roots maps a name to the czsim object it stands for.  Inside a function,
    a local assigned from a resolvable chain (c = spec.couplings), or
    iterating over one (for m in spec.modes), stands for what the chain
    gives (its first element when iterated).  Each chain is checked in full:
    a.b.c through getattr of b and then c.
    """
    missing = []

    def resolve(node, scope):
        chain = _chain(node)
        if chain is None or chain[0] not in scope:
            return None
        obj = scope[chain[0]]
        for i, attr in enumerate(chain[1]):
            if not hasattr(obj, attr):
                missing.append(".".join([chain[0], *chain[1][:i + 1]]) + f" ({path.name})")
                return None
            obj = getattr(obj, attr)
        return obj

    tree = ast.parse(path.read_text())
    for owner in ast.walk(tree):
        if not isinstance(owner, (ast.Module, ast.FunctionDef)):
            continue
        scope = dict(roots)
        if isinstance(owner, ast.FunctionDef):
            for node in ast.walk(owner):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    target, source, iterated = node.targets[0].id, node.value, False
                elif isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name):
                    target, source, iterated = node.target.id, node.iter, True
                else:
                    continue
                obj = resolve(source, scope)
                if obj is not None:
                    scope[target] = next(iter(obj)) if iterated else obj
        for node in ast.walk(owner):
            if isinstance(node, ast.Attribute):
                resolve(node, scope)
    return sorted(set(missing))


def test_benchmark_attribute_chains_exist(gate_context, run_config):
    """Every czsim attribute czbench's workloads and reference read or patch.

    workloads.py reaches czsim through its imported modules (cli._context,
    calibration.GateContext.report, benchmarking.GATE_NAMES, ...);
    reference.py reads the fields of a DeviceSpec (spec) and of a
    ControlSchedule (schedule) without importing czsim.
    """
    from czsim import benchmarking, calibration, cli, config

    modules = {"benchmarking": benchmarking, "calibration": calibration, "cli": cli,
               "config": config}
    schedule = gate_context.build_schedule(run_config.pulse)
    missing = (_missing_chains(WORKLOADS_PY, modules)
               + _missing_chains(REFERENCE_PY, {"spec": run_config.device,
                                                "schedule": schedule}))
    assert not missing, f"read or patched by czbench but missing in czsim: {missing}"
