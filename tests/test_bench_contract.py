"""The names perfbench/ reaches into still exist where it looks for them.

perfbench/ imports the package and patches some of its functions and
methods by name, so renaming or deleting one of them breaks the benchmark
without failing any other test.  These checks read the perfbench sources
(tracing.py as data, workloads.py and kernels.py as syntax trees) and import
nothing from perfbench/.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def test_every_traced_name_is_where_the_tracer_looks():
    tree = _tree("tracing.py")
    counters, spans = _literal(tree, "COUNTERS"), _literal(tree, "SPANS")
    # functions patched by module attribute: the counters without a class,
    # the spans, and every literal _patch_function(module, attr, ...) call
    functions = [(module, attrs[0])
                 for _, module, cls, attrs in counters if cls is None]
    functions += [(module, attr) for _, module, attr in spans]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_patch_function"
                and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            functions.append((node.args[0].value, node.args[1].value))
    assert ("etale_forge.reproduce", "_item") in functions
    for module, attr in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
    # methods are read with vars(cls)[attr], so each must be defined on the
    # class itself, not inherited
    for _, module, cls, attrs in counters:
        if cls is not None:
            owner = getattr(importlib.import_module(module), cls)
            for attr in attrs:
                assert attr in vars(owner), f"{module}.{cls}.{attr}"


def _imported(tree: ast.Module) -> dict[str, object]:
    """Every name bound by a `from etale_forge... import` in the tree, with
    the object it resolves to now."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("etale_forge")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    obj = getattr(module, alias.name)
                else:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = obj
    return names


@pytest.mark.parametrize("source", ["workloads.py", "kernels.py"])
def test_every_package_import_of_perfbench_resolves(source):
    tree = _tree(source)
    names = _imported(tree)
    assert names, f"perfbench/{source} imports nothing from etale_forge"
    for node in ast.walk(tree):
        # attributes read off an imported module or class, e.g. Poly.constant
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in names):
            assert hasattr(names[node.value.id], node.attr), \
                f"{node.value.id}.{node.attr} in perfbench/{source}"
        # keyword arguments passed to an imported function, e.g. seed=
        if isinstance(node, ast.Call) and node.keywords:
            func = node.func
            if isinstance(func, ast.Name) and func.id in names:
                target = names[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in names):
                target = getattr(names[func.value.id], func.attr)
            else:
                continue
            params = inspect.signature(target).parameters
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, \
                    f"{ast.unparse(func)}({kw.arg}=...) in perfbench/{source}"
