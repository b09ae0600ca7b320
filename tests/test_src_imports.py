"""Every module-level import in src/ is used, and none reaches outside the
standard library and the package: a bare install runs the simulator, and a
name moved between modules leaves no stale import behind. Every function,
method and class in src/ is called from src/, perfbench/ or scripts/, so
src/ holds no code that only the tests run. No linter runs here, so this
reads the modules with `ast` alone."""
from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "edgestream"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py"))]


def _imports(tree: ast.Module):
    """(statement, alias) for each import at the module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield node, alias


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read_exported_or_marked(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exported(tree)
    unused = []
    for node, alias in _imports(tree):
        name = alias.asname or alias.name.split(".")[0]
        if name in read or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
            continue
        unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stay_in_the_package_and_the_standard_library(path):
    for node, alias in _imports(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                continue
            top = node.module.split(".")[0]
        else:
            top = alias.name.split(".")[0]
        assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {top}"


def _referenced(tree: ast.Module):
    """Every name read, attribute taken and word in a string constant, so
    that the tracer's "owner"/"attr" targets and METRIC_NAMES count. A string
    standing alone as a statement, such as a docstring, names without calling."""
    docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            yield from re.findall(r"\w+", node.value)


def test_everything_defined_in_src_is_called_outside_the_tests():
    referenced = {name for path in CALLERS for name in _referenced(ast.parse(path.read_text()))}
    unused = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in referenced):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
