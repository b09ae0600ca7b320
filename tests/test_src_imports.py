"""Every module-level import in src/ is used, and none reaches outside the
standard library and the package: a bare install runs the simulator, and a
name moved between modules leaves no stale import behind. No linter runs
here, so this reads the modules with `ast` alone."""
from __future__ import annotations

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "edgestream"
MODULES = sorted(SRC.glob("*.py"))


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
