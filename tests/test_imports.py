"""Every name a package module imports is used by that module (or exported)."""

import ast
from pathlib import Path

import pytest

import repapprox

MODULES = sorted(Path(repapprox.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Imported names that no Name node reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_sees_unused_and_exported_names():
    source = "import os, sys\nfrom .x import a, b as c\n__all__ = ['a']\nprint(sys)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
