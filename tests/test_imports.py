"""Every name a package module imports is used by that module (or exported),
and every function the package defines is used by the package (or exported)."""

import ast
import importlib
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


def unreferenced_definitions(sources, exported, overrides=lambda module, qualname: False):
    """Top-level functions and methods that no other line of the sources names.

    sources maps module names to their text.  A definition counts as used
    when any Name or Attribute node in any module carries its name; dunder
    methods, names in ``exported`` and methods for which ``overrides`` is
    true (a base class calls them) are used by definition.
    """
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((module, node.name))
            elif isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, f"{node.name}.{sub.name}")
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(
        f"{module}.{qualname}"
        for module, qualname in defined
        if (name := qualname.rpartition(".")[2]) not in named
        and not (name.startswith("__") and name.endswith("__"))
        and qualname not in exported
        and not overrides(module, qualname)
    )


def _overrides(module, qualname):
    cls_name, _, name = qualname.rpartition(".")
    if not cls_name:
        return False
    cls = getattr(importlib.import_module(f"repapprox.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:])


def test_unreferenced_checker():
    sources = {
        "a": "def used(): pass\ndef spare(): pass\nclass K:\n    def m(self): pass\n"
             "    def __eq__(self, o): pass\n",
        "b": "from .a import used\nused()\n",
    }
    assert unreferenced_definitions(sources, ()) == ["a.K.m", "a.spare"]
    assert unreferenced_definitions(sources, ("spare", "K.m")) == []


def test_no_test_only_code_in_the_package():
    # A function only the tests call belongs in the tests (tests/dense.py
    # holds the oracles); public API is what repapprox.__all__ lists.
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_definitions(sources, repapprox.__all__, _overrides) == []
