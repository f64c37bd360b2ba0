"""Every name a package module imports is used by that module (or exported),
and every function the package defines is used by the package itself."""

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

    sources maps module names to their text.  A top-level function counts as
    used when any Name or Attribute node in any module carries its name; a
    method or property only when an Attribute node does, since a local
    variable of the same name reads none of it.  Dunder methods, names in
    ``exported`` and methods for which ``overrides`` is true (a base class
    calls them) are used by definition.
    """
    defined, named, attributes = [], set(), set()
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
                attributes.add(node.attr)
    return sorted(
        f"{module}.{qualname}"
        for module, qualname in defined
        if (name := qualname.rpartition(".")[2]) not in attributes
        and ("." in qualname or name not in named)
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
    # A local variable named like a method reads no attribute of it.
    sources["b"] += "m = 1\nprint(m)\n"
    assert unreferenced_definitions(sources, ()) == ["a.K.m", "a.spare"]
    sources["b"] += "print(K().m())\n"
    assert unreferenced_definitions(sources, ()) == ["a.spare"]


# Read by no package module, only by the tests and by perfbench:
# constant_ratio_check, which perfbench traces by name, and
# MatrixPower.entries, which perfbench's _out_bits reads.  Each moves or
# goes with the benchmark-only change (ROADMAP, Do first), and so does the
# dataclass constant_ratio_check returns.
_TRACED_TEST_ONLY = {"constant_ratio_check", "MatrixPower.entries"}
_TRACED_TEST_ONLY_CLASSES = {"ConstantRatioFamily"}


def test_no_test_only_code_in_the_package():
    # A function only the tests call belongs in the tests (tests/dense.py
    # holds the oracles), exported or not.
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_definitions(sources, _TRACED_TEST_ONLY, _overrides) == []


def _defs(tree):
    """(qualname, def node, is_method) for every def in a module, nested ones too."""
    out = []

    def visit(node, prefix, in_class):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + sub.name, sub, in_class))
                visit(sub, f"{prefix}{sub.name}.", False)
            elif isinstance(sub, ast.ClassDef):
                visit(sub, f"{prefix}{sub.name}.", True)
            else:
                visit(sub, prefix, in_class)

    visit(tree, "", False)
    return out


def _passes(call, position, name):
    """Whether a call sets the parameter at `position` (self not counted) or named `name`."""
    return (
        any(kw.arg in (name, None) for kw in call.keywords)
        or position is not None and position < len(call.args)
        or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def _calls_by_name(sources):
    """Every Call node in the sources, by the name called: f for f(...) and for o.f(...)."""
    calls = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def idle_parameters(defined, callers):
    """Parameters of the defs in `defined` that no call sets or that the body never reads.

    defined and callers map module names to source texts.  A parameter
    with a default is idle unless some call in `callers` naming its
    function (as ``f(...)`` or ``obj.f(...)``; ``__init__`` by its class)
    passes it, by keyword or by position; a ``*args`` or ``**kwargs`` at
    the call counts as passing.  Any parameter is idle if its body reads
    no Name of it.  Lambdas and the first parameter of a method are exempt.
    """
    calls = _calls_by_name(callers)
    idle = set()
    for source in defined.values():
        for qualname, node, is_method in _defs(ast.parse(source)):
            a = node.args
            positional = a.posonlyargs + a.args
            params = positional + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            skip = 1 if is_method and positional else 0
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            idle.update(f"{qualname}.{p.arg}" for p in params[skip:] if p.arg not in read)
            parts = qualname.split(".")
            callee = parts[-2] if parts[-1] == "__init__" and len(parts) > 1 else parts[-1]
            defaulted = [(i - skip, p) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for position, p in defaulted:
                if not any(_passes(c, position, p.arg) for c in calls.get(callee, ())):
                    idle.add(f"{qualname}.{p.arg}")
    return sorted(idle)


def test_idle_parameter_checker():
    defined = {
        "a": "def f(x, y=1, z=2):\n    return x + y + z\n"
             "def g(x, unused):\n    return x\n"
             "class K:\n    def __init__(self, v=0):\n        self.v = v\n"
             "    def m(self, w=None):\n        return w\n"
             "h = lambda ignored: 0\n",
    }
    callers = {"b": "f(1, z=3)\nK()\nK.m(None, w=1)\n"}
    assert idle_parameters(defined, callers) == ["K.__init__.v", "f.y", "g.unused"]
    callers["b"] += "f(1, 2)\nK(v=1)\n"
    assert idle_parameters(defined, callers) == ["g.unused"]


def test_every_parameter_has_a_caller_and_a_reader():
    # A default that no call in the package overrides is a configuration no
    # input reaches (a test wanting another value patches the module
    # constant instead), and a parameter the body never reads is an option
    # accepted but ignored.
    defined = {path.stem: path.read_text() for path in MODULES}
    assert idle_parameters(defined, defined) == []


def _is_dataclass(decorator):
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(func, ast.Name) and func.id == "dataclass"


def idle_fields(defined, readers, constructors, exempt=()):
    """Dataclass fields of `defined` that nothing reads, or whose default nothing uses.

    Each argument maps module names to source texts.  A field is idle when
    no Attribute load in `readers` carries its name; a load from the name
    ``args``, the CLI's argparse namespace, reads no field.  Its default is idle
    (reported as "Class.field default") when every construction in
    `constructors`, a call naming the class as ``K(...)`` or ``mod.K(...)``,
    passes the field by keyword or by position.  Classes in `exempt` are
    skipped.
    """
    read = {node.attr for source in readers.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}
    calls = _calls_by_name(constructors)
    idle = []
    for source in defined.values():
        for cls in ast.parse(source).body:
            if not (isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
                    and cls.name not in exempt):
                continue
            fields = [sub for sub in cls.body
                      if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)]
            for position, sub in enumerate(fields):
                name = sub.target.id
                if name not in read:
                    idle.append(f"{cls.name}.{name}")
                if sub.value is not None and all(
                    _passes(c, position, name) for c in calls.get(cls.name, ())
                ):
                    idle.append(f"{cls.name}.{name} default")
    return sorted(idle)


def test_idle_field_checker():
    defined = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass(frozen=True)\nclass K:\n    a: int\n    b: int = 0\n    c: int = 1\n"
             "@dataclass\nclass J:\n    spare: int\n"
             "class Plain:\n    ignored: int = 0\n",
    }
    readers = {"b": "def f(k):\n    k.b = k.a + k.c\ndef g(args):\n    return args.b + args.spare\n"}
    constructors = {"c": "K(1, c=2)\nK(a=1, b=2, c=3)\n"}
    assert idle_fields(defined, readers, constructors) == ["J.spare", "K.b", "K.c default"]
    assert idle_fields(defined, readers, constructors, exempt=("J",)) == ["K.b", "K.c default"]
    readers["b"] += "print(k.b)\n"
    constructors["c"] += "mod.K(1, 2)\n"
    assert idle_fields(defined, readers, constructors, exempt=("J",)) == []


def test_every_field_has_a_reader_and_a_default_in_use():
    # A field the package never reads is state carried for nothing, and a
    # default every construction overrides is a value no input reaches.
    package = {path.stem: path.read_text() for path in MODULES}
    tests = {path.stem: path.read_text() for path in Path(__file__).parent.glob("*.py")}
    everywhere = {**{f"repapprox.{k}": v for k, v in package.items()}, **tests}
    assert idle_fields(package, package, everywhere, _TRACED_TEST_ONLY_CLASSES) == []


# Traced names the package no longer has: they read 0 until the benchmark
# is retargeted (ROADMAP, the benchmark-only item).
_DEAD_TRACES = {"powers.error_reference", "polynomial.Polynomial.eval"}


def _traced_names():
    """(module, attribute path) of every TARGETS entry in perfbench/tracing.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_name_resolves():
    # perfbench wraps these by name from outside the package; a renamed or
    # deleted one would silently read 0 in every benchmark run.
    names = _traced_names()
    assert len(names) > len(_DEAD_TRACES)
    missing = []
    for module, attr in names:
        owner = importlib.import_module(f"repapprox.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert sorted(set(missing) - _DEAD_TRACES) == []
