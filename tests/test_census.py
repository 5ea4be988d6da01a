"""A census of the package's own settable values and functions.

A parameter with a default that no call ever passes is a setting nobody uses,
and a function nothing names is dead code. Calls are matched to definitions by
name only (``f(...)`` and ``x.f(...)`` both count as calls of every ``f``), and
a class name stands for its ``__init__``: the census errs toward counting a
parameter as passed.
"""

import ast
import functools
from pathlib import Path

import plaplab

PACKAGE = Path(plaplab.__file__).parent
TESTS = Path(__file__).parent


@functools.cache
def _trees(*directories):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for directory in directories for path in sorted(directory.glob("*.py"))]


def _definitions():
    """(name called, function, whether its first parameter is self or cls) per
    function at module or class level in the package."""
    for tree in _trees(PACKAGE):
        for owner in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
            for fn in owner.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                method = isinstance(owner, ast.ClassDef) and not static
                called = owner.name if method and fn.name == "__init__" else fn.name
                yield called, fn, method


def _defaulted(fn, method):
    """(name, positional index or None for keyword-only) of each parameter with a default."""
    positional = (fn.args.posonlyargs + fn.args.args)[int(method):]
    first = len(positional) - len(fn.args.defaults)
    params = [(arg.arg, first + k) for k, arg in enumerate(positional[first:])]
    params += [(arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if default is not None]
    return params


def _passes(call, name, index):
    if any(k.arg in (name, None) for k in call.keywords):  # None: a ** splat
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return index is not None and (starred or len(call.args) > index)


def test_every_default_parameter_is_passed_somewhere():
    calls = {}
    for tree in _trees(PACKAGE, TESTS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [
        f"{called}({name})"
        for called, fn, method in _definitions()
        for name, index in _defaulted(fn, method)
        if not any(_passes(call, name, index) for call in calls.get(called, []))
    ]
    assert not unpassed, "defaults no call overrides: " + ", ".join(unpassed)


def test_every_function_is_referenced_somewhere():
    names = set()
    for tree in _trees(PACKAGE, TESTS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    unreferenced = [fn.name for _, fn, _ in _definitions()
                    if not fn.name.startswith("__") and fn.name not in names]
    assert not unreferenced, "functions nothing names: " + ", ".join(unreferenced)


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _fields_and_properties():
    """(class name, attribute) of each dataclass field and each property or
    cached property defined in the package."""
    for tree in _trees(PACKAGE):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and _is_dataclass(cls):
                    yield cls.name, item.target.id
                elif isinstance(item, ast.FunctionDef) and any(
                    getattr(d, "id", None) in ("property", "cached_property")
                    for d in item.decorator_list
                ):
                    yield cls.name, item.name


def test_every_field_and_property_is_read_somewhere():
    # ScenarioConfig's fields are read by name, through the KEYS table
    read = {node.attr for tree in _trees(PACKAGE, TESTS) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{owner}.{name}" for owner, name in _fields_and_properties()
              if name not in read and owner != "ScenarioConfig"]
    assert not unread, "fields and properties nothing reads: " + ", ".join(unread)


def _module_bindings(tree):
    """Names a module binds at its top level: assignments, definitions, imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_module_level_name_is_read_somewhere():
    read = set()
    for tree in _trees(PACKAGE, TESTS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = sorted({name for tree in _trees(PACKAGE) for name in _module_bindings(tree)
                     if name not in read and not name.startswith("__")})
    assert not unread, "module-level names nothing reads: " + ", ".join(unread)
