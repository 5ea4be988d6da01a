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
