"""In-memory span tracing of plaplab's public functions, installed from outside.

``Tracer.install()`` replaces every public plaplab function in the namespace of
every loaded plaplab module that binds it (``plaplab.solve.energy_total`` as
well as ``plaplab.energy.energy_total``), plus the reaction/diffusion methods
and the lazily built grid tables, with a wrapper that records one span: name,
start, end and parent. ``uninstall()`` restores the originals. Spans live in
flat typed arrays (24 bytes each) so a traced pass of ~10^6 calls stays small;
they are written out once, at the end, by ``save``.

Private helpers (the natural-BC shift walk, the CLI's CSV writers) are not
wrapped: their time is self time of the nearest public caller.
"""

import inspect
import sys
from array import array
from functools import cached_property
from time import perf_counter

import numpy as np

WRAPPED_METHODS = {
    "plaplab.model": {
        "DiffusionSpec": ("value", "primitive"),
        "ReactionSpec": ("value", "primitive", "derivative"),
    },
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("cannot clear the tracer inside a traced call")
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]

    def _name_id(self, label: str) -> int:
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def wrap(self, fn, label: str):
        nid = self._name_id(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "plaplab"]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("plaplab"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, f"{obj.__module__}.{obj.__qualname__}")
                self._replace(module, attr, wrappers[obj])
        for module_name, classes in WRAPPED_METHODS.items():
            module = sys.modules[module_name]
            for class_name, methods in classes.items():
                cls = getattr(module, class_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    self._replace(cls, method, self.wrap(fn, f"{module_name}.{fn.__qualname__}"))
        grid_cls = sys.modules["plaplab.grid"].Grid
        for attr, prop in list(vars(grid_cls).items()):
            if isinstance(prop, cached_property) and not attr.startswith("_"):
                label = f"plaplab.grid.{prop.func.__qualname__}"
                traced = cached_property(self.wrap(prop.func, label))
                traced.__set_name__(grid_cls, attr)
                self._replace(grid_cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def table(self) -> "SpanTable":
        return SpanTable(
            list(self.names),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )


class SpanTable:
    """Recorded spans as columns, with per-span duration and self time."""

    def __init__(self, names, name, parent, start, end):
        if len(start) and np.any(end < start):
            raise ValueError("span table holds an unfinished span")
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        # Spans of one thread nest, so the children of a span never overlap and
        # the part of its interval they cover is the sum of their durations.
        has_parent = parent >= 0
        child_cover = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(start)
        )
        self.self_time = self.duration - child_cover

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, *labels: str) -> np.ndarray:
        ids = [self.names.index(label) for label in labels if label in self.names]
        return np.isin(self.name, ids)

    def mask_prefix(self, prefix: str) -> np.ndarray:
        ids = [i for i, label in enumerate(self.names) if label.startswith(prefix)]
        return np.isin(self.name, ids)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
            self_time=self.self_time,
        )
