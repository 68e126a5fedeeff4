"""Per-layer self time and call counts for eltsim, measured from outside.

``install`` prepares a wrapper that times the call for every public function
of the eltsim modules listed in ``MODULES`` (plus the methods in
``METHODS``); ``Tracer.enable`` rebinds them and ``Tracer.disable`` puts the
originals back. Every module namespace that holds a reference to an original
function gets the wrapper, so calls through ``from .params import derive``
are seen too. Nothing under ``src/`` changes; the rebinding lives only in
the process that calls ``install``.

A function's self time is its span's duration minus the time covered by the
spans of the traced functions it called. Spans are folded into per-function
totals as they close, so memory stays flat however many calls an operation
makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("params", "closedform", "gaussians", "marking", "intensity", "oracle", "verification", "cli")
METHODS = (("gaussians", "GaussianForm", "evaluate"),)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._open: list[float] = []  # child time covered so far, one entry per open span
        self._bindings: list[tuple[object, str, object, object]] = []  # (owner, name, original, wrapper)

    def wrap(self, name: str, fn):
        self_s, calls, open_spans = self.self_s, self.calls, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                self_s[name] = self_s.get(name, 0.0) + elapsed - children
                calls[name] = calls.get(name, 0) + 1
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def enable(self):
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Totals since the last call, then start afresh."""
        out = (dict(self.self_s), dict(self.calls))
        self.self_s.clear()
        self.calls.clear()
        return out


def install() -> Tracer:
    """A tracer for the public eltsim functions of this process, disabled."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"eltsim.{name}") for name in MODULES}
    wrapped = {}  # id(original) -> wrapper
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in (importlib.import_module("eltsim"), *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                tracer._bindings.append((mod, attr, obj, wrapped[id(obj)]))
    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name)
        original = vars(cls)[method]
        tracer._bindings.append((cls, method, original, tracer.wrap(f"{short}.{cls_name}.{method}", original)))
    return tracer
