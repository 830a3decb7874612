"""Outside-in tracing: wrap the public functions of each apksift layer.

The program itself carries no spans. While a ``Tracer`` is installed,
every public module-level function of each layer module is replaced, in
every apksift module namespace that refers to it, by a wrapper that
records one span (name, start, end, parent, run id) in memory. Spans are
only recorded under a root span the benchmark opens around one command,
so the benchmark's own checks never show up in a layer's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

#: The modules of ``src/apksift`` treated as layers (cli is the root of
#: every command span; errors and rng hold no timed work).
LAYERS = ("catalog", "corpus", "corpusgen", "detectors", "ranking", "classifier", "evaluation")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self.returns: dict[str, list] = {}   # function name -> return values kept
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_run = 0

    def keep_returns(self, name: str) -> None:
        self.returns[name] = []

    def _wrap(self, name, fn):
        spans, stack, returns = self.spans, self._stack, self.returns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, 0, parent, spans[parent].run_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if name in returns:
                returns[name].append(result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"apksift.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                self.wrapped.add(f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "apksift" and not modname.startswith("apksift."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()

    @contextmanager
    def root(self, name: str):
        """Open a root span; wrapped calls inside it become its descendants."""
        span = Span(name, 0, -1, self._next_run)
        self._next_run += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def clear(self) -> None:
        self.spans.clear()
        for kept in self.returns.values():
            kept.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part covered by its child spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    return [(s.end - s.start - c) / 1e9 for s, c in zip(spans, child_ns)]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
