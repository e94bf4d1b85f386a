"""In-memory span recording and function patching for the traced passes.

A span is one call into a layer: its name, start and end times, the span
that was open when it started (its parent) and a few counts computed from
the call's arguments and result. Spans stay in memory and are reduced to
metrics after the pass.

Patching replaces a function at every place it is bound: the defining
module, each module that did ``from ... import name``, and the class for
methods. Replacing only the defining module's attribute would leave the
``from`` imports calling the original, so those calls would go untimed.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; the open spans form a stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, counter=None):
        """Run ``fn`` inside a span; ``counter(args, kwargs, result)`` gives counts."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, self.clock(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        # Counting runs after the span closed, so its cost lands in the
        # parent's self time and in the reported tracing overhead.
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _bindings(package: str, original):
    """(namespace, attribute) pairs that hold ``original`` in the package's modules."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                yield module, attr


class Patches:
    """Replacements installed on entry and removed on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, package: str, original, replacement) -> int:
        """Rebind every module-level name in ``package`` that holds ``original``."""
        count = 0
        for namespace, attr in list(_bindings(package, original)):
            self._set(namespace, attr, replacement)
            count += 1
        return count

    def replace_method(self, cls, attr: str, replacement) -> None:
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__qualname__} defines no {attr!r}")
        self._set(cls, attr, replacement)

    def _set(self, namespace, attr, value):
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)
        return False
