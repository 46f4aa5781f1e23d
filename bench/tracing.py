"""Spans around the calls into each doubleslit module's public functions.

The tracer rebinds, for the duration of one operation, every name in the
package that refers to a public function of one of its modules, so calls
between modules (and from the benchmark into ``cli.main``) each record a
span.  Nothing in ``src/`` changes and untraced operations run the
original functions.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

LAYERS = ("physics", "qubit", "propagation", "analysis", "reporting", "cli")
# Called once per screen row or per mask cell; a span per call would cost
# more than the work it times, so their time counts to the caller.
UNTRACED = frozenset({"physics.kernel", "physics.kernel_prefactor", "qubit.is_allowed"})


@dataclass(frozen=True)
class Span:
    name: str              # <layer>.<function>
    op: int
    span_id: int
    parent: Optional[int]
    start: float           # perf_counter seconds
    end: float
    cpu: float             # process CPU seconds, all threads

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op = -1
        self._bindings = self._find_bindings()

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every rebinding."""
        package = importlib.import_module("doubleslit")
        modules = [importlib.import_module(f"doubleslit.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and f"{layer}.{name}" not in UNTRACED:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        return [(ns, attr, value, wrappers[id(value)])
                for ns in (package, *modules)
                for attr, value in vars(ns).items() if id(value) in wrappers]

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0, start = time.process_time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end, cpu1 = time.perf_counter(), time.process_time()
                stack.pop()
                self.spans.append(Span(name, self._op, span_id, parent, start, end, cpu1 - cpu0))
        return traced

    @contextmanager
    def tracing(self, op: int):
        """Record spans for operation ``op`` inside the block."""
        self._op = op
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        try:
            yield
        finally:
            for ns, attr, original, _ in self._bindings:
                setattr(ns, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def op_profile(spans: list[Span]) -> tuple[dict, dict]:
    """Per-function inclusive seconds and per-layer self seconds.

    A span's self time is its duration minus the durations of its child
    spans, which run inside it on the same thread and do not overlap.
    """
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    inclusive, layer_self = defaultdict(float), defaultdict(float)
    for s in spans:
        own = s.duration - children[s.span_id]
        inclusive[s.name] += s.duration
        layer_self[s.layer] += own
    return inclusive, layer_self
