"""In-memory spans around the program's public functions.

`Tracer.install` replaces module attributes with timing wrappers, so
spans come from the benchmark's own code and the program is unchanged.
Each span records its name, start, end, thread and parent; the parent
is the innermost open span of the same thread, or the benchmark's open
root span for work a pool thread runs on the root's behalf.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(), time.perf_counter())
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a span that pool threads without an open span attach to."""
        span = self.open(name)
        self._root = span.id
        try:
            yield span
        finally:
            self.close(span)
            self._root = None

    def install(self, module, attr: str, name: str, attrs_of=None) -> None:
        """Wrap module.attr; attrs_of(result) adds span attributes."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs_of is not None:
                span.attrs.update(attrs_of(out))
            return out

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of the span's interval its children cover."""
    return span.duration - covered(children, span.start, span.end)


def covered(spans: list[Span], lo: float, hi: float) -> float:
    """Length of the union of span intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s in sorted(spans, key=lambda s: s.start):
        start, end = max(s.start, reach), min(s.end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
