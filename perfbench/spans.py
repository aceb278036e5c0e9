"""In-memory spans around the library's public functions.

A Tracer replaces module attributes with timing wrappers and puts the
originals back when its ``with`` block ends. Each span records its name,
start, end, parent span and an optional note taken from the call's
arguments (the uniform table's size, for instance). Nothing is written out
while tracing; summaries are computed from the span list afterwards.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    note: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records nested spans; restores every wrapped attribute on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @contextmanager
    def span(self, name: str, note: float = 0.0):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent=parent, note=note)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``note``, when given, maps the call's arguments to a number stored on
        the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, note(*args, **kwargs) if note else 0.0):
                return original(*args, **kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_ms(spans: list[Span], index: int) -> float:
    """Duration of span ``index`` minus the time its direct children cover."""
    covered = sum(s.ms for s in spans if s.parent == index)
    return spans[index].ms - covered


def totals(spans: list[Span]) -> dict[str, tuple[float, int, float]]:
    """Per span name: summed duration in ms, call count and summed note."""
    out: dict[str, tuple[float, int, float]] = {}
    for s in spans:
        ms, calls, note = out.get(s.name, (0.0, 0, 0.0))
        out[s.name] = (ms + s.ms, calls + 1, note + s.note)
    return out
