"""In-memory spans recorded around calls into the library's public functions.

A span has a name, start, end, parent span and run id.  Spans stay in a list
until the run ends; ``dump`` writes them out as JSON lines.  Each span may
carry a work count (points evaluated, integration steps, kernel calls) so
rates are measured where the work happens.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[str, float] = {}  # derived seconds, see add()
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self.run_id, count)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Accumulate a duration derived from spans (one span minus others)."""
        self.values[name] = self.values.get(name, 0.0) + seconds

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def child_seconds(self, span: Span) -> float:
        """Seconds spent in the spans directly inside ``span``."""
        return sum(s.seconds for s in self.spans if s.parent == span.id)

    def count(self, name: str) -> int:
        return sum(s.count for s in self.spans if s.name == name)

    def rate(self, name: str) -> float:
        """Work count per second over every span of this name; 0 if none
        was recorded (the call raised before its span)."""
        seconds = self.total(name)
        return self.count(name) / seconds if seconds > 0 else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def span_cost(n: int = 20000) -> float:
    """Seconds one empty span costs on this machine."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / n
