"""In-memory spans recorded around calls into the program's layers.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
span open around it, or -1.  Spans are recorded from one thread (the
workload process's main thread) and written out once, when the run ends.  An
untraced run uses :data:`NO_TRACE`, whose spans cost one attribute lookup
and record nothing.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, int]


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span around every call (for instance-level wrapping)."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def self_times(self, name: str) -> List[float]:
        """Duration of each ``name`` span minus the time its child spans cover."""
        child_time: Dict[int, float] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return [
            (end - start) - child_time.get(index, 0.0)
            for index, (span_name, start, end, _) in enumerate(self.spans)
            if span_name == name
        ]

    def top_level_time(self, since: float) -> float:
        """Time covered by parentless spans that start at or after ``since``."""
        return sum(
            end - start for _, start, end, parent in self.spans if parent < 0 and start >= since
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}))


class _NoTrace:
    enabled = False
    _none = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._none

    def wrap(self, name: str, function: Callable) -> Callable:
        return function


NO_TRACE = _NoTrace()


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one span, for the overhead estimate."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


def percentile(values, q: float) -> Optional[float]:
    if len(values) == 0:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))
