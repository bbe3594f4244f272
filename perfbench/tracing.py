"""In-memory span recorder and self-time arithmetic for the traced run.

Spans are recorded only by the benchmark's own code, around calls into the
library's public functions (directly, or through the wrapper objects in
:mod:`traced`).  Each span has a name, start, end, parent span and request
id.  Spans stay in memory until :meth:`Tracer.write` dumps them at the end
of a run; per-layer numbers are then derived from them with
:func:`self_times`.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Span:
    """One timed interval (seconds on the ``perf_counter`` clock)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: int

    @property
    def duration(self) -> float:
        """Wall time covered by the span."""
        return self.end - self.start


class Tracer:
    """Collects spans of one single-threaded caller.

    :meth:`span` nests: a span opened while another is open becomes its
    child.  ``request_id`` tags every span opened until it is changed, so
    the spans of one request (one query block, one served query) share it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, self.request_id)
            )

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request_id: int,
        parent: int | None = None,
    ) -> int:
        """Add a span timed elsewhere (e.g. by a coroutine, where the open-
        span stack does not describe causality).  Returns its id."""
        span_id = self._new_id()
        self.spans.append(Span(span_id, name, start, end, parent, request_id))
        return span_id

    def write(self, path: pathlib.Path) -> None:
        """Dump every span as JSON (one list of records)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a: float | None = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of its interval
    that its child spans cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration
        - covered_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def per_request(
    spans: list[Span], selves: dict[int, float], *, self_time: bool
) -> dict[str, dict[int, float]]:
    """``{span name: {request id: summed seconds}}`` — total duration or,
    with ``self_time``, summed self time of each name within each request."""
    out: dict[str, dict[int, float]] = {}
    for s in spans:
        value = selves[s.span_id] if self_time else s.duration
        by_request = out.setdefault(s.name, {})
        by_request[s.request_id] = by_request.get(s.request_id, 0.0) + value
    return out
