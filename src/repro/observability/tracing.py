"""Spans and the tracer: nested timed stages of control-plane work.

A **span** is one timed operation ("provision.placement_solve"); spans
nest, so a ``provision_chain`` root span carries one child span per
pipeline stage.  The tracer keeps a bounded buffer of finished spans
(newest win) plus per-name aggregate statistics that never grow with
traffic, so long-running orchestrators can stay instrumented.

Usage::

    with tracer.span("provision_chain", chain="chain-0") as root:
        with tracer.span("provision.placement_solve"):
            ...
        root.set(conversions=2)

The disabled path is :class:`NullTracer`, whose ``span()`` returns a
shared no-op context manager — no objects are allocated and no clock is
read.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import time
from typing import Iterator, Mapping

#: Default cap on retained finished spans (aggregates are unbounded-safe).
DEFAULT_MAX_SPANS = 10_000


@dataclasses.dataclass(frozen=True, slots=True)
class Span:
    """One finished timed operation."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    attributes: Mapping[str, object]

    @property
    def duration(self) -> float:
        """Wall-clock seconds the span covered."""
        return self.end - self.start


class ActiveSpan:
    """A span in progress; use as a context manager."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "_start", "_attrs")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attributes: dict,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self._attrs = attributes
        self._start = 0.0

    def set(self, **attributes: object) -> "ActiveSpan":
        """Attach attributes to the span (returns self for chaining)."""
        self._attrs.update(attributes)
        return self

    def __enter__(self) -> "ActiveSpan":
        self._tracer._stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(
            Span(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self._start,
                end=end,
                attributes=dict(self._attrs),
            )
        )


@dataclasses.dataclass(slots=True)
class SpanStats:
    """Aggregate timing of every span sharing one name."""

    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    errors: int = 0

    @property
    def mean_seconds(self) -> float:
        """Mean duration (0.0 when the name never fired)."""
        return self.total_seconds / self.count if self.count else 0.0


class Tracer:
    """Creates nested spans and keeps finished ones for export."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self._max_spans = max_spans
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        # Bounded ring: appending past the cap drops the oldest span in
        # O(1), keeping the per-span cost flat on hot paths.
        self._finished: collections.deque[Span] = collections.deque(
            maxlen=max_spans
        )
        self._stats: dict[str, SpanStats] = {}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Real tracers record; the null tracer reports False."""
        return True

    def span(self, name: str, **attributes: object) -> ActiveSpan:
        """Open a span nested under the innermost active span."""
        parent = self._stack[-1] if self._stack else None
        return ActiveSpan(self, next(self._ids), parent, name, attributes)

    def _finish(self, span: Span) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        else:  # pragma: no cover - misnested exits; drop gracefully
            try:
                self._stack.remove(span.span_id)
            except ValueError:
                pass
        self._finished.append(span)  # deque(maxlen=...) evicts oldest
        stats = self._stats.get(span.name)
        if stats is None:
            stats = self._stats[span.name] = SpanStats()
        stats.count += 1
        stats.total_seconds += span.duration
        if span.duration > stats.max_seconds:
            stats.max_seconds = span.duration
        if "error" in span.attributes:
            stats.errors += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        """Finished spans, oldest first (bounded by ``max_spans``)."""
        return list(self._finished)

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with one name, oldest first."""
        return [span for span in self._finished if span.name == name]

    def stats(self) -> dict[str, SpanStats]:
        """Per-name aggregates (a shallow copy)."""
        return dict(self._stats)

    def children_of(self, span: Span) -> Iterator[Span]:
        """Finished spans directly nested under ``span``."""
        for candidate in self._finished:
            if candidate.parent_id == span.span_id:
                yield candidate

    def snapshot(self) -> dict:
        """JSON-serializable spans + aggregates."""
        return {
            "spans": [
                {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "duration_seconds": span.duration,
                    "attributes": dict(span.attributes),
                }
                for span in self._finished
            ],
            "aggregates": {
                name: {
                    "count": stats.count,
                    "total_seconds": stats.total_seconds,
                    "mean_seconds": stats.mean_seconds,
                    "max_seconds": stats.max_seconds,
                    "errors": stats.errors,
                }
                for name, stats in sorted(self._stats.items())
            },
        }

    def reset(self) -> None:
        """Drop finished spans and aggregates (active spans survive)."""
        self._finished.clear()
        self._stats.clear()


class _NullActiveSpan:
    """Shared no-op span: enters, exits, records nothing."""

    __slots__ = ()

    def set(self, **attributes: object) -> "_NullActiveSpan":
        return self

    def __enter__(self) -> "_NullActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The one no-op span; a guarded call site can enter it instead of
#: calling ``span()`` at all.
NULL_SPAN = _NullActiveSpan()


class NullTracer(Tracer):
    """The zero-cost disabled tracer: ``span()`` is allocation-free."""

    def __init__(self) -> None:
        super().__init__(max_spans=0)

    @property
    def enabled(self) -> bool:
        """Always False: nothing is recorded."""
        return False

    def span(self, name: str, **attributes: object) -> _NullActiveSpan:  # type: ignore[override]
        """The shared no-op span."""
        return NULL_SPAN
