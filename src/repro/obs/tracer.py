"""Lightweight nestable span tracing for the query path.

One edge query walks ``query → ndf_filter → storage_get``;
this tracer records that tree with wall-clock timings so a slow query
can be attributed to the layer that paid for it.  Tracing is **off by
default** — a disabled tracer hands out a shared no-op context
manager, so the instrumented hot paths (scalar queries run in tight
loops) pay one method call and nothing else.

Usage::

    tracer = default_tracer()
    tracer.enabled = True
    with tracer.span("query", engine="engine0"):
        with tracer.span("ndf_filter"):
            ...
    print(tracer.format_traces())

Completed root spans land in a bounded deque (``max_traces``), oldest
evicted first, so tracing a long workload cannot grow without bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "default_tracer"]


@dataclass
class Span:
    """One timed operation, possibly with nested children."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_seconds(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def format(self, indent: int = 0) -> str:
        labels = ""
        if self.labels:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
            labels = f" [{inner}]"
        lines = [f"{'  ' * indent}{self.name}{labels} "
                 f"({self.duration_seconds * 1e6:.1f}us)"]
        lines.extend(child.format(indent + 1) for child in self.children)
        return "\n".join(lines)


class _NullSpan:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._pop(self._span)
        return None


class Tracer:
    """Collects nested spans into per-root traces while enabled.

    The open-span stack is **thread-local**: the shard-parallel engine
    runs per-shard subtrees on pool threads, and a shared stack would
    interleave unrelated spans into one garbled tree.  Each thread
    nests its own spans; completed root spans from every thread land in
    the shared bounded ``traces`` deque (append is atomic under the
    GIL).
    """

    def __init__(self, max_traces: int = 128, clock=time.perf_counter):
        self.enabled = False
        self._clock = clock
        self._local = threading.local()
        self.traces: deque[Span] = deque(maxlen=max_traces)

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **labels: str):
        """Open a span nested under the innermost active one."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, Span(name, labels))

    def _push(self, span: Span) -> None:
        span.start = self._clock()
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self._clock()
        # Tolerate a span left open across an exception unwind: pop back
        # to (and including) the span being closed.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        if not stack:
            self.traces.append(span)

    def clear(self) -> None:
        self._stack.clear()
        self.traces.clear()

    def to_json(self, limit: int | None = None) -> list[dict]:
        traces = list(self.traces)
        if limit is not None:
            traces = traces[-limit:]
        return [span.to_dict() for span in traces]

    def format_traces(self, limit: int | None = None) -> str:
        traces = list(self.traces)
        if limit is not None:
            traces = traces[-limit:]
        blocks = [f"trace {i}:\n{span.format(1)}"
                  for i, span in enumerate(traces)]
        return "\n".join(blocks)


_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    """The process-wide tracer the instrumented layers share."""
    return _DEFAULT_TRACER
