"""Spans recorded from outside the program.

The benchmark never edits the program to trace it.  A traced run wraps
the public functions each layer exposes (``Tracer.wrap`` swaps a module
attribute for a timing shim while the ``installed`` block is open) and
passes a :class:`repro.observability.Profiler` subclass whose per-layer
records become engine spans.  Spans carry name, start, end, parent and
request id; they stay in memory and are written out once, at exit.

A span's self time is its duration minus its children's durations.
Children of one span run one after another (the workloads run with
``jobs=1``), so a request's self times partition its root span and sum
to its latency; :func:`check_self_times` verifies that no child sticks
out of its parent or overlaps a sibling.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

Span = Dict[str, Any]


class Tracer:
    """An in-memory span recorder for one thread of work."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Any] = []
        self.request: Any = None

    def open(self, name: str, start: Optional[float] = None) -> Span:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: Span, end: Optional[float] = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[Span]:
        if request is not None:
            self.request = request
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def record(self, name: str, start: float, end: float, **attrs: Any) -> Span:
        """A finished child of the innermost open span (for durations the
        program measured itself)."""
        span = self.open(name, start)
        self.close(span, end)
        span["attrs"].update(attrs)
        return span

    def child(self, parent: Span, name: str, start: float, end: float) -> Span:
        """A finished child of an already closed span."""
        span = {
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": parent["id"], "request": parent["request"], "attrs": {},
        }
        self.spans.append(span)
        return span

    def renumbered(self, offset: int) -> List[Span]:
        """The spans with ids shifted by ``offset``, to merge tracers."""
        out = []
        for span in self.spans:
            span = dict(span, id=span["id"] + offset)
            if span["parent"] is not None:
                span["parent"] += offset
            out.append(span)
        return out

    def current(self) -> Optional[Span]:
        return self.spans[self._stack[-1]] if self._stack else None

    def wrap(
        self,
        module: Any,
        attr: str,
        name: Any,
        before: Optional[Callable[[Span, tuple, dict], None]] = None,
        after: Optional[Callable[[Span, Any], None]] = None,
    ) -> None:
        """Time every call of ``module.attr`` as a span named ``name``
        (or ``name(args, kwargs)``) until :meth:`unwrap_all`."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            span = tracer.open(label)
            if before is not None:
                before(span, args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, wraps: Callable[["Tracer"], None]) -> Iterator[None]:
        """Apply ``wraps(self)`` for the duration of the block."""
        wraps(self)
        try:
            yield
        finally:
            self.unwrap_all()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def span_profiler(tracer: Tracer) -> Any:
    """A ``repro.observability.Profiler`` whose layer records also land
    as ``engine.layer.kNN`` spans under the open ``engine.sweep`` span.

    The engine calls ``record_layer`` right after a layer commits, with
    the layer's own wall time, so the span ends now and starts that many
    seconds earlier.  Each layer's cells are the growth of the
    cumulative ``table_cells`` counter since the previous record of the
    same sweep (the sweep span holds the baseline)."""
    from repro.observability import Profiler

    class SpanProfiler(Profiler):
        def record_layer(self, k, subsets, wall_seconds, frontier_states,
                         frontier_bytes, counters=None):
            now = time.perf_counter()
            super().record_layer(
                k, subsets, wall_seconds, frontier_states, frontier_bytes,
                counters,
            )
            cells = int((counters or {}).get("table_cells", 0))
            sweep = tracer.current()
            previous = 0
            if sweep is not None and sweep["name"] == "engine.sweep":
                previous = sweep["attrs"].get("cells_seen", 0)
                sweep["attrs"]["cells_seen"] = cells
            tracer.record(
                f"engine.layer.k{k:02d}", now - wall_seconds, now,
                cells=cells - previous, states=frontier_states,
                bytes=frontier_bytes,
            )

    return SpanProfiler()


def sweep_baseline(span: Span, args: tuple, kwargs: dict) -> None:
    """``before`` hook for ``run_layered_sweep``: remember the counters'
    cell count at sweep start, so the first layer's cells are exact."""
    counters = kwargs.get("counters")
    if counters is None and len(args) > 3:
        counters = args[3]
    span["attrs"]["cells_seen"] = (
        int(counters.table_cells) if counters is not None else 0
    )


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_self_times(spans: List[Span], tolerance: float = 1e-6) -> int:
    """Count requests holding a span that sticks out of its parent or
    whose self time is negative (overlapping children).  Without either,
    a request's self times partition its root span, so they sum to its
    latency."""
    own = self_times(spans)
    root_of: Dict[int, int] = {}
    bad = set()
    for s in spans:  # parents precede their children
        parent = s["parent"]
        root = s["id"] if parent is None else root_of[parent]
        root_of[s["id"]] = root
        outside = parent is not None and (
            s["start"] < spans[parent]["start"] - tolerance
            or s["end"] > spans[parent]["end"] + tolerance
        )
        if outside or own[s["id"]] < -tolerance:
            bad.add(root)
    return len(bad)
