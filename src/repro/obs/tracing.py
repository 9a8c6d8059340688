"""Per-request span tracing with a bounded in-memory trace store.

A *trace* is every span recorded under one trace ID — usually one request's
journey through :class:`~repro.serving.service.LatencyService` (queue-wait,
coalesce/pool-dispatch/simulate, fulfill).  The client supplies the trace ID
on :class:`~repro.serving.api.LatencyRequest` (or the ``X-Trace-Id`` HTTP
header) so its own trace continues inside the service; requests without one
are keyed by their integer ticket ID, so ``GET /v1/trace/<ticket-id>``
works for every fulfilled request either way.

Design constraints, in order:

1. **Hot-path cost.**  The warm serving path fulfills a request in ~15 µs;
   tracing rides it by storing one flat tuple per request, a whole
   dispatch batch of requests under one lock
   (:meth:`Tracer.record_deferred`).  Span tuples, attribute dicts, span
   IDs, dataclasses and trees are materialized only at read time — the
   read path is an HTTP endpoint, not the dispatcher.
2. **Bounded memory.**  At most ``max_traces`` traces are held (FIFO
   eviction) and at most ``max_spans_per_trace`` spans accumulate under one
   ID; overflow spans are counted-and-dropped, never grown.  Deferred rows
   wait to be filed, at most a few times ``max_traces`` of them.
3. **No-op when off.**  ``Tracer(enabled=False)`` (or ``tracer=None`` on the
   service) short-circuits every record call before any allocation.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = ["Span", "SpanBatch", "Tracer", "new_trace_id"]

#: Trace keys: client-supplied strings, or int ticket IDs for auto-keyed
#: requests (never formatted on the hot path).
TraceKey = Union[str, int]

#: One span inside a :meth:`Tracer.record_batch` call:
#: ``(name, start_seconds, end_seconds, attributes-or-None)``.
SpanBatch = Tuple[Tuple[str, float, float, Optional[Mapping[str, Any]]], ...]


#: Deferred rows queue unfiled until this many times ``max_traces`` of them
#: are waiting (or something reads the tracer): Tracer.record_deferred.
_UNFILED_PER_TRACE = 4


def new_trace_id() -> str:
    """A fresh 32-hex-char trace ID (for clients that want one made up)."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class Span:
    """One timed operation inside a trace (materialized at read time)."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start_seconds: float
    end_seconds: float
    attributes: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        return self.end_seconds - self.start_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
        }


class _SpanHandle:
    """What :meth:`Tracer.span` yields: identity plus an attribute bag."""

    __slots__ = ("trace_id", "span_id", "attributes")

    def __init__(self, trace_id: TraceKey, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id
        self.attributes: Dict[str, Any] = {}


class Tracer:
    """Bounded trace store; every record call is cheap or a no-op.

    Internal storage per trace is a ``[span_count, *entries]`` list where
    an entry is a raw batch (from :meth:`record_batch` — span IDs assigned
    lazily at read), a deferred batch (from :meth:`record_deferred`, built
    at read) or an explicit span tuple (from :meth:`record_span`, which
    allocates an ID eagerly so callers can nest under it).
    """

    def __init__(
        self,
        enabled: bool = True,
        max_traces: int = 1024,
        max_spans_per_trace: int = 512,
    ):
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        if max_spans_per_trace < 1:
            raise ValueError("max_spans_per_trace must be >= 1")
        self.enabled = enabled
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        self._traces: "OrderedDict[TraceKey, list]" = OrderedDict()
        self._ids = itertools.count(1)
        self._dropped_spans = 0
        self._evicted_traces = 0
        #: record_deferred calls not filed into ``_traces`` yet: (rows, spans).
        self._unfiled: List[Tuple[List[tuple], int]] = []
        self._unfiled_rows = 0

    # -- recording ---------------------------------------------------------
    def _index(self) -> "OrderedDict[TraceKey, list]":
        """The trace index with every queued deferred row filed (lock held)."""
        if self._unfiled:
            self._file_unfiled()
        return self._traces

    def _file(self, trace_key: TraceKey, entry: tuple, spans: int) -> None:
        """File ``entry`` of ``spans`` spans under ``trace_key`` (lock held)."""
        traces = self._index()
        bucket = traces.get(trace_key)
        if bucket is None:
            if len(traces) >= self.max_traces:
                traces.popitem(last=False)
                self._evicted_traces += 1
            traces[trace_key] = [spans, entry]
        elif bucket[0] < self.max_spans_per_trace:
            bucket[0] += spans
            bucket.append(entry)
        else:
            self._dropped_spans += spans

    def record_batch(self, trace_key: TraceKey, batch: SpanBatch) -> None:
        """Append one request's spans in a single lock acquisition.

        ``batch[0]`` is the root span; every later entry becomes its child.
        The batch must be a pre-built tuple — the whole point is that the
        hot path does no per-span work here.
        """
        if not self.enabled:
            return
        with self._lock:
            self._file(trace_key, batch, len(batch))

    def record_deferred(self, rows: List[tuple], spans: int) -> None:
        """Queue many batches in one lock acquisition, each built at read time.

        A row is ``(build, trace_key, *fields)``; ``build(*fields)`` returns
        the row's :data:`SpanBatch` of ``spans`` spans.  The hot path builds
        one flat tuple per batch and hands over the list (the tracer keeps
        it).  Rows are filed into the trace index, in record order and with
        the bucketing, eviction and span cap of :meth:`record_batch`, only
        when something reads the tracer or records otherwise, or once
        ``_UNFILED_PER_TRACE * max_traces`` rows are queued — so rows that
        newer traffic would evict before any read are mostly never filed.
        Span tuples and attribute dicts are built by :meth:`trace`, only for
        the traces that are read.
        """
        if not self.enabled:
            return
        with self._lock:
            self._unfiled.append((rows, spans))
            self._unfiled_rows += len(rows)
            if self._unfiled_rows >= _UNFILED_PER_TRACE * self.max_traces:
                self._file_unfiled()

    def _file_unfiled(self) -> None:
        """File the queued deferred rows in record order (lock held).

        When every queued row opens a new trace, exactly the newest
        ``max_traces`` traces survive filing them one by one, so the older
        rows are counted evicted without being filed.  Otherwise each row is
        filed in turn.
        """
        queued, self._unfiled, self._unfiled_rows = self._unfiled, [], 0
        traces = self._traces
        keys = [row[1] for rows, _ in queued for row in rows]
        if len(set(keys)) < len(keys) or not traces.keys().isdisjoint(keys):
            for rows, spans in queued:
                for row in rows:
                    self._file(row[1], row, spans)
            return
        skip = max(0, len(keys) - self.max_traces)  # rows evicted unfiled
        excess = max(0, len(traces) + len(keys) - skip - self.max_traces)
        for _ in range(excess):
            traces.popitem(last=False)
        self._evicted_traces += skip + excess
        for rows, spans in queued:
            for row in rows[skip:]:
                traces[row[1]] = [spans, row]
            skip = max(0, skip - len(rows))

    def record_span(
        self,
        trace_key: TraceKey,
        name: str,
        start_seconds: float,
        end_seconds: float,
        parent_id: Optional[str] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Optional[str]:
        """Record one explicit span; returns its span ID (None when disabled)."""
        if not self.enabled:
            return None
        span_id = f"{next(self._ids):012x}"
        entry = (span_id, parent_id, name, start_seconds, end_seconds, attributes)
        with self._lock:
            self._file(trace_key, entry, 1)
        return span_id

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[TraceKey] = None,
        parent_id: Optional[str] = None,
    ):
        """Time a block as one span: ``with tracer.span("prefetch") as s:``."""
        handle = _SpanHandle(
            trace_id if trace_id is not None else new_trace_id(),
            f"{next(self._ids):012x}" if self.enabled else "",
        )
        start = time.perf_counter()
        try:
            yield handle
        finally:
            if self.enabled:
                end = time.perf_counter()
                entry = (
                    handle.span_id,
                    parent_id,
                    name,
                    start,
                    end,
                    dict(handle.attributes) or None,
                )
                with self._lock:
                    self._file(handle.trace_id, entry, 1)

    # -- reads -------------------------------------------------------------
    def find(self, raw_key: str) -> Optional[TraceKey]:
        """Resolve an over-the-wire key: exact string, else integer form."""
        with self._lock:
            traces = self._index()
            if raw_key in traces:
                return raw_key
            if raw_key.lstrip("-").isdigit() and int(raw_key) in traces:
                return int(raw_key)
        return None

    def trace(self, trace_key: TraceKey) -> Tuple[Span, ...]:
        """Materialize every span recorded under ``trace_key`` (may be empty)."""
        with self._lock:
            bucket = self._index().get(trace_key)
            entries = bucket[1:] if bucket is not None else []
        spans: List[Span] = []
        trace_str = str(trace_key)
        lazy = itertools.count(1)
        for entry in entries:
            if entry and callable(entry[0]):  # deferred batch
                entry = entry[0](*entry[2:])
            if entry and isinstance(entry[0], tuple):  # raw batch
                root_id = f"b{next(lazy):08x}"
                for i, (name, start, end, attrs) in enumerate(entry):
                    spans.append(
                        Span(
                            trace_id=trace_str,
                            span_id=root_id if i == 0 else f"{root_id}.{i}",
                            parent_id=None if i == 0 else root_id,
                            name=name,
                            start_seconds=start,
                            end_seconds=end,
                            attributes=dict(attrs) if attrs else {},
                        )
                    )
            else:  # explicit span tuple
                span_id, parent_id, name, start, end, attrs = entry
                spans.append(
                    Span(
                        trace_id=trace_str,
                        span_id=span_id,
                        parent_id=parent_id,
                        name=name,
                        start_seconds=start,
                        end_seconds=end,
                        attributes=dict(attrs) if attrs else {},
                    )
                )
        return tuple(spans)

    def trace_tree(self, trace_key: TraceKey) -> List[Dict[str, Any]]:
        """Spans nested parent -> children (roots listed in record order)."""
        spans = self.trace(trace_key)
        nodes = {span.span_id: {**span.to_dict(), "children": []} for span in spans}
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def to_dict(self, trace_key: TraceKey) -> Dict[str, Any]:
        """JSON payload for ``GET /v1/trace/<id>``."""
        spans = self.trace(trace_key)
        return {
            "trace_id": str(trace_key),
            "span_count": len(spans),
            "spans": [span.to_dict() for span in spans],
            "tree": self.trace_tree(trace_key),
        }

    def trace_keys(self) -> Tuple[TraceKey, ...]:
        with self._lock:
            return tuple(self._index())

    @property
    def dropped_spans(self) -> int:
        with self._lock:
            self._index()
            return self._dropped_spans

    @property
    def evicted_traces(self) -> int:
        with self._lock:
            self._index()
            return self._evicted_traces

    def __len__(self) -> int:
        with self._lock:
            return len(self._index())

    def __contains__(self, trace_key: TraceKey) -> bool:
        with self._lock:
            return trace_key in self._index()

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._unfiled, self._unfiled_rows = [], 0
