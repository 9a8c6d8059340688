"""Thread-safe service accounting: hit rates, queue depth, latency histograms.

One :class:`ServiceStats` instance lives inside every
:class:`~repro.serving.service.LatencyService`.  Submission-side counters are
updated by client threads; fulfillment-side counters and the per-backend
latency histograms are updated by the fulfilling thread (the dispatcher, or
a client whose memo hit was answered at submit).  All reads go through
:meth:`ServiceStats.values`, which copies under the lock, so callers never
observe a torn update.

**Where a metric is declared.**  Every counter and gauge is one row of
:data:`SERVICE_METRICS` (name = attribute and JSON key, Prometheus name,
kind, help, :class:`~repro.serving.api.CapacityReport` field).  The JSON
snapshot, Prometheus families, ``capacity_report()`` and the wire codec all
derive from it, so a new counter is one row plus its ``CapacityReport``
field and a :meth:`ServiceStats.record` call.  The service takes the stats
lock once per submitted batch (:meth:`ServiceStats.record_submits`) and once
per fulfilled batch (:meth:`ServiceStats.record_fulfilled`), which feeds each
backend's latency histogram in one hold.
``queue_depth`` is *live*: it reads the service's queue at scrape time.
Ticket states are not metrics; the service owns them
(:meth:`~repro.serving.service.LatencyService.ticket_state`).

Latency distributions are :class:`repro.obs.metrics.Histogram` families with
fixed exponential buckets — **constant memory per backend** no matter how
many requests flow through (the old per-backend sample reservoirs grew a
2048-deque each and answered percentiles from a sampled window; the
histograms answer from every observation ever made, at bounded-relative-error
bucket resolution with exact min/max edges).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from .api import BackendServiceStats, CapacityReport, RequestLogRecord

#: Bucket ladder for service-latency histograms: 1 µs doubling to ~9 min,
#: wide enough for memo hits and cold multi-minute simulations alike.
SERVICE_LATENCY_BUCKETS = exponential_buckets(start=1e-6, factor=2.0, count=40)


class ServiceMetric(NamedTuple):
    """One declared metric; ``zero`` also fixes its type, ``live`` rows are properties."""

    name: str
    prom: str
    kind: type
    help: str
    capacity: Optional[str]
    zero: float = 0
    live: bool = False


#: Every :class:`ServiceStats` metric, declared once (see the module docstring).
SERVICE_METRICS: Tuple[ServiceMetric, ...] = (
    ServiceMetric("submitted", "repro_serving_requests_submitted_total", Counter,
                  "Requests accepted by submit().", "requests"),
    ServiceMetric("completed", "repro_serving_requests_completed_total", Counter,
                  "Requests fulfilled (ok or error).", "completed"),
    ServiceMetric("errors", "repro_serving_errors_total", Counter,
                  "Requests fulfilled with an error.", "errors"),
    ServiceMetric("coalesced", "repro_serving_coalesced_total", Counter,
                  "Requests attached to a pending job for the same key.", "coalesced"),
    ServiceMetric("memo_hits", "repro_serving_memo_hits_total", Counter,
                  "Requests answered from the session memo, at submit or by the dispatcher.",
                  "memo_hits"),
    ServiceMetric("simulations", "repro_serving_simulations_total", Counter,
                  "(backend, length) points sent to a simulator.", "simulations"),
    ServiceMetric("batches", "repro_serving_batches_total", Counter,
                  "Batches the dispatcher drained; memo hits answered at submit are none.", None),
    ServiceMetric("busy_seconds", "repro_serving_busy_seconds_total", Counter,
                  "Seconds spent fulfilling: dispatcher batches plus memo hits at submit.",
                  "busy_seconds", zero=0.0),
    ServiceMetric("queue_depth", "repro_serving_queue_depth", Gauge,
                  "Jobs (distinct keys) queued for the dispatcher right now.", "queue_depth",
                  live=True),
    ServiceMetric("peak_queue_depth", "repro_serving_peak_queue_depth", Gauge,
                  "High-water mark of the queue depth, in jobs.", "peak_queue_depth"),
    ServiceMetric("timeouts", "repro_serving_timeouts_total", Counter,
                  "result() calls that gave up waiting.", "timed_out"),
    ServiceMetric("late_results", "repro_serving_late_results_total", Counter,
                  "Requests completed after every waiter timed out.", "late_results"),
    ServiceMetric("stacked_batches", "repro_serving_stacked_batches_total", Counter,
                  "Shape-bucketed batches priced in one stacked pass.", "stacked_batches"),
    ServiceMetric("stacked_points", "repro_serving_stacked_points_total", Counter,
                  "(backend, length) points covered by stacked passes.", "stacked_points"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Explicit edge behavior — cluster reports are built from real serving
    logs of arbitrary size, so the edges are contractual, not accidental:

    * empty input returns ``0.0`` (a report over zero samples reads as zero
      latency, never a crash),
    * a single sample is every percentile of itself,
    * ``q=0`` returns the minimum and ``q=100`` the maximum,
    * ``q`` outside [0, 100] (or NaN) raises ``ValueError`` — a silent
      clamp would mask a caller bug as a plausible latency number.
    """
    q = float(q)
    if math.isnan(q) or not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class ServiceStats:
    """Counters and histograms behind :meth:`LatencyService.capacity_report`.

    ``request_log_limit`` bounds the structured per-request log (oldest
    records fall out FIFO); ``None`` keeps every record — the right setting
    when the log will be exported as a :class:`~repro.cluster.trace.RequestTrace`
    for cluster replay, where a truncated trace would misrepresent the
    traffic.

    Each :data:`SERVICE_METRICS` row is an attribute (``stats.simulations``);
    ``queue_depth`` calls :attr:`read_queue_depth`, which the owning service
    binds to its queue.

    The latency histogram family is *private* to this instance (not in the
    process-wide :data:`repro.obs.metrics.REGISTRY`): many services live in
    one test process, and registering each would collide on the metric name.
    :meth:`fill_metrics` contributes it to a caller-supplied registry at
    scrape time instead.
    """

    def __init__(self, request_log_limit: Optional[int] = None, epoch: float = 0.0) -> None:
        self._lock = threading.Lock()
        #: ``perf_counter`` time that request-log arrivals are measured from.
        self.epoch = epoch
        for metric in SERVICE_METRICS:
            if not metric.live:
                setattr(self, metric.name, metric.zero)
        #: Live queue-depth reader; a stats object without a service reads 0.
        self.read_queue_depth: Callable[[], int] = lambda: 0
        self._latency = Histogram(
            "repro_serving_request_duration_seconds",
            "Submit-to-fulfillment service time, by backend.",
            labelnames=("backend",),
            buckets=SERVICE_LATENCY_BUCKETS,
        )
        self._backends: Dict[str, Histogram] = {}
        #: Request-log rows (see :meth:`record_fulfilled`), built into records
        #: only when the log is read.
        self._request_log: Deque[tuple] = deque(maxlen=request_log_limit)

    @property
    def queue_depth(self) -> int:
        """Jobs queued for the dispatcher right now (read live, never a stale copy)."""
        return self.read_queue_depth()

    def record(self, **increments: float) -> None:
        """Add to declared counters by name, e.g. ``record(timeouts=1)``."""
        with self._lock:
            for name, amount in increments.items():
                setattr(self, name, getattr(self, name) + amount)

    # ------------------------------------------------------------- submission
    def record_submits(self, count: int, coalesced: int, queue_depth: int) -> None:
        """``count`` accepted requests, ``coalesced`` of them attached to a
        pending job; ``queue_depth`` (the batch's deepest) feeds the high-water
        mark."""
        with self._lock:
            self.submitted += count
            self.coalesced += coalesced
            self.peak_queue_depth = max(self.peak_queue_depth, queue_depth)

    # ------------------------------------------------------------ fulfillment
    def record_fulfilled(
        self,
        rows: Sequence[tuple],
        latencies: Dict[str, Sequence[float]],
        errors: int,
        memo_hits: int,
        late_results: int,
        batches: int,
        busy_seconds: float,
    ) -> None:
        """One fulfilled batch under one lock hold.

        ``rows`` holds one row per fulfilled request: its trace key, then the
        :class:`RequestLogRecord` fields in order, except that the sixth is
        the absolute submit time (``perf_counter``), which :meth:`request_log`
        turns into ``arrival_seconds`` after :attr:`epoch`, then fields for
        the request's trace that the log ignores (the service records the
        same rows with its tracer).  Each row counts as completed and joins
        the request log.  ``latencies`` maps each
        backend to its rows' service seconds in row order; each backend's
        latency histogram takes them in one hold.  The other arguments add
        to the counters of the same names.
        """
        with self._lock:
            self.completed += len(rows)
            self.errors += errors
            self.memo_hits += memo_hits
            self.late_results += late_results
            self.batches += batches
            self.busy_seconds += busy_seconds
            self._request_log.extend(rows)
            for backend, values in latencies.items():
                histogram = self._backends.get(backend)
                if histogram is None:
                    histogram = self._backends[backend] = self._latency.labels(
                        backend=backend
                    )
                histogram.observe_many(values)

    def request_log(self) -> Tuple[RequestLogRecord, ...]:
        """Snapshot of the structured request log (fulfillment order)."""
        with self._lock:
            rows = tuple(self._request_log)
        epoch = self.epoch
        return tuple(
            RequestLogRecord(*row[1:6], max(0.0, row[6] - epoch), *row[7:12]) for row in rows
        )

    # ------------------------------------------------------------------ reads
    def _summary(self, name: str, histogram: Histogram) -> BackendServiceStats:
        return BackendServiceStats(
            backend=name,
            requests=histogram.count,
            mean_seconds=histogram.mean,
            p50_seconds=histogram.quantile(50.0),
            p99_seconds=histogram.quantile(99.0),
        )

    def backend_summaries(self) -> List[BackendServiceStats]:
        with self._lock:
            backends = sorted(self._backends.items())
        return [self._summary(name, histogram) for name, histogram in backends]

    def values(self) -> Dict[str, float]:
        """Every :data:`SERVICE_METRICS` value by name, in declaration order."""
        # Live rows read the service's queue under the service's lock, which
        # is taken before ours on the fulfillment path: never nest it here.
        live = {m.name: getattr(self, m.name) for m in SERVICE_METRICS if m.live}
        with self._lock:
            return {
                m.name: live[m.name] if m.live else getattr(self, m.name)
                for m in SERVICE_METRICS
            }

    def snapshot(self) -> Dict[str, object]:
        """:meth:`values` plus a :class:`BackendServiceStats` row per backend."""
        out: Dict[str, object] = dict(self.values())
        with self._lock:
            backends = dict(self._backends)
        out["backends"] = {
            name: self._summary(name, histogram)
            for name, histogram in backends.items()
        }
        return out

    def capacity_report(self, wall_seconds: float) -> CapacityReport:
        """The :class:`CapacityReport` of these stats (see :data:`SERVICE_METRICS`).

        ``queries_per_second`` is the one derived field: completions over
        busy time.
        """
        values = self.values()
        busy = values["busy_seconds"]
        return CapacityReport(
            wall_seconds=wall_seconds,
            queries_per_second=values["completed"] / busy if busy > 0 else 0.0,
            backends=tuple(self.backend_summaries()),
            **{m.capacity: values[m.name] for m in SERVICE_METRICS if m.capacity},
        )

    # ------------------------------------------------------------- exposition
    def fill_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Contribute every declared metric plus the live latency family to ``registry``.

        Counters and gauges are materialized fresh from the current values
        (they are plain ints on the hot path; typed metric objects would buy
        nothing but lock traffic), while the histogram family is registered
        live — its buckets are already exposition-shaped.
        """
        values = self.values()
        for metric in SERVICE_METRICS:
            family = metric.kind(metric.prom, metric.help, registry=registry)
            if metric.kind is Counter:
                family.inc(float(values[metric.name]))
            else:
                family.set(float(values[metric.name]))
        registry.register(self._latency)
        return registry

    def metrics_registry(self) -> MetricsRegistry:
        """A fresh registry holding this service's metrics (scrape-time view)."""
        return self.fill_metrics(MetricsRegistry())
