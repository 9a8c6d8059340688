"""Typed request/response surface of the latency-serving layer.

The serving layer speaks in three frozen dataclasses:

* :class:`LatencyRequest` — what a client asks for: a backend *spec*
  (anything :func:`repro.sim.backend.create_backend` resolves — a registered
  name, a frozen hardware config, a variant spec) plus a sequence length,
* :class:`LatencyResponse` — the fulfilled request: the
  :class:`~repro.sim.backend.SimReport`, per-request service timings, and
  whether the request was coalesced onto an earlier in-flight duplicate,
* :class:`CapacityReport` — an operator-facing snapshot of the service:
  sustained queries/sec, hit rates, queue depth, and per-backend p50/p99
  service latency (one :class:`BackendServiceStats` row per backend).

Responses are produced by :class:`~repro.serving.service.LatencyService`;
nothing here imports the service, so these types are cheap to ship across
process or serialization boundaries.  The wire twins of these types —
JSON-serializable, ``schema_version``-stamped — live in
:mod:`repro.serving.wire`; the HTTP front door that speaks them lives in
:mod:`repro.serving.http`.

Ticket lifecycle
----------------
Every ``submit`` returns a ticket id; the ticket's life is:

1. **pending** — queued or executing.  ``poll`` returns ``None``;
   ``result(timeout=)`` blocks up to ``timeout`` seconds.
2. **fulfilled** — a :class:`LatencyResponse` is stored.  The *first*
   ``poll``/``result`` that sees it **consumes** the ticket; consuming
   twice raises ``KeyError``.
3. **timed out** — ``result(timeout=)`` gave up.  The ticket is *not*
   consumed (a later ``poll``/``result`` may still claim it), the give-up
   is counted (``timed_out`` in :class:`CapacityReport`) and the ticket is
   marked *abandoned*.  A fulfillment landing while the ticket is abandoned
   counts as a **late result** (``late_results``) — stored, never dropped.
4. **reaped** — ``reap_abandoned()`` consumed an abandoned-and-fulfilled
   ticket on the caller's behalf (the periodic cleanup a long-lived service
   runs so the ticket table stays bounded).  ``abandon(ticket_id)`` marks a
   ticket for the next reap without waiting out a timeout.

The service owns these states: ``LatencyService.ticket_state`` names the
state of any id (``"unknown"`` if never issued).  Only live and reaped ids
are stored; an issued id that is neither was consumed.

The HTTP front door (:mod:`repro.serving.http`) maps this lifecycle onto
status codes — pending → 202, fulfilled → 200 (consuming), unknown → 404,
already consumed → 404 (``"already_consumed"``), reaped → **410 Gone** —
so a socket client observes exactly the in-process semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ..sim.backend import SimReport


class LatencyServiceError(RuntimeError):
    """A request failed inside the service (bad spec, simulator error)."""


def length_bucket(sequence_length: int, bucket_size: Optional[int]) -> int:
    """Shape-bucket index of a sequence length.

    ``bucket_size=None`` (or 0) puts every length in one shared bucket.  A
    positive ``bucket_size`` groups lengths into ``(length - 1) //
    bucket_size`` buckets — the boundaries
    :meth:`repro.cluster.trace.RequestTrace.bucketed_lengths` prices each
    bucket's longest member by.
    """
    if not bucket_size or int(bucket_size) <= 0:
        return 0
    return (int(sequence_length) - 1) // int(bucket_size)


def dispatch_order_key(
    priority: int, deadline: Optional[float], sequence: int
) -> Tuple[int, float, int]:
    """Canonical dispatch order shared by the serving layer and the cluster.

    Higher ``priority`` dispatches first; within a priority level the earliest
    ``deadline`` wins (``None`` sorts after every finite deadline); remaining
    ties fall back to ``sequence`` — submission order — so a stream of
    default-priority, deadline-free requests dispatches exactly FIFO.  The
    :class:`~repro.serving.service.LatencyService` dispatcher and the cluster
    simulator's EDF scheduler (:mod:`repro.cluster.scheduler`) both sort by
    this key, so "priority" and "deadline" mean the same thing on a single
    shared service as on a simulated fleet.
    """
    return (
        -int(priority),
        float("inf") if deadline is None else float(deadline),
        int(sequence),
    )


@dataclass(frozen=True)
class LatencyRequest:
    """One latency/capacity query.

    ``backend`` is a backend spec, not necessarily a built backend: strings
    (``"lightnobel"``, ``"h100-chunk"``), frozen config dataclasses and
    :class:`~repro.sim.backend.AcceleratorVariant`/:class:`~repro.sim.backend.GPUVariant`
    specs all work.  ``include_recycles=None`` defers to the service default.

    ``priority`` and ``deadline_seconds`` feed :func:`dispatch_order_key`:
    the dispatcher drains higher-priority requests first and breaks priority
    ties by earliest deadline (measured in seconds from submission), falling
    back to FIFO — the same semantics the cluster simulator's EDF scheduler
    applies to a :class:`repro.cluster.trace.Request`.  Both default to the
    neutral values (0, ``None``), which preserve strict FIFO dispatch.

    ``trace_id`` is the client's distributed-tracing ID: when the service
    has a :class:`~repro.obs.tracing.Tracer`, the request's server-side
    spans are recorded under this ID (so a front-door client's trace
    continues inside the service and ``GET /v1/trace/<id>`` finds it).
    ``None`` lets the service key the spans by ticket ID instead.
    """

    backend: Any = "lightnobel"
    sequence_length: int = 0
    include_recycles: Optional[bool] = None
    priority: int = 0
    deadline_seconds: Optional[float] = None
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if int(self.sequence_length) <= 0:
            raise ValueError("sequence_length must be positive")
        if self.deadline_seconds is not None and float(self.deadline_seconds) <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")
        if self.trace_id is not None and not str(self.trace_id):
            raise ValueError("trace_id must be a non-empty string (or None)")


@dataclass(frozen=True)
class LatencyResponse:
    """A fulfilled (or failed) :class:`LatencyRequest`.

    ``queue_seconds`` is the time the request waited before its job started
    executing; ``service_seconds`` is submit-to-fulfillment.  ``coalesced``
    marks requests that attached to an earlier in-flight duplicate instead of
    enqueueing their own simulation.  ``completed_index`` is the global
    fulfillment sequence number (jobs complete in FIFO submission order).
    """

    request_id: int
    request: LatencyRequest
    report: Optional[SimReport] = None
    error: Optional[str] = None
    coalesced: bool = False
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    completed_index: int = -1

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None

    def raise_for_error(self) -> "LatencyResponse":
        if not self.ok:
            raise LatencyServiceError(
                f"request {self.request_id} ({self.request.backend!r}, "
                f"n={self.request.sequence_length}) failed: {self.error}"
            )
        return self


@dataclass(frozen=True)
class RequestLogRecord:
    """One fulfilled request, as the service's structured request log sees it.

    This is the *shared traffic format* between the serving and cluster
    layers: every field a :class:`~repro.cluster.trace.Request` needs is
    here, in serving-layer time — ``arrival_seconds`` is relative to service
    start and ``deadline_seconds`` is the request's *relative* deadline
    (seconds from submission, as the client stated it), so
    ``RequestTrace.from_serving_log`` can rebuild the absolute-deadline
    trace convention exactly.  ``outcome`` is ``"ok"`` or ``"error"``;
    ``queue_seconds``/``service_seconds`` record what the live service
    actually delivered, for comparing a replay against reality.
    ``trace_id`` is the client-supplied tracing ID, when one rode in on the
    request (``None`` for untraced requests, whose spans — if the service
    traces at all — are keyed by ``ticket_id``).
    """

    ticket_id: int
    backend: str
    sequence_length: int
    priority: int
    deadline_seconds: Optional[float]
    arrival_seconds: float
    outcome: str
    coalesced: bool = False
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


@dataclass(frozen=True)
class BackendServiceStats:
    """Per-backend service-latency summary (seconds, submit-to-fulfillment)."""

    backend: str
    requests: int
    mean_seconds: float
    p50_seconds: float
    p99_seconds: float


@dataclass(frozen=True)
class CapacityReport:
    """Operator-facing snapshot of a :class:`~repro.serving.service.LatencyService`.

    ``queries_per_second`` is sustained throughput over *busy* time (the
    dispatcher's execution windows plus the time spent answering memo hits
    at submit), so idle services do not dilute it;
    ``wall_seconds`` is time since the service started, for offered-load math.

    Resilience counters: ``timed_out`` counts :meth:`~repro.serving.service.LatencyService.result`
    calls that gave up waiting (the ticket itself stays claimable — a later
    ``result``/``poll`` may still consume it); ``late_results`` counts
    requests that completed *after* every waiter had timed out on them —
    such responses are stored, counted, and reclaimable via
    :meth:`~repro.serving.service.LatencyService.reap_abandoned`, never
    silently dropped.

    Stacked-batch counters: ``stacked_batches`` counts same-spec batches
    the dispatcher priced with one vectorized stacked pass;
    ``stacked_points`` counts the (backend, length) points those passes
    covered — points that would each have cost a separate simulation on the
    per-length path.
    """

    requests: int
    completed: int
    errors: int
    coalesced: int
    memo_hits: int
    simulations: int
    queue_depth: int
    peak_queue_depth: int
    wall_seconds: float
    busy_seconds: float
    queries_per_second: float
    backends: Tuple[BackendServiceStats, ...] = field(default_factory=tuple)
    timed_out: int = 0
    late_results: int = 0
    stacked_batches: int = 0
    stacked_points: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without a fresh simulation."""
        if self.completed <= 0:
            return 0.0
        return (self.coalesced + self.memo_hits) / self.completed
