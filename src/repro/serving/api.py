"""Typed request/response surface of the latency-serving layer.

The serving layer speaks in frozen dataclasses, one class per concept:

* :class:`LatencyRequest` — what a client asks for: a backend *spec*
  (anything :func:`repro.sim.backend.create_backend` resolves — a registered
  name, a frozen hardware config, a variant spec), a sequence length, and
  the tenant whose bounded queue admits it at the HTTP front door,
* :class:`LatencyResponse` — the fulfilled request: its ticket id, the
  :class:`~repro.report.SimReport`, per-request service timings, and
  whether the request was coalesced onto an earlier in-flight duplicate,
* :class:`CapacityReport` — an operator-facing snapshot of the service:
  sustained queries/sec, hit rates, queue depth, and per-backend p50/p99
  service latency (one :class:`BackendServiceStats` row per backend),
* :class:`RequestLogRecord` — one row of the structured request log.

The same objects cross the socket: there is no separate wire type.  Each
class's fields are its one declaration — the annotation gives the field's
type, and :func:`declare` metadata names a validator and whether the wire
may omit the field.  :mod:`repro.serving.wire` derives every JSON codec
(``to_dict``/``to_json``/``from_dict``/``from_json``, strict validation, the
``schema_version`` stamp) from these declarations, and
:class:`LatencyRequest` runs the same validators in process.  Nothing here
imports the service; the HTTP front door lives in :mod:`repro.serving.http`.

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

import math
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..report import SimReport


class LatencyServiceError(RuntimeError):
    """A request failed inside the service (bad spec, simulator error)."""


# ------------------------------------------------------------------ validators
# Each takes (field name, value) and raises ValueError; the wire decoder
# turns that into a WireFormatError with code "invalid_field".
def positive(name: str, value: Any) -> None:
    """A positive, finite number (NaN and infinity are rejected)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def non_negative(name: str, value: Any) -> None:
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def non_empty(name: str, value: Any) -> None:
    if not value:
        raise ValueError(f"{name} must be non-empty, got {value!r}")


def declare(
    default: Any = MISSING,
    *,
    check: Optional[Callable[[str, Any], None]] = None,
    required: bool = False,
) -> Any:
    """A dataclass field whose metadata names its validator.

    ``required`` makes the wire demand a field the in-process constructor
    defaults (a field without a default is always required).
    """
    return field(default=default, metadata={"check": check, "required": required})


#: type -> its JSON codec; :mod:`repro.serving.wire` derives and registers one
#: per declared type at import.
CODECS: Dict[type, Any] = {}


class WireMessage:
    """The JSON codec methods of a declared type (see :mod:`repro.serving.wire`)."""

    def to_dict(self) -> Dict[str, Any]:
        return CODECS[type(self)].to_dict(self)

    def to_json(self) -> str:
        return CODECS[type(self)].to_json(self)

    @classmethod
    def from_dict(cls, payload: Any) -> Any:
        return CODECS[cls].from_dict(payload)

    @classmethod
    def from_json(cls, text: Any) -> Any:
        return CODECS[cls].from_json(text)


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
class LatencyRequest(WireMessage):
    """One latency/capacity query, in process and on the wire.

    ``backend`` is a backend spec, not necessarily a built backend: strings
    (``"lightnobel"``, ``"h100-chunk"``), frozen config dataclasses and
    :class:`~repro.sim.backend.AcceleratorVariant`/:class:`~repro.sim.backend.GPUVariant`
    specs all work in process; only registry *names* cross the wire (encoding
    any other spec raises ``WireFormatError("unserializable_backend")``).
    ``include_recycles=None`` defers to the service default.

    ``priority`` and ``deadline_seconds`` feed :func:`dispatch_order_key`:
    the dispatcher drains higher-priority requests first and breaks priority
    ties by earliest deadline (measured in seconds from submission), falling
    back to FIFO — the same semantics the cluster simulator's EDF scheduler
    applies to a :class:`repro.cluster.trace.Request`.  Both default to the
    neutral values (0, ``None``), which preserve strict FIFO dispatch.

    ``tenant`` is the HTTP front door's per-tenant bounded-queue key; the
    service itself ignores it.  ``trace_id`` is the client's
    distributed-tracing ID: when the service has a
    :class:`~repro.obs.tracing.Tracer`, the request's server-side spans are
    recorded under this ID (so a front-door client's trace continues inside
    the service and ``GET /v1/trace/<id>`` finds it).  ``None`` lets the
    service key the spans by ticket ID instead.
    """

    backend: Any = declare("lightnobel", check=non_empty)
    sequence_length: int = declare(0, check=positive, required=True)
    include_recycles: Optional[bool] = None
    priority: int = 0
    deadline_seconds: Optional[float] = declare(None, check=positive)
    tenant: str = declare("default", check=non_empty)
    trace_id: Optional[str] = declare(None, check=non_empty)

    def __post_init__(self) -> None:
        # The declared checks, unrolled: this runs once per request, and a
        # loop over the declarations costs a third of the construction.
        non_empty("backend", self.backend)
        positive("sequence_length", self.sequence_length)
        if self.deadline_seconds is not None:
            positive("deadline_seconds", self.deadline_seconds)
        non_empty("tenant", self.tenant)
        if self.trace_id is not None:
            non_empty("trace_id", self.trace_id)


@dataclass(frozen=True)
class LatencyResponse(WireMessage):
    """A fulfilled (or failed) :class:`LatencyRequest`.

    ``ticket_id`` is the id ``submit`` returned.  ``queue_seconds`` is the
    time the request waited before its job started executing;
    ``service_seconds`` is submit-to-fulfillment.  ``coalesced`` marks
    requests that attached to an earlier in-flight duplicate instead of
    enqueueing their own simulation.  ``completed_index`` is the global
    fulfillment sequence number (jobs complete in FIFO submission order).
    """

    ticket_id: int = declare(check=non_negative)
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
                f"request {self.ticket_id} ({self.request.backend!r}, "
                f"n={self.request.sequence_length}) failed: {self.error}"
            )
        return self


@dataclass(frozen=True)
class RequestLogRecord(WireMessage):
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

    ticket_id: int = declare(check=non_negative)
    backend: str = declare(check=non_empty)
    sequence_length: int = declare(check=positive)
    priority: int = 0
    deadline_seconds: Optional[float] = declare(None, check=positive)
    arrival_seconds: float = 0.0
    outcome: str = declare("ok", check=non_empty)
    coalesced: bool = False
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    trace_id: Optional[str] = declare(None, check=non_empty)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


@dataclass(frozen=True)
class BackendServiceStats(WireMessage):
    """Per-backend service-latency summary (seconds, submit-to-fulfillment)."""

    backend: str = declare(check=non_empty)
    requests: int = declare(check=non_negative)
    mean_seconds: float
    p50_seconds: float
    p99_seconds: float


@dataclass(frozen=True)
class CapacityReport(WireMessage):
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

    Every counter defaults to zero, so a payload that omits one reads as 0.
    """

    requests: int = 0
    completed: int = 0
    errors: int = 0
    coalesced: int = 0
    memo_hits: int = 0
    simulations: int = 0
    queue_depth: int = 0
    peak_queue_depth: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    queries_per_second: float = 0.0
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
