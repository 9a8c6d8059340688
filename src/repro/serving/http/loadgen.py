"""Trace-driven load harness for the HTTP front door.

The offered traffic is a :class:`~repro.cluster.trace.RequestTrace` — the
same seeded generator the cluster simulator replays — and responses are
graded by the trace's own SLO deadlines, so "SLO attainment through the
socket" is directly comparable with the simulator's and the in-process
service's numbers for the identical trace.

Two replay paths share one grading function:

* :func:`replay_trace_http` — submit every request over real sockets
  (``connections`` keep-alive clients, round-robin), honor 429 backpressure
  by sleeping out ``Retry-After`` and retrying, then collect all responses
  via the chunked ``/v1/stream`` endpoint in completion order,
* :func:`replay_trace_inprocess` — the control arm: same trace, same
  service, plain Python calls, no socket.

``time_scale`` scales trace inter-arrival gaps (1.0 = real time, 0.0 =
submit as fast as admission allows — the throughput-measuring mode).

A request *attains* its SLO when it succeeded and its measured
``service_seconds`` (submit-to-fulfillment) fits inside the trace's
relative deadline (absolute deadline minus arrival).  Deadline-free
requests count as attained when they succeed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...cluster.trace import RequestTrace
from ..api import LatencyRequest, LatencyResponse
from ..service import LatencyService
from ..stats import percentile
from .client import FrontDoorClient, FrontDoorError


@dataclass(frozen=True)
class LoadReport:
    """Graded outcome of one trace replay (HTTP or in-process)."""

    mode: str
    trace_name: str
    offered: int
    completed: int
    errors: int
    slo_attained: int
    slo_missed: int
    retried_429: int
    wall_seconds: float
    p50_service_seconds: float
    p99_service_seconds: float
    per_priority_attainment: Dict[int, float] = field(default_factory=dict)

    @property
    def slo_attainment(self) -> float:
        graded = self.slo_attained + self.slo_missed
        return self.slo_attained / graded if graded else 0.0

    @property
    def queries_per_second(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.mode}: {self.completed}/{self.offered} completed, "
            f"{self.errors} errors, SLO {self.slo_attainment:.3f}, "
            f"{self.queries_per_second:.1f} q/s, "
            f"p50 {self.p50_service_seconds * 1e3:.2f} ms, "
            f"p99 {self.p99_service_seconds * 1e3:.2f} ms"
        )


def _relative_deadline(request) -> Optional[float]:
    """Trace absolute deadline -> per-request relative deadline (submit-clock)."""
    if request.deadline_seconds is None:
        return None
    return max(1e-9, float(request.deadline_seconds) - float(request.arrival_seconds))


def _grade(
    trace: RequestTrace,
    outcomes: Dict[int, Tuple[bool, float, int]],
    mode: str,
    retried_429: int,
    wall_seconds: float,
) -> LoadReport:
    """``outcomes`` maps trace request id -> (ok, service_seconds, priority)."""
    completed = errors = attained = missed = 0
    latencies: List[float] = []
    by_priority: Dict[int, List[int]] = {}
    deadlines = {r.id: _relative_deadline(r) for r in trace}
    for request in trace:
        outcome = outcomes.get(request.id)
        if outcome is None:
            continue
        ok, service_seconds, priority = outcome
        if not ok:
            errors += 1
            missed += 1
            by_priority.setdefault(priority, []).append(0)
            continue
        completed += 1
        latencies.append(service_seconds)
        deadline = deadlines[request.id]
        hit = deadline is None or service_seconds <= deadline
        attained += int(hit)
        missed += int(not hit)
        by_priority.setdefault(priority, []).append(int(hit))
    per_priority = {
        priority: sum(hits) / len(hits)
        for priority, hits in sorted(by_priority.items())
        if hits
    }
    return LoadReport(
        mode=mode,
        trace_name=trace.name,
        offered=len(trace),
        completed=completed,
        errors=errors,
        slo_attained=attained,
        slo_missed=missed,
        retried_429=retried_429,
        wall_seconds=wall_seconds,
        p50_service_seconds=percentile(latencies, 50.0) if latencies else 0.0,
        p99_service_seconds=percentile(latencies, 99.0) if latencies else 0.0,
        per_priority_attainment=per_priority,
    )


def _latency_request(request, backend: str, tenant: str = "default") -> LatencyRequest:
    """The service request for one trace request (both replay paths)."""
    return LatencyRequest(
        backend=backend,
        sequence_length=request.sequence_length,
        priority=request.priority,
        deadline_seconds=_relative_deadline(request),
        tenant=tenant,
    )


# ------------------------------------------------------------------ HTTP path
async def replay_trace_async(
    trace: RequestTrace,
    host: str,
    port: int,
    backend: str = "lightnobel",
    tenant: str = "loadgen",
    connections: int = 4,
    time_scale: float = 0.0,
    max_submit_retries: int = 200,
) -> LoadReport:
    """Replay ``trace`` through the socket path; returns the graded report."""
    clients = [FrontDoorClient(host, port) for _ in range(max(1, connections))]
    for client in clients:
        await client.connect()
    retried_429 = 0
    ticket_to_trace: Dict[int, Tuple[int, int]] = {}  # ticket -> (trace id, priority)
    started = time.perf_counter()
    try:
        for index, request in enumerate(trace):
            if time_scale > 0:
                target = started + request.arrival_seconds * time_scale
                delay = target - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            client = clients[index % len(clients)]
            latency_request = _latency_request(request, backend, tenant)
            for _attempt in range(max_submit_retries):
                try:
                    ticket_id = await client.submit(latency_request)
                    break
                except FrontDoorError as exc:
                    if exc.status != 429:
                        raise
                    retried_429 += 1
                    await asyncio.sleep(exc.retry_after_seconds or 0.01)
            else:
                raise RuntimeError(
                    f"request {request.id} still rejected after "
                    f"{max_submit_retries} backpressure retries"
                )
            ticket_to_trace[ticket_id] = (request.id, request.priority)

        outcomes: Dict[int, Tuple[bool, float, int]] = {}
        stream_client = clients[0]
        async for item in stream_client.stream_results(sorted(ticket_to_trace)):
            if isinstance(item, LatencyResponse):
                trace_id, priority = ticket_to_trace[item.ticket_id]
                outcomes[trace_id] = (item.ok, item.service_seconds, priority)
        wall = time.perf_counter() - started
    finally:
        for client in clients:
            await client.close()
    return _grade(trace, outcomes, "http", retried_429, wall)


def replay_trace_http(trace: RequestTrace, host: str, port: int, **kwargs) -> LoadReport:
    """Synchronous wrapper around :func:`replay_trace_async`."""
    return asyncio.run(replay_trace_async(trace, host, port, **kwargs))


# ------------------------------------------------------------ in-process path
def replay_trace_inprocess(
    trace: RequestTrace,
    service: LatencyService,
    backend: str = "lightnobel",
    time_scale: float = 0.0,
    result_timeout_seconds: float = 300.0,
) -> LoadReport:
    """The control arm: same trace, direct ``LatencyService`` calls, no socket."""
    started = time.perf_counter()
    tickets: List[Tuple[int, int, int]] = []  # (ticket, trace id, priority)
    for request in trace:
        if time_scale > 0:
            target = started + request.arrival_seconds * time_scale
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        ticket_id = service.submit(_latency_request(request, backend))
        tickets.append((ticket_id, request.id, request.priority))
    outcomes: Dict[int, Tuple[bool, float, int]] = {}
    for ticket_id, trace_id, priority in tickets:
        response: LatencyResponse = service.result(
            ticket_id, timeout=result_timeout_seconds
        )
        outcomes[trace_id] = (response.ok, response.service_seconds, priority)
    wall = time.perf_counter() - started
    return _grade(trace, outcomes, "inprocess", 0, wall)
