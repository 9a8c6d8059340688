"""CI smoke entry: the observability layer end to end.

Run as ``PYTHONPATH=src python -m repro.obs.smoke``.  Exercises all three
obs subsystems against the real stack:

1. **Tracing + metrics through a live service** — a tiny-config
   :class:`~repro.serving.service.LatencyService` with a
   :class:`~repro.obs.tracing.Tracer` serves a small batch (client trace
   IDs on some requests); the smoke asserts the span trees exist with the
   expected structure, that the Prometheus exposition of the service's
   metrics renders and parses back, and that the latency histogram counted
   every fulfilled request.
2. **JSON/Prometheus parity over HTTP** — a front door started with
   :func:`~repro.serving.http.serve_in_thread` answers a few queries; every
   declared counter (:data:`~repro.serving.stats.SERVICE_METRICS` and the
   front door's :data:`~repro.serving.http.server.HTTP_METRICS`) must read
   the same in ``GET /metrics`` as in ``GET /metrics?format=prom``.
3. **DES timeline** — a hand-built micro replay (synthetic service times,
   one crash) runs with and without a
   :class:`~repro.obs.timeline.TimelineRecorder`; the smoke asserts the
   report and outcomes are bit-identical either way and that the Chrome
   trace export is well-formed and non-empty.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile

from ..cluster.des import replay_trace_outcomes
from ..cluster.faults import FaultSchedule, WorkerCrash
from ..cluster.fleet import FleetSpec
from ..cluster.trace import Request, RequestTrace
from ..ppm.config import PPMConfig
from ..serving.api import LatencyRequest
from ..serving.http import FrontDoorClient, serve_in_thread
from ..serving.http.server import HTTP_METRICS
from ..serving.service import LatencyService
from ..serving.stats import SERVICE_METRICS
from ..serving.wire import WireRequest
from ..sim.cache import sandbox_cache_dir
from . import prom
from .timeline import TimelineRecorder
from .tracing import Tracer


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _serving_smoke() -> int:
    tracer = Tracer()
    requests = [
        LatencyRequest(backend=spec, sequence_length=n, trace_id=trace_id)
        for spec, n, trace_id in (
            ("lightnobel", 24, "smoke-trace-a"),
            ("lightnobel", 48, "smoke-trace-b"),
            ("h100-chunk", 24, None),
            ("h100-chunk", 48, None),
        )
    ]
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as cache_dir:
        with sandbox_cache_dir(cache_dir):
            with LatencyService(
                ppm_config=PPMConfig.tiny(), use_disk_cache=False, tracer=tracer
            ) as service:
                tickets = service.submit_batch(requests)
                for ticket in tickets:
                    service.result(ticket, timeout=120.0).raise_for_error()
                registry = service.stats.metrics_registry()
                completed = service.stats.completed

    # Client-keyed traces: the request's journey, as the span tree.
    for trace_id in ("smoke-trace-a", "smoke-trace-b"):
        if tracer.find(trace_id) is None:
            return _fail(f"trace {trace_id!r} not recorded")
        payload = tracer.to_dict(trace_id)
        names = [span["name"] for span in payload["spans"]]
        if names[0] != "request" or "queue-wait" not in names or "fulfill" not in names:
            return _fail(f"trace {trace_id!r} has unexpected spans {names}")
        if len(payload["tree"]) != 1 or len(payload["tree"][0]["children"]) != 3:
            return _fail(f"trace {trace_id!r} tree is not one root with 3 children")
    # Untraced requests are keyed by ticket ID instead.
    auto_keyed = [k for k in tracer.trace_keys() if isinstance(k, int)]
    if len(auto_keyed) != 2:
        return _fail(f"expected 2 ticket-keyed traces, got {len(auto_keyed)}")

    # Prometheus exposition: renders, parses back, histogram counts add up.
    text = prom.render(registry)
    families = prom.parse(text)
    if "repro_serving_requests_completed_total" not in families:
        return _fail("completed counter missing from Prometheus exposition")
    histogram = families.get("repro_serving_request_duration_seconds")
    if histogram is None:
        return _fail("latency histogram missing from Prometheus exposition")
    observed = sum(
        int(sample.value)
        for sample in histogram.samples
        if sample.name.endswith("_count")
    )
    if observed != completed:
        return _fail(f"histogram counted {observed} requests, service {completed}")

    print(
        f"serving: {completed} requests traced across {len(tracer)} traces, "
        f"{len(families)} metric families exposed"
    )
    return 0


def _http_parity_smoke() -> int:
    async def scrape(host: str, port: int):
        async with FrontDoorClient(host, port) as client:
            for n in (24, 32, 24):
                await client.query(WireRequest(sequence_length=n))
            return await client.metrics(), await client.metrics_prometheus()

    handle = serve_in_thread(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    try:
        metrics, text = asyncio.run(scrape(handle.host, handle.port))
    finally:
        handle.stop(drain=True)
    families = prom.parse(text)
    declared = [("service", m.name, m.prom) for m in SERVICE_METRICS]
    declared += [("http", key, name) for key, name, _, _ in HTTP_METRICS]
    for block, key, name in declared:
        family = families.get(name)
        if family is None:
            return _fail(f"{name} missing from Prometheus exposition")
        if metrics[block][key] != family.samples[0].value:
            return _fail(
                f"{block}.{key}={metrics[block][key]!r} in JSON but "
                f"{name}={family.samples[0].value!r} in Prometheus"
            )
    if (metrics["service"]["completed"], metrics["service"]["errors"]) != (3, 0):
        return _fail(f"expected 3 clean queries, got {metrics['service']}")
    print(f"http: {len(declared)} declared counters read the same in JSON and Prometheus")
    return 0


def _timeline_smoke() -> int:
    arrivals = [0.4 * i for i in range(12)]
    trace = RequestTrace(
        name="obs-smoke",
        requests=tuple(
            Request(
                id=i,
                arrival_seconds=t,
                sequence_length=32,
                priority=0,
                deadline_seconds=t + 6.0,
            )
            for i, t in enumerate(arrivals)
        ),
        seed=0,
        offered_rps=len(arrivals) / arrivals[-1],
    )
    fleet = FleetSpec.homogeneous("lightnobel", 2)
    times = {(0, 32): 1.0}
    faults = FaultSchedule(
        crashes=(WorkerCrash(worker_id=0, at_seconds=1.5, restart_after_seconds=2.0),)
    )

    baseline = replay_trace_outcomes(trace, fleet, service_times=times, faults=faults)
    recorder = TimelineRecorder()
    traced = replay_trace_outcomes(
        trace, fleet, service_times=times, faults=faults, timeline=recorder
    )
    if baseline != traced:
        return _fail("timeline recording perturbed the replay")
    counts = recorder.event_counts()
    for kind in ("arrival", "dispatch", "complete", "crash", "recover", "retry"):
        if counts.get(kind, 0) == 0:
            return _fail(f"timeline recorded no {kind!r} events")
    chrome = json.loads(recorder.to_json())
    events = chrome["traceEvents"]
    if not any(e.get("ph") == "X" and e.get("cat") == "service" for e in events):
        return _fail("Chrome export has no service spans")
    if not any(e.get("name") == "down" for e in events):
        return _fail("Chrome export has no down span for the crash")

    report = traced[0]
    print(
        f"timeline: {len(recorder)} events ({report.completed} completed, "
        f"{report.retried} retried) -> {len(events)} Chrome trace events, "
        f"bit-identical to the untraced replay"
    )
    return 0


def main(argv=None) -> int:
    for stage in (_serving_smoke, _http_parity_smoke, _timeline_smoke):
        code = stage()
        if code:
            return code
    print("smoke ok: tracing + Prometheus metrics + JSON/Prometheus parity + DES timeline export")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
