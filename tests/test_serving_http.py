"""End-to-end socket tests for the HTTP front door.

Everything here goes through real TCP connections against a
:func:`repro.serving.http.serve_in_thread` server (stdlib ``http.client``
for plain request/response, the package's own async client for streaming):
submit/poll parity with a direct simulation session, malformed-body 400s,
per-tenant backpressure 429s, priority ordering observed on the wire,
``/metrics`` parity with ``ServiceStats``, the 410-Gone reap path, and a
subprocess SIGTERM test proving shutdown drains in-flight tickets.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import http.client

import pytest

from repro.obs import prom
from repro.ppm import PPMConfig
from repro.serving import LatencyService, WireRequest, WireResponse
from repro.serving.http import FrontDoorClient, serve_in_thread
from repro.serving.http.server import HTTP_METRICS
from repro.serving.stats import SERVICE_METRICS
from repro.serving.wire import request_log_from_json
from repro.sim import SimulationSession

TIMEOUT = 120.0


def call(
    handle, method: str, path: str, body=None
):
    """One plain-HTTP round trip; returns (status, headers dict, parsed JSON)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=TIMEOUT)
    try:
        if isinstance(body, (str, bytes)):
            payload = body if isinstance(body, bytes) else body.encode()
        else:
            payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, payload, {"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw else None
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


@pytest.fixture(scope="module")
def door():
    """One shared front door (owned tiny-config service) for read-mostly tests."""
    handle = serve_in_thread(
        ppm_config=PPMConfig.tiny(), max_pending_per_tenant=64
    )
    yield handle
    report = handle.stop(drain=True)
    assert report["unfulfilled"] == 0


class TestSubmitPoll:
    def test_submit_then_result_matches_direct_session(self, door):
        status, _, payload = call(
            door, "POST", "/v1/submit", {"backend": "lightnobel", "sequence_length": 24}
        )
        assert status == 202
        ticket = payload["ticket_id"]
        status, _, payload = call(door, "GET", f"/v1/result/{ticket}?wait_seconds=60")
        assert status == 200
        response = WireResponse.from_dict(payload)
        assert response.ok and response.ticket_id == ticket
        direct = SimulationSession(
            ppm_config=PPMConfig.tiny()
        ).simulate(24, backend="lightnobel")
        assert response.report.total_seconds == direct.total_seconds

    def test_consumed_ticket_is_gone(self, door):
        _, _, payload = call(door, "POST", "/v1/submit", {"sequence_length": 24})
        ticket = payload["ticket_id"]
        status, _, _ = call(door, "GET", f"/v1/result/{ticket}?wait_seconds=60")
        assert status == 200
        status, _, payload = call(door, "GET", f"/v1/result/{ticket}")
        assert status == 404
        assert payload["code"] == "already_consumed"

    def test_unknown_ticket_404(self, door):
        status, _, payload = call(door, "GET", "/v1/result/999999")
        assert status == 404
        assert payload["code"] == "unknown_ticket"

    def test_pending_poll_returns_202_with_retry_after(self, door):
        # wait_seconds=0 on a fresh ticket races fulfillment; a staged
        # service would be deterministic but the 202 shape matters more here.
        _, _, payload = call(door, "POST", "/v1/submit", {"sequence_length": 40})
        ticket = payload["ticket_id"]
        status, headers, payload = call(door, "GET", f"/v1/result/{ticket}")
        if status == 202:
            assert payload["status"] == "pending"
            assert "Retry-After" in headers
            status, _, _ = call(door, "GET", f"/v1/result/{ticket}?wait_seconds=60")
        assert status == 200

    def test_query_is_synchronous(self, door):
        status, _, payload = call(
            door, "POST", "/v1/query", {"backend": "h100", "sequence_length": 24}
        )
        assert status == 200
        response = WireResponse.from_dict(payload)
        assert response.ok
        assert response.request.backend == "h100"

    def test_healthz(self, door):
        status, _, payload = call(door, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"


class TestStream:
    def test_batch_then_stream_collects_everything(self, door):
        requests = [
            WireRequest(backend="lightnobel", sequence_length=n, tenant="stream")
            for n in (24, 32, 40, 48, 56)
        ]

        async def go():
            async with FrontDoorClient(door.host, door.port) as client:
                tickets = await client.submit_batch(requests)
                results = []
                async for item in client.stream_results(tickets):
                    results.append(item)
                return tickets, results

        tickets, results = asyncio.run(go())
        assert len(tickets) == len(requests)
        assert all(isinstance(r, WireResponse) and r.ok for r in results)
        assert {r.ticket_id for r in results} == set(tickets)
        assert {r.request.sequence_length for r in results} == {24, 32, 40, 48, 56}

    def test_stream_reports_unknown_tickets_inline(self, door):
        from repro.serving import ErrorBody

        async def go():
            async with FrontDoorClient(door.host, door.port) as client:
                return [item async for item in client.stream_results([987654])]

        (item,) = asyncio.run(go())
        assert isinstance(item, ErrorBody)
        assert item.code == "unknown_ticket"


class TestValidation:
    @pytest.mark.parametrize(
        "body, code",
        [
            ("{not valid json", "invalid_json"),
            ('{"backend": "lightnobel"}', "missing_field"),
            ('{"sequence_length": 24, "surprise": true}', "unknown_field"),
            ('{"sequence_length": 24, "schema_version": 42}', "unsupported_schema_version"),
            ('{"sequence_length": 0}', "invalid_field"),
            ('{"sequence_length": 24, "priority": "high"}', "invalid_field"),
        ],
    )
    def test_malformed_submit_is_400(self, door, body, code):
        status, _, payload = call(door, "POST", "/v1/submit", body)
        assert status == 400
        assert payload["code"] == code

    @pytest.mark.parametrize("route", ["/v1/submit", "/v1/query", "/v1/batch"])
    @pytest.mark.parametrize(
        "body", ["{not json", b"\xff", b""], ids=["not-json", "not-utf8", "empty"]
    )
    def test_malformed_json_is_invalid_json_on_every_body_route(self, door, route, body):
        status, _, payload = call(door, "POST", route, body)
        assert status == 400
        assert payload["code"] == "invalid_json"

    def test_batch_requires_requests_list(self, door):
        status, _, payload = call(door, "POST", "/v1/batch", {"requests": "nope"})
        assert status == 400
        assert payload["code"] == "invalid_field"

    def test_unknown_route_404(self, door):
        status, _, payload = call(door, "GET", "/v2/nothing")
        assert status == 404
        assert payload["code"] == "not_found"


class TestBackpressure:
    def test_tenant_quota_yields_429_with_retry_after(self, tiny_config):
        # Staged service: the dispatcher is not running, so pending requests
        # accumulate deterministically against the tenant bound.
        service = LatencyService(
            ppm_config=tiny_config, autostart=False
        )
        handle = serve_in_thread(service=service, max_pending_per_tenant=2)
        try:
            for n in (24, 32):
                status, _, _ = call(
                    handle, "POST", "/v1/submit",
                    {"sequence_length": n, "tenant": "greedy"},
                )
                assert status == 202
            status, headers, payload = call(
                handle, "POST", "/v1/submit",
                {"sequence_length": 40, "tenant": "greedy"},
            )
            assert status == 429
            assert payload["code"] == "backpressure"
            assert payload["retry_after_seconds"] > 0
            assert float(headers["Retry-After"]) > 0
            # Per-tenant isolation: another tenant is still admitted.
            status, _, _ = call(
                handle, "POST", "/v1/submit",
                {"sequence_length": 40, "tenant": "patient"},
            )
            assert status == 202
            # Quota frees on fulfillment, not on claim.
            service.start()
            deadline = time.time() + TIMEOUT
            while time.time() < deadline:
                _, _, metrics = call(handle, "GET", "/metrics")
                if metrics["http"]["pending"] == 0:
                    break
                time.sleep(0.02)
            status, _, _ = call(
                handle, "POST", "/v1/submit",
                {"sequence_length": 48, "tenant": "greedy"},
            )
            assert status == 202
        finally:
            handle.stop(drain=True)
            service.close()

    def test_batch_admission_is_all_or_nothing(self, tiny_config):
        service = LatencyService(
            ppm_config=tiny_config, autostart=False
        )
        handle = serve_in_thread(service=service, max_pending_per_tenant=3)
        try:
            body = {
                "requests": [
                    {"sequence_length": n, "tenant": "batcher"} for n in (24, 32, 40, 48)
                ]
            }
            status, _, payload = call(handle, "POST", "/v1/batch", body)
            assert status == 429
            _, _, metrics = call(handle, "GET", "/metrics")
            # Nothing was half-admitted.
            assert metrics["http"]["pending"] == 0
            body["requests"] = body["requests"][:3]
            status, _, payload = call(handle, "POST", "/v1/batch", body)
            assert status == 202
            assert len(payload["ticket_ids"]) == 3
        finally:
            service.start()
            handle.stop(drain=True)
            service.close()


class TestPriorityOnTheWire:
    def test_priority_order_observed_in_completed_index(self, tiny_config):
        service = LatencyService(
            ppm_config=tiny_config, autostart=False, max_batch=1
        )
        handle = serve_in_thread(service=service, max_pending_per_tenant=64)
        try:
            low = []
            for n in (24, 32, 40):
                _, _, payload = call(
                    handle, "POST", "/v1/submit",
                    {"backend": "lightnobel", "sequence_length": n},
                )
                low.append(payload["ticket_id"])
            _, _, payload = call(
                handle, "POST", "/v1/submit",
                {"backend": "h100", "sequence_length": 24, "priority": 3},
            )
            high = payload["ticket_id"]
            service.start()
            responses = {}
            for ticket in low + [high]:
                status, _, payload = call(
                    handle, "GET", f"/v1/result/{ticket}?wait_seconds=60"
                )
                assert status == 200
                responses[ticket] = WireResponse.from_dict(payload)
            # Submitted last, dispatched first — visible on the wire.
            assert responses[high].completed_index < min(
                responses[t].completed_index for t in low
            )
            low_order = [responses[t].completed_index for t in low]
            assert low_order == sorted(low_order)
        finally:
            handle.stop(drain=True)
            service.close()


#: Keys of the ``service``, ``capacity`` and ``http`` blocks of ``GET /metrics``.
METRICS_JSON_KEYS = {
    "service": {
        "submitted", "completed", "errors", "coalesced", "memo_hits", "simulations",
        "batches", "busy_seconds", "queue_depth", "peak_queue_depth", "timeouts",
        "late_results", "stacked_batches", "stacked_points", "backends",
    },
    "capacity": {
        "schema_version", "requests", "completed", "errors", "coalesced", "memo_hits",
        "simulations", "queue_depth", "peak_queue_depth", "timed_out", "late_results",
        "stacked_batches", "stacked_points", "wall_seconds",
        "busy_seconds", "queries_per_second", "backends",
    },
    "http": {
        "pending", "fulfilled_unclaimed", "consumed", "reaped", "draining", "tenants",
    },
}

#: ``/metrics`` JSON (block, key) -> the Prometheus family holding the same value.
JSON_PROM_PAIRS = {
    ("service", "submitted"): "repro_serving_requests_submitted_total",
    ("service", "completed"): "repro_serving_requests_completed_total",
    ("service", "errors"): "repro_serving_errors_total",
    ("service", "coalesced"): "repro_serving_coalesced_total",
    ("service", "memo_hits"): "repro_serving_memo_hits_total",
    ("service", "simulations"): "repro_serving_simulations_total",
    ("service", "batches"): "repro_serving_batches_total",
    ("service", "busy_seconds"): "repro_serving_busy_seconds_total",
    ("service", "queue_depth"): "repro_serving_queue_depth",
    ("service", "peak_queue_depth"): "repro_serving_peak_queue_depth",
    ("service", "timeouts"): "repro_serving_timeouts_total",
    ("service", "late_results"): "repro_serving_late_results_total",
    ("service", "stacked_batches"): "repro_serving_stacked_batches_total",
    ("service", "stacked_points"): "repro_serving_stacked_points_total",
    ("capacity", "requests"): "repro_serving_requests_submitted_total",
    ("capacity", "completed"): "repro_serving_requests_completed_total",
    ("capacity", "errors"): "repro_serving_errors_total",
    ("capacity", "coalesced"): "repro_serving_coalesced_total",
    ("capacity", "memo_hits"): "repro_serving_memo_hits_total",
    ("capacity", "simulations"): "repro_serving_simulations_total",
    ("capacity", "busy_seconds"): "repro_serving_busy_seconds_total",
    ("capacity", "queue_depth"): "repro_serving_queue_depth",
    ("capacity", "peak_queue_depth"): "repro_serving_peak_queue_depth",
    ("capacity", "timed_out"): "repro_serving_timeouts_total",
    ("capacity", "late_results"): "repro_serving_late_results_total",
    ("capacity", "stacked_batches"): "repro_serving_stacked_batches_total",
    ("capacity", "stacked_points"): "repro_serving_stacked_points_total",
    ("http", "pending"): "repro_http_pending",
    ("http", "fulfilled_unclaimed"): "repro_http_fulfilled_unclaimed",
    ("http", "consumed"): "repro_http_consumed_total",
    ("http", "reaped"): "repro_http_reaped_total",
    ("http", "draining"): "repro_http_draining",
}


def get_text(handle, path: str) -> str:
    """GET a non-JSON body (the Prometheus exposition) as text."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=TIMEOUT)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        return response.read().decode("utf-8")
    finally:
        conn.close()


class TestMetricsAndLog:
    def test_metrics_parity_with_service_stats(self, tiny_config):
        service = LatencyService(ppm_config=tiny_config)
        handle = serve_in_thread(service=service)
        try:
            for n in (24, 32, 40):
                status, _, _ = call(
                    handle, "POST", "/v1/query", {"sequence_length": n}
                )
                assert status == 200
            _, _, metrics = call(handle, "GET", "/metrics")
            snap = service.stats.snapshot()
            for key in ("submitted", "completed", "errors", "coalesced", "simulations"):
                assert metrics["service"][key] == snap[key]
            report = service.capacity_report()
            assert metrics["capacity"]["completed"] == report.completed
            assert metrics["capacity"]["requests"] == report.requests
            served = {row["backend"] for row in metrics["capacity"]["backends"]}
            assert "lightnobel" in served
            assert (metrics["service"]["completed"], metrics["service"]["errors"]) == (3, 0)
            assert metrics["http"]["consumed"] == 3
            assert metrics["http"]["pending"] == 0
            assert metrics["http"]["draining"] is False
            # The JSON surface: exactly these keys in each block.
            assert set(metrics) == {"schema_version", "service", "capacity", "http"}
            for block, keys in METRICS_JSON_KEYS.items():
                assert set(metrics[block]) == keys, block
            # Every counter and gauge reads the same in JSON and Prometheus.
            families = prom.parse(get_text(handle, "/metrics?format=prom"))
            scalar_families = {
                name for name, family in families.items() if family.kind != "histogram"
            }
            assert set(JSON_PROM_PAIRS.values()) == scalar_families
            # ... and every declared counter is one of the compared pairs.
            declared = {("service", m.name): m.prom for m in SERVICE_METRICS}
            declared.update({("http", key): name for key, name, _, _ in HTTP_METRICS})
            assert declared.items() <= JSON_PROM_PAIRS.items()
            for (block, key), name in JSON_PROM_PAIRS.items():
                (sample,) = families[name].samples
                assert metrics[block][key] == sample.value, (block, key, name)
        finally:
            handle.stop(drain=True)
            service.close()

    def test_log_round_trip_is_digest_stable(self, tiny_config):
        from repro.cluster import RequestTrace

        service = LatencyService(ppm_config=tiny_config)
        handle = serve_in_thread(service=service)
        try:
            for n in (24, 32):
                call(
                    handle, "POST", "/v1/query",
                    {"sequence_length": n, "deadline_seconds": 30.0},
                )
            status, _, payload = call(handle, "GET", "/v1/log")
            assert status == 200
            records = request_log_from_json(json.dumps(payload))
            assert len(records) == 2
            first = RequestTrace.from_serving_log(records)
            second = RequestTrace.from_serving_log(records)
            assert first.config_digest() == second.config_digest()
            assert len(first) == 2
        finally:
            handle.stop(drain=True)
            service.close()


class TestPinnedTraceOverSockets:
    def test_pinned_trace_completes_meets_slo_and_drains_clean(self):
        """90 seeded Poisson arrivals replayed over real sockets by the load harness."""
        from repro.cluster.trace import RequestTrace, SLOPolicy, mixture_lengths, poisson_trace
        from repro.serving.http.loadgen import replay_trace_http

        lengths, weights = mixture_lengths([(24, 0.6), (48, 0.3), (96, 0.1)])
        trace = poisson_trace(
            rate_rps=300.0,
            num_requests=90,
            length_pool=lengths,
            length_weights=weights,
            # The tiny config simulates in microseconds; the 2 s base absorbs
            # socket and scheduling jitter on a slow machine.
            slo=SLOPolicy(base_seconds=2.0, per_residue_seconds=0.01),
            seed=23,
            name="http-pinned",
        )
        handle = serve_in_thread(
            ppm_config=PPMConfig.tiny(), max_pending_per_tenant=512
        )
        try:
            report = replay_trace_http(trace, handle.host, handle.port, tenant="pinned")
            log_json = get_text(handle, "/v1/log")
        finally:
            drain = handle.stop(drain=True)
        assert report.completed == len(trace) == 90
        assert report.errors == 0
        assert report.slo_attainment >= 0.95
        records = request_log_from_json(log_json)
        first = RequestTrace.from_serving_log(records, name="http-pinned-replayed")
        second = RequestTrace.from_serving_log(records, name="http-pinned-replayed")
        assert first.config_digest() == second.config_digest()
        assert len(first) == 90
        assert drain["unfulfilled"] == 0 and drain["unclaimed"] == 0


def raw_query(handle, body: bytes) -> bytes:
    """POST /v1/query over a bare socket; returns the raw HTTP response."""
    head = (
        "POST /v1/query HTTP/1.1\r\nHost: {}:{}\r\nContent-Type: application/json\r\n"
        "Content-Length: {}\r\nConnection: close\r\n\r\n"
    ).format(handle.host, handle.port, len(body))
    chunks = []
    with socket.create_connection((handle.host, handle.port), timeout=TIMEOUT) as sock:
        sock.sendall(head.encode("latin-1") + body)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestOneObjectPerDirection:
    def test_warm_query_builds_one_request_and_one_response(self, tiny_config, monkeypatch):
        """The decoded request is what the service queues; its response is what is encoded."""
        import repro.serving.api as api
        import repro.serving.wire as wire

        handle = serve_in_thread(ppm_config=tiny_config)
        built = {"request": 0, "response": 0}

        def counting(cls, kind):
            original = cls.__init__

            def init(self, *args, **kwargs):
                built[kind] += 1
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        try:
            body = b'{"backend": "lightnobel", "sequence_length": 24, "tenant": "count"}'
            assert raw_query(handle, body).startswith(b"HTTP/1.1 200 ")  # warms the memo
            # Both names: a separate wire class would be counted too.
            for cls in {api.LatencyRequest, wire.WireRequest}:
                counting(cls, "request")
            for cls in {api.LatencyResponse, wire.WireResponse}:
                counting(cls, "response")
            reply = raw_query(handle, body)
            monkeypatch.undo()
        finally:
            report = handle.stop(drain=True)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b'"tenant": "count"' in reply
        assert built == {"request": 1, "response": 1}
        assert report["unfulfilled"] == 0 and report["unclaimed"] == 0


class TestWarmQueryOnTheLoop:
    def test_warm_queries_schedule_no_loop_callbacks(self, tiny_config):
        handle = serve_in_thread(ppm_config=tiny_config)
        scheduled = []
        try:
            for n in (24, 40):  # warm the memo through the dispatcher
                assert call(handle, "POST", "/v1/query", {"sequence_length": n})[0] == 200
            loop = handle._loop
            original = loop.call_soon_threadsafe

            def counting(callback, *args, **kwargs):
                scheduled.append(callback)
                return original(callback, *args, **kwargs)

            loop.call_soon_threadsafe = counting
            try:
                for i in range(50):
                    status, _, payload = call(
                        handle, "POST", "/v1/query", {"sequence_length": (24, 40)[i % 2]}
                    )
                    assert status == 200 and WireResponse.from_dict(payload).ok
            finally:
                del loop.call_soon_threadsafe
            assert handle.door.service.stats.memo_hits == 50
        finally:
            report = handle.stop(drain=True)
        assert scheduled == []
        assert report["unfulfilled"] == 0 and report["unclaimed"] == 0

    def test_warm_queries_build_no_asyncio_events(self, tiny_config, monkeypatch):
        handle = serve_in_thread(ppm_config=tiny_config)
        built = []
        original = asyncio.Event.__init__

        def counting(event, *args, **kwargs):
            built.append(event)
            original(event, *args, **kwargs)

        try:
            for n in (24, 40):  # warm the memo through the dispatcher
                assert call(handle, "POST", "/v1/query", {"sequence_length": n})[0] == 200
            monkeypatch.setattr(asyncio.Event, "__init__", counting)
            for i in range(50):
                status, _, payload = call(
                    handle, "POST", "/v1/query", {"sequence_length": (24, 40)[i % 2]}
                )
                assert status == 200 and WireResponse.from_dict(payload).ok
            monkeypatch.undo()
            # A query that has to wait still gets its event and its answer.
            status, _, payload = call(handle, "POST", "/v1/query", {"sequence_length": 56})
            assert status == 200 and WireResponse.from_dict(payload).ok
        finally:
            report = handle.stop(drain=True)
        assert built == []
        assert report["unfulfilled"] == 0 and report["unclaimed"] == 0

    def test_standalone_server_keeps_the_latest_log_records(self, monkeypatch):
        from repro.serving.http import __main__ as cli

        assert cli.REQUEST_LOG_LIMIT == 100_000
        monkeypatch.setattr(cli, "REQUEST_LOG_LIMIT", 3)
        service = cli.build_door(cli.build_parser().parse_args([])).service
        with service:
            service.query_batch([("lightnobel", n) for n in (24, 32, 40, 48)], timeout=TIMEOUT)
        assert [record.sequence_length for record in service.request_log()] == [32, 40, 48]


class TestReap:
    def test_unclaimed_ticket_becomes_410_gone(self, tiny_config):
        service = LatencyService(ppm_config=tiny_config)
        # reap_after_seconds=0: fulfilled-unclaimed tickets are immediately
        # overdue once a reap pass runs (explicit POST /v1/reap here).
        handle = serve_in_thread(service=service, reap_after_seconds=0.0)
        try:
            _, _, payload = call(handle, "POST", "/v1/submit", {"sequence_length": 24})
            ticket = payload["ticket_id"]
            deadline = time.time() + TIMEOUT
            while time.time() < deadline:
                _, _, metrics = call(handle, "GET", "/metrics")
                if metrics["http"]["fulfilled_unclaimed"] >= 1:
                    break
                time.sleep(0.02)
            status, _, payload = call(handle, "POST", "/v1/reap")
            assert status == 200
            assert ticket in payload["reaped"]
            status, _, payload = call(handle, "GET", f"/v1/result/{ticket}")
            assert status == 410
            assert payload["code"] == "reaped"
            # The reap consumed the ticket service-side too (not a drop):
            # the response was completed and the ticket table is empty.
            report = service.capacity_report()
            assert report.completed == 1
            _, _, metrics = call(handle, "GET", "/metrics")
            assert metrics["http"]["reaped"] == 1
            assert metrics["http"]["fulfilled_unclaimed"] == 0
        finally:
            handle.stop(drain=True)
            service.close()


class TestTicketState:
    def test_claimed_tickets_leave_no_per_ticket_state(self, tiny_config):
        """The service owns terminal ticket states; nothing grows per claim."""
        claims = 300
        service = LatencyService(ppm_config=tiny_config)
        handle = serve_in_thread(service=service, reap_after_seconds=0.0)
        try:
            for _ in range(claims):
                status, _, _ = call(handle, "POST", "/v1/query", {"sequence_length": 24})
                assert status == 200
            # One reaped ticket: the exception path that is remembered.
            _, _, payload = call(handle, "POST", "/v1/submit", {"sequence_length": 32})
            reaped = payload["ticket_id"]
            deadline = time.time() + TIMEOUT
            while call(handle, "GET", "/metrics")[2]["http"]["fulfilled_unclaimed"] < 1:
                assert time.time() < deadline
                time.sleep(0.02)
            assert call(handle, "POST", "/v1/reap")[2]["reaped"] == [reaped]

            # No container on either side holds an entry per claimed ticket.
            for owner in (handle.door, service):
                sizes = {
                    name: len(value)
                    for name, value in vars(owner).items()
                    if isinstance(value, (dict, set, list))
                }
                assert max(sizes.values()) <= 1, (type(owner).__name__, sizes)
            assert service.ticket_counts() == {"consumed": claims, "reaped": 1}

            # Each terminal state keeps its status code and error code.
            status, _, body = call(handle, "GET", "/v1/result/0")
            assert (status, body["code"]) == (404, "already_consumed")
            status, _, body = call(handle, "GET", f"/v1/result/{reaped}")
            assert (status, body["code"]) == (410, "reaped")
            status, _, body = call(handle, "GET", f"/v1/result/{reaped + 1}")
            assert (status, body["code"]) == (404, "unknown_ticket")
        finally:
            handle.stop(drain=True)
            service.close()


class TestShutdownDrains:
    def test_sigterm_drains_in_flight_tickets(self, tmp_path):
        """``python -m repro.serving.http`` exits 0 with zero unfulfilled tickets."""
        env = dict(os.environ)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serving.http",
                "--ppm", "tiny", "--port", "0", "--claim-grace-seconds", "0.2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening "), line
            _, host, port = line.split()
            conn = http.client.HTTPConnection(host, int(port), timeout=TIMEOUT)
            tickets = []
            for n in (24, 32, 40, 48):
                conn.request(
                    "POST", "/v1/submit",
                    json.dumps({"sequence_length": n}).encode(),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 202
                tickets.append(json.loads(response.read())["ticket_id"])
            conn.close()
            # SIGTERM lands while tickets are (potentially) in flight; the
            # server must fulfill all of them before exiting.
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        drain_lines = [l for l in out.splitlines() if l.startswith("drain ")]
        assert drain_lines, out
        report = json.loads(drain_lines[-1][len("drain "):])
        assert report["unfulfilled"] == 0
        assert report["pending_at_shutdown"] + report["unclaimed"] + report[
            "consumed"
        ] >= 0  # shape check: all counters present
        assert report["unclaimed"] == len(tickets)  # nothing was claimed, nothing lost
