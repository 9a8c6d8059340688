"""Byte pins for the serving wire format.

Every payload below is the exact text the codec put on the socket when these
pins were taken.  A codec rewrite must reproduce it byte for byte: the HTTP
clients, the ``/v1/log`` archive and the ``http-warm`` digest all read these
bytes.  The second half pins the ``WireFormatError.code`` of malformed
payloads, one table row per (decoder, payload).
"""

import json

import pytest

from repro.serving.api import BackendServiceStats, CapacityReport, RequestLogRecord
from repro.serving.wire import (
    ErrorBody,
    WireFormatError,
    WireRequest,
    WireResponse,
    backend_stats_from_dict,
    capacity_report_from_dict,
    capacity_report_to_dict,
    log_record_from_dict,
    request_log_from_json,
    request_log_to_json,
    sim_report_from_dict,
)
from repro.sim.backend import SimReport


def _sim_report() -> SimReport:
    return SimReport(
        backend="lightnobel",
        sequence_length=48,
        total_seconds=0.125,
        phase_seconds={"ppm": 0.1, "pairformer": 0.025},
        subphase_seconds={"ppm/attention": 0.06, "ppm/transition": 0.04},
        out_of_memory=False,
        details={"recycles": 3.0},
    )


def _capacity_report() -> CapacityReport:
    return CapacityReport(
        requests=10,
        completed=9,
        errors=1,
        coalesced=2,
        memo_hits=3,
        simulations=4,
        queue_depth=0,
        peak_queue_depth=5,
        wall_seconds=1.5,
        busy_seconds=0.75,
        queries_per_second=12.0,
        backends=(
            BackendServiceStats(
                backend="lightnobel",
                requests=9,
                mean_seconds=0.01,
                p50_seconds=0.009,
                p99_seconds=0.02,
            ),
            BackendServiceStats(
                backend="h100", requests=1, mean_seconds=0.5, p50_seconds=0.5, p99_seconds=0.5
            ),
        ),
        timed_out=1,
        late_results=1,
        stacked_batches=2,
        stacked_points=6,
    )


def _log_records():
    return [
        RequestLogRecord(
            ticket_id=0,
            backend="lightnobel",
            sequence_length=24,
            priority=0,
            deadline_seconds=None,
            arrival_seconds=0.0,
            outcome="ok",
        ),
        RequestLogRecord(
            ticket_id=1,
            backend="h100",
            sequence_length=96,
            priority=2,
            deadline_seconds=2.5,
            arrival_seconds=0.125,
            outcome="error",
            coalesced=True,
            queue_seconds=0.001,
            service_seconds=0.004,
            trace_id="trace-1",
        ),
    ]


FULL_REQUEST = (
    '{"backend": "h100-chunk", "deadline_seconds": 1.5, "include_recycles": true, '
    '"priority": 2, "schema_version": 2, "sequence_length": 800, "tenant": "team-a", '
    '"trace_id": "trace-7"}'
)
MINIMAL_REQUEST = (
    '{"backend": "lightnobel", "deadline_seconds": null, "include_recycles": null, '
    '"priority": 0, "schema_version": 2, "sequence_length": 24, "tenant": "default", '
    '"trace_id": null}'
)
REPORT_RESPONSE = (
    '{"coalesced": true, "completed_index": 3, "error": null, "queue_seconds": 0.002, '
    '"report": {"backend": "lightnobel", "details": {"recycles": 3.0}, '
    '"out_of_memory": false, "phase_seconds": {"pairformer": 0.025, "ppm": 0.1}, '
    '"schema_version": 2, "sequence_length": 48, "subphase_seconds": '
    '{"ppm/attention": 0.06, "ppm/transition": 0.04}, "total_seconds": 0.125}, '
    '"request": {"backend": "lightnobel", "deadline_seconds": null, '
    '"include_recycles": null, "priority": 0, "schema_version": 2, '
    '"sequence_length": 48, "tenant": "t", "trace_id": null}, "schema_version": 2, '
    '"service_seconds": 0.01, "ticket_id": 7}'
)
ERROR_RESPONSE = (
    '{"coalesced": false, "completed_index": -1, "error": "backend exploded", '
    '"queue_seconds": 0.0, "report": null, "request": {"backend": "lightnobel", '
    '"deadline_seconds": null, "include_recycles": null, "priority": 0, '
    '"schema_version": 2, "sequence_length": 24, "tenant": "default", '
    '"trace_id": null}, "schema_version": 2, "service_seconds": 0.5, "ticket_id": 9}'
)
ERROR_BODY = (
    '{"code": "backpressure", "message": "slow down", "retry_after_seconds": 0.05, '
    '"schema_version": 2}'
)
CAPACITY = (
    '{"backends": [{"backend": "lightnobel", "mean_seconds": 0.01, "p50_seconds": 0.009, '
    '"p99_seconds": 0.02, "requests": 9}, {"backend": "h100", "mean_seconds": 0.5, '
    '"p50_seconds": 0.5, "p99_seconds": 0.5, "requests": 1}], "busy_seconds": 0.75, '
    '"coalesced": 2, "completed": 9, "errors": 1, "late_results": 1, "memo_hits": 3, '
    '"peak_queue_depth": 5, "queries_per_second": 12.0, "queue_depth": 0, '
    '"requests": 10, "schema_version": 2, "simulations": 4, "stacked_batches": 2, '
    '"stacked_points": 6, "timed_out": 1, "wall_seconds": 1.5}'
)
REQUEST_LOG = (
    '{"records": [{"arrival_seconds": 0.0, "backend": "lightnobel", "coalesced": false, '
    '"deadline_seconds": null, "outcome": "ok", "priority": 0, "queue_seconds": 0.0, '
    '"schema_version": 2, "sequence_length": 24, "service_seconds": 0.0, '
    '"ticket_id": 0, "trace_id": null}, {"arrival_seconds": 0.125, "backend": "h100", '
    '"coalesced": true, "deadline_seconds": 2.5, "outcome": "error", "priority": 2, '
    '"queue_seconds": 0.001, "schema_version": 2, "sequence_length": 96, '
    '"service_seconds": 0.004, "ticket_id": 1, "trace_id": "trace-1"}], '
    '"schema_version": 2}'
)


class TestEncodedBytes:
    def test_request_with_every_field_set(self):
        request = WireRequest(
            backend="h100-chunk",
            sequence_length=800,
            include_recycles=True,
            priority=2,
            deadline_seconds=1.5,
            tenant="team-a",
            trace_id="trace-7",
        )
        assert request.to_json() == FULL_REQUEST
        # The batch body dumps to_dict() unsorted: its key order is on the socket.
        assert json.dumps(request.to_dict()) == (
            '{"schema_version": 2, "backend": "h100-chunk", "sequence_length": 800, '
            '"include_recycles": true, "priority": 2, "deadline_seconds": 1.5, '
            '"tenant": "team-a", "trace_id": "trace-7"}'
        )

    def test_minimal_request_re_encodes_with_defaults(self):
        assert WireRequest.from_json('{"sequence_length": 24}').to_json() == MINIMAL_REQUEST

    def test_response_with_report(self):
        response = WireResponse(
            ticket_id=7,
            request=WireRequest(backend="lightnobel", sequence_length=48, tenant="t"),
            report=_sim_report(),
            coalesced=True,
            queue_seconds=0.002,
            service_seconds=0.01,
            completed_index=3,
        )
        assert response.to_json() == REPORT_RESPONSE
        assert WireResponse.from_json(REPORT_RESPONSE).to_json() == REPORT_RESPONSE

    def test_response_with_error(self):
        response = WireResponse(
            ticket_id=9,
            request=WireRequest(sequence_length=24),
            error="backend exploded",
            service_seconds=0.5,
        )
        assert response.to_json() == ERROR_RESPONSE
        assert WireResponse.from_json(ERROR_RESPONSE).to_json() == ERROR_RESPONSE

    def test_error_body(self):
        body = ErrorBody(code="backpressure", message="slow down", retry_after_seconds=0.05)
        assert body.to_json() == ERROR_BODY

    def test_capacity_report(self):
        assert json.dumps(capacity_report_to_dict(_capacity_report()), sort_keys=True) == CAPACITY

    def test_request_log(self):
        assert request_log_to_json(_log_records()) == REQUEST_LOG
        assert request_log_to_json(request_log_from_json(REQUEST_LOG)) == REQUEST_LOG


def _report_payload(**changes):
    payload = json.loads(REPORT_RESPONSE)["report"]
    payload.update(changes)
    return payload


def _capacity_payload(**changes):
    payload = json.loads(CAPACITY)
    payload.update(changes)
    return payload


def _log_payload(**changes):
    payload = json.loads(REQUEST_LOG)["records"][1]
    payload.update(changes)
    return payload


_BACKEND_ROW = {
    "backend": "h100", "requests": 1, "mean_seconds": 0.5, "p50_seconds": 0.5,
    "p99_seconds": 0.5,
}

#: (decoder, payload, code).  The first block is test_strict_validation's
#: table in tests/test_wire_api.py as it stood when the pins were taken.
MALFORMED = [
    (WireRequest.from_json, "{not json", "invalid_json"),
    (WireRequest.from_json, '{"sequence_length": 24, "nope": 1}', "unknown_field"),
    (WireRequest.from_json, '{"backend": "h100"}', "missing_field"),
    (WireRequest.from_json, '{"sequence_length": 0}', "invalid_field"),
    (WireRequest.from_json, '{"sequence_length": true}', "invalid_field"),
    (WireRequest.from_json, '{"sequence_length": 24, "deadline_seconds": -1}', "invalid_field"),
    (
        WireRequest.from_json,
        '{"sequence_length": 24, "schema_version": 99}',
        "unsupported_schema_version",
    ),
    (WireResponse.from_json, REPORT_RESPONSE[:-1] + ', "surprise": 1}', "unknown_field"),
    (WireResponse.from_json, '{"ticket_id": 1}', "missing_field"),
    (WireResponse.from_json, REPORT_RESPONSE.replace('"ticket_id": 7', '"ticket_id": -1'),
     "invalid_field"),
    (ErrorBody.from_json, '{"code": "x", "message": "y", "retry_after_seconds": -1}',
     "invalid_field"),
    (ErrorBody.from_json, b"\xff", "invalid_json"),
    (sim_report_from_dict, _report_payload(sequence_length=0), "invalid_field"),
    (sim_report_from_dict, _report_payload(out_of_memory=1), "invalid_field"),
    (sim_report_from_dict, _report_payload(phase_seconds=[]), "invalid_field"),
    (sim_report_from_dict, _report_payload(schema_version=1), "unsupported_schema_version"),
    (backend_stats_from_dict, dict(_BACKEND_ROW, requests=-1), "invalid_field"),
    (backend_stats_from_dict, dict(_BACKEND_ROW, schema_version=2), "unknown_field"),
    (capacity_report_from_dict, _capacity_payload(backends={}), "invalid_field"),
    (capacity_report_from_dict, _capacity_payload(requests=1.5), "invalid_field"),
    (log_record_from_dict, _log_payload(coalesced="yes"), "invalid_field"),
    (log_record_from_dict, _log_payload(extra=None), "unknown_field"),
    (request_log_from_json, '{"records": {}}', "invalid_field"),
    (request_log_from_json, '{"records": [], "schema_version": "2"}',
     "unsupported_schema_version"),
]


@pytest.mark.parametrize(
    "decode, payload, code", MALFORMED, ids=[f"{i}-{row[2]}" for i, row in enumerate(MALFORMED)]
)
def test_malformed_payload_codes(decode, payload, code):
    with pytest.raises(WireFormatError) as excinfo:
        decode(payload)
    assert excinfo.value.code == code


# ------------------------------------------------------------------ the splice
# A report's JSON is derived on its first encode and kept with the report;
# every response below must still encode to exactly what json.dumps writes.
def _dumps(response) -> str:
    return json.dumps(response.to_dict(), sort_keys=True)


def _assert_spliced(response) -> None:
    """First encode (derives the report's text) and a second (splices it) both match."""
    assert response.to_json() == _dumps(response)
    assert response.to_json() == _dumps(response)


@pytest.fixture()
def warm_service(tiny_config):
    from repro.serving import LatencyService

    service = LatencyService(ppm_config=tiny_config, use_disk_cache=False)
    service.query("lightnobel", 24, timeout=60.0)
    yield service
    service.close()


class TestSplicedBytes:
    def test_memo_hit(self, warm_service):
        ticket = warm_service.submit(WireRequest(sequence_length=24, tenant="t", trace_id="x"))
        response = warm_service.poll(ticket)
        assert response.ok and not response.coalesced
        _assert_spliced(response)
        # A later hit on the same memo entry splices the text derived above.
        _assert_spliced(warm_service.poll(warm_service.submit(WireRequest(sequence_length=24))))

    def test_coalesced(self, warm_service):
        tickets = warm_service.submit_batch([WireRequest(sequence_length=24)] * 2)
        responses = [warm_service.poll(ticket) for ticket in tickets]
        assert [r.coalesced for r in responses] == [False, True]
        for response in responses:
            _assert_spliced(response)

    def test_error(self, warm_service):
        ticket = warm_service.submit(WireRequest(backend="no-such-backend", sequence_length=24))
        response = warm_service.result(ticket, timeout=60.0)
        assert response.error and response.report is None
        _assert_spliced(response)

    @pytest.mark.parametrize("first", ["lightnobel", "alias"])
    def test_relabeled_backend_name(self, warm_service, first):
        """Two names of one config share a memo entry, its derived text, and not its name."""
        warm_service.register_backend("lightnobel", name="alias")
        names = [first, ({"lightnobel", "alias"} - {first}).pop()]
        responses = [
            warm_service.poll(warm_service.submit(WireRequest(backend=name, sequence_length=24)))
            for name in names
        ]
        assert [r.report.backend for r in responses] == names
        for response in responses:
            _assert_spliced(response)
        assert responses[0].report.__dict__["_derived"] is responses[1].report.__dict__["_derived"]

    def test_decoded_then_re_encoded(self):
        for text in (REPORT_RESPONSE, ERROR_RESPONSE):
            response = WireResponse.from_json(text)
            assert response.to_json() == text
            assert response.to_json() == text

    def test_derived_text_is_not_pickled_or_compared(self):
        import pickle

        report = _sim_report()
        response = WireResponse.from_json(REPORT_RESPONSE)
        response.to_json()
        assert "_derived" in response.report.__dict__
        assert response.report == report
        restored = pickle.loads(pickle.dumps(response.report))
        assert "_derived" not in restored.__dict__ and restored == report


class _CountingMapping(dict):
    """A report mapping that counts how often an encoder reads it."""

    def __init__(self, values, counter):
        super().__init__(values)
        self.counter = counter

    def items(self):
        self.counter["reads"] += 1
        return super().items()


class _CountingBackend:
    """The tiny accelerator, whose reports count the times they are encoded."""

    name = "counting"

    def __init__(self, ppm_config):
        from repro.hardware import LightNobelAccelerator

        self.inner = LightNobelAccelerator(ppm_config=ppm_config, name=self.name)
        self.ppm_config = self.inner.ppm_config
        self.counter = {"reads": 0}

    def simulate_stack(self, stack):
        from dataclasses import replace

        return [
            replace(r, phase_seconds=_CountingMapping(r.phase_seconds, self.counter))
            for r in self.inner.simulate_stack(stack)
        ]

    def simulate_stack_totals(self, stack):
        return self.inner.simulate_stack_totals(stack)

    def config_digest(self):
        return "counting-" + self.inner.config_digest()


def test_warm_query_encodes_no_report(tiny_config):
    """Over the socket, only the first /v1/query of a key encodes its report."""
    import http.client

    from repro.serving import LatencyService
    from repro.serving.http import serve_in_thread

    backend = _CountingBackend(tiny_config)
    service = LatencyService(ppm_config=tiny_config, use_disk_cache=False)
    service.register_backend(backend, name=backend.name)
    handle = serve_in_thread(service=service)
    body = b'{"backend": "counting", "sequence_length": 24}'

    def query() -> dict:
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60.0)
        try:
            conn.request("POST", "/v1/query", body, {"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 200
            return json.loads(reply.read())
        finally:
            conn.close()

    try:
        first = query()
        encoded = backend.counter["reads"]
        warm = [query() for _ in range(20)]
    finally:
        handle.stop(drain=True)
        service.close()
    assert encoded == 1
    assert backend.counter["reads"] == encoded
    assert all(reply["report"] == first["report"] for reply in warm)
