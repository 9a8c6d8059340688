"""Wire-format round trips and the redesigned public facade.

The wire contract: every serving type — ``LatencyRequest``/
``LatencyResponse``, ``CapacityReport``, ``RequestLogRecord`` — crosses the
wire as itself and round-trips through JSON *losslessly*, every payload
carries ``schema_version``, and validation is strict (unknown fields, wrong
types, and foreign schema versions are rejected with stable error codes).
Each codec is derived from its type's field declaration, so the encoded
keys are exactly the declared fields.  Facade tests pin the ``create_*``
factory family and the ``DeprecationWarning`` shims for moved names.
"""

import json

import pytest

from repro.serving.api import (
    BackendServiceStats,
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    RequestLogRecord,
)
from repro.serving.wire import (
    SCHEMA_VERSION,
    ErrorBody,
    WireFormatError,
    WireRequest,
    WireResponse,
    backend_stats_from_dict,
    backend_stats_to_dict,
    capacity_report_from_dict,
    capacity_report_to_dict,
    log_record_from_dict,
    log_record_to_dict,
    request_log_from_json,
    request_log_to_json,
    sim_report_from_dict,
    sim_report_to_dict,
)
from repro.report import SimReport


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


class TestWireRequest:
    def test_one_class_per_direction(self):
        assert WireRequest is LatencyRequest
        assert WireResponse is LatencyResponse

    def test_json_round_trip(self):
        request = WireRequest(
            backend="h100",
            sequence_length=800,
            include_recycles=True,
            priority=2,
            deadline_seconds=1.5,
            tenant="team-a",
            trace_id="trace-1",
        )
        assert WireRequest.from_json(request.to_json()) == request

    def test_latency_round_trip(self):
        request = LatencyRequest(
            backend="h100-chunk",
            sequence_length=300,
            include_recycles=False,
            priority=1,
            deadline_seconds=0.75,
            tenant="t",
        )
        assert request.tenant == "t"
        assert LatencyRequest("h100", 24).tenant == "default"
        assert LatencyRequest.from_json(request.to_json()) == request

    def test_defaults_are_curl_friendly(self):
        # Minimal body: just a length.  Version defaults to current.
        request = WireRequest.from_json('{"sequence_length": 24}')
        assert request == LatencyRequest("lightnobel", 24)
        assert json.loads(request.to_json())["schema_version"] == SCHEMA_VERSION

    def test_non_string_backend_is_unserializable(self):
        from repro.hardware import LightNobelConfig

        latency = LatencyRequest(backend=LightNobelConfig(), sequence_length=24)
        with pytest.raises(WireFormatError) as excinfo:
            latency.to_json()
        assert excinfo.value.code == "unserializable_backend"

    @pytest.mark.parametrize(
        "payload, code",
        [
            ("{not json", "invalid_json"),
            ('{"sequence_length": 24, "nope": 1}', "unknown_field"),
            ('{"backend": "h100"}', "missing_field"),
            ('{"sequence_length": 0}', "invalid_field"),
            ('{"sequence_length": true}', "invalid_field"),
            ('{"sequence_length": 24, "deadline_seconds": -1}', "invalid_field"),
            ('{"sequence_length": 24, "deadline_seconds": NaN}', "invalid_field"),
            ('{"sequence_length": 24, "deadline_seconds": Infinity}', "invalid_field"),
            ('{"sequence_length": 24, "schema_version": 99}', "unsupported_schema_version"),
        ],
    )
    def test_strict_validation(self, payload, code):
        with pytest.raises(WireFormatError) as excinfo:
            WireRequest.from_json(payload)
        assert excinfo.value.code == code

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), 0.0, -1.0])
    def test_in_process_deadline_must_be_positive_and_finite(self, deadline):
        # A NaN deadline would sort ahead of every finite one in
        # dispatch_order_key and echo back as invalid JSON.
        with pytest.raises(ValueError, match="deadline_seconds"):
            LatencyRequest(sequence_length=24, deadline_seconds=deadline)

    def test_in_process_checks_are_the_declared_ones(self):
        # __post_init__ unrolls the fields' declared checks: each is enforced.
        from dataclasses import fields

        from repro.serving.api import non_empty, positive

        invalid = {positive: 0, non_empty: ""}
        declared = {
            f.name: f.metadata["check"] for f in fields(LatencyRequest) if f.metadata.get("check")
        }
        assert set(declared) == {
            "backend", "sequence_length", "deadline_seconds", "tenant", "trace_id",
        }
        for name, check in declared.items():
            with pytest.raises(ValueError, match=name):
                LatencyRequest(**{"sequence_length": 24, name: invalid[check]})
        with pytest.raises(TypeError):
            LatencyRequest(sequence_length=None)


class TestWireResponse:
    def test_full_round_trip_with_report(self):
        response = LatencyResponse(
            ticket_id=7,
            request=LatencyRequest(backend="lightnobel", sequence_length=48, tenant="t"),
            report=_sim_report(),
            coalesced=True,
            queue_seconds=0.002,
            service_seconds=0.01,
            completed_index=3,
        )
        rebuilt = LatencyResponse.from_json(response.to_json())
        assert rebuilt.ok
        # Lossless, SimReport and tenant included.
        assert rebuilt == response

    def test_error_response_round_trip(self):
        response = LatencyResponse(
            ticket_id=9,
            request=LatencyRequest(sequence_length=24),
            error="backend exploded",
            service_seconds=0.5,
        )
        rebuilt = LatencyResponse.from_json(response.to_json())
        assert not rebuilt.ok
        assert rebuilt == response

    def test_sim_report_round_trip_is_lossless(self):
        report = _sim_report()
        assert sim_report_from_dict(sim_report_to_dict(report)) == report

    def test_unknown_field_rejected(self):
        response = LatencyResponse(ticket_id=0, request=LatencyRequest(sequence_length=24))
        payload = json.loads(response.to_json())
        payload["surprise"] = 1
        with pytest.raises(WireFormatError) as excinfo:
            WireResponse.from_dict(payload)
        assert excinfo.value.code == "unknown_field"


class TestErrorBody:
    def test_round_trip(self):
        body = ErrorBody(code="backpressure", message="slow down", retry_after_seconds=0.05)
        assert ErrorBody.from_json(body.to_json()) == body

    def test_version_is_stamped(self):
        assert json.loads(ErrorBody(code="x", message="y").to_json())[
            "schema_version"
        ] == SCHEMA_VERSION


class TestOperatorTypes:
    def test_capacity_report_round_trip(self):
        report = CapacityReport(
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
            ),
            timed_out=1,
            late_results=1,
            stacked_batches=2,
            stacked_points=6,
        )
        assert capacity_report_from_dict(capacity_report_to_dict(report)) == report

    def test_backend_stats_round_trip(self):
        row = BackendServiceStats(
            backend="h100", requests=4, mean_seconds=0.1, p50_seconds=0.09, p99_seconds=0.3
        )
        assert backend_stats_from_dict(backend_stats_to_dict(row)) == row

    def test_log_record_round_trip(self):
        record = RequestLogRecord(
            ticket_id=3,
            backend="lightnobel",
            sequence_length=96,
            priority=1,
            deadline_seconds=2.5,
            arrival_seconds=0.125,
            outcome="ok",
            coalesced=True,
            queue_seconds=0.001,
            service_seconds=0.004,
        )
        assert log_record_from_dict(log_record_to_dict(record)) == record

    def test_request_log_json_round_trip(self):
        records = [
            RequestLogRecord(
                ticket_id=i,
                backend="lightnobel",
                sequence_length=24 + i,
                priority=0,
                deadline_seconds=None,
                arrival_seconds=float(i),
                outcome="ok",
            )
            for i in range(4)
        ]
        rebuilt = request_log_from_json(request_log_to_json(records))
        assert rebuilt == records

    def test_request_log_feeds_cluster_trace(self):
        from repro.cluster.trace import RequestTrace

        records = [
            RequestLogRecord(
                ticket_id=i,
                backend="lightnobel",
                sequence_length=48,
                priority=0,
                deadline_seconds=1.0,
                arrival_seconds=0.5 + 0.25 * i,
                outcome="ok",
            )
            for i in range(3)
        ]
        trace = RequestTrace.from_serving_log(request_log_from_json(request_log_to_json(records)))
        again = RequestTrace.from_serving_log(request_log_from_json(request_log_to_json(records)))
        assert trace.config_digest() == again.config_digest()
        assert len(trace) == 3


class TestDeclarations:
    """Every codec is derived from its type's one field declaration."""

    @staticmethod
    def _samples():
        from repro.serving.wire import _RequestLog

        record = RequestLogRecord(
            ticket_id=1, backend="h100", sequence_length=24, trace_id="t-1"
        )
        row = BackendServiceStats(
            backend="h100", requests=1, mean_seconds=0.1, p50_seconds=0.1, p99_seconds=0.1
        )
        request = LatencyRequest("h100", 24)
        return {
            LatencyRequest: request,
            LatencyResponse: LatencyResponse(ticket_id=1, request=request, report=_sim_report()),
            ErrorBody: ErrorBody(code="x", message="y"),
            SimReport: _sim_report(),
            BackendServiceStats: row,
            CapacityReport: CapacityReport(backends=(row,)),
            RequestLogRecord: record,
            _RequestLog: _RequestLog((record,)),
        }

    def test_every_codec_is_sampled(self):
        from repro.serving.api import CODECS

        assert set(self._samples()) == set(CODECS)

    def test_encoded_keys_are_the_declared_fields_plus_the_stamp(self):
        from dataclasses import fields

        from repro.serving.api import CODECS

        for cls, sample in self._samples().items():
            declared = {f.name for f in fields(cls)}
            # Backend rows ride inside a stamped capacity report unstamped.
            stamp = set() if cls is BackendServiceStats else {"schema_version"}
            encoded = json.loads(CODECS[cls].to_json(sample))
            assert set(encoded) == declared | stamp, cls.__name__
            assert CODECS[cls].from_dict(encoded) == sample, cls.__name__

    def test_schema_version_is_not_a_stored_field(self):
        from dataclasses import fields

        for cls in (LatencyRequest, LatencyResponse, ErrorBody):
            assert "schema_version" not in {f.name for f in fields(cls)}


class TestFacade:
    def test_create_service_factory(self, tiny_config):
        from repro.serving import create_service

        with create_service(
            ppm_config=tiny_config, autostart=False
        ) as service:
            ticket = service.submit(("lightnobel", 24))
            service.start()
            assert service.result(ticket, timeout=120.0).ok

    def test_create_trace_factory(self):
        from repro.cluster import TRACE_GENERATORS, create_trace, poisson_trace

        assert set(TRACE_GENERATORS) == {"poisson", "bursty", "diurnal"}
        via_factory = create_trace(
            "poisson", rate_rps=10.0, num_requests=8, length_pool=(24, 48), seed=5
        )
        direct = poisson_trace(rate_rps=10.0, num_requests=8, length_pool=(24, 48), seed=5)
        assert via_factory.config_digest() == direct.config_digest()

    def test_create_trace_unknown_kind(self):
        from repro.cluster import create_trace

        with pytest.raises(ValueError, match="unknown trace kind"):
            create_trace("sawtooth", rate_rps=1.0, num_requests=1, length_pool=(24,))

    def test_serving_facade_exports_wire_types(self):
        import repro.serving as serving

        for name in ("WireRequest", "WireResponse", "ErrorBody", "WireFormatError",
                     "SCHEMA_VERSION", "create_service"):
            assert name in serving.__all__

    def test_unknown_attribute_still_raises(self):
        import repro.serving as serving

        with pytest.raises(AttributeError):
            serving.definitely_not_a_name
