"""The observability layer: tracing, metrics/Prometheus, DES timeline export.

Covers all three obs subsystems at every integration depth:

* unit — histogram bucket/quantile contract (plus hypothesis boundary
  round trips), Prometheus render -> parse exactness (plus hypothesis over
  label escapes and float values), tracer store semantics (trees, FIFO
  eviction, span caps, disabled no-op),
* in-process — a traced ``LatencyService`` records the span tree for
  client-keyed and ticket-keyed requests, coalesced requests included,
* over sockets — a client trace ID (body field or ``X-Trace-Id`` header)
  surfaces in ``GET /v1/trace/<id>``; ``/metrics?format=prom`` parses as
  valid exposition; ``/healthz`` reports version and schema,
* cluster — replays with a ``TimelineRecorder`` attached are bit-identical
  to replays without (healthy, faulty and pinned named scenarios), and the
  Chrome trace export is structurally sound.
"""

import json
import math

import http.client

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.cluster import FleetSpec, Request, RequestTrace, replay_trace_outcomes
from repro.cluster.faults import FaultSchedule, WorkerCrash
from repro.cluster.scenarios import named_scenario
from repro.cluster.des import prefetch_service_times
from repro.cluster.fleet import MultiChipVariant
from repro.obs import prom
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracing import Tracer, new_trace_id
from repro.ppm import PPMConfig
from repro.serving import LatencyRequest, LatencyService
from repro.serving.http import serve_in_thread
from repro.serving.wire import SCHEMA_VERSION, WireRequest
from repro.sim import SimulationSession

TIMEOUT = 120.0


# ---------------------------------------------------------------- histograms
class TestHistogram:
    def test_exponential_buckets_shape(self):
        bounds = exponential_buckets(start=1e-3, factor=2.0, count=4)
        assert bounds == (1e-3, 2e-3, 4e-3, 8e-3)
        with pytest.raises(ValueError):
            exponential_buckets(start=0.0)
        with pytest.raises(ValueError):
            exponential_buckets(factor=1.0)

    def test_observe_and_moments(self):
        h = Histogram("t_hist", "test", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 20.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(22.5)
        assert h.mean == pytest.approx(7.5)
        assert h.min_observed == 0.5
        assert h.max_observed == 20.0
        assert h.bucket_counts() == (1, 1, 1)
        assert h.cumulative() == (1, 2, 3)

    def test_quantile_edge_contract(self):
        h = Histogram("t_edges", "test", buckets=(1.0, 2.0))
        assert h.quantile(50.0) == 0.0  # empty -> 0.0, never a crash
        h.observe(1.5)
        for q in (0.0, 37.0, 100.0):
            assert h.quantile(q) == 1.5  # single sample is every percentile
        with pytest.raises(ValueError):
            h.quantile(-1.0)
        with pytest.raises(ValueError):
            h.quantile(101.0)
        with pytest.raises(ValueError):
            h.quantile(float("nan"))

    def test_quantile_min_max_exact(self):
        h = Histogram("t_minmax", "test", buckets=exponential_buckets(count=20))
        for v in (3e-6, 5e-5, 7e-4):
            h.observe(v)
        assert h.quantile(0.0) == 3e-6  # exact edges, not bucket bounds
        assert h.quantile(100.0) == 7e-4

    @given(st.lists(st.floats(min_value=1e-7, max_value=1e3), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_quantile_monotone_and_bounded(self, values):
        h = Histogram("t_prop", "test", buckets=exponential_buckets(count=40))
        for v in values:
            h.observe(v)
        qs = [h.quantile(q) for q in (0, 10, 25, 50, 75, 90, 99, 100)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert qs[0] == min(values)
        assert qs[-1] == max(values)
        assert all(min(values) <= q <= max(values) for q in qs)

    @given(st.floats(min_value=1e-7, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_bucket_boundary_invariant(self, value):
        """Every observation lands in the first bucket whose bound >= it."""
        bounds = exponential_buckets(count=40)
        h = Histogram("t_bound", "test", buckets=bounds)
        h.observe(value)
        counts = h.bucket_counts()
        index = counts.index(1)
        if index < len(bounds):
            assert value <= bounds[index]
        if index > 0:
            assert value > bounds[index - 1]

    def test_labeled_family(self):
        h = Histogram("t_fam", "test", labelnames=("backend",), buckets=(1.0,))
        h.labels(backend="a").observe(0.5)
        h.labels(backend="a").observe(2.0)
        h.labels("b").observe(0.1)
        assert h.labels(backend="a").count == 2
        assert h.labels("b").count == 1
        with pytest.raises(ValueError):
            h.observe(1.0)  # labeled family: must go through a child

    def test_children_share_validated_bounds(self):
        """Children reuse the family's validated bound tuple; bad bounds fail at the family."""
        h = Histogram("t_share", "test", labelnames=("backend",), buckets=[1, 2.5, 10])
        assert h.bounds == (1.0, 2.5, 10.0)
        assert h.labels("a").bounds is h.bounds
        assert h.labels("b").bounds is h.bounds
        for bad in ((), (2.0, 1.0), (1.0, 1.0), (1.0, float("inf")), (float("nan"),)):
            with pytest.raises(ValueError):
                Histogram("t_bad", "test", labelnames=("backend",), buckets=bad)

    def test_counter_and_gauge(self):
        c = Counter("t_counter", "test")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1.0)
        g = Gauge("t_gauge", "test")
        g.set(5.0)
        g.dec(2.0)
        assert g.value == 3.0

    def test_registry_rejects_duplicates(self):
        registry = MetricsRegistry()
        c = Counter("t_dup", "test", registry=registry)
        registry.register(c)  # same object is idempotent
        with pytest.raises(ValueError):
            Counter("t_dup", "test", registry=registry)
        assert len(registry) == 1


# --------------------------------------------------------------- prometheus
class TestPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        Counter("demo_requests_total", "Requests.", registry=registry).inc(41)
        Gauge("demo_depth", "Depth.", registry=registry).set(3.5)
        h = Histogram(
            "demo_latency_seconds",
            "Latency.",
            labelnames=("backend",),
            buckets=(0.001, 0.01, 0.1),
            registry=registry,
        )
        h.labels(backend="h100").observe(0.005)
        h.labels(backend="h100").observe(0.5)
        h.labels(backend='we"ird\\label\n').observe(0.0005)
        return registry

    def test_render_parse_round_trip(self):
        text = prom.render(self._registry())
        families = prom.parse(text)
        assert families["demo_requests_total"].kind == "counter"
        assert families["demo_requests_total"].samples[0].value == 41
        assert families["demo_depth"].samples[0].value == 3.5
        hist = families["demo_latency_seconds"]
        assert hist.kind == "histogram"
        counts = {
            (s.labels["backend"], s.labels["le"]): s.value
            for s in hist.samples
            if s.name.endswith("_bucket")
        }
        assert counts[("h100", "+Inf")] == 2
        assert counts[('we"ird\\label\n', "+Inf")] == 1  # escapes round-trip

    def test_parse_rejects_garbage(self):
        with pytest.raises(prom.PromParseError):
            prom.parse("demo{unclosed 3\n")
        with pytest.raises(prom.PromParseError):
            prom.parse("demo notanumber\n")
        # Non-cumulative histogram buckets are invalid exposition.
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
        )
        with pytest.raises(prom.PromParseError):
            prom.parse(bad)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
            max_size=20,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, value, label_value):
        """repr-rendered floats and escaped labels survive render -> parse."""
        registry = MetricsRegistry()
        g = Gauge("prop_gauge", "p", labelnames=("tag",), registry=registry)
        g.labels(tag=label_value).set(value)
        families = prom.parse(prom.render(registry))
        sample = families["prop_gauge"].samples[0]
        assert sample.labels["tag"] == label_value
        assert sample.value == value or (
            math.isnan(sample.value) and math.isnan(value)
        )


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_record_batch_builds_tree(self):
        tracer = Tracer()
        tracer.record_batch(
            "t1",
            (
                ("request", 0.0, 4.0, {"ok": True}),
                ("queue-wait", 0.0, 1.0, None),
                ("simulate", 1.0, 4.0, None),
            ),
        )
        payload = tracer.to_dict("t1")
        assert payload["span_count"] == 3
        assert [s["name"] for s in payload["spans"]] == [
            "request", "queue-wait", "simulate",
        ]
        (root,) = payload["tree"]
        assert root["name"] == "request"
        assert root["attributes"] == {"ok": True}
        assert [c["name"] for c in root["children"]] == ["queue-wait", "simulate"]
        assert root["duration_seconds"] == 4.0

    def test_find_resolves_string_and_int_keys(self):
        tracer = Tracer()
        tracer.record_batch("abc", (("request", 0.0, 1.0, None),))
        tracer.record_batch(17, (("request", 0.0, 1.0, None),))
        assert tracer.find("abc") == "abc"
        assert tracer.find("17") == 17
        assert tracer.find("nope") is None

    def test_fifo_eviction_bounds_memory(self):
        tracer = Tracer(max_traces=3)
        for i in range(5):
            tracer.record_batch(i, (("request", 0.0, 1.0, None),))
        assert len(tracer) == 3
        assert tracer.evicted_traces == 2
        assert tracer.trace_keys() == (2, 3, 4)
        assert tracer.trace(0) == ()

    def test_span_cap_drops_overflow(self):
        tracer = Tracer(max_spans_per_trace=2)
        for _ in range(3):
            tracer.record_batch("t", (("request", 0.0, 1.0, None),))
        assert tracer.to_dict("t")["span_count"] == 2
        assert tracer.dropped_spans == 1

    def test_disabled_is_a_no_op(self):
        tracer = Tracer(enabled=False)
        tracer.record_batch("t", (("request", 0.0, 1.0, None),))
        assert tracer.record_span("t", "x", 0.0, 1.0) is None
        assert len(tracer) == 0

    def test_span_context_manager(self):
        tracer = Tracer()
        with tracer.span("prefetch", trace_id="ctx") as handle:
            handle.attributes["points"] = 7
        (span,) = tracer.trace("ctx")
        assert span.name == "prefetch"
        assert span.attributes == {"points": 7}
        assert span.duration_seconds >= 0.0

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from(["batch", "deferred", "deferred", "read"]),
                st.lists(st.integers(min_value=0, max_value=40), max_size=12),
            ),
            max_size=30,
        ),
        max_traces=st.integers(min_value=1, max_value=6),
        spread=st.sampled_from([1, 1000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_deferred_rows_file_like_batches(self, calls, max_traces, spread):
        """Queued deferred rows end up exactly where record_batch puts the
        same batches, one by one: same traces, order, evictions and drops.

        ``spread`` 1000 makes most keys new, so queued batches are mostly
        dropped before filing rather than filed."""
        calls = [(kind, [key * spread for key in keys]) for kind, keys in calls]

        def build(start):
            return (("request", start, start + 1.0, None), ("child", start, start, None))

        tracer = Tracer(max_traces=max_traces, max_spans_per_trace=5)
        reference = Tracer(max_traces=max_traces, max_spans_per_trace=5)
        for kind, keys in calls:
            if kind == "read":
                assert tracer.trace_keys() == reference.trace_keys()
                continue
            batches = [(key, build(float(i))) for i, key in enumerate(keys)]
            if kind == "batch":
                for key, batch in batches:
                    tracer.record_batch(key, batch)
            else:
                tracer.record_deferred(
                    [(key, float(i)) for i, key in enumerate(keys)], 2, build
                )
            for key, batch in batches:
                reference.record_batch(key, batch)
        assert tracer.trace_keys() == reference.trace_keys()
        assert tracer.evicted_traces == reference.evicted_traces
        assert tracer.dropped_spans == reference.dropped_spans
        for key in reference.trace_keys():
            assert tracer.trace(key) == reference.trace(key)

    def test_new_trace_id_is_unique_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 32
        int(a, 16)


# --------------------------------------------------- traced service (in-proc)
class TestTracedService:
    def test_spans_recorded_under_client_and_ticket_keys(self):
        tracer = Tracer()
        # Staged batch (autostart=False) so the duplicate deterministically
        # coalesces, giving the trace a "coalesce" execution span.
        service = LatencyService(
            ppm_config=PPMConfig.tiny(),
            use_disk_cache=False,
            autostart=False,
            tracer=tracer,
        )
        tickets = service.submit_batch(
            [
                LatencyRequest(sequence_length=24, trace_id="client-1"),
                LatencyRequest(sequence_length=24, trace_id="client-2"),
                LatencyRequest(sequence_length=32),
                LatencyRequest(backend="h100-chunk", sequence_length=48),
            ]
        )
        with service:
            responses = [service.result(t, timeout=TIMEOUT) for t in tickets]
        for response in responses:
            response.raise_for_error()
        # Every trace is one request span over queue-wait, execution and fulfill.
        for key in ("client-1", "client-2", tickets[2], tickets[3]):
            tree = tracer.to_dict(key)["tree"]
            assert len(tree) == 1 and len(tree[0]["children"]) == 3
        # The latency histogram, summed over its backend labels, counts every request.
        families = prom.parse(prom.render(service.stats.metrics_registry()))
        assert "repro_serving_requests_completed_total" in families
        histogram = families["repro_serving_request_duration_seconds"]
        observed = sum(
            int(sample.value) for sample in histogram.samples if sample.name.endswith("_count")
        )
        assert observed == service.stats.completed == len(tickets)

        first = tracer.to_dict("client-1")
        names = [span["name"] for span in first["spans"]]
        assert names[0] == "request"
        assert "queue-wait" in names and "fulfill" in names
        root = first["tree"][0]
        assert root["attributes"]["backend"] == "lightnobel"
        assert root["attributes"]["ok"] is True
        assert root["attributes"]["ticket_id"] == tickets[0]

        second = tracer.to_dict("client-2")
        exec_names = {span["name"] for span in second["spans"]}
        assert "coalesce" in exec_names  # the duplicate attached, not re-ran

        # The untraced requests are keyed by their ticket IDs.
        assert [key for key in tracer.trace_keys() if isinstance(key, int)] == tickets[2:]
        assert tracer.find(str(tickets[2])) == tickets[2]
        untraced = tracer.to_dict(tickets[2])
        assert untraced["spans"][0]["name"] == "request"

    def test_no_tracer_means_no_recording_overheads(self):
        service = LatencyService(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
        assert service.tracer is None
        with service:
            service.result(
                service.submit(LatencyRequest(sequence_length=24)), timeout=TIMEOUT
            ).raise_for_error()

    def test_trace_id_rides_the_request_log(self):
        tracer = Tracer()
        with LatencyService(
            ppm_config=PPMConfig.tiny(), use_disk_cache=False, tracer=tracer
        ) as service:
            ticket = service.submit(
                LatencyRequest(sequence_length=24, trace_id="log-trace")
            )
            service.result(ticket, timeout=TIMEOUT).raise_for_error()
            log = service.request_log()
        assert log[-1].trace_id == "log-trace"


# ----------------------------------------------------------- traced sockets
def call(handle, method, path, body=None, headers=None):
    """One plain-HTTP round trip; returns (status, headers dict, parsed-or-raw)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=TIMEOUT)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(
            method, path, payload,
            {"Content-Type": "application/json", **(headers or {})},
        )
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        parsed = (
            json.loads(raw)
            if raw and content_type.startswith("application/json")
            else raw.decode("utf-8")
        )
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


#: Every Prometheus family the front door exposes: name -> (TYPE, HELP).
EXPOSED_FAMILIES = {
    "repro_serving_requests_submitted_total": ("counter", "Requests accepted by submit()."),
    "repro_serving_requests_completed_total": ("counter", "Requests fulfilled (ok or error)."),
    "repro_serving_errors_total": ("counter", "Requests fulfilled with an error."),
    "repro_serving_coalesced_total": (
        "counter", "Requests attached to a pending job for the same key."),
    "repro_serving_memo_hits_total": (
        "counter", "Requests answered from the session memo, at submit or by the dispatcher."),
    "repro_serving_simulations_total": ("counter", "(backend, length) points sent to a simulator."),
    "repro_serving_batches_total": (
        "counter", "Batches the dispatcher drained; memo hits answered at submit are none."),
    "repro_serving_busy_seconds_total": (
        "counter", "Seconds spent fulfilling: dispatcher batches plus memo hits at submit."),
    "repro_serving_timeouts_total": ("counter", "result() calls that gave up waiting."),
    "repro_serving_late_results_total": (
        "counter", "Requests completed after every waiter timed out."),
    "repro_serving_stacked_batches_total": (
        "counter", "Shape-bucketed batches priced in one stacked pass."),
    "repro_serving_stacked_points_total": (
        "counter", "(backend, length) points covered by stacked passes."),
    "repro_serving_queue_depth": (
        "gauge", "Jobs (distinct keys) queued for the dispatcher right now."),
    "repro_serving_peak_queue_depth": ("gauge", "High-water mark of the queue depth, in jobs."),
    "repro_serving_request_duration_seconds": (
        "histogram", "Submit-to-fulfillment service time, by backend."),
    "repro_http_pending": ("gauge", "Submitted tickets not yet fulfilled."),
    "repro_http_fulfilled_unclaimed": ("gauge", "Fulfilled tickets awaiting a claim."),
    "repro_http_consumed_total": ("gauge", "Tickets claimed by clients."),
    "repro_http_reaped_total": ("gauge", "Fulfilled-but-unclaimed tickets reaped."),
    "repro_http_draining": ("gauge", "1 while the server is draining."),
}


@pytest.fixture(scope="module")
def traced_door():
    """A front door whose owned service carries a Tracer."""
    handle = serve_in_thread(
        ppm_config=PPMConfig.tiny(), use_disk_cache=False, tracer=Tracer()
    )
    yield handle
    report = handle.stop(drain=True)
    assert report["unfulfilled"] == 0


class TestTracedFrontDoor:
    def test_body_trace_id_surfaces_in_trace_endpoint(self, traced_door):
        trace_id = new_trace_id()
        request = WireRequest(backend="lightnobel", sequence_length=24, trace_id=trace_id)
        status, headers, body = call(
            traced_door, "POST", "/v1/submit", request.to_dict()
        )
        assert status == 202
        assert headers.get("X-Trace-Id") == trace_id
        ticket = body["ticket_id"]
        status, _, result = call(
            traced_door, "GET", f"/v1/result/{ticket}?wait_seconds={TIMEOUT}"
        )
        assert status == 200 and result["error"] is None

        status, _, trace = call(traced_door, "GET", f"/v1/trace/{trace_id}")
        assert status == 200
        assert trace["schema_version"] == SCHEMA_VERSION
        assert trace["trace_id"] == trace_id
        names = [span["name"] for span in trace["spans"]]
        assert names[0] == "request"
        assert "queue-wait" in names and "fulfill" in names
        assert trace["tree"][0]["attributes"]["ticket_id"] == ticket

    def test_header_trace_id_is_the_fallback(self, traced_door):
        trace_id = new_trace_id()
        request = WireRequest(backend="lightnobel", sequence_length=32)
        status, headers, body = call(
            traced_door, "POST", "/v1/query", request.to_dict(),
            headers={"X-Trace-Id": trace_id},
        )
        assert status == 200 and body["error"] is None
        assert headers.get("X-Trace-Id") == trace_id
        status, _, trace = call(traced_door, "GET", f"/v1/trace/{trace_id}")
        assert status == 200
        assert trace["span_count"] >= 4

    def test_unknown_trace_is_404(self, traced_door):
        status, _, body = call(traced_door, "GET", "/v1/trace/no-such-trace")
        assert status == 404
        assert body["code"] == "unknown_trace"

    def test_prometheus_exposition_parses(self, traced_door):
        status, headers, text = call(traced_door, "GET", "/metrics?format=prom")
        assert status == 200
        assert headers["Content-Type"] == prom.CONTENT_TYPE
        families = prom.parse(text)
        # The full exposition surface: every family, its TYPE and its HELP.
        assert {
            name: (family.kind, family.help) for name, family in families.items()
        } == EXPOSED_FAMILIES
        histogram = families["repro_serving_request_duration_seconds"]
        assert histogram.kind == "histogram"
        assert any(s.labels.get("backend") for s in histogram.samples)
        # JSON metrics still work alongside.
        status, _, body = call(traced_door, "GET", "/metrics")
        assert status == 200 and "service" in body

    def test_healthz_reports_version_and_schema(self, traced_door):
        status, _, body = call(traced_door, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == __version__
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["uptime_seconds"] > 0.0


def test_tracing_disabled_door_404s_trace_endpoint():
    handle = serve_in_thread(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    try:
        status, _, body = call(handle, "GET", "/v1/trace/anything")
        assert status == 404
        assert body["code"] == "tracing_disabled"
    finally:
        handle.stop(drain=True)


# ------------------------------------------------------------- DES timeline
def micro_trace(count=12, spacing=0.4, length=32, slack=6.0):
    requests = tuple(
        Request(
            id=i,
            arrival_seconds=spacing * i,
            sequence_length=length,
            priority=0,
            deadline_seconds=spacing * i + slack,
        )
        for i in range(count)
    )
    return RequestTrace(
        name="obs-micro", requests=requests, seed=0, offered_rps=1.0 / spacing
    )


MICRO_TIMES = {(0, 32): 1.0}


class TestTimelineBitIdentity:
    def test_healthy_replay_is_bit_identical(self):
        trace, fleet = micro_trace(), FleetSpec.homogeneous("lightnobel", 2)
        baseline = replay_trace_outcomes(trace, fleet, service_times=MICRO_TIMES)
        recorder = TimelineRecorder()
        traced = replay_trace_outcomes(
            trace, fleet, service_times=MICRO_TIMES, timeline=recorder
        )
        assert baseline == traced  # report AND per-request outcomes
        counts = recorder.event_counts()
        assert counts["arrival"] == len(trace)
        assert counts["dispatch"] == counts["complete"] == len(trace)

    def test_faulty_replay_is_bit_identical(self):
        trace, fleet = micro_trace(), FleetSpec.homogeneous("lightnobel", 2)
        faults = FaultSchedule(
            crashes=(
                WorkerCrash(worker_id=0, at_seconds=1.5, restart_after_seconds=2.0),
            )
        )
        baseline = replay_trace_outcomes(
            trace, fleet, service_times=MICRO_TIMES, faults=faults
        )
        recorder = TimelineRecorder()
        traced = replay_trace_outcomes(
            trace, fleet, service_times=MICRO_TIMES, faults=faults, timeline=recorder
        )
        assert baseline == traced
        counts = recorder.event_counts()
        assert counts["arrival"] == counts["complete"] == len(trace)
        assert counts["dispatch"] == len(trace) + 1  # the crash victim runs twice
        assert counts["crash"] == counts["recover"] == 1
        assert counts["abort"] == counts["retry"] == 1

    def test_pinned_named_scenarios_survive_recording(self):
        """The PR 8 golden scenarios replay bit-identically with a recorder on."""
        session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
        fleet = FleetSpec.homogeneous(
            MultiChipVariant(base="h100-chunk", chips=2), 4
        )
        times = None
        for name in ("diurnal", "flash-crowd", "faulty"):
            scenario = named_scenario(name, num_workers=4)
            if times is None:
                times = prefetch_service_times(
                    scenario.trace, fleet, session=session
                )
            kwargs = dict(
                service_times=times, session=session,
                same_length_reuse_discount=0.25,
            )
            baseline = scenario.replay_outcomes(fleet, **kwargs)
            recorder = TimelineRecorder()
            traced = scenario.replay_outcomes(fleet, timeline=recorder, **kwargs)
            assert baseline == traced, f"scenario {name!r} perturbed by recording"
            assert len(recorder) > 0


class TestChromeExport:
    def _recorded(self):
        trace, fleet = micro_trace(), FleetSpec.homogeneous("lightnobel", 2)
        faults = FaultSchedule(
            crashes=(
                WorkerCrash(worker_id=0, at_seconds=1.5, restart_after_seconds=2.0),
            )
        )
        recorder = TimelineRecorder()
        replay_trace_outcomes(
            trace, fleet, service_times=MICRO_TIMES, faults=faults, timeline=recorder
        )
        return recorder

    def test_chrome_trace_structure(self):
        recorder = self._recorded()
        chrome = json.loads(recorder.to_json())  # valid JSON end to end
        events = chrome["traceEvents"]
        assert chrome["otherData"]["events_recorded"] == len(recorder)

        lanes = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert lanes[0] == "cluster"
        assert lanes[1].startswith("worker 0")
        assert lanes[2].startswith("worker 1")

        service = [e for e in events if e.get("cat") == "service" and e["ph"] == "X"]
        assert len(service) == 13  # 12 requests + 1 re-dispatch after the crash
        assert all(e["dur"] >= 0.0 and e["ts"] >= 0.0 for e in service)
        aborted = [e for e in service if e["args"].get("aborted")]
        assert len(aborted) == 1  # the crash victim's span is truncated

        down = [e for e in events if e["name"] == "down"]
        assert len(down) == 1
        assert down[0]["args"]["recovered"] is True
        assert down[0]["dur"] == pytest.approx(2.0 * 1e6)

        counters = [e for e in events if e.get("ph") == "C"]
        assert counters and all("depth" in e["args"] for e in counters)

    def test_write_and_reload(self, tmp_path):
        recorder = self._recorded()
        path = tmp_path / "replay.trace.json"
        recorder.write(str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_empty_recorder_exports_cleanly(self):
        chrome = TimelineRecorder().to_chrome_trace()
        assert chrome["otherData"]["events_recorded"] == 0
