"""Perf guard: observability must ride the warm serving path at <= 5% cost.

The tracing hot path is one flat tuple per fulfilled request, queued a
dispatch batch at a time under one lock
(:meth:`repro.obs.tracing.Tracer.record_deferred`); this benchmark holds it
to that promise.  One warm paper-config service serves the multi-tenant
request stream of ``bench_serving`` in pairs of adjacent tracer-off /
tracer-on rounds (which mode goes first alternates from pair to pair), each
round long enough (~20 ms) that a scheduler hiccup is a small share of it.
Each pair gives one on/off time ratio; the median ratio must stay within
the 5% CI budget.  A pair sees the same machine state in both modes, so
drift between pairs cancels out of its ratio and the median discards the
pairs a hiccup landed in.  The measurement runs on one CPU, so the caller
and the service's dispatcher thread share a core and a busy neighbour on
another core cannot skew one round of a pair.  Emits
``BENCH_obs_overhead.json``.

The DES timeline recorder is measured the same way (micro replay with and
without a recorder attached) and reported alongside — informational, since
a replay is an offline analysis, not a serving hot path.
"""

import os
import statistics
import time
from contextlib import contextmanager

from conftest import emit_bench_json, print_table

from repro.cluster import FleetSpec, Request, RequestTrace, replay_trace_outcomes
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracing import Tracer
from repro.serving import LatencyRequest, LatencyService

#: Relative warm-path slowdown the tracer is allowed (the CI guard).
MAX_TRACING_OVERHEAD = 0.05

SEQUENCE_LENGTHS = (200, 400, 800)
BACKENDS = ("lightnobel", "h100", "h100-chunk")
DUPLICATION = 8
#: ``query_batch`` calls per timed round (one call is ~1.3 ms warm).
BATCHES_PER_ROUND = 16
PAIRS = 41


@contextmanager
def one_cpu():
    """Run the block, and every thread it starts, on one CPU (if supported)."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def request_stream():
    unique = [
        LatencyRequest(backend=backend, sequence_length=n)
        for backend in BACKENDS
        for n in SEQUENCE_LENGTHS
    ]
    return unique * DUPLICATION


def test_tracing_overhead_on_warm_path(paper_config):
    requests = request_stream()
    tracer = Tracer(max_traces=256)
    with one_cpu(), LatencyService(
        ppm_config=paper_config, use_disk_cache=False
    ) as service:
        service.query_batch(requests, timeout=600.0)  # warm the memo first

        def one_round(traced: bool) -> float:
            service.tracer = tracer if traced else None
            start = time.perf_counter()
            for _ in range(BATCHES_PER_ROUND):
                service.query_batch(requests, timeout=600.0)
            return time.perf_counter() - start

        off_times, on_times = [], []
        for pair in range(PAIRS):
            order = (False, True) if pair % 2 == 0 else (True, False)
            seconds = {traced: one_round(traced) for traced in order}
            off_times.append(seconds[False])
            on_times.append(seconds[True])
        stats = service.capacity_report()

    ratios = sorted(on / off for on, off in zip(on_times, off_times))
    overhead = statistics.median(ratios) - 1.0
    quartiles = statistics.quantiles(ratios, n=4)
    per_round_requests = len(requests) * BATCHES_PER_ROUND
    t_off, t_on = statistics.median(off_times), statistics.median(on_times)
    per_request_off = t_off / per_round_requests
    per_request_on = t_on / per_round_requests

    print_table(
        "Tracing overhead: warm LatencyService, tracer off vs on",
        [
            ("mode", "round ms (median of %d)" % PAIRS, "per-request us"),
            ("tracer off", f"{t_off * 1e3:8.3f}", f"{per_request_off * 1e6:7.2f}"),
            ("tracer on", f"{t_on * 1e3:8.3f}", f"{per_request_on * 1e6:7.2f}"),
        ],
    )
    print(
        f"  overhead: {overhead * 100:.2f}% median of {PAIRS} paired ratios "
        f"(quartiles {(quartiles[0] - 1) * 100:+.2f}% / "
        f"{(quartiles[2] - 1) * 100:+.2f}%, budget "
        f"{MAX_TRACING_OVERHEAD * 100:.0f}%), "
        f"{len(tracer)} traces held, {tracer.evicted_traces} evicted"
    )

    # Sanity: every round was pure memo (no simulator runs to pollute timing).
    assert stats.errors == 0
    assert overhead <= MAX_TRACING_OVERHEAD, (
        f"tracing slows the warm path {overhead * 100:.2f}% "
        f"(> {MAX_TRACING_OVERHEAD * 100:.0f}% budget)"
    )

    # Timeline recorder: micro replay with vs without (informational).
    trace = RequestTrace(
        name="obs-bench",
        requests=tuple(
            Request(
                id=i,
                arrival_seconds=0.01 * i,
                sequence_length=32,
                priority=0,
                deadline_seconds=0.01 * i + 5.0,
            )
            for i in range(2000)
        ),
        seed=0,
        offered_rps=100.0,
    )
    fleet = FleetSpec.homogeneous("lightnobel", 4)
    times = {(0, 32): 0.05}

    def replay_round(with_recorder: bool):
        recorder = TimelineRecorder() if with_recorder else None
        start = time.perf_counter()
        result = replay_trace_outcomes(
            trace, fleet, service_times=times, timeline=recorder
        )
        return time.perf_counter() - start, result, recorder

    bare_times, recorded_times = [], []
    baseline = recorded = recorder = None
    for _ in range(5):
        t, baseline, _ = replay_round(False)
        bare_times.append(t)
        t, recorded, recorder = replay_round(True)
        recorded_times.append(t)
    assert baseline == recorded  # recording never perturbs the replay
    t_bare, t_recorded = min(bare_times), min(recorded_times)
    timeline_overhead = (t_recorded - t_bare) / t_bare
    print(
        f"  DES timeline: {t_bare * 1e3:.1f} ms bare vs "
        f"{t_recorded * 1e3:.1f} ms recording {len(recorder)} events "
        f"({timeline_overhead * 100:+.1f}%)"
    )

    emit_bench_json(
        "obs_overhead",
        {
            "requests_per_round": per_round_requests,
            "pairs": PAIRS,
            "pair_ratio_quartiles": quartiles,
            "warm_round_seconds_tracer_off": t_off,
            "warm_round_seconds_tracer_on": t_on,
            "per_request_us_tracer_off": per_request_off * 1e6,
            "per_request_us_tracer_on": per_request_on * 1e6,
            "tracing_overhead": overhead,
            "tracing_overhead_budget": MAX_TRACING_OVERHEAD,
            "timeline_replay_seconds_bare": t_bare,
            "timeline_replay_seconds_recording": t_recorded,
            "timeline_overhead": timeline_overhead,
            "timeline_events": len(recorder),
        },
    )
