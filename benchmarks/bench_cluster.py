"""Perf: discrete-event replay throughput of the cluster simulator.

Measures *replay* events/second — the pure-Python event loop that every
planner grid cell pays — on all three paths of the loop, with the
service-time prefetch done once up front (the prefetch cost is the sim
layer's business and is guarded by
``bench_perf_simulator.py``/``bench_serving.py``):

* healthy: a 4,000-request bursty trace on a 6-worker fleet, FIFO and EDF;
* routed: a 4,000-request long-tail trace on a mixed big+cheap fleet, EDF
  behind the ``cost-greedy`` router;
* faulty: the bursty trace with crashes, stragglers, admission control and
  the autoscaler on, which must stay within 2x of the healthy loop.

Guards a conservative floor so a regression in the event loop (accidental
O(n^2) queue handling, per-event simulator calls) fails CI rather than
silently making capacity planning 100x slower, and counts the Python calls
each path makes per replayed event, so no arrival, completion or dispatch
can gain a function call unnoticed.
"""

import statistics
import sys
import time

from conftest import emit_bench_json, print_table

from repro.cluster import (
    AdmissionController,
    Autoscaler,
    FaultSchedule,
    FleetSpec,
    RecoveryPolicy,
    SLOPolicy,
    bursty_trace,
    mixture_lengths,
    prefetch_service_times,
    replay_trace,
)
from repro.cluster.scenarios import mixed_fleet_candidates, mixed_fleet_trace
from repro.ppm import PPMConfig
from repro.sim import SimulationSession

NUM_REQUESTS = 4000
FLEET_SIZE = 6
POLICIES = ("fifo", "edf")

#: Conservative floor for replayed events/second (two events per request).
#: The loop sustains well over 100k events/s on developer hardware; the
#: guard fires only on an order-of-magnitude regression.
MIN_EVENTS_PER_SECOND = 10_000.0


def build_inputs():
    pool, weights = mixture_lengths([(32, 0.6), (96, 0.25), (160, 0.15)])
    trace = bursty_trace(
        rate_rps=500.0,
        num_requests=NUM_REQUESTS,
        length_pool=pool,
        length_weights=weights,
        slo=SLOPolicy(base_seconds=0.035, per_residue_seconds=2.0e-4),
        seed=11,
    )
    fleet = FleetSpec.homogeneous("h100-chunk", FLEET_SIZE)
    session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    times = prefetch_service_times(trace, fleet, session=session)
    return trace, fleet, times


def build_routed_inputs():
    """2 big + 3 cheap workers; the cheap ones cannot hold the 512 tail."""
    trace = mixed_fleet_trace(seed=11, num_requests=NUM_REQUESTS)
    fleet = mixed_fleet_candidates(
        big_counts=(2,), cheap_counts=(3,), homogeneous_sizes=(FLEET_SIZE,)
    )[0]
    session = SimulationSession(ppm_config=PPMConfig.tiny(), use_disk_cache=False)
    times = prefetch_service_times(trace, fleet, session=session)
    return trace, fleet, times


def test_cluster_replay_throughput(benchmark):
    trace, fleet, times = build_inputs()
    routed_trace, routed_fleet, routed_times = build_routed_inputs()
    cases = [
        (policy, trace, fleet, times, dict(scheduler=policy)) for policy in POLICIES
    ]
    cases.append((
        "edf+cost-greedy", routed_trace, routed_fleet, routed_times,
        dict(scheduler="edf", router="cost-greedy"),
    ))

    def replay_all():
        results = {}
        for label, case_trace, case_fleet, case_times, kwargs in cases:
            start = time.perf_counter()
            report = replay_trace(
                case_trace,
                case_fleet,
                service_times=case_times,
                same_length_reuse_discount=0.25,
                **kwargs,
            )
            elapsed = time.perf_counter() - start
            results[label] = (report, report.events_processed / elapsed)
        return results

    results = benchmark.pedantic(replay_all, rounds=1, iterations=1)

    rows = [("replay", "fleet", "events", "events/s", "p99 (ms)", "SLO")]
    for label, (report, eps) in results.items():
        rows.append(
            (
                label,
                report.fleet_name,
                report.events_processed,
                f"{eps:10.0f}",
                f"{report.p99_latency_seconds * 1e3:7.2f}",
                f"{report.slo_attainment:.3f}",
            )
        )
    print_table(f"Cluster replay throughput ({NUM_REQUESTS} requests per replay)", rows)

    emit_bench_json(
        "cluster_replay",
        {
            "num_requests": NUM_REQUESTS,
            "fleet_size": FLEET_SIZE,
            "events_per_second": {
                label: eps for label, (report, eps) in results.items()
            },
            "events_processed": {
                label: report.events_processed
                for label, (report, eps) in results.items()
            },
        },
    )

    for label, (report, eps) in results.items():
        # The router sends the 512-residue tail to the big group, so no
        # replay drops anything.
        assert report.completed == NUM_REQUESTS
        assert eps >= MIN_EVENTS_PER_SECOND, (
            f"{label} replay throughput regressed: {eps:.0f} events/s "
            f"< {MIN_EVENTS_PER_SECOND:.0f}"
        )


#: The closed-loop path pays per-event fault lookups, generation checks and
#: autoscaler ticks; it must stay within 2x of the healthy event loop so
#: scenario-grid planning (which replays faults per cell) stays interactive.
MAX_FAULT_SLOWDOWN = 2.0

#: Healthy/faulty pairs; the guard reads the median per-pair slowdown.  Each
#: pair replays both back to back, the order alternating from pair to pair,
#: so machine drift cancels out of a pair's ratio and the median discards
#: the pairs a hiccup landed in.
FAULT_PAIRS = 11


def build_closed_loop(trace):
    """Crashes, stragglers, admission control and the autoscaler, all on."""
    faults = FaultSchedule.generate(
        FLEET_SIZE,
        trace.duration_seconds,
        seed=7,
        crashes_per_worker=1.0,
        mean_downtime_seconds=trace.duration_seconds * 0.05,
        detection_lag_seconds=0.002,
        stragglers_per_worker=1.0,
        mean_straggle_seconds=trace.duration_seconds * 0.05,
    )
    return dict(
        faults=faults,
        recovery=RecoveryPolicy(max_retries=2, backoff_base_seconds=0.005),
        admission=AdmissionController(max_queue_depth=16 * FLEET_SIZE),
        autoscaler=Autoscaler(
            min_workers=FLEET_SIZE,
            max_workers=2 * FLEET_SIZE,
            interval_seconds=0.05,
            scale_up_lag_seconds=0.1,
            slo_target=0.95,
        ),
    )


def test_faulty_replay_stays_within_2x_of_healthy(benchmark):
    trace, fleet, times = build_inputs()
    closed_loop = build_closed_loop(trace)
    paths = (("healthy", {}), ("faulty", closed_loop))

    def replay(kwargs):
        start = time.perf_counter()
        report = replay_trace(
            trace,
            fleet,
            scheduler="edf",
            service_times=times,
            same_length_reuse_discount=0.25,
            **kwargs,
        )
        return report, report.events_processed / (time.perf_counter() - start)

    def replay_pairs():
        """{label: [(report, events/s) per pair]}, order alternating."""
        results = {label: [] for label, _ in paths}
        for pair in range(FAULT_PAIRS):
            for label, kwargs in paths if pair % 2 == 0 else paths[::-1]:
                results[label].append(replay(kwargs))
        return results

    results = benchmark.pedantic(replay_pairs, rounds=1, iterations=1)
    slowdowns = [
        healthy / faulty
        for (_, healthy), (_, faulty) in zip(results["healthy"], results["faulty"])
    ]
    slowdown = statistics.median(slowdowns)
    low, _, high = statistics.quantiles(slowdowns, n=4)
    eps = {
        label: statistics.median(e for _, e in runs) for label, runs in results.items()
    }

    rows = [("path", "events", "events/s", "completed", "retried", "SLO")]
    for label, runs in results.items():
        report = runs[0][0]
        rows.append(
            (
                label,
                report.events_processed,
                f"{eps[label]:10.0f}",
                report.completed,
                report.retried,
                f"{report.slo_attainment:.3f}",
            )
        )
    rows.append(
        ("slowdown", "-", f"{slowdown:.2f}x", f"[{low:.2f}, {high:.2f}]", "-", "-")
    )
    print_table(
        f"Fault-aware replay overhead ({NUM_REQUESTS} requests, {FLEET_SIZE} workers,"
        f" medians of {FAULT_PAIRS} pairs)",
        rows,
    )

    emit_bench_json(
        "cluster_faulty_replay",
        {
            "num_requests": NUM_REQUESTS,
            "fleet_size": FLEET_SIZE,
            "healthy_events_per_second": eps["healthy"],
            "faulty_events_per_second": eps["faulty"],
            "fault_slowdown": slowdown,
            "fault_slowdown_quartiles": [low, high],
            "pairs": FAULT_PAIRS,
        },
    )
    assert eps["faulty"] >= MIN_EVENTS_PER_SECOND
    assert slowdown <= MAX_FAULT_SLOWDOWN, (
        f"fault-aware event loop too slow: median pair slowdown {slowdown:.2f}x"
        f" > {MAX_FAULT_SLOWDOWN:.0f}x ({eps['faulty']:.0f} events/s faulty vs"
        f" {eps['healthy']:.0f} healthy)"
    )


#: Python calls (``sys.setprofile`` "call" events) per replayed event on
#: each path: the counts of the one-function event loop that preceded the
#: closed-loop handler methods (2.0053, 2.5053, 3.0240 and 6.4031), plus
#: 0.1; with the handlers the loop reads about 2.0055, 2.5055, 3.0243 and 6.4505.
#: The hot kinds (arrival, completion, dispatch) are inline in the loop, so
#: one more call per arrival or per completion adds about 0.5 per event and
#: fails every bound; the closed-loop kinds are a few percent of events.
MAX_CALLS_PER_EVENT = {
    "fifo": 2.1,
    "edf": 2.6,
    "edf+cost-greedy": 3.1,
    "faulty": 6.5,
}


def test_replay_adds_no_python_calls_per_event():
    trace, fleet, times = build_inputs()
    routed_trace, routed_fleet, routed_times = build_routed_inputs()
    cases = {
        "fifo": (trace, fleet, times, dict(scheduler="fifo")),
        "edf": (trace, fleet, times, dict(scheduler="edf")),
        "edf+cost-greedy": (
            routed_trace, routed_fleet, routed_times,
            dict(scheduler="edf", router="cost-greedy"),
        ),
        "faulty": (trace, fleet, times, dict(scheduler="edf", **build_closed_loop(trace))),
    }
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    per_event = {}
    for label, (case_trace, case_fleet, case_times, kwargs) in cases.items():
        def replay():
            return replay_trace(
                case_trace,
                case_fleet,
                service_times=case_times,
                same_length_reuse_discount=0.25,
                **kwargs,
            )

        replay()  # past first-use work (the fault schedule's window index)
        calls = 0
        sys.setprofile(count)
        try:
            report = replay()
        finally:
            sys.setprofile(None)
        per_event[label] = calls / report.events_processed

    print_table(
        "Replay: Python calls per event",
        [("path", "calls per event", "budget")]
        + [
            (label, f"{value:.4f}", MAX_CALLS_PER_EVENT[label])
            for label, value in per_event.items()
        ],
    )
    for label, value in per_event.items():
        assert value <= MAX_CALLS_PER_EVENT[label], (
            f"{label} replay makes {value:.4f} Python calls per event"
            f" > {MAX_CALLS_PER_EVENT[label]}"
        )
