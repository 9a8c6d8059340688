"""Perf: sustained serving throughput of `LatencyService`, cold vs warm.

Drives a paper-config service with a multi-tenant-shaped request stream —
many requests over a small set of distinct (backend, length) keys, the
profile a shared latency service sees when several figure sweeps and users
query the same design points — and measures sustained queries/sec in three
regimes:

* **cold** — empty memo, fresh disk cache: every unique key pays one real
  simulation; duplicates ride along via coalescing,
* **warm (same process)** — the service's session memo answers everything,
* **warm (fresh process)** — a new service over the same disk cache
  (`REPRO_SIM_CACHE_DIR` regime): tables/reports come off disk, no simulator
  runs.

Each cycle clears the process-wide table LRUs and uses a new disk cache, so
"cold" is cold even when other benchmarks ran first in the same process.
Asserts the coalescing invariant (simulations == unique keys on every cold
round), exact parity with a direct `SimulationSession`, and that the median
warm/cold and fresh/cold q/s ratios over the cycles are at least 1x.

A third guard prices the Fig. 12 hardware grid twice per pair, through a
fresh two-tenant service and through a bare session's ``simulate_batch``,
and bounds the median service/bare time ratio: the service's own cost on
the miss path.  A fourth counts instead of timing: a warm ``query_batch``
takes the service lock as many times for 1,000 requests as for 10, and
builds no request or response object for tuple requests.  A fifth counts
the Python-level calls one warm ``/v1/query`` makes in process, from
reading its bytes to writing the response, with a wall-clock backstop.
"""

import asyncio
import statistics
import sys
import tempfile
import threading
import time

from conftest import emit_bench_json, print_table

from repro.analysis import hardware_dse
from repro.hardware import LightNobelConfig
from repro.ppm import clear_workload_caches
from repro.serving import LatencyRequest, LatencyService
from repro.sim import SimulationSession

SEQUENCE_LENGTHS = (200, 400, 800)
BACKENDS = ("lightnobel", "h100", "h100-chunk")

#: Requests per unique (backend, length) key — the multi-tenant duplication
#: factor.  9 unique keys x 8 = 72 requests per round.
DUPLICATION = 8


def request_stream():
    unique = [
        LatencyRequest(backend=backend, sequence_length=n)
        for backend in BACKENDS
        for n in SEQUENCE_LENGTHS
    ]
    # Interleave duplicates (tenant-by-tenant, not key-by-key) so coalescing
    # has to catch duplicates across the whole queue, not just neighbours.
    return unique * DUPLICATION, len(unique)


def run_round(service):
    requests, unique = request_stream()
    start = time.perf_counter()
    reports = service.query_batch(requests, timeout=600.0)
    elapsed = time.perf_counter() - start
    return reports, len(requests) / elapsed, unique


def run_cycle(config):
    """One cold, warm and fresh-process round over a new disk cache.

    The process-wide table and stack LRUs are cleared first, so the cold
    round builds every table it prices, as a fresh process would.
    """
    clear_workload_caches()
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as cache_dir:
        with LatencyService(ppm_config=config, cache_dir=cache_dir) as service:
            cold_reports, cold_qps, unique = run_round(service)
            cold_stats = service.capacity_report()
            warm_reports, warm_qps, _ = run_round(service)
            warm_stats = service.capacity_report()

        # Fresh process over the same disk cache: no simulator, tables and
        # reports come off disk.
        with LatencyService(ppm_config=config, cache_dir=cache_dir) as fresh:
            fresh_reports, fresh_qps, _ = run_round(fresh)
            fresh_simulations = fresh.stats.simulations

    # Coalescing invariant: the cold round simulates each unique
    # (backend, length) key exactly once, duplicates ride along free.
    assert cold_stats.simulations == unique
    # The warm rounds never touch a simulator again.
    assert warm_stats.simulations == cold_stats.simulations
    assert fresh_simulations == 0
    for fast, slow in zip(warm_reports, cold_reports):
        assert fast.total_seconds == slow.total_seconds
    for fast, slow in zip(fresh_reports, cold_reports):
        assert fast.total_seconds == slow.total_seconds
    return cold_reports, cold_stats, (cold_qps, warm_qps, fresh_qps)


#: Cold/warm/fresh cycles; each guard reads the median of per-cycle ratios.
CYCLES = 7


def test_serving_throughput_cold_vs_warm(paper_config):
    session = SimulationSession(ppm_config=paper_config, use_disk_cache=False)
    requests, _ = request_stream()
    direct = [
        session.simulate(r.sequence_length, backend=r.backend).total_seconds
        for r in requests
    ]

    rates = []
    for _ in range(CYCLES):
        cold_reports, cold_stats, qps = run_cycle(paper_config)
        rates.append(qps)
        # Exact parity with the direct session path on every response.
        assert [r.total_seconds for r in cold_reports] == direct

    cold_qps, warm_qps, fresh_qps = (statistics.median(col) for col in zip(*rates))
    warm_ratio = statistics.median(warm / cold for cold, warm, _ in rates)
    fresh_ratio = statistics.median(fresh / cold for cold, _, fresh in rates)
    print_table(
        f"Serving throughput: LatencyService, cold vs warm (medians of {CYCLES} cycles)",
        [
            ("regime", "requests", "q/s sustained", "vs cold"),
            ("cold (empty memo + disk cache)", len(requests), f"{cold_qps:9.0f}", "-"),
            ("warm, same process (memo)", len(requests), f"{warm_qps:9.0f}", f"{warm_ratio:5.1f}x"),
            (
                "warm, fresh process (disk cache)",
                len(requests),
                f"{fresh_qps:9.0f}",
                f"{fresh_ratio:5.1f}x",
            ),
        ],
    )
    print(
        f"  last cold round: hit_rate={cold_stats.hit_rate:.2f}, "
        f"peak queue depth={cold_stats.peak_queue_depth}, "
        f"p99[lightnobel]="
        + ", ".join(
            f"{row.p99_seconds * 1e3:.1f} ms"
            for row in cold_stats.backends
            if row.backend == "lightnobel"
        )
    )

    # Warm regimes must beat the cold regime on sustained throughput.
    assert warm_ratio >= 1.0
    assert fresh_ratio >= 1.0


def test_http_socket_path_throughput(paper_config):
    """Socket-path guard: the same trace in-process vs over HTTP, warm.

    One seeded trace replays twice against one shared warm service — direct
    ``LatencyService`` calls, then real TCP through the front door — so the
    gap is pure HTTP overhead (framing, JSON, event loop), not simulation.
    Asserts full completion, zero errors, full SLO attainment on both paths,
    a clean drain, and that the socket path clears an absolute q/s floor;
    emits ``BENCH_http_serving.json``.
    """
    from repro.cluster import SLOPolicy, mixture_lengths, poisson_trace
    from repro.serving.http import (
        replay_trace_http,
        replay_trace_inprocess,
        serve_in_thread,
    )

    lengths, weights = mixture_lengths([(200, 0.6), (400, 0.3), (800, 0.1)])
    trace = poisson_trace(
        rate_rps=500.0,
        num_requests=150,
        length_pool=lengths,
        length_weights=weights,
        slo=SLOPolicy(base_seconds=5.0, per_residue_seconds=0.01),
        seed=31,
        name="http-bench",
    )

    service = LatencyService(ppm_config=paper_config, use_disk_cache=False)
    handle = serve_in_thread(service=service, max_pending_per_tenant=1024)
    try:
        # Warm the memo so both measured passes price cached keys only.
        for n in trace.distinct_lengths():
            service.query("lightnobel", n, timeout=600.0)
        inproc = replay_trace_inprocess(trace, service)
        http = replay_trace_http(trace, handle.host, handle.port, tenant="bench")
    finally:
        drain = handle.stop(drain=True)
        service.close()

    print_table(
        "Socket path: same trace, in-process vs HTTP (warm)",
        [
            ("path", "completed", "q/s", "SLO", "p50 ms", "p99 ms"),
            *(
                (
                    r.mode,
                    f"{r.completed}/{r.offered}",
                    f"{r.queries_per_second:8.0f}",
                    f"{r.slo_attainment:.3f}",
                    f"{r.p50_service_seconds * 1e3:7.3f}",
                    f"{r.p99_service_seconds * 1e3:7.3f}",
                )
                for r in (inproc, http)
            ),
        ],
    )

    for report in (inproc, http):
        assert report.completed == len(trace)
        assert report.errors == 0
        assert report.slo_attainment == 1.0
    assert drain["unfulfilled"] == 0

    # The guard: warm socket-path throughput must stay above an absolute
    # floor — loose enough for CI jitter, tight enough to catch a framing
    # or event-loop regression turning per-request cost from sub-ms to ms.
    assert http.queries_per_second > 200.0

    emit_bench_json(
        "http_serving",
        {
            "trace": trace.name,
            "requests": len(trace),
            "inprocess_qps": inproc.queries_per_second,
            "http_qps": http.queries_per_second,
            "http_over_inprocess": (
                http.queries_per_second / inproc.queries_per_second
                if inproc.queries_per_second
                else 0.0
            ),
            "http_slo_attainment": http.slo_attainment,
            "http_p50_ms": http.p50_service_seconds * 1e3,
            "http_p99_ms": http.p99_service_seconds * 1e3,
            "retried_429": http.retried_429,
            "drain": drain,
        },
    )


#: The Fig. 12 grid as two tenants serve it: ``hardware_dse`` around three
#: (RMPUs, VVPUs per RMPU) anchors, then the GPU baselines.  51 distinct
#: accelerator configs plus 4 baselines, over 16 lengths of 256-4096.
FIG12_RMPUS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
FIG12_VVPUS = (1, 2, 3, 4, 5, 6, 7, 8)
FIG12_ANCHORS = ((32, 4), (64, 2), (16, 8))
FIG12_BASELINES = ("h100", "h100-chunk", "a100", "a100-chunk")
FIG12_LENGTHS = tuple(300 + 240 * i for i in range(16))
FIG12_TENANTS = 2
#: Paired passes; the guard reads the median of the per-pair ratios.
FIG12_PAIRS = 11
#: Bound on the median (two-tenant service pass) / (bare simulate_batch)
#: time ratio.  Reads 1.54-1.64 on a 2-core container; 2.13-2.53 when every
#: ticket built its own Event, every fresh config object was digested and
#: every request took its own stats-lock holds.
SERVICE_OVERHEAD_BOUND = 2.0


def fig12_grid():
    """Every distinct (backend spec) the served figure prices, in first-use order."""
    grid = [
        LightNobelConfig(num_rmpus=r, vvpus_per_rmpu=v)
        for rmpus, vvpus in FIG12_ANCHORS
        for r, v in [(rmpus, v) for v in FIG12_VVPUS] + [(r, vvpus) for r in FIG12_RMPUS]
    ]
    return list(dict.fromkeys(grid)) + list(FIG12_BASELINES)


def served_pass(config, lengths):
    """Seconds for two tenants to serve the figure through a fresh service."""
    service = LatencyService(ppm_config=config, use_disk_cache=False)
    failures = []

    def tenant():
        try:
            for rmpus, vvpus in FIG12_ANCHORS:
                hardware_dse(
                    lengths, rmpu_counts=FIG12_RMPUS, vvpu_counts=FIG12_VVPUS,
                    fixed_vvpus_per_rmpu=vvpus, fixed_rmpus=rmpus, config=config,
                    service=service,
                )
            service.query_batch([(b, n) for b in FIG12_BASELINES for n in lengths])
        except Exception as exc:  # surfaced by the assert below
            failures.append(exc)

    threads = [threading.Thread(target=tenant) for _ in range(FIG12_TENANTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    report = service.capacity_report()
    service.close()
    assert not failures, failures
    assert report.errors == 0
    assert report.simulations == len(fig12_grid()) * len(lengths)
    return elapsed


def bare_pass(config, lengths):
    """Seconds for one bare session to price the same grid in one call."""
    session = SimulationSession(ppm_config=config, backends=(), use_disk_cache=False)
    start = time.perf_counter()
    session.simulate_batch(lengths, backends=fig12_grid())
    return time.perf_counter() - start


def test_service_overhead_on_the_fig12_grid(paper_config):
    ratios = []
    for pair in range(FIG12_PAIRS):
        lengths = [n + pair for n in FIG12_LENGTHS]
        bare_pass(paper_config, lengths)  # build the op tables both passes read
        if pair % 2:
            bare = bare_pass(paper_config, lengths)
            served = served_pass(paper_config, lengths)
        else:
            served = served_pass(paper_config, lengths)
            bare = bare_pass(paper_config, lengths)
        ratios.append((served, bare, served / bare))
    median = statistics.median(ratio for _, _, ratio in ratios)
    print_table(
        f"Fig. 12 grid: two-tenant service vs bare simulate_batch ({FIG12_PAIRS} pairs)",
        [
            ("pair", "service ms", "bare ms", "ratio"),
            *(
                (i, f"{s * 1e3:7.1f}", f"{b * 1e3:7.1f}", f"{r:5.2f}")
                for i, (s, b, r) in enumerate(ratios)
            ),
            ("median", "", "", f"{median:5.2f}"),
        ],
    )
    assert median <= SERVICE_OVERHEAD_BOUND


class CountingLock:
    """A re-entrant lock that counts its acquisitions, usable under a Condition."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.acquisitions = 0
        self.release = self._lock.release
        self._release_save = self._lock._release_save
        self._is_owned = self._lock._is_owned

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._lock.acquire(*args, **kwargs)

    def _acquire_restore(self, state) -> None:  # a Condition waking from wait()
        self.acquisitions += 1
        self._lock._acquire_restore(state)

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


WARM_LENGTHS = (200, 400, 800)
WARM_BACKENDS = ("lightnobel", "h100")


def test_warm_query_batch_takes_the_service_lock_per_batch(paper_config, monkeypatch):
    """Service-lock acquisitions per warm ``query_batch`` do not grow with its size.

    Every request is a memo hit answered at submit, so a batch costs one
    submit hold (which fulfils the hits) and one claim hold, at 10 requests
    as at 1,000; claiming each ticket on its own would add one per request.
    """
    from repro.serving import LatencyResponse

    session = SimulationSession(ppm_config=paper_config, use_disk_cache=False)
    session.simulate_batch(WARM_LENGTHS, backends=WARM_BACKENDS)
    service = LatencyService(session=session, autostart=False)
    lock = CountingLock()
    service._cond = threading.Condition(lock)
    service._settled = threading.Condition(lock)
    keys = [(backend, n) for backend in WARM_BACKENDS for n in WARM_LENGTHS]
    expected = {key: session.simulate(key[1], backend=key[0]) for key in keys}
    built = {"requests": 0, "responses": 0}

    def counting(kind, original):
        def init(self, *args, **kwargs):
            built[kind] += 1
            original(self, *args, **kwargs)

        return init

    monkeypatch.setattr(
        LatencyRequest, "__post_init__", counting("requests", LatencyRequest.__post_init__)
    )
    monkeypatch.setattr(
        LatencyResponse, "__init__", counting("responses", LatencyResponse.__init__)
    )
    holds = {}
    for size in (10, 1000, 10):
        requests = [keys[i % len(keys)] for i in range(size)]
        before = lock.acquisitions
        reports = service.query_batch(requests)
        holds.setdefault(size, []).append(lock.acquisitions - before)
        assert [r.total_seconds for r in reports] == [
            expected[key].total_seconds for key in requests
        ]
    monkeypatch.undo()
    assert service.stats.memo_hits == len(keys) * 3 and service.stats.batches == 0
    service.close()
    print_table(
        "Warm query_batch: service-lock acquisitions per batch",
        [("requests", "acquisitions"), *((size, counts) for size, counts in holds.items())],
    )
    assert holds[10][0] == holds[10][1] == holds[1000][0]
    assert built == {"requests": 0, "responses": 0}


#: Python-level calls (``sys.setprofile`` "call" events) one warm in-process
#: ``/v1/query`` may make from reading its bytes to writing its response.
#: Reads 75 on CPython 3.11, where re-encoding the report on every query
#: (its kept JSON text unused) reads 87; the code before the text was kept
#: read 116.
WARM_QUERY_CALL_BUDGET = 80
#: Wall-clock backstop: the median in-process warm query, in microseconds
#: (reads 57-81 on a 2-core container, 82-89 before the report was encoded once).
WARM_QUERY_US_BOUND = 250.0
WARM_QUERY_ROUNDS = 5
WARM_QUERIES_PER_ROUND = 2000


def test_warm_query_python_calls(paper_config):
    """Count the Python calls of a warm ``/v1/query`` through the front door's steps.

    The door's own read, dispatch and write steps run on its event loop
    against an in-memory stream (no socket, so the count holds the work the
    server does per query and nothing the kernel does): every query is a
    memo hit answered at submit, and its response splices the report's
    memoized JSON text.
    """
    from repro.serving.http.server import LatencyFrontDoor
    from repro.serving.wire import WireRequest

    keys = [(backend, n) for backend in WARM_BACKENDS for n in WARM_LENGTHS]
    session = SimulationSession(ppm_config=paper_config, use_disk_cache=False)
    session.simulate_batch(WARM_LENGTHS, backends=WARM_BACKENDS)
    service = LatencyService(session=session)
    door = LatencyFrontDoor(service=service)
    requests = []
    for backend, n in keys:
        body = WireRequest(backend=backend, sequence_length=n, tenant="bench").to_json().encode()
        requests.append(
            b"POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )

    class Sink:
        write = bytearray().extend  # a builtin: the sink itself makes no Python call

    async def serve(queries: int, profile=None) -> float:
        reader = asyncio.StreamReader(limit=1 << 20)
        reader.feed_data(b"".join(requests[i % len(requests)] for i in range(queries)))
        sink = Sink()
        start = time.perf_counter()
        sys.setprofile(profile)
        try:
            for _ in range(queries):
                request = await door._read_request(reader)
                door._write_response(sink, await door._dispatch(request), keep_alive=True)
        finally:
            sys.setprofile(None)
        return time.perf_counter() - start

    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(door.start())
        loop.run_until_complete(serve(len(requests)))  # every key encoded once
        per_round = [
            loop.run_until_complete(serve(WARM_QUERIES_PER_ROUND)) / WARM_QUERIES_PER_ROUND
            for _ in range(WARM_QUERY_ROUNDS)
        ]
        loop.run_until_complete(serve(WARM_QUERIES_PER_ROUND, count))
        report = loop.run_until_complete(door.shutdown(drain=True))
    finally:
        loop.close()
        service.close()
    per_query = calls / WARM_QUERIES_PER_ROUND
    median_us = statistics.median(per_round) * 1e6
    print_table(
        "Warm /v1/query in process: Python calls and time per query",
        [
            ("python calls", "budget", "median us", "backstop us"),
            (f"{per_query:.1f}", WARM_QUERY_CALL_BUDGET, f"{median_us:.1f}", WARM_QUERY_US_BOUND),
        ],
    )
    assert report["unfulfilled"] == 0 and report["unclaimed"] == 0
    assert service.stats.memo_hits == len(requests) + (WARM_QUERY_ROUNDS + 1) * WARM_QUERIES_PER_ROUND
    assert per_query <= WARM_QUERY_CALL_BUDGET
    assert median_us <= WARM_QUERY_US_BOUND
