"""Workload ``http-warm``: closed-loop keep-alive queries against a warm server.

Two keep-alive connections send ``POST /v1/query`` back to back to
``python -m repro.serving.http --ppm paper`` running in its own process, on
the same CPU as the client.  The client is a minimal one: request bytes are
encoded in set-up and a response is parsed only as far as the check needs,
so the server does nearly all the per-request work.

Requests are a seeded mix over three backends and eight lengths in
128-2048; set-up warms the service memo, so every timed request is a memo
hit and the front door, the wire codec and the ticket lifecycle do all the
work.  Each response must be ``ok`` and its ``total_seconds`` must equal a
direct ``SimulationSession.simulate`` exactly.

Timed segments alternate between the front door and ``ref_server.py``, a
minimal asyncio responder on the same CPU that returns a canned response.
The shared machine's slow phases slow both alike, so the front door's times
and rates are reported relative to the responder's (see ``measure``).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    Patch, Result, Spans, capacity_metrics, digest_of, median, percentile, timed_calls,
)

from repro.ppm import PPMConfig
from repro.serving import LatencyService
from repro.serving.http.client import FrontDoorClient
from repro.serving.wire import WireRequest, WireResponse, sim_report_to_dict
from repro.sim import SimulationSession

HERE = Path(__file__).resolve().parent
BACKENDS = ("lightnobel", "h100", "h100-chunk")
NUM_LENGTHS = 8
MIN_LENGTH, MAX_LENGTH = 128, 2048
MIX_SIZE = 4096
CONNECTIONS = 2
#: Closed-loop requests sent during set-up, after the memo is warm.
WARMUP_REQUESTS = 2000
#: Individually timed calls per in-process layer probe.
PROBE_CALLS = 2000
#: Throughput is the median over windows of this many seconds.
RATE_WINDOW_S = 0.25
#: Length of one timed segment; segments alternate front door / responder.
SEGMENT_S = 0.5
#: Median round trip of the reference responder on an uncontended core of
#: the 2-core x86-64 container the benchmark was tuned on.  Timed round
#: trips are scaled by REFERENCE_RTT_S / the run's responder median.
REFERENCE_RTT_S = 150e-6

Key = Tuple[str, int]


@dataclass
class State:
    server: subprocess.Popen
    host: str
    port: int
    keys: List[Key]
    mix: List[WireRequest]
    #: The mix as ready-to-send HTTP requests.
    payloads: List[bytes]
    expected: Dict[Key, float]
    session: SimulationSession
    digest: str = ""
    sample_response: str = ""
    responder: Optional[subprocess.Popen] = None
    responder_port: int = 0
    #: Server peak RSS once set-up ends.  Read there, after a fixed number
    #: of requests, because the server's request log grows with every
    #: request served, so a reading after the timed loop would track speed.
    peak_rss_mb: float = 0.0


def make_inputs(seed: int) -> Tuple[List[Key], List[Key]]:
    """Distinct keys (one length per log-spaced stratum) and the request mix."""
    rng = np.random.default_rng(seed)
    edges = np.geomspace(MIN_LENGTH, MAX_LENGTH, NUM_LENGTHS + 1)
    lengths = [int(rng.integers(int(lo), int(hi))) for lo, hi in zip(edges[:-1], edges[1:])]
    keys = [(backend, n) for backend in BACKENDS for n in lengths]
    weights = rng.dirichlet(np.ones(len(keys)))
    picks = rng.choice(len(keys), size=MIX_SIZE, p=weights)
    return keys, [keys[int(i)] for i in picks]


def _spawn(
    argv: List[str], root: Path, stdin: Optional[bytes] = None
) -> Tuple[subprocess.Popen, List[str]]:
    """Start a server process; returns it and the words of its ``listening`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # No disk cache and no worker pool: the server prices in-process.
    env.pop("REPRO_SIM_CACHE_DIR", None)
    env.pop("REPRO_SIM_WORKERS", None)
    process = subprocess.Popen(
        [sys.executable, *argv],
        cwd=str(root),
        env=env,
        stdin=subprocess.PIPE if stdin is not None else None,
        stdout=subprocess.PIPE,
        text=True,
    )
    if stdin is not None:
        process.stdin.buffer.write(stdin)
        process.stdin.close()
        process.stdin = None  # communicate() must not flush it again
    words = process.stdout.readline().split()
    if not words or words[0] != "listening":
        _stop(process)
        raise RuntimeError(f"{argv[-1]} did not start: {words!r}")
    return process, words


def _stop(process: subprocess.Popen) -> Dict[str, object]:
    """SIGTERM and wait; returns the front door's drain report (empty otherwise)."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        out, _ = process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        out, _ = process.communicate()
    for line in (out or "").splitlines():
        if line.startswith("drain "):
            return json.loads(line[len("drain "):])
    return {}


def _http_request(host: str, port: int, method: str, path: str, body: str = "") -> bytes:
    data = body.encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("latin-1") + data


@dataclass
class Loop:
    """What closed-loop segments against one server produced (wall time)."""

    latencies: List[float] = field(default_factory=list)
    #: Completions per second in each RATE_WINDOW_S window.
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Client CPU seconds spent in the loop.
    cpu_s: float = 0.0


class Client:
    """CONNECTIONS keep-alive connections to one server, driven as a closed loop."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.connections: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.cursor = 0

    async def __aenter__(self) -> "Client":
        for _ in range(CONNECTIONS):
            self.connections.append(await asyncio.open_connection(self.host, self.port))
        return self

    async def __aexit__(self, *exc) -> None:
        for _, writer in self.connections:
            writer.close()
            await writer.wait_closed()

    async def segment(
        self,
        loop: Loop,
        payloads: Sequence[bytes],
        check=None,
        seconds: float = 0.0,
        requests: Optional[int] = None,
    ) -> None:
        """Send ``payloads`` round robin for ``seconds`` (or ``requests``).

        A response counts as completed when its status is 200 and
        ``check(index, body)``, if given, holds.
        """
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        stop_at = None if requests is None else loop.attempted + requests
        done: List[float] = []

        def more() -> bool:
            return clock() < deadline if stop_at is None else loop.attempted < stop_at

        async def worker(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            while more():
                index = self.cursor % len(payloads)
                self.cursor += 1
                loop.attempted += 1
                sent = clock()
                try:
                    writer.write(payloads[index])
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    body = await reader.readexactly(length)
                    ok = int(head[9:12]) == 200 and (check is None or check(index, body))
                except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
                    ok = False
                if ok:
                    done.append(clock())
                    loop.latencies.append(done[-1] - sent)
                else:
                    loop.failed += 1

        cpu = time.process_time()
        await asyncio.gather(*(worker(reader, writer) for reader, writer in self.connections))
        loop.cpu_s += time.process_time() - cpu
        windows = np.bincount(((np.asarray(done) - start) / RATE_WINDOW_S).astype(int))
        loop.rates += (windows[: int(seconds / RATE_WINDOW_S)] / RATE_WINDOW_S).tolist()


def _checker(state: State):
    def check(index: int, body: bytes) -> bool:
        payload = json.loads(body)
        request = state.mix[index]
        return (
            payload.get("error") is None
            and payload.get("report") is not None
            and payload["report"]["total_seconds"]
            == state.expected[(request.backend, request.sequence_length)]
        )

    return check


async def _warm(state: State) -> Dict[Key, WireResponse]:
    async with FrontDoorClient(state.host, state.port) as client:
        warm = {
            key: await client.query(WireRequest(backend=key[0], sequence_length=key[1]))
            for key in state.keys
        }
    async with Client(state.host, state.port) as client:
        await client.segment(Loop(), state.payloads, _checker(state), requests=WARMUP_REQUESTS)
    return warm


def setup(seed: int, root: Path) -> State:
    keys, picks = make_inputs(seed)
    session = SimulationSession(ppm_config=PPMConfig.paper(), use_disk_cache=False)
    expected = {key: session.simulate(key[1], backend=key[0]).total_seconds for key in keys}
    mix = [
        WireRequest(backend=b, sequence_length=n, tenant=f"tenant-{i % CONNECTIONS}")
        for i, (b, n) in enumerate(picks)
    ]
    server, words = _spawn(["-m", "repro.serving.http", "--ppm", "paper", "--port", "0"], root)
    host, port = words[1], int(words[2])
    state = State(
        server=server,
        host=host,
        port=port,
        keys=keys,
        mix=mix,
        payloads=[_http_request(host, port, "POST", "/v1/query", r.to_json()) for r in mix],
        expected=expected,
        session=session,
    )
    try:
        warm = asyncio.run(_warm(state))
        state.peak_rss_mb = _peak_rss_mb(server.pid)
        state.digest = digest_of([sim_report_to_dict(warm[key].report) for key in keys])
        state.sample_response = warm[keys[0]].to_json()
        state.responder, words = _spawn(
            [str(HERE / "ref_server.py")], root, stdin=state.sample_response.encode("utf-8")
        )
        state.responder_port = int(words[1])
    except BaseException:
        close(state)
        raise
    return state


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


async def _alternate(state: State, seconds: float) -> Tuple[Loop, Loop]:
    """Alternate SEGMENT_S segments: front door, then reference responder."""
    door, responder = Loop(), Loop()
    check = _checker(state)
    async with Client(state.host, state.port) as to_door, \
            Client(state.host, state.responder_port) as to_responder:
        for _ in range(max(1, round(seconds / (2 * SEGMENT_S)))):
            await to_door.segment(door, state.payloads, check, seconds=SEGMENT_S)
            await to_responder.segment(responder, state.payloads, seconds=SEGMENT_S)
    return door, responder


def measure(state: State, seconds: float, spans: Optional[Spans] = None) -> Result:
    door, responder = asyncio.run(_alternate(state, seconds))
    # Each figure is scaled by the same statistic of the responder: round
    # trips by its median round trip, window rates by its median window rate
    # (against the nominal CONNECTIONS / REFERENCE_RTT_S).
    latency_factor = REFERENCE_RTT_S / median(responder.latencies)
    rate_factor = CONNECTIONS / REFERENCE_RTT_S / median(responder.rates)
    latencies = [t * latency_factor for t in door.latencies]
    rates = [r * rate_factor for r in door.rates]
    return Result(
        tasks_s=latencies,
        rates=rates,
        attempted=door.attempted,
        failed=door.failed + responder.failed,
        digest=state.digest,
        peak_rss_mb=state.peak_rss_mb,
        notes={
            "http_qps": median(rates),
            "http_p50_ms": median(latencies) * 1e3,
            "http_p99_ms": percentile(latencies, 99.0) * 1e3,
            "http_samples": len(latencies),
            "http_raw_p50_us": median(door.latencies) * 1e6,
            "responder_raw_p50_us": median(responder.latencies) * 1e6,
            "client_cpu_us_per_req": door.cpu_s / max(1, door.attempted) * 1e6,
        },
    )


#: Nothing to wrap in this process: the server runs in its own.  The layers
#: are read off client-side round trips and in-process probes instead.
PATCHES: Tuple[Patch, ...] = ()


def layer_metrics(state: State, traced: Result, spans: Spans) -> Dict[str, float]:
    """Per-layer figures: socket round trips, wire codec, service and session."""

    async def healthz_loop() -> Loop:
        loop = Loop()
        payload = [_http_request(state.host, state.port, "GET", "/healthz")]
        async with Client(state.host, state.port) as client:
            await client.segment(loop, payload, seconds=1.0)
        return loop

    healthz = median(asyncio.run(healthz_loop()).latencies)

    request_json = state.mix[0].to_json()
    response = WireResponse.from_json(state.sample_response)
    request_decode = timed_calls(lambda: WireRequest.from_json(request_json), PROBE_CALLS)
    response_encode = timed_calls(response.to_json, PROBE_CALLS)
    response_decode = timed_calls(
        lambda: WireResponse.from_json(state.sample_response), PROBE_CALLS
    )

    # Both probes replay the first requests of the mix; the session memo
    # already holds every key, so each call is a memo hit.
    keys = [(r.backend, r.sequence_length) for r in state.mix[:PROBE_CALLS]]
    session_calls = iter(keys)

    def session_hit() -> None:
        backend, n = next(session_calls)
        state.session.simulate(n, backend=backend)

    memo_hit = timed_calls(session_hit, PROBE_CALLS)
    with LatencyService(session=state.session) as service:
        service_calls = iter(keys)
        warm_query = timed_calls(lambda: service.query(*next(service_calls)), PROBE_CALLS)

    async def capacity() -> Dict[str, float]:
        async with FrontDoorClient(state.host, state.port) as client:
            return (await client.metrics())["capacity"]

    report = capacity_metrics(asyncio.run(capacity()))
    # Raw wall-clock figures throughout, so the budget's terms add up.
    query_rtt = traced.notes["http_raw_p50_us"] / 1e6
    wire = request_decode + response_encode + response_decode
    return {
        "http.healthz_rtt_us": healthz * 1e6,
        "http.query_rtt_us": query_rtt * 1e6,
        "http.unexplained_us": (query_rtt - healthz - wire - warm_query) * 1e6,
        "client.cpu_us_per_req": traced.notes["client_cpu_us_per_req"],
        "wire.request_decode_us": request_decode * 1e6,
        "wire.response_encode_us": response_encode * 1e6,
        "wire.response_decode_us": response_decode * 1e6,
        "service.warm_query_us": warm_query * 1e6,
        "session.memo_hit_us": memo_hit * 1e6,
        **report,
    }


def budget_lines(per_layer: Dict[str, float]) -> List[str]:
    """The socket request as a sum of per-layer medians plus the remainder."""
    terms = [
        ("HTTP floor (healthz round trip)", per_layer["http.healthz_rtt_us"]),
        ("wire: request decode", per_layer["wire.request_decode_us"]),
        ("wire: response encode", per_layer["wire.response_encode_us"]),
        ("wire: response decode", per_layer["wire.response_decode_us"]),
        ("service: warm query", per_layer["service.warm_query_us"]),
        ("unexplained remainder", per_layer["http.unexplained_us"]),
    ]
    total = per_layer["http.query_rtt_us"]
    lines = [f"budget http-warm: query round trip median {total:.1f} us ="]
    for label, value in terms:
        lines.append(f"  {value:9.1f} us  {value / total:6.1%}  {label}")
    return lines


def close(state: State) -> int:
    """Stop both servers; 1 failed check unless the drain left nothing unfulfilled."""
    try:
        if state.responder is not None:
            _stop(state.responder)
    finally:
        drain = _stop(state.server)
    return 0 if drain.get("unfulfilled") == 0 else 1
