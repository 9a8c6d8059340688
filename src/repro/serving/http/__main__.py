"""Standalone front-door server: ``python -m repro.serving.http``.

Prints ``listening <host> <port>`` once the socket is bound (the subprocess
tests parse this line), serves until SIGTERM/SIGINT, then
drains — every in-flight ticket fulfills, clients get a claim grace window —
and prints ``drain <json report>`` before exiting 0.  A drain report with
``"unfulfilled": 0`` is the clean-shutdown contract.

The service keeps the latest :data:`REQUEST_LOG_LIMIT` request-log records
(``GET /v1/log``), so a long-running server's memory stays bounded.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from ...obs.tracing import Tracer
from ...ppm.config import PPMConfig
from .server import LatencyFrontDoor

#: Request-log records the server keeps (oldest fall out first); one record
#: is ~312 B, so the log holds at most ~30 MiB.
REQUEST_LOG_LIMIT = 100_000

_PPM_PRESETS = {
    "tiny": PPMConfig.tiny,
    "small": PPMConfig.small,
    "paper": PPMConfig.paper,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.http",
        description="Async HTTP front door over a LatencyService.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--ppm", choices=sorted(_PPM_PRESETS), default="tiny", help="PPM config preset"
    )
    parser.add_argument("--max-pending-per-tenant", type=int, default=256)
    parser.add_argument("--max-pending-total", type=int, default=4096)
    parser.add_argument("--reap-after-seconds", type=float, default=300.0)
    parser.add_argument(
        "--reap-interval-seconds",
        type=float,
        default=0.0,
        help="0 disables the background reaper (POST /v1/reap still works)",
    )
    parser.add_argument("--drain-timeout-seconds", type=float, default=120.0)
    parser.add_argument("--claim-grace-seconds", type=float, default=2.0)
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record per-request span trees, served at GET /v1/trace/<id>",
    )
    parser.add_argument(
        "--trace-max-traces",
        type=int,
        default=1024,
        help="bound on held traces before FIFO eviction (with --trace)",
    )
    return parser


def build_door(args: argparse.Namespace) -> LatencyFrontDoor:
    """The front door (and its owned service) for parsed command-line ``args``."""
    return LatencyFrontDoor(
        host=args.host,
        port=args.port,
        max_pending_per_tenant=args.max_pending_per_tenant,
        max_pending_total=args.max_pending_total,
        reap_after_seconds=args.reap_after_seconds,
        reap_interval_seconds=args.reap_interval_seconds,
        drain_timeout_seconds=args.drain_timeout_seconds,
        claim_grace_seconds=args.claim_grace_seconds,
        ppm_config=_PPM_PRESETS[args.ppm](),
        tracer=Tracer(max_traces=args.trace_max_traces) if args.trace else None,
        request_log_limit=REQUEST_LOG_LIMIT,
    )


async def _serve(args: argparse.Namespace) -> int:
    door = build_door(args)
    await door.start()
    print(f"listening {door.host} {door.port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()

    report = await door.shutdown(drain=True)
    print(f"drain {json.dumps(report, sort_keys=True)}", flush=True)
    return 0 if report.get("unfulfilled", 0) == 0 else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    sys.exit(main())
