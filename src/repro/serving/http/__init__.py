"""Async HTTP front door for the serving layer (stdlib-only).

Public surface:

* :class:`~repro.serving.http.server.LatencyFrontDoor` /
  :func:`~repro.serving.http.server.create_front_door` — the asyncio server,
* :func:`~repro.serving.http.server.serve_in_thread` /
  :class:`~repro.serving.http.server.FrontDoorHandle` — run the server on a
  background thread from synchronous code (tests, benchmarks),
* :class:`~repro.serving.http.client.FrontDoorClient` — minimal async
  HTTP/1.1 client speaking the wire schema,
* :mod:`~repro.serving.http.loadgen` — replay a
  :class:`~repro.cluster.trace.RequestTrace` through the socket path and
  grade responses with the trace's own SLO deadlines.

``python -m repro.serving.http`` starts a standalone server.
"""

from .client import FrontDoorClient
from .loadgen import LoadReport, replay_trace_http, replay_trace_inprocess
from .server import (
    FrontDoorHandle,
    LatencyFrontDoor,
    create_front_door,
    serve_in_thread,
)

__all__ = [
    "FrontDoorClient",
    "FrontDoorHandle",
    "LatencyFrontDoor",
    "LoadReport",
    "create_front_door",
    "replay_trace_http",
    "replay_trace_inprocess",
    "serve_in_thread",
]
