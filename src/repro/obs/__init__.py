"""Unified observability: tracing, typed metrics, and DES timeline export.

Three small, dependency-free (stdlib-only) subsystems that every other
layer wires into rather than reinventing:

* :mod:`repro.obs.tracing` — :class:`Tracer` / :class:`Span`: per-request
  span traces recorded by :class:`~repro.serving.service.LatencyService`,
  carried across the wire via ``LatencyRequest.trace_id`` / the
  ``X-Trace-Id`` header, served back by ``GET /v1/trace/<id>``.
* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` (constant-memory exponential buckets) behind a
  :class:`MetricsRegistry`; :mod:`repro.obs.prom` renders any registry as
  Prometheus text exposition (``/metrics?format=prom``) and parses it back
  for validation.
* :mod:`repro.obs.timeline` — :class:`TimelineRecorder`: the cluster DES
  event stream captured via ``replay_trace(timeline=...)`` and exported as
  Chrome trace-event / Perfetto JSON, without perturbing bit-determinism.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    DEFAULT_LATENCY_BUCKETS,
    exponential_buckets,
)
from .prom import render as render_prometheus, parse as parse_prometheus
from .timeline import TimelineRecorder
from .tracing import Span, Tracer, new_trace_id

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "exponential_buckets",
    "render_prometheus",
    "parse_prometheus",
    "TimelineRecorder",
    "Span",
    "Tracer",
    "new_trace_id",
]
