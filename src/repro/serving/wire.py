"""Versioned JSON wire format of the serving layer.

The in-process API speaks frozen dataclasses whose fields grew PR-by-PR
(:class:`~repro.serving.api.LatencyRequest`, ``LatencyResponse``,
``CapacityReport``, ``RequestLogRecord``).  This module is the *wire
contract* those types serialize through — the schema the HTTP front door
(:mod:`repro.serving.http`) validates against:

* :class:`WireRequest` / :class:`WireResponse` — the request/response pair a
  client puts on the socket.  Each converts losslessly to and from its
  in-process sibling (``WireRequest.to_latency`` /
  ``WireResponse.from_latency``) and round-trips through JSON exactly
  (``to_json`` / ``from_json``); the only restriction the wire adds is that
  ``backend`` must be a registry *name* — live backend objects and frozen
  config dataclasses are an in-process convenience, not a wire type.
* :class:`ErrorBody` — every non-2xx HTTP response body: a machine-readable
  ``code``, a human-readable ``message``, and (for backpressure) a
  ``retry_after_seconds`` hint mirroring the ``Retry-After`` header.
* converters for the operator-facing types —
  :func:`capacity_report_to_dict` / :func:`capacity_report_from_dict`,
  :func:`log_record_to_dict` / :func:`log_record_from_dict`,
  :func:`request_log_to_json` / :func:`request_log_from_json`, and
  :func:`sim_report_to_dict` / :func:`sim_report_from_dict` — all lossless
  round trips, all carrying ``schema_version``.

Validation is strict: unknown fields, wrong types, non-positive lengths and
unsupported schema versions raise :class:`WireFormatError` with a stable
``code``, which the HTTP layer maps to a 400 with the same code in the
:class:`ErrorBody`.  A payload without ``schema_version`` is read as the
current :data:`SCHEMA_VERSION` (curl-friendliness); a payload with a
*different* version is rejected rather than half-parsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.backend import SimReport
from .api import (
    BackendServiceStats,
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    RequestLogRecord,
)

#: Version of the wire schema.  Bump when a field changes meaning or shape;
#: additive optional fields do not require a bump.
SCHEMA_VERSION = 2


class WireFormatError(ValueError):
    """A payload failed wire-schema validation.

    ``code`` is a stable machine-readable identifier (``"invalid_json"``,
    ``"unknown_field"``, ``"invalid_field"``, ``"missing_field"``,
    ``"unsupported_schema_version"``, ``"unserializable_backend"``); the HTTP
    layer returns it verbatim in the :class:`ErrorBody` of a 400 response.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


# ------------------------------------------------------------------ validators
def _require_dict(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise WireFormatError(
            "invalid_field", f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_fields(payload: Mapping[str, Any], allowed: Tuple[str, ...], what: str) -> None:
    for key in payload:
        if key not in allowed:
            raise WireFormatError("unknown_field", f"{what} does not accept field {key!r}")


def _check_version(payload: Mapping[str, Any], what: str) -> int:
    version = payload.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        raise WireFormatError(
            "unsupported_schema_version",
            f"{what} schema_version must be {SCHEMA_VERSION}, got {version!r}",
        )
    return version


def _as_int(value: Any, field: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError("invalid_field", f"{field} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise WireFormatError("invalid_field", f"{field} must be >= {minimum}, got {value!r}")
    return value


def _as_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError("invalid_field", f"{field} must be a number, got {value!r}")
    return float(value)


def _as_optional_positive_float(value: Any, field: str) -> Optional[float]:
    if value is None:
        return None
    result = _as_float(value, field)
    if result <= 0:
        raise WireFormatError("invalid_field", f"{field} must be positive, got {value!r}")
    return result


def _as_optional_bool(value: Any, field: str) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise WireFormatError("invalid_field", f"{field} must be a boolean, got {value!r}")


def _as_str(value: Any, field: str) -> str:
    if not isinstance(value, str) or not value:
        raise WireFormatError("invalid_field", f"{field} must be a non-empty string, got {value!r}")
    return value


def _as_optional_str(value: Any, field: str) -> Optional[str]:
    if value is None:
        return None
    return _as_str(value, field)


def _parse_json(text: Any, what: str) -> Any:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid_json", f"{what} is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except (TypeError, ValueError) as exc:
        raise WireFormatError("invalid_json", f"{what} is not valid JSON: {exc}") from None


# ------------------------------------------------------------------- ErrorBody
@dataclass(frozen=True)
class ErrorBody:
    """The body of every non-2xx HTTP response.

    ``code`` is stable and machine-readable (the same codes
    :class:`WireFormatError` carries, plus the HTTP layer's own:
    ``"backpressure"``, ``"unknown_ticket"``, ``"already_consumed"``,
    ``"reaped"``, ``"draining"``, ``"not_found"``, ``"timeout"``);
    ``retry_after_seconds`` accompanies 429s, mirroring the ``Retry-After``
    header for clients that only read bodies.
    """

    code: str
    message: str
    retry_after_seconds: Optional[float] = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "code": self.code,
            "message": self.message,
            "retry_after_seconds": self.retry_after_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ErrorBody":
        payload = _require_dict(payload, "ErrorBody")
        _check_fields(
            payload,
            ("schema_version", "code", "message", "retry_after_seconds"),
            "ErrorBody",
        )
        version = _check_version(payload, "ErrorBody")
        return cls(
            code=_as_str(payload.get("code"), "code"),
            message=_as_str(payload.get("message"), "message"),
            retry_after_seconds=_as_optional_positive_float(
                payload.get("retry_after_seconds"), "retry_after_seconds"
            ),
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: Any) -> "ErrorBody":
        return cls.from_dict(_parse_json(text, "ErrorBody"))


# ----------------------------------------------------------------- WireRequest
@dataclass(frozen=True)
class WireRequest:
    """One latency query as it crosses the socket.

    The wire twin of :class:`~repro.serving.api.LatencyRequest` plus
    ``tenant`` — the HTTP layer's per-tenant bounded-queue key, which the
    in-process API has no use for and therefore drops on
    :meth:`to_latency`.  ``backend`` must be a backend registry name (the
    wire cannot carry live objects); everything
    :func:`repro.sim.backend.create_backend` resolves from a string works.

    ``trace_id`` carries the client's distributed-tracing ID into the
    service (additive optional field — no schema bump): when the service
    traces, its server-side spans land under this ID and
    ``GET /v1/trace/<id>`` returns them.  The HTTP layer also accepts it via
    the ``X-Trace-Id`` header (body wins when both are present).
    """

    backend: str = "lightnobel"
    sequence_length: int = 0
    include_recycles: Optional[bool] = None
    priority: int = 0
    deadline_seconds: Optional[float] = None
    tenant: str = "default"
    trace_id: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    _FIELDS = (
        "schema_version",
        "backend",
        "sequence_length",
        "include_recycles",
        "priority",
        "deadline_seconds",
        "tenant",
        "trace_id",
    )

    def to_latency(self) -> LatencyRequest:
        """The in-process request (drops ``tenant``; validates in __post_init__)."""
        return LatencyRequest(
            backend=self.backend,
            sequence_length=self.sequence_length,
            include_recycles=self.include_recycles,
            priority=self.priority,
            deadline_seconds=self.deadline_seconds,
            trace_id=self.trace_id,
        )

    @classmethod
    def from_latency(cls, request: LatencyRequest, tenant: str = "default") -> "WireRequest":
        """Wire twin of an in-process request.

        Raises :class:`WireFormatError` (``"unserializable_backend"``) for
        non-string backend specs — config dataclasses and live backends are
        in-process conveniences; the wire speaks registry names only.
        """
        if not isinstance(request.backend, str):
            raise WireFormatError(
                "unserializable_backend",
                "only string backend names cross the wire; register the spec "
                f"and submit by name (got {type(request.backend).__name__})",
            )
        return cls(
            backend=request.backend,
            sequence_length=request.sequence_length,
            include_recycles=request.include_recycles,
            priority=request.priority,
            deadline_seconds=request.deadline_seconds,
            tenant=tenant,
            trace_id=request.trace_id,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "backend": self.backend,
            "sequence_length": self.sequence_length,
            "include_recycles": self.include_recycles,
            "priority": self.priority,
            "deadline_seconds": self.deadline_seconds,
            "tenant": self.tenant,
            "trace_id": self.trace_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WireRequest":
        payload = _require_dict(payload, "WireRequest")
        _check_fields(payload, cls._FIELDS, "WireRequest")
        version = _check_version(payload, "WireRequest")
        if "sequence_length" not in payload:
            raise WireFormatError("missing_field", "WireRequest requires sequence_length")
        return cls(
            backend=_as_str(payload.get("backend", "lightnobel"), "backend"),
            sequence_length=_as_int(payload["sequence_length"], "sequence_length", minimum=1),
            include_recycles=_as_optional_bool(
                payload.get("include_recycles"), "include_recycles"
            ),
            priority=_as_int(payload.get("priority", 0), "priority"),
            deadline_seconds=_as_optional_positive_float(
                payload.get("deadline_seconds"), "deadline_seconds"
            ),
            tenant=_as_str(payload.get("tenant", "default"), "tenant"),
            trace_id=_as_optional_str(payload.get("trace_id"), "trace_id"),
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: Any) -> "WireRequest":
        return cls.from_dict(_parse_json(text, "WireRequest"))


# ------------------------------------------------------------------- SimReport
def sim_report_to_dict(report: SimReport) -> Dict[str, Any]:
    """JSON-able dict of a :class:`~repro.sim.backend.SimReport` (lossless)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "backend": report.backend,
        "sequence_length": int(report.sequence_length),
        "total_seconds": float(report.total_seconds),
        "phase_seconds": {str(k): float(v) for k, v in report.phase_seconds.items()},
        "subphase_seconds": {str(k): float(v) for k, v in report.subphase_seconds.items()},
        "out_of_memory": bool(report.out_of_memory),
        "details": {str(k): float(v) for k, v in report.details.items()},
    }


def sim_report_from_dict(payload: Mapping[str, Any]) -> SimReport:
    payload = _require_dict(payload, "SimReport")
    _check_fields(
        payload,
        (
            "schema_version",
            "backend",
            "sequence_length",
            "total_seconds",
            "phase_seconds",
            "subphase_seconds",
            "out_of_memory",
            "details",
        ),
        "SimReport",
    )
    _check_version(payload, "SimReport")
    if not isinstance(payload.get("out_of_memory", False), bool):
        raise WireFormatError("invalid_field", "out_of_memory must be a boolean")

    def _float_map(name: str) -> Dict[str, float]:
        mapping = _require_dict(payload.get(name, {}), f"SimReport.{name}")
        return {_as_str(k, f"{name} key"): _as_float(v, f"{name}[{k!r}]") for k, v in mapping.items()}

    return SimReport(
        backend=_as_str(payload.get("backend"), "backend"),
        sequence_length=_as_int(payload.get("sequence_length"), "sequence_length", minimum=1),
        total_seconds=_as_float(payload.get("total_seconds"), "total_seconds"),
        phase_seconds=_float_map("phase_seconds"),
        subphase_seconds=_float_map("subphase_seconds"),
        out_of_memory=bool(payload.get("out_of_memory", False)),
        details=_float_map("details"),
    )


# ---------------------------------------------------------------- WireResponse
@dataclass(frozen=True)
class WireResponse:
    """One fulfilled (or failed) request as it crosses the socket.

    The wire twin of :class:`~repro.serving.api.LatencyResponse`: the ticket
    id, the request as admitted (a :class:`WireRequest`, so the tenant rides
    along), the full :class:`~repro.sim.backend.SimReport` when the request
    succeeded, and the service-side timings.  ``to_latency`` /
    ``from_latency`` round-trip losslessly for any string-backend request.
    """

    ticket_id: int
    request: WireRequest
    report: Optional[SimReport] = None
    error: Optional[str] = None
    coalesced: bool = False
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    completed_index: int = -1
    schema_version: int = SCHEMA_VERSION

    _FIELDS = (
        "schema_version",
        "ticket_id",
        "request",
        "report",
        "error",
        "coalesced",
        "queue_seconds",
        "service_seconds",
        "completed_index",
    )

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None

    @classmethod
    def from_latency(
        cls, response: LatencyResponse, tenant: str = "default"
    ) -> "WireResponse":
        return cls(
            ticket_id=response.request_id,
            request=WireRequest.from_latency(response.request, tenant=tenant),
            report=response.report,
            error=response.error,
            coalesced=response.coalesced,
            queue_seconds=response.queue_seconds,
            service_seconds=response.service_seconds,
            completed_index=response.completed_index,
        )

    def to_latency(self) -> LatencyResponse:
        return LatencyResponse(
            request_id=self.ticket_id,
            request=self.request.to_latency(),
            report=self.report,
            error=self.error,
            coalesced=self.coalesced,
            queue_seconds=self.queue_seconds,
            service_seconds=self.service_seconds,
            completed_index=self.completed_index,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "ticket_id": self.ticket_id,
            "request": self.request.to_dict(),
            "report": None if self.report is None else sim_report_to_dict(self.report),
            "error": self.error,
            "coalesced": self.coalesced,
            "queue_seconds": float(self.queue_seconds),
            "service_seconds": float(self.service_seconds),
            "completed_index": self.completed_index,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WireResponse":
        payload = _require_dict(payload, "WireResponse")
        _check_fields(payload, cls._FIELDS, "WireResponse")
        version = _check_version(payload, "WireResponse")
        error = payload.get("error")
        if error is not None and not isinstance(error, str):
            raise WireFormatError("invalid_field", "error must be a string or null")
        report = payload.get("report")
        return cls(
            ticket_id=_as_int(payload.get("ticket_id"), "ticket_id", minimum=0),
            request=WireRequest.from_dict(payload.get("request", {})),
            report=None if report is None else sim_report_from_dict(report),
            error=error,
            coalesced=bool(_as_optional_bool(payload.get("coalesced", False), "coalesced")),
            queue_seconds=_as_float(payload.get("queue_seconds", 0.0), "queue_seconds"),
            service_seconds=_as_float(payload.get("service_seconds", 0.0), "service_seconds"),
            completed_index=_as_int(payload.get("completed_index", -1), "completed_index"),
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: Any) -> "WireResponse":
        return cls.from_dict(_parse_json(text, "WireResponse"))


# -------------------------------------------------------------- CapacityReport
def backend_stats_to_dict(row: BackendServiceStats) -> Dict[str, Any]:
    return {
        "backend": row.backend,
        "requests": int(row.requests),
        "mean_seconds": float(row.mean_seconds),
        "p50_seconds": float(row.p50_seconds),
        "p99_seconds": float(row.p99_seconds),
    }


def backend_stats_from_dict(payload: Mapping[str, Any]) -> BackendServiceStats:
    payload = _require_dict(payload, "BackendServiceStats")
    _check_fields(
        payload,
        ("backend", "requests", "mean_seconds", "p50_seconds", "p99_seconds"),
        "BackendServiceStats",
    )
    return BackendServiceStats(
        backend=_as_str(payload.get("backend"), "backend"),
        requests=_as_int(payload.get("requests"), "requests", minimum=0),
        mean_seconds=_as_float(payload.get("mean_seconds"), "mean_seconds"),
        p50_seconds=_as_float(payload.get("p50_seconds"), "p50_seconds"),
        p99_seconds=_as_float(payload.get("p99_seconds"), "p99_seconds"),
    )


#: CapacityReport's scalar fields as (name, type), ints first (the wire key
#: order), read off the dataclass; a field of another type fails at import.
_SCALAR_TYPES = {"int": int, "float": float, int: int, float: float}
_CAPACITY_SCALARS = sorted(
    ((f.name, _SCALAR_TYPES[f.type]) for f in fields(CapacityReport) if f.name != "backends"),
    key=lambda item: item[1] is float,
)


def capacity_report_to_dict(report: CapacityReport) -> Dict[str, Any]:
    """JSON-able dict of a :class:`~repro.serving.api.CapacityReport` (lossless)."""
    payload: Dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    for name, kind in _CAPACITY_SCALARS:
        payload[name] = kind(getattr(report, name))
    payload["backends"] = [backend_stats_to_dict(row) for row in report.backends]
    return payload


def capacity_report_from_dict(payload: Mapping[str, Any]) -> CapacityReport:
    payload = _require_dict(payload, "CapacityReport")
    _check_fields(
        payload,
        ("schema_version", "backends") + tuple(name for name, _ in _CAPACITY_SCALARS),
        "CapacityReport",
    )
    _check_version(payload, "CapacityReport")
    rows = payload.get("backends", [])
    if not isinstance(rows, (list, tuple)):
        raise WireFormatError("invalid_field", "backends must be a list")
    kwargs: Dict[str, Any] = {
        name: (_as_int if kind is int else _as_float)(payload.get(name, kind()), name)
        for name, kind in _CAPACITY_SCALARS
    }
    kwargs["backends"] = tuple(backend_stats_from_dict(row) for row in rows)
    return CapacityReport(**kwargs)


# ------------------------------------------------------------ RequestLogRecord
_LOG_FIELDS = (
    "schema_version",
    "ticket_id",
    "backend",
    "sequence_length",
    "priority",
    "deadline_seconds",
    "arrival_seconds",
    "outcome",
    "coalesced",
    "queue_seconds",
    "service_seconds",
    "trace_id",
)


def log_record_to_dict(record: RequestLogRecord) -> Dict[str, Any]:
    """JSON-able dict of a :class:`~repro.serving.api.RequestLogRecord` (lossless)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "ticket_id": int(record.ticket_id),
        "backend": record.backend,
        "sequence_length": int(record.sequence_length),
        "priority": int(record.priority),
        "deadline_seconds": (
            None if record.deadline_seconds is None else float(record.deadline_seconds)
        ),
        "arrival_seconds": float(record.arrival_seconds),
        "outcome": record.outcome,
        "coalesced": bool(record.coalesced),
        "queue_seconds": float(record.queue_seconds),
        "service_seconds": float(record.service_seconds),
        "trace_id": record.trace_id,
    }


def log_record_from_dict(payload: Mapping[str, Any]) -> RequestLogRecord:
    payload = _require_dict(payload, "RequestLogRecord")
    _check_fields(payload, _LOG_FIELDS, "RequestLogRecord")
    _check_version(payload, "RequestLogRecord")
    return RequestLogRecord(
        ticket_id=_as_int(payload.get("ticket_id"), "ticket_id", minimum=0),
        backend=_as_str(payload.get("backend"), "backend"),
        sequence_length=_as_int(payload.get("sequence_length"), "sequence_length", minimum=1),
        priority=_as_int(payload.get("priority", 0), "priority"),
        deadline_seconds=_as_optional_positive_float(
            payload.get("deadline_seconds"), "deadline_seconds"
        ),
        arrival_seconds=_as_float(payload.get("arrival_seconds", 0.0), "arrival_seconds"),
        outcome=_as_str(payload.get("outcome", "ok"), "outcome"),
        coalesced=bool(_as_optional_bool(payload.get("coalesced", False), "coalesced")),
        queue_seconds=_as_float(payload.get("queue_seconds", 0.0), "queue_seconds"),
        service_seconds=_as_float(payload.get("service_seconds", 0.0), "service_seconds"),
        trace_id=_as_optional_str(payload.get("trace_id"), "trace_id"),
    )


def request_log_to_json(records: Sequence[RequestLogRecord]) -> str:
    """Serialize a request log — the ``GET /v1/log`` response body."""
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "records": [log_record_to_dict(record) for record in records],
        },
        sort_keys=True,
    )


def request_log_from_json(text: Any) -> List[RequestLogRecord]:
    """Parse a ``GET /v1/log`` body back into typed log records.

    The result feeds :meth:`repro.cluster.trace.RequestTrace.from_serving_log`
    directly: live HTTP traffic becomes a replayable cluster trace.
    """
    payload = _require_dict(_parse_json(text, "request log"), "request log")
    _check_fields(payload, ("schema_version", "records"), "request log")
    _check_version(payload, "request log")
    records = payload.get("records", [])
    if not isinstance(records, list):
        raise WireFormatError("invalid_field", "records must be a list")
    return [log_record_from_dict(record) for record in records]
