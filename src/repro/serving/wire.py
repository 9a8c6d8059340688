"""Versioned JSON wire format of the serving layer.

The serving types of :mod:`repro.serving.api` cross the socket as
themselves: :class:`WireRequest` *is* :class:`~repro.serving.api.LatencyRequest`
and :class:`WireResponse` *is* :class:`~repro.serving.api.LatencyResponse`.
This module derives one JSON codec per type from the type's field
declaration and registers it, which gives every declared type
``to_dict``/``to_json`` and ``from_dict``/``from_json``.  It also owns:

* :class:`ErrorBody` — every non-2xx HTTP response body: a machine-readable
  ``code``, a human-readable ``message``, and (for backpressure) a
  ``retry_after_seconds`` hint mirroring the ``Retry-After`` header;
* the codec of :class:`~repro.sim.backend.SimReport` (the simulator's type,
  declared by its annotations plus the two checks below) and of the
  ``GET /v1/log`` envelope;
* the converter names :func:`sim_report_to_dict`,
  :func:`capacity_report_to_dict`, :func:`log_record_to_dict`,
  :func:`request_log_to_json` and their ``from`` inverses — all lossless
  round trips.

A codec reads each dataclass field once:

* the annotation picks the encoder and the type check (``int``, ``float``,
  ``bool``, ``str``, ``Mapping[str, float]``, ``Optional[...]``, a nested
  declared type, or ``Tuple[T, ...]`` of one); ``Any`` is a backend spec,
  which crosses the wire only as a registry name;
* ``declare(check=...)`` metadata names the validator, and a field is
  required when it has no default or is declared ``required``.

Encoding coerces each value to its declared type and puts
``schema_version`` first (``BackendServiceStats`` rows, nested in a
stamped capacity report, carry no stamp of their own).  Decoding is strict:
unknown fields, missing required fields, wrong types, failed checks and
unsupported schema versions raise :class:`WireFormatError` with a stable
``code``, which the HTTP layer maps to a 400 with the same code in the
:class:`ErrorBody`.  A payload without ``schema_version`` is read as the
current :data:`SCHEMA_VERSION` (curl-friendliness); a payload with a
*different* version is rejected rather than half-parsed.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.backend import SimReport
from .api import (
    CODECS,
    BackendServiceStats,
    CapacityReport,
    LatencyRequest,
    LatencyResponse,
    RequestLogRecord,
    WireMessage,
    declare,
    non_empty,
    positive,
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


# ------------------------------------------------------------ field decoders
# Each takes (value, field name) and returns the decoded value.
def _invalid(name: str, expected: str, value: Any) -> WireFormatError:
    return WireFormatError("invalid_field", f"{name} must be {expected}, got {value!r}")


def _int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(name, "an integer", value)
    return value


def _float(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(name, "a number", value)
    return float(value)


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise _invalid(name, "a boolean", value)
    return value


def _str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise _invalid(name, "a string", value)
    return value


def _dict(value: Any, name: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise WireFormatError(
            "invalid_field", f"{name} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _float_map(value: Any, name: str) -> Dict[str, float]:
    decoded = {}
    for key, item in _dict(value, name).items():
        if not isinstance(key, str) or not key:
            raise _invalid(f"{name} key", "a non-empty string", key)
        decoded[key] = _float(item, f"{name}[{key!r}]")
    return decoded


def _list(value: Any, name: str) -> Sequence[Any]:
    if not isinstance(value, (list, tuple)):
        raise _invalid(name, "a list", value)
    return value


def _checked(decode: Callable, check: Callable[[str, Any], None]) -> Callable:
    """``decode`` followed by the declared validator (``None`` passes)."""

    def run(value: Any, name: str) -> Any:
        value = decode(value, name)
        if value is not None:
            try:
                check(name, value)
            except ValueError as exc:
                raise WireFormatError("invalid_field", str(exc)) from None
        return value

    return run


def _backend_name(spec: Any) -> str:
    if not isinstance(spec, str):
        raise WireFormatError(
            "unserializable_backend",
            "only string backend names cross the wire; register the spec "
            f"and submit by name (got {type(spec).__name__})",
        )
    return spec


#: Annotation -> (encode, decode) for the leaf types; encode ``None`` means
#: the value is written as it is.
_SCALARS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "int": (int, _int),
    "float": (float, _float),
    "bool": (bool, _bool),
    "str": (None, _str),
    "Any": (_backend_name, _str),
    "Mapping[str, float]": (
        lambda mapping: {str(k): float(v) for k, v in mapping.items()},
        _float_map,
    ),
}

#: Class name -> codec, for nested annotations; filled as codecs are derived.
_NAMED: Dict[str, "_Codec"] = {}


def _kind(annotation: str) -> Tuple[Optional[Callable], Callable]:
    """(encode, decode) of one field annotation."""
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    if annotation.startswith("Optional[") and annotation.endswith("]"):
        inner, decode = _kind(annotation[len("Optional["):-1])
        encode = None if inner is None else (lambda value: None if value is None else inner(value))
        return encode, lambda value, name: None if value is None else decode(value, name)
    if annotation.startswith("Tuple[") and annotation.endswith(", ...]"):
        row = _NAMED[annotation[len("Tuple["):-len(", ...]")]]
        return (
            lambda rows: [row.to_dict(item) for item in rows],
            lambda rows, name: tuple(row.from_dict(item) for item in _list(rows, name)),
        )
    nested = _NAMED[annotation]
    return nested.to_dict, lambda value, name: nested.from_dict(value)


def _check_version(payload: Dict[str, Any], what: str) -> None:
    version = payload.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        raise WireFormatError(
            "unsupported_schema_version",
            f"{what} schema_version must be {SCHEMA_VERSION}, got {version!r}",
        )


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


class _Codec:
    """The JSON codec of one declared dataclass, derived from its fields.

    ``checks`` adds validators to a type that cannot carry ``declare``
    metadata itself (the simulator's :class:`SimReport`).
    """

    def __init__(
        self,
        cls: type,
        stamped: bool = True,
        checks: Optional[Dict[str, Callable[[str, Any], None]]] = None,
    ) -> None:
        self.cls = cls
        self.stamped = stamped
        self.encoders: List[Tuple[str, Optional[Callable]]] = []
        self.decoders: Dict[str, Callable] = {}
        self.required: List[str] = []
        for f in fields(cls):
            try:
                encode, decode = _kind(str(f.type))
            except KeyError:
                raise TypeError(f"{cls.__name__}.{f.name}: no wire codec for {f.type!r}") from None
            check = (checks or {}).get(f.name) or f.metadata.get("check")
            self.encoders.append((f.name, encode))
            self.decoders[f.name] = decode if check is None else _checked(decode, check)
            if f.metadata.get("required") or (
                f.default is MISSING and f.default_factory is MISSING
            ):
                self.required.append(f.name)
        self.allowed = frozenset(list(self.decoders) + ["schema_version"] * stamped)
        _NAMED[cls.__name__] = CODECS[cls] = self

    def to_dict(self, obj: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"schema_version": SCHEMA_VERSION} if self.stamped else {}
        for name, encode in self.encoders:
            value = getattr(obj, name)
            payload[name] = value if encode is None else encode(value)
        return payload

    def to_json(self, obj: Any) -> str:
        return json.dumps(self.to_dict(obj), sort_keys=True)

    def from_dict(self, payload: Any) -> Any:
        what = self.cls.__name__
        payload = _dict(payload, what)
        if not self.allowed.issuperset(payload):
            unknown = next(key for key in payload if key not in self.allowed)
            raise WireFormatError("unknown_field", f"{what} does not accept field {unknown!r}")
        if self.stamped:
            _check_version(payload, what)
        for name in self.required:
            if name not in payload:
                raise WireFormatError("missing_field", f"{what} requires {name}")
        decoders = self.decoders
        return self.cls(
            **{
                key: decoders[key](value, key)
                for key, value in payload.items()
                if key != "schema_version"
            }
        )

    def from_json(self, text: Any) -> Any:
        return self.from_dict(_parse_json(text, self.cls.__name__))


@dataclass(frozen=True)
class ErrorBody(WireMessage):
    """The body of every non-2xx HTTP response.

    ``code`` is stable and machine-readable (the same codes
    :class:`WireFormatError` carries, plus the HTTP layer's own:
    ``"backpressure"``, ``"unknown_ticket"``, ``"already_consumed"``,
    ``"reaped"``, ``"draining"``, ``"not_found"``, ``"timeout"``);
    ``retry_after_seconds`` accompanies 429s, mirroring the ``Retry-After``
    header for clients that only read bodies.
    """

    code: str = declare(check=non_empty)
    message: str = declare(check=non_empty)
    retry_after_seconds: Optional[float] = declare(None, check=positive)


@dataclass(frozen=True)
class _RequestLog:
    """The ``GET /v1/log`` body."""

    records: Tuple[RequestLogRecord, ...] = ()


# Nested types first: a codec resolves nested annotations by class name.
_SIM_REPORT = _Codec(SimReport, checks={"backend": non_empty, "sequence_length": positive})
for _cls in (LatencyRequest, LatencyResponse, ErrorBody, RequestLogRecord, _RequestLog):
    _Codec(_cls)
_Codec(BackendServiceStats, stamped=False)
_Codec(CapacityReport)

#: The wire names of the one request and one response type.
WireRequest = LatencyRequest
WireResponse = LatencyResponse

sim_report_to_dict = _SIM_REPORT.to_dict
sim_report_from_dict = _SIM_REPORT.from_dict
backend_stats_to_dict = CODECS[BackendServiceStats].to_dict
backend_stats_from_dict = CODECS[BackendServiceStats].from_dict
capacity_report_to_dict = CODECS[CapacityReport].to_dict
capacity_report_from_dict = CODECS[CapacityReport].from_dict
log_record_to_dict = CODECS[RequestLogRecord].to_dict
log_record_from_dict = CODECS[RequestLogRecord].from_dict


def request_log_to_json(records: Sequence[RequestLogRecord]) -> str:
    """Serialize a request log — the ``GET /v1/log`` response body."""
    return CODECS[_RequestLog].to_json(_RequestLog(tuple(records)))


def request_log_from_json(text: Any) -> List[RequestLogRecord]:
    """Parse a ``GET /v1/log`` body back into typed log records.

    The result feeds :meth:`repro.cluster.trace.RequestTrace.from_serving_log`
    directly: live HTTP traffic becomes a replayable cluster trace.
    """
    return list(CODECS[_RequestLog].from_json(text).records)
