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
* the codec of :class:`~repro.report.SimReport` (the simulator's type,
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
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..report import SimReport
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


#: Annotation -> (encode, decode, write) for the leaf types.  Encode ``None``
#: means the value is written as it is.  ``write`` is a builtin that returns
#: the JSON text ``json.dumps`` gives the encoded value, or raises
#: ``TypeError``/``KeyError`` for a value it does not cover (``None`` for a
#: kind only ``json.dumps`` writes).
_SCALARS: Dict[str, Tuple[Optional[Callable], Callable, Optional[Callable]]] = {
    "int": (int, _int, int.__repr__),
    "float": (float, _float, float.__repr__),
    "bool": (bool, _bool, {False: "false", True: "true"}.__getitem__),
    "str": (None, _str, encode_basestring_ascii),
    "Any": (_backend_name, _str, encode_basestring_ascii),
    "Mapping[str, float]": (
        lambda mapping: {str(k): float(v) for k, v in mapping.items()},
        _float_map,
        None,
    ),
}

#: Texts ``int.__repr__``/``float.__repr__`` give where ``json.dumps`` writes
#: something else: a bool in an int field, NaN and the infinities.
_NOT_JSON = frozenset({"True", "False", "nan", "inf", "-inf"})

#: Class name -> codec, for nested annotations; filled as codecs are derived.
_NAMED: Dict[str, "_Codec"] = {}


def _kind(annotation: str) -> Tuple[Optional[Callable], Callable, Optional[Callable], bool]:
    """(encode, decode, write, optional) of one field annotation.

    An ``optional`` field's ``None`` is ``null`` on the wire: the codec
    writes and reads it without calling ``write`` or ``decode``.
    """
    if annotation in _SCALARS:
        return (*_SCALARS[annotation], False)
    if annotation.startswith("Optional[") and annotation.endswith("]"):
        inner, decode, write, _ = _kind(annotation[len("Optional["):-1])
        encode = None if inner is None else (lambda value: None if value is None else inner(value))
        return encode, decode, write, True
    if annotation.startswith("Tuple[") and annotation.endswith(", ...]"):
        row = _NAMED[annotation[len("Tuple["):-len(", ...]")]]
        return (
            lambda rows: [row.to_dict(item) for item in rows],
            lambda rows, name: tuple(row.from_dict(item) for item in _list(rows, name)),
            lambda rows: "[%s]" % ", ".join([row.to_json(item) for item in rows]),
            False,
        )
    nested = _NAMED[annotation]
    return nested.to_dict, lambda value, name: nested.from_dict(value), nested.to_json, False


def _check_version(payload: Dict[str, Any], what: str) -> None:
    version = payload.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) or version != SCHEMA_VERSION:
        raise WireFormatError(
            "unsupported_schema_version",
            f"{what} schema_version must be {SCHEMA_VERSION}, got {version!r}",
        )


_decode_json = json.JSONDecoder().decode


def _parse_json(text: Any, what: str) -> Any:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid_json", f"{what} is not valid UTF-8: {exc}") from None
    try:
        return _decode_json(text)
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
        #: field name -> (write, optional), see _kind.
        writers: Dict[str, Tuple[Optional[Callable], bool]] = {}
        for f in fields(cls):
            try:
                encode, decode, write, optional = _kind(str(f.type))
            except KeyError:
                raise TypeError(f"{cls.__name__}.{f.name}: no wire codec for {f.type!r}") from None
            check = (checks or {}).get(f.name) or f.metadata.get("check")
            self.encoders.append((f.name, encode))
            self.decoders[f.name] = decode if check is None else _checked(decode, check)
            writers[f.name] = (write, optional)
            if f.metadata.get("required") or (
                f.default is MISSING and f.default_factory is MISSING
            ):
                self.required.append(f.name)
        self.allowed = frozenset(list(self.decoders) + ["schema_version"] * stamped)
        self.optional = frozenset(name for name, (_, optional) in writers.items() if optional)
        # The JSON text is written in sorted key order from a template with
        # the stamp filled in, one writer per field; a type with a field
        # only json.dumps writes has no template.
        names = sorted(writers)
        self.template: Optional[str] = None
        if all(writers[name][0] is not None for name in names):
            keys = sorted(names + ["schema_version"] * stamped)
            self.template = "{%s}" % ", ".join(
                f"{json.dumps(key)}: {SCHEMA_VERSION if key == 'schema_version' else '%s'}"
                for key in keys
            )
        self.values = attrgetter(*names) if len(names) > 1 else lambda obj: (getattr(obj, names[0]),)
        self.writers = [writers[name] for name in names]
        _NAMED[cls.__name__] = CODECS[cls] = self

    def to_dict(self, obj: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"schema_version": SCHEMA_VERSION} if self.stamped else {}
        for name, encode in self.encoders:
            value = getattr(obj, name)
            payload[name] = value if encode is None else encode(value)
        return payload

    def to_json(self, obj: Any) -> str:
        """``json.dumps(self.to_dict(obj), sort_keys=True)``, written field by field.

        A value no field writer covers (a bool in an int field, NaN, a wrong
        type) takes ``json.dumps`` itself, so the text is the same either way.
        """
        if self.template is not None:
            try:
                texts = [
                    "null" if value is None and optional else write(value)
                    for (write, optional), value in zip(self.writers, self.values(obj))
                ]
            except (TypeError, KeyError):
                pass
            else:
                if _NOT_JSON.isdisjoint(texts):
                    return self.template % tuple(texts)
        return json.dumps(self.to_dict(obj), sort_keys=True)

    def from_dict(self, payload: Any) -> Any:
        what = self.cls.__name__
        if not isinstance(payload, dict):
            _dict(payload, what)  # raises
        if not self.allowed.issuperset(payload):
            unknown = next(key for key in payload if key not in self.allowed)
            raise WireFormatError("unknown_field", f"{what} does not accept field {unknown!r}")
        if self.stamped:
            version = payload.get("schema_version", SCHEMA_VERSION)
            if type(version) is not int or version != SCHEMA_VERSION:
                _check_version(payload, what)
        for name in self.required:
            if name not in payload:
                raise WireFormatError("missing_field", f"{what} requires {name}")
        decoders, optional = self.decoders, self.optional
        values = {}
        for key, value in payload.items():
            if value is None and key in optional:
                values[key] = None
            elif key != "schema_version":
                values[key] = decoders[key](value, key)
        return self.cls(**values)

    def from_json(self, text: Any) -> Any:
        return self.from_dict(_parse_json(text, self.cls.__name__))


class _ReportCodec(_Codec):
    """The codec of :class:`SimReport`, which encodes each report once.

    A report never changes, so its first encode keeps the text after the
    ``backend`` key (the first in sorted order) in the report's derived
    values (see :meth:`SimReport.relabeled`); every later encode, of the
    memo's report or of a relabeled copy, splices that text after the name.
    """

    def __init__(self, cls: type, **kwargs: Any) -> None:
        super().__init__(cls, **kwargs)
        assert sorted(self.allowed)[0] == "backend"

    def to_json(self, report: SimReport) -> str:
        try:
            return '{"backend": %s, %s' % (
                encode_basestring_ascii(report.backend), report.__dict__["_derived"]["json"]
            )
        except (TypeError, KeyError):  # not encoded yet, or a name the splice cannot write
            text = super().to_json(report)
            if isinstance(report.backend, str):
                start = len('{"backend": , ') + len(encode_basestring_ascii(report.backend))
                report.__dict__.setdefault("_derived", {})["json"] = text[start:]
            return text


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
_SIM_REPORT = _ReportCodec(SimReport, checks={"backend": non_empty, "sequence_length": positive})
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
