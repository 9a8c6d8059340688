"""Minimal async HTTP/1.1 client for the front door (stdlib-only).

One :class:`FrontDoorClient` holds one keep-alive connection and speaks the
wire schema (:mod:`repro.serving.wire`): requests go out as
:class:`~repro.serving.api.LatencyRequest` JSON, results come back as
:class:`~repro.serving.api.LatencyResponse`.  Error statuses surface as
:class:`FrontDoorError` carrying the parsed
:class:`~repro.serving.wire.ErrorBody` (code, message, retry-after), so a
caller can distinguish backpressure (429) from a reaped ticket (410) without
string-matching.

``stream_results`` opens a second, dedicated connection (the server closes
streaming connections when done) and yields responses in completion order
from the chunked NDJSON body.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, List, Optional, Sequence, Tuple, Union

from ..api import LatencyRequest, LatencyResponse
from ..wire import ErrorBody


class FrontDoorError(RuntimeError):
    """Non-2xx response from the front door, with its parsed error body."""

    def __init__(self, status: int, error: ErrorBody) -> None:
        super().__init__(f"HTTP {status}: {error.code}: {error.message}")
        self.status = status
        self.error = error

    @property
    def code(self) -> str:
        return self.error.code

    @property
    def retry_after_seconds(self) -> Optional[float]:
        return self.error.retry_after_seconds


class FrontDoorClient:
    """One keep-alive connection to a :class:`~repro.serving.http.server.LatencyFrontDoor`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "FrontDoorClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
            self._reader = None
            self._writer = None

    # ------------------------------------------------------------- raw request
    async def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response on the keep-alive connection (reconnects once)."""
        await self.connect()
        try:
            return await self._roundtrip(method, path, body, headers)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            await self.close()
            await self.connect()
            return await self._roundtrip(method, path, body, headers)

    async def _roundtrip(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "\r\n"
        self._writer.write(head.encode("latin-1") + payload)
        await self._writer.drain()
        return await _read_response(self._reader)

    async def _json(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Any]:
        status, _headers, raw = await self.request(method, path, body)
        payload = json.loads(raw.decode("utf-8")) if raw else None
        if status >= 400:
            raise FrontDoorError(status, ErrorBody.from_dict(payload))
        return status, payload

    # -------------------------------------------------------------- wire calls
    async def submit(self, request: LatencyRequest) -> int:
        """POST /v1/submit -> ticket id."""
        _status, payload = await self._json(
            "POST", "/v1/submit", request.to_json().encode("utf-8")
        )
        return int(payload["ticket_id"])

    async def submit_batch(self, requests: Sequence[LatencyRequest]) -> List[int]:
        """POST /v1/batch -> ticket ids (all-or-nothing admission)."""
        body = json.dumps(
            {"requests": [request.to_dict() for request in requests]}
        ).encode("utf-8")
        _status, payload = await self._json("POST", "/v1/batch", body)
        return [int(ticket_id) for ticket_id in payload["ticket_ids"]]

    async def query(
        self, request: LatencyRequest, timeout_seconds: Optional[float] = None
    ) -> LatencyResponse:
        """POST /v1/query — submit and wait inline for the response."""
        path = "/v1/query"
        if timeout_seconds is not None:
            path += f"?timeout_seconds={timeout_seconds}"
        status, payload = await self._json(
            "POST", path, request.to_json().encode("utf-8")
        )
        if status == 202:
            raise TimeoutError(
                f"query still pending (ticket {payload.get('ticket_id')})"
            )
        return LatencyResponse.from_dict(payload)

    async def result(
        self, ticket_id: int, wait_seconds: Optional[float] = None
    ) -> Optional[LatencyResponse]:
        """GET /v1/result/<id>; ``None`` while pending, raises on 404/410."""
        path = f"/v1/result/{ticket_id}"
        if wait_seconds is not None:
            path += f"?wait_seconds={wait_seconds}"
        status, payload = await self._json("GET", path)
        if status == 202:
            return None
        return LatencyResponse.from_dict(payload)

    async def stream_results(
        self, ticket_ids: Sequence[int]
    ) -> AsyncIterator[Union[LatencyResponse, ErrorBody]]:
        """GET /v1/stream — yield results in completion order (dedicated connection)."""
        if not ticket_ids:
            return
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            path = "/v1/stream?tickets=" + ",".join(str(t) for t in ticket_ids)
            head = (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n\r\n"
            )
            writer.write(head.encode("latin-1"))
            await writer.drain()
            status, headers, first_body = await _read_response_head(reader)
            if status >= 400:
                body = await _read_plain_body(reader, headers, first_body)
                payload = json.loads(body.decode("utf-8")) if body else {}
                raise FrontDoorError(status, ErrorBody.from_dict(payload))
            async for line in _iter_chunked_lines(reader):
                payload = json.loads(line)
                if "ticket_id" in payload:
                    yield LatencyResponse.from_dict(payload)
                else:
                    yield ErrorBody.from_dict(payload)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def metrics(self) -> Dict[str, Any]:
        _status, payload = await self._json("GET", "/metrics")
        return payload

    async def metrics_prometheus(self) -> str:
        """GET /metrics?format=prom — raw Prometheus text exposition."""
        status, _headers, raw = await self.request("GET", "/metrics?format=prom")
        if status != 200:
            raise FrontDoorError(status, ErrorBody.from_json(raw.decode("utf-8")))
        return raw.decode("utf-8")

    async def trace(self, trace_id: Union[str, int]) -> Dict[str, Any]:
        """GET /v1/trace/<id> — the recorded span tree (raises 404 via FrontDoorError)."""
        _status, payload = await self._json("GET", f"/v1/trace/{trace_id}")
        return payload

    async def healthz(self) -> Dict[str, Any]:
        status, _headers, raw = await self.request("GET", "/healthz")
        payload = json.loads(raw.decode("utf-8"))
        payload["_status"] = status
        return payload

    async def request_log_json(self) -> str:
        status, _headers, raw = await self.request("GET", "/v1/log")
        if status != 200:
            raise FrontDoorError(status, ErrorBody.from_json(raw.decode("utf-8")))
        return raw.decode("utf-8")

    async def reap(self) -> List[int]:
        _status, payload = await self._json("POST", "/v1/reap")
        return [int(ticket_id) for ticket_id in payload["reaped"]]


# ----------------------------------------------------------------- HTTP parse
async def _read_response_head(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, b""


async def _read_plain_body(
    reader: asyncio.StreamReader, headers: Dict[str, str], prefix: bytes
) -> bytes:
    length = int(headers.get("content-length", "0") or "0")
    if length <= len(prefix):
        return prefix[:length]
    return prefix + await reader.readexactly(length - len(prefix))


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    status, headers, prefix = await _read_response_head(reader)
    body = await _read_plain_body(reader, headers, prefix)
    return status, headers, body


async def _iter_chunked_lines(reader: asyncio.StreamReader) -> AsyncIterator[str]:
    """Decode a chunked body of newline-terminated JSON lines."""
    buffer = b""
    while True:
        size_line = await reader.readuntil(b"\r\n")
        size = int(size_line.strip(), 16)
        if size == 0:
            try:
                await reader.readuntil(b"\r\n")  # trailing CRLF after last chunk
            except asyncio.IncompleteReadError:
                pass
            break
        chunk = await reader.readexactly(size)
        await reader.readexactly(2)  # chunk's trailing CRLF
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            if line:
                yield line.decode("utf-8")
    if buffer.strip():
        yield buffer.decode("utf-8")
