"""A ``/v1/batch`` reaches the latency service as one batch.

The front door's submit, query and batch routes share one submit step that
calls ``LatencyService.submit_batch`` once per HTTP request, so a batch of N
requests costs one service-lock hold, one memo peek and one stats hold, not N.
"""

import http.client
import json

from repro.serving import WireResponse
from repro.serving.http import serve_in_thread

TIMEOUT = 120.0
BATCH = 100


def call(handle, method: str, path: str, body=None):
    """One plain-HTTP round trip; returns (status, parsed JSON)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=TIMEOUT)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, payload, {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_warm_batch_makes_one_submit_batch_call(tiny_config, monkeypatch):
    handle = serve_in_thread(ppm_config=tiny_config)
    service = handle.door.service
    calls = {"submit": 0, "submit_batch": 0}

    def counted(name):
        method = getattr(service, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    lengths = [(24, 40)[i % 2] for i in range(BATCH)]
    try:
        for n in (24, 40):  # warm the memo through the dispatcher
            assert call(handle, "POST", "/v1/query", {"sequence_length": n})[0] == 200
        monkeypatch.setattr(service, "submit", counted("submit"))
        monkeypatch.setattr(service, "submit_batch", counted("submit_batch"))
        status, payload = call(
            handle,
            "POST",
            "/v1/batch",
            {"requests": [{"sequence_length": n, "tenant": "t"} for n in lengths]},
        )
        monkeypatch.undo()
        assert status == 202
        ticket_ids = payload["ticket_ids"]
        assert ticket_ids == list(range(ticket_ids[0], ticket_ids[0] + BATCH))
        for ticket_id, n in zip(ticket_ids, lengths):  # every hit settled at submit
            status, body = call(handle, "GET", f"/v1/result/{ticket_id}")
            assert status == 200
            response = WireResponse.from_dict(body)
            assert response.ok and response.report.sequence_length == n
    finally:
        report = handle.stop(drain=True)
    assert calls == {"submit": 0, "submit_batch": 1}
    # One memo read per distinct key; the other requests attach to its job.
    assert (service.stats.memo_hits, service.stats.coalesced) == (2, BATCH - 2)
    assert report["unfulfilled"] == 0 and report["unclaimed"] == 0
