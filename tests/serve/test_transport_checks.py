"""Transport fields are checked like params fields.

``Content-Length`` must be a non-negative integer (a 400 before any body
byte is read), ``deadline_ms`` a finite JSON number > 0 and
``X-Deadline-Ms`` a number (else a 400 naming ``deadline_ms``), and a body
shorter than its ``Content-Length`` closes the connection after
``_Handler.timeout`` instead of holding a handler thread.  None of these
moves ``serve.errors_total``, and the server answers the next request.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.obs import registry as obs_registry
from repro.serve import RetryPolicy, ServeClient
from repro.serve.server import _Handler

WAIT_S = 5.0


def _post(server, headers, body: bytes = b"", path="/stores/fleet/agg"):
    """One raw POST; ``(status, decoded body)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=WAIT_S)
    try:
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


@pytest.fixture()
def errors_unmoved(server):
    errors = obs_registry().counter_value("serve.errors_total")
    yield
    assert obs_registry().counter_value("serve.errors_total") == errors
    client = ServeClient(server.url, timeout=10.0,
                         policy=RetryPolicy(max_attempts=1))
    assert "symbol_counts" in client.agg("fleet")


@pytest.mark.parametrize("length", ["-1", "abc", "1.5", "+3"])
def test_bad_content_length_400(server, errors_unmoved, length):
    status, body = _post(server, {"Content-Length": length})
    assert status == 400
    assert body["error"]["code"] == "serve.bad-request"
    assert "Content-Length" in body["error"]["message"]


@pytest.mark.parametrize("raw", [
    b'{"deadline_ms": true}', b'{"deadline_ms": "50"}', b'{"deadline_ms": NaN}',
    b'{"deadline_ms": Infinity}', b'{"deadline_ms": 0}',
], ids=["bool", "string", "nan", "inf", "zero"])
def test_bad_deadline_in_the_body_400(server, errors_unmoved, raw):
    status, body = _post(server, {"Content-Type": "application/json"}, raw)
    assert status == 400
    assert body["error"]["code"] == "serve.bad-request"
    assert "'deadline_ms'" in body["error"]["message"]


@pytest.mark.parametrize("header", ["abc", "nan", "-5"])
def test_bad_deadline_header_400(server, errors_unmoved, header):
    status, body = _post(server, {"X-Deadline-Ms": header}, b"{}")
    assert status == 400
    assert "'deadline_ms'" in body["error"]["message"]


def test_a_good_deadline_header_is_kept(server, errors_unmoved):
    status, body = _post(server, {"X-Deadline-Ms": "30000"}, b"{}")
    assert status == 200 and "symbol_counts" in body


def test_a_short_body_closes_within_the_timeout(
        server, errors_unmoved, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    started = time.monotonic()
    with pytest.raises(http.client.RemoteDisconnected):
        _post(server, {"Content-Length": "100"}, b'{"meters": [')
    assert time.monotonic() - started < 0.3 + 2.0
