"""Transport fields are checked like params fields.

``Content-Length`` must be a non-negative integer and a request may carry
no ``Transfer-Encoding`` (each a 400 before any body byte is read),
``deadline_ms`` a finite JSON number > 0 and ``X-Deadline-Ms`` a number
(else a 400 naming ``deadline_ms``), and a body shorter than its
``Content-Length`` closes the connection after ``_Handler.timeout``
instead of holding a handler thread.  A refused body is dropped after the
400 goes out, so a client still sending it reads the 400.  None of these
moves ``serve.errors_total``, and the server answers the next request.  The
server's own default deadline passes the same check when it is built, so
``repro serve --deadline-ms -1`` exits 64 before it binds.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.cli import main
from repro.errors import BadRequest
from repro.obs import registry as obs_registry
from repro.serve import RetryPolicy, ServeClient, ServerConfig
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


@pytest.mark.parametrize("streamed", [False, True], ids=["one-write", "streamed"])
def test_a_chunked_body_400(server, errors_unmoved, streamed):
    """Not answered as if the body were empty: a 400 naming the header,
    read also by a client that sends its chunks after the headers."""
    chunks = [b'{"meters": ', b'["no-such-meter"]}']
    headers = {"Content-Type": "application/json"}

    def slowly():
        for chunk in chunks:
            time.sleep(0.2)  # the 400 goes out before the first chunk
            yield chunk

    if streamed:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=WAIT_S)
        try:
            conn.request("POST", "/stores/fleet/agg", body=slowly(),
                         headers=headers, encode_chunked=True)
            response = conn.getresponse()
            status, answer = response.status, json.loads(response.read())
        finally:
            conn.close()
    else:
        body = b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in chunks)
        status, answer = _post(server, {**headers, "Transfer-Encoding": "chunked"},
                               body + b"0\r\n\r\n")
    assert status == 400
    assert answer["error"]["code"] == "serve.bad-request"
    assert "Transfer-Encoding" in answer["error"]["message"]


@pytest.mark.parametrize("ms", [-1, 0, float("nan")], ids=["negative", "zero", "nan"])
def test_a_bad_default_deadline_fails_the_config(ms):
    with pytest.raises(BadRequest, match="'deadline_ms' must be finite and > 0"):
        ServerConfig(default_deadline_ms=ms)


def test_serve_with_a_bad_deadline_exits_64(fleet_dir, capsys, monkeypatch):
    def bind(*args, **kwargs):
        raise AssertionError("repro serve bound a port")

    monkeypatch.setattr("repro.serve.QueryServer", bind)
    assert main(["serve", f"fleet={fleet_dir}", "--port", "0",
                 "--deadline-ms", "-1"]) == 64
    assert "'deadline_ms' must be finite and > 0" in capsys.readouterr().err
