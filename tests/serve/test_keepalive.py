"""Kept-alive HTTP responses go out at once.

The handler writes a response's headers and body in two sends.  With
Nagle's algorithm on, the body of every request after the first on one
connection waits for the client's delayed ACK of the headers (about 40 ms
on Linux), so the handler disables it.
"""

from __future__ import annotations

import http.client
import statistics
import time

from repro.serve import QueryServer, ServerConfig


def test_requests_on_one_kept_alive_connection_do_not_wait(fleet_dir):
    with QueryServer({"fleet": fleet_dir}, ServerConfig(tracing=False)) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)

        def agg() -> None:
            connection.request(
                "POST", "/stores/fleet/agg", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200, body
            assert not response.will_close

        try:
            agg()  # opens the snapshot and builds its index
            samples = []
            for _ in range(20):
                started = time.perf_counter()
                agg()
                samples.append(time.perf_counter() - started)
        finally:
            connection.close()
    assert statistics.median(samples) < 0.020, samples
