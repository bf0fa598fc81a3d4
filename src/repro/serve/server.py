"""The query server: threaded HTTP+JSON over mmap'd stores, built to shed.

``QueryServer`` wires the robustness pieces around the
:class:`~repro.query.QueryEngine`:

* **admission before work** — a :class:`~repro.serve.limiter.TokenBucket`
  and a bounded :class:`~repro.serve.admission.AdmissionGate` answer 429 /
  503 with ``Retry-After`` *before* a single store byte is touched;
* **deadlines into the scan** — ``deadline_ms`` (body or
  ``X-Deadline-Ms`` header; a finite number > 0, else a 400) becomes a
  :class:`~repro.query.plan.Deadline`
  the plan driver checks between chunks and refine rounds, so expiry is a
  504 with partial-work accounting, not an overstayed request;
* **snapshot leases + hot reload** — every request leases an immutable
  engine snapshot; when a concurrent :class:`~repro.store.FleetIngestor`
  commits a new manifest generation, the *next* request sees it (reloaded
  under the manager lock) while in-flight requests keep theirs, and
  retired snapshots close only when their last lease drops.  A reload
  opens only the new segments, shares the unchanged ones with the retiring
  snapshot, and carries its index (fleet histograms, peaks and run counts)
  forward (:meth:`~repro.query.QueryEngine.reopen`), so it costs what the
  append added;
* **circuit breaker + degraded serving** — repeated
  :class:`~repro.errors.CorruptStoreError` trips the store's
  :class:`~repro.serve.breaker.CircuitBreaker`: the quarantine-aware
  snapshot keeps answering (``"degraded": true``) while a background
  ``scrub_store(repair=True)`` heals, and a timed half-open trial
  re-verifies before the flag clears.  A reload reads the damage off the
  snapshot it opened: its ``quarantined`` segments and ``rolled_back``
  manifests;
* **idempotent appends** — ``POST /stores/<name>/append`` checks its body
  with :class:`~repro.query.verbs.AppendParams` and makes one
  :func:`~repro.store.append_segment` call, which keeps the
  ``idempotency_key`` in the manifest ``reason`` and looks it up under the
  store's writer lock: a retry after a crash (even SIGKILL), or the same
  key through another server process, gets the committed segment back.
  The appended segment carries the lookup tables of the store's newest
  live segment, so ``knn`` and ``private_agg`` keep answering after it.

Fault seams: handlers pass ``serve.handle`` (checkpoint) after admission
and write response bodies through ``faults.write(..., "serve.response")``,
so the fault matrix can inject slow handlers and mid-response disconnects.
An :class:`~repro.store.faults.InjectedCrash` there kills only that
connection — the server keeps serving, which is the point.  So does a body
that stops arriving: a socket wait longer than ``_Handler.timeout`` closes
the connection.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import (
    BadRequest,
    CorruptStoreError,
    DeadlineExceeded,
    Degraded,
    Overloaded,
    RateLimited,
    ReproError,
    StoreError,
    UnknownStore,
)
from ..obs import (
    enable_tracing,
    new_trace_id,
    recent_traces,
    registry as obs_registry,
    tracer as obs_tracer,
)
from ..query import Deadline, QueryEngine
from ..query.verbs import NUMBER, VERBS, AppendParams
from ..store import append_segment, faults, scrub_store, snapshot_stamp
from ..store.faults import InjectedCrash
from . import protocol
from .admission import AdmissionGate
from .breaker import CircuitBreaker
from .limiter import TokenBucket

__all__ = ["QueryServer", "ServerConfig", "StoreManager", "serve"]


def _deadline_ms(ms) -> float:
    """``ms`` as a deadline: a finite JSON number > 0, or a 400."""
    ms = NUMBER.check("deadline_ms", ms)
    if not (math.isfinite(ms) and ms > 0):
        raise BadRequest(f"'deadline_ms' must be finite and > 0, got {ms}")
    return ms


class ServerConfig:
    """Tunables of one server instance (all have serve-sane defaults).

    ``default_deadline_ms`` is checked here, as a request's ``deadline_ms``
    is, so a bad one fails the server's start, not every request.
    """

    def __init__(
        self,
        rate: Optional[float] = None,
        burst: Optional[int] = None,
        max_concurrent: int = 8,
        max_queue: int = 16,
        queue_timeout: float = 5.0,
        default_deadline_ms: Optional[float] = None,
        failure_threshold: int = 3,
        breaker_reset_s: float = 2.0,
        workers: int = 1,
        tracing: bool = True,
        trace_sink: Optional[str] = None,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self.max_concurrent = int(max_concurrent)
        self.max_queue = int(max_queue)
        self.queue_timeout = float(queue_timeout)
        self.default_deadline_ms = (
            None if default_deadline_ms is None
            else _deadline_ms(default_deadline_ms)
        )
        self.failure_threshold = int(failure_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self.workers = int(workers)
        self.tracing = bool(tracing)
        self.trace_sink = trace_sink


class _Snapshot:
    """One immutable open of a store: leased by requests, closed when idle.

    ``generation`` is the :func:`~repro.store.snapshot_stamp` the open
    observed; the manager compares it against the disk to decide when to
    reload.
    """

    def __init__(self, engine: QueryEngine, generation, degraded: bool) -> None:
        self.engine = engine
        self.generation = generation
        self.degraded = degraded
        self._leases = 0
        self._retired = False
        self._lock = threading.Lock()

    def lease(self) -> "_Snapshot":
        with self._lock:
            self._leases += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._leases -= 1
            close_now = self._retired and self._leases == 0
        if close_now:
            self._close()

    def retire(self) -> None:
        with self._lock:
            self._retired = True
            close_now = self._leases == 0
        if close_now:
            self._close()

    def _close(self) -> None:
        try:
            self.engine.close()
        except Exception:
            pass


class _StoreHandle:
    """Per-exported-store state: snapshot, breaker, scrub."""

    def __init__(self, name: str, path: Path, config: ServerConfig) -> None:
        self.name = name
        self.path = path
        self.config = config
        self.breaker = CircuitBreaker(
            failure_threshold=config.failure_threshold,
            reset_timeout=config.breaker_reset_s,
        )
        self.lock = threading.Lock()
        self.snapshot: Optional[_Snapshot] = None
        self.reloads_total = 0
        self._scrub_lock = threading.Lock()
        self._scrubbing = False

    # -- snapshot lifecycle ------------------------------------------------------

    def lease(self) -> _Snapshot:
        """The current snapshot, reloaded first if the store moved on disk.

        In-flight requests keep the snapshot they leased; the retired one
        closes when its last lease drops.
        """
        with self.lock:
            try:
                disk = snapshot_stamp(self.path)
            except OSError as exc:
                raise StoreError(f"cannot stat {self.path}: {exc}")
            snapshot = self.snapshot
            if snapshot is not None and snapshot.generation == disk:
                if snapshot.degraded and self.breaker.allow_trial():
                    # The trial is granted *once* (half-open hands out a
                    # single probe); pass it through instead of asking the
                    # breaker a second time in ``_reopen``.
                    snapshot = self._reopen(retiring=snapshot, trial=True)
                return snapshot.lease()
            snapshot = self._reopen(retiring=snapshot)
            return snapshot.lease()

    def _reopen(self, retiring: Optional[_Snapshot],
                trial: Optional[bool] = None) -> _Snapshot:
        """Open a fresh snapshot; a granted breaker trial needs a clean open.

        A healthy retiring snapshot reloads through
        :meth:`QueryEngine.reopen`, which opens only the new segments and
        carries its summaries forward; with no snapshot, or a degraded one
        (a breaker trial among them), the store opens cold.  The open itself
        never raises for quarantined segments or a rolled back manifest: the
        store lists them (``quarantined``, ``rolled_back``), and each entry
        counts one breaker failure and marks the snapshot degraded.  A
        granted trial records one success when the open finds no damage (a
        damaged one fails through those entries); a refused trial serves
        degraded.
        """
        trial = self.breaker.allow_trial() if trial is None else trial
        try:
            if retiring is None or retiring.degraded:
                with obs_tracer().span(
                    "store.reopen", summaries="rebuilt"
                ) as span:
                    engine = QueryEngine.open(self.path)
                    span.set_attributes(
                        generation=engine.store.generation,
                        segments_shared=engine.store.segments_shared,
                        segments_opened=engine.store.segments_opened,
                    )
            else:
                engine = retiring.engine.reopen()
        except (CorruptStoreError, OSError):
            # Nothing can be served: every manifest is damaged, or a bare
            # file (which has no segments to skip) is.
            if trial:
                self.breaker.record_failure()
            raise
        damage = len(engine.store.quarantined) + len(engine.store.rolled_back)
        for _ in range(damage):
            self.breaker.record_failure()
        if trial and not damage:
            self.breaker.record_success()
        degraded = bool(damage) or not trial
        if degraded:
            self.start_scrub()
        snapshot = _Snapshot(
            engine, snapshot_stamp(self.path), degraded=degraded
        )
        if retiring is not None:
            retiring.retire()
            self.reloads_total += 1
        self.snapshot = snapshot
        return snapshot

    def drop_snapshot(self) -> None:
        """Force the next lease to reopen (after a mid-query failure)."""
        with self.lock:
            if self.snapshot is not None:
                self.snapshot.retire()
                self.snapshot = None

    # -- healing -----------------------------------------------------------------

    def start_scrub(self) -> None:
        """Kick one background ``scrub_store(repair=True)``; idempotent."""
        with self._scrub_lock:
            if self._scrubbing:
                return
            self._scrubbing = True

        def _scrub() -> None:
            try:
                scrub_store(self.path, repair=True)
            except Exception:
                pass
            finally:
                self._scrubbing = False

        thread = threading.Thread(
            target=_scrub, name=f"scrub-{self.name}", daemon=True
        )
        thread.start()

    def on_query_corruption(self) -> None:
        """A query hit corrupt bytes: count it, drop the snapshot, heal."""
        self.breaker.record_failure()
        self.drop_snapshot()
        self.start_scrub()


class StoreManager:
    """Name → :class:`_StoreHandle` registry the handler threads share."""

    def __init__(
        self,
        stores: Dict[str, Union[str, Path]],
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.handles: Dict[str, _StoreHandle] = {}
        for name, path in stores.items():
            path = Path(path)
            if not path.exists():
                raise StoreError(f"no such store: {path}")
            self.handles[name] = _StoreHandle(name, path, self.config)

    def handle(self, name: str) -> _StoreHandle:
        try:
            return self.handles[name]
        except KeyError:
            known = ", ".join(sorted(self.handles)) or "(none)"
            raise UnknownStore(
                f"no store named {name!r} (serving: {known})"
            ) from None

    def names(self) -> List[str]:
        return sorted(self.handles)


#: The serve-layer counters.  The server registers them when it starts, so
#: each reads 0 on ``/metrics`` before its first event.
_COUNTERS = (
    ("serve.requests_total", "HTTP requests received"),
    ("serve.errors_total", "Requests answered with 5xx or 429"),
    ("serve.rate_limited_total", "Requests rejected by the token bucket"),
    ("serve.shed_total", "Requests shed by admission control"),
    ("serve.deadline_expired_total", "Requests that outran their deadline"),
    ("serve.degraded_responses_total",
     "Answers served from degraded snapshots"),
    ("serve.appends_total", "Segments appended via POST .../append"),
    ("serve.append_duplicates_total",
     "Idempotent append retries deduplicated"),
)

#: The ``op`` values a POST may carry into a span name or a metric label;
#: any other URL segment is labelled ``unknown``, so a client cannot grow
#: the registry one series per made-up operation.
_OPS = frozenset(VERBS) | {"append"}


class _Handler(BaseHTTPRequestHandler):
    """One request; all state lives on ``self.server`` (the QueryServer)."""

    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two writes; with Nagle's algorithm on,
    #: the body of a kept-alive response would wait for the client's
    #: delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True
    #: Seconds one socket read or write may wait, so a body shorter than its
    #: ``Content-Length`` closes the connection instead of holding a thread.
    timeout = 30.0
    #: Seconds a refused body is read and dropped after the 400 went out, so
    #: a client still sending it reads the 400 instead of a reset.
    linger = 1.0
    _refused_body = False
    #: Set by QueryServer subclassing machinery.
    manager: StoreManager
    gate: AdmissionGate
    bucket: TokenBucket
    server_config: ServerConfig

    # Silence the default stderr access log; tests capture stderr.
    def log_message(self, format: str, *args) -> None:
        pass

    # -- plumbing ----------------------------------------------------------------

    def _send(self, status: int, body: Dict,
              retry_after: Optional[float] = None) -> None:
        if getattr(self, "_defer_send", False):
            # The request span is still open: park the response so it goes
            # out only after the span finishes, closing the window where a
            # client could see its reply but not its trace.
            self._deferred = (status, body, retry_after)
            return
        payload = protocol.dumps(body)
        self._write_response(status, payload, "application/json", retry_after)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        self._write_response(status, text.encode("utf-8"), content_type, None)

    def _write_response(self, status: int, payload: bytes, content_type: str,
                        retry_after: Optional[float]) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if retry_after is not None:
                self.send_header("Retry-After", f"{retry_after:.3f}")
            trace_id = getattr(self, "_trace_id", None)
            if trace_id:
                self.send_header("X-Repro-Trace-Id", trace_id)
            self.end_headers()
            faults.write(self.wfile, payload, "serve.response")
        except InjectedCrash:
            # Simulated mid-response disconnect: drop this connection hard
            # (the client sees a truncated body) but keep the server alive.
            self.close_connection = True
            try:
                self.wfile.flush()
            except Exception:
                pass
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            self.close_connection = True

    def _send_error(self, error: BaseException) -> None:
        status = protocol.status_of(error)
        retry_after = getattr(error, "retry_after", None)
        if status >= 500 or status == 429:
            obs_registry().counter("serve.errors_total").inc()
        self._send(status, protocol.error_body(error), retry_after)

    def _read_body(self) -> bytes:
        """The body; a ``Transfer-Encoding`` (chunked bodies are not decoded)
        or a ``Content-Length`` outside ``0..MAX_BODY_BYTES`` is a 400 before
        any body byte is read, and its unread bytes close the connection."""
        encoding = self.headers.get("Transfer-Encoding")
        header = self.headers.get("Content-Length") or "0"
        length = int(header) if header.isascii() and header.isdigit() else -1
        if encoding is None and 0 <= length <= protocol.MAX_BODY_BYTES:
            return self.rfile.read(length) if length else b""
        self.close_connection = self._refused_body = True
        if encoding is not None:
            raise BadRequest(
                f"Transfer-Encoding is not supported, got {encoding!r}; "
                f"send the body with a Content-Length"
            )
        raise BadRequest(
            f"Content-Length must be an integer from 0 to "
            f"{protocol.MAX_BODY_BYTES}, got {header!r}"
        )

    def finish(self) -> None:
        """After a refused body, half-close and drop what still arrives
        (at most ``MAX_BODY_BYTES``, for ``linger`` seconds) before the
        socket closes: closing with unread bytes would reset the
        connection under a client that is still sending."""
        super().finish()
        if not self._refused_body:
            return
        try:
            self.connection.shutdown(socket.SHUT_WR)
            left, until = protocol.MAX_BODY_BYTES, time.monotonic() + self.linger
            while left > 0 and time.monotonic() < until:
                self.connection.settimeout(max(0.0, until - time.monotonic()))
                data = self.connection.recv(65536)
                if not data:
                    break
                left -= len(data)
        except OSError:
            pass

    def _deadline(self, body: Dict) -> Optional[Deadline]:
        """``deadline_ms`` from the body, else the ``X-Deadline-Ms`` header,
        else the server's default: a finite number > 0, or a 400."""
        ms = body.get("deadline_ms")
        header = self.headers.get("X-Deadline-Ms")
        if ms is None and header:
            try:
                ms = float(header)
            except ValueError:
                ms = header  # refused below, as a string
        if ms is None:
            ms = self.server_config.default_deadline_ms
        if ms is None:
            return None
        return Deadline.from_ms(_deadline_ms(ms))

    # -- routing -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            path, _, query = self.path.partition("?")
            path = path.rstrip("/")
            if path == "/healthz":
                self._send(200, {"ok": True})
                return
            obs_registry().counter("serve.requests_total").inc()
            if path == "/metrics":
                accept = self.headers.get("Accept") or ""
                if "format=prometheus" in query or "text/plain" in accept:
                    self._send_text(200, obs_registry().to_prometheus())
                else:
                    self._send(200, self._metrics_body())
                return
            if path == "/traces/recent":
                n = 16
                for part in query.split("&"):
                    if part.startswith("n="):
                        try:
                            n = max(1, min(int(part[2:]), 256))
                        except ValueError:
                            pass
                self._send(200, {"traces": recent_traces(n)})
                return
            if path == "/stores":
                self._send(200, {"stores": self.manager.names()})
                return
            if path.startswith("/stores/"):
                name = path[len("/stores/"):]
                if "/" not in name:
                    self._store_info(name)
                    return
            raise UnknownStore(f"no such endpoint: {self.path}")
        except ReproError as error:
            self._send_error(error)
        except Exception as error:  # noqa: BLE001 — the never-crash contract
            self._send_error(error)

    def do_POST(self) -> None:  # noqa: N802
        started = time.perf_counter()
        label = "unknown"
        try:
            obs_registry().counter("serve.requests_total").inc()
            path = self.path.split("?", 1)[0].rstrip("/")
            if not path.startswith("/stores/"):
                raise UnknownStore(f"no such endpoint: {self.path}")
            rest = path[len("/stores/"):]
            if "/" not in rest:
                raise UnknownStore(f"no such endpoint: {self.path}")
            name, op = rest.split("/", 1)
            if op in _OPS:
                label = op
            # Trace continuity: a client-sent X-Repro-Trace-Id becomes this
            # request's trace id (and is echoed back); with tracing on and
            # no header, the server mints one so /traces/recent correlates.
            trace = obs_tracer()
            self._trace_id = self.headers.get("X-Repro-Trace-Id") or (
                new_trace_id() if trace.enabled else None
            )
            ok, retry_after = self.bucket.acquire()
            if not ok:
                obs_registry().counter("serve.rate_limited_total").inc()
                raise RateLimited(
                    "request rate exceeded; retry later",
                    retry_after=retry_after,
                )
            raw = self._read_body()
            try:
                with self.gate.admit():
                    body = protocol.parse_body(raw)
                    # The deadline clock starts before the handler seam, so
                    # an injected slow handler spends real request budget.
                    deadline = self._deadline(body)
                    faults.checkpoint("serve.handle")
                    self._deferred = None
                    self._defer_send = True
                    try:
                        with trace.span(
                            f"serve.{label}", _trace_id=self._trace_id,
                            store=name, op=label,
                        ):
                            self._dispatch(name, op, body, deadline)
                    finally:
                        self._defer_send = False
                    if self._deferred is not None:
                        self._send(*self._deferred)
            except Overloaded:
                obs_registry().counter("serve.shed_total").inc()
                raise
        except DeadlineExceeded as error:
            obs_registry().counter("serve.deadline_expired_total").inc()
            self._send_error(error)
        except ReproError as error:
            self._send_error(error)
        except (InjectedCrash, TimeoutError):  # or a body stopped arriving
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 — the never-crash contract
            self._send_error(error)
        finally:
            obs_registry().histogram(
                "serve.request_seconds", "Request latency per endpoint",
                op=label,
            ).observe(time.perf_counter() - started)

    # -- endpoints ---------------------------------------------------------------

    def _store_info(self, name: str) -> None:
        handle = self.manager.handle(name)
        snapshot = handle.lease()
        try:
            body = protocol.store_info_body(snapshot.engine.store, name)
            body["degraded"] = snapshot.degraded
            body["breaker"] = handle.breaker.snapshot()
            self._send(200, body)
        finally:
            snapshot.release()

    def _metrics_body(self) -> Dict:
        body = {
            "admission": self.gate.snapshot(),
            "stores": {},
            # The full registry view: every counter/gauge/histogram in the
            # process, dotted names, p50/p95/p99 derived from the buckets.
            "registry": obs_registry().to_json(),
        }
        for name, handle in self.manager.handles.items():
            body["stores"][name] = {
                "breaker": handle.breaker.snapshot(),
                "reloads_total": handle.reloads_total,
            }
        return body

    def _dispatch(self, name: str, op: str, body: Dict,
                  deadline: Optional[Deadline]) -> None:
        handle = self.manager.handle(name)
        if op == "append":
            self._append(handle, body)
            return
        verb = VERBS.get(op)
        if verb is None:
            raise UnknownStore(f"no such operation: {op!r}")
        params = verb.params.from_body(body)
        workers = self.server_config.workers
        snapshot = handle.lease()
        try:
            try:
                result = verb.answer(
                    snapshot.engine, params, workers, deadline
                )
            except CorruptStoreError as error:
                # Mid-query integrity failure: heal in the background,
                # retry once against the reopened (quarantine-aware)
                # snapshot so the caller gets a degraded answer instead of
                # an error.
                snapshot.release()
                snapshot = None
                handle.on_query_corruption()
                snapshot = handle.lease()
                try:
                    result = verb.answer(
                        snapshot.engine, params, workers, deadline
                    )
                except CorruptStoreError:
                    handle.breaker.record_failure()
                    raise Degraded(
                        f"store {handle.name!r} cannot be served even "
                        f"degraded: {error}",
                        retry_after=handle.config.breaker_reset_s,
                    )
            result["degraded"] = snapshot.degraded
            if snapshot.degraded:
                obs_registry().counter("serve.degraded_responses_total").inc()
            self._send(200, result)
        finally:
            if snapshot is not None:
                snapshot.release()

    def _append(self, handle: _StoreHandle, body: Dict) -> None:
        if not handle.path.is_dir():
            raise BadRequest(
                f"store {handle.name!r} is a single file; only segmented "
                f"stores accept appends"
            )
        params = AppendParams.from_body(body)
        record = append_segment(
            handle.path, params.indices, tables=self._epoch_tables(handle),
            reason=params.reason, key=params.idempotency_key,
        )
        obs_registry().counter(
            "serve.append_duplicates_total" if record.duplicate
            else "serve.appends_total"
        ).inc()
        self._send(200, {
            "segment": record.name,
            "windows": int(record.windows),
            "n_symbols": int(record.n_symbols),
            "generation": record.generation,
            "duplicate": record.duplicate,
        })

    @staticmethod
    def _epoch_tables(handle: _StoreHandle):
        """The lookup tables of the store's newest live segment, which an
        appended segment carries: the table epoch its symbols are read
        under (``None`` when the store has no tables or no segment)."""
        snapshot = handle.lease()
        try:
            segments = snapshot.engine.store.segments
            return segments[-1].tables if segments else None
        finally:
            snapshot.release()


class QueryServer:
    """A running (or startable) threaded query server.

    ``QueryServer(stores, config).start()`` binds and serves on a daemon
    thread; ``shutdown()`` stops accepting and joins.  ``port`` is the
    bound port (useful with ``port=0`` in tests).
    """

    def __init__(
        self,
        stores: Dict[str, Union[str, Path]],
        config: Optional[ServerConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.config = config or ServerConfig()
        self.manager = StoreManager(stores, self.config)
        if self.config.tracing:
            enable_tracing(sink=self.config.trace_sink)
        for counter, help_text in _COUNTERS:
            obs_registry().counter(counter, help_text)
        self.gate = AdmissionGate(
            max_concurrent=self.config.max_concurrent,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
        )
        self.bucket = TokenBucket(self.config.rate, self.config.burst)

        handler = type("BoundHandler", (_Handler,), {
            "manager": self.manager,
            "gate": self.gate,
            "bucket": self.bucket,
            "server_config": self.config,
        })
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QueryServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.2)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve(
    stores: Dict[str, Union[str, Path]],
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServerConfig] = None,
) -> QueryServer:
    """Build and start a :class:`QueryServer` (returned running)."""
    return QueryServer(stores, config=config, host=host, port=port).start()
