"""``ServeClient``: the retrying, backoff-disciplined HTTP client.

The client-side half of the availability contract.  A fleet of naive
retry-loops *amplifies* an outage (every failure turns into N extra
requests at the worst moment); this client bounds that amplification three
ways:

* **exponential backoff with full jitter** — sleep
  ``uniform(0, min(cap, base * 2**attempt))`` between tries, the spread
  that de-synchronises a thundering herd (the AWS architecture-blog
  result);
* **Retry-After wins** — a server that says *when* to come back is obeyed
  (the sleep is at least the server's hint);
* **a retry budget** — retries spend from a token budget that only
  successful requests replenish (Finagle's scheme): when more than
  ``budget_ratio`` of recent traffic is retries, :class:`RetryBudgetExceeded`
  surfaces instead of another wave.

Appends carry **idempotency keys** (auto-generated UUIDs unless given), so
a retry after an ambiguous failure — the response never arrived, the server
may or may not have committed — cannot duplicate the append: the store
finds the key in its manifest under its writer lock, and the server answers
with the committed segment.  :class:`~repro.query.verbs.AppendParams`
builds the body and the server checks it with the same class.

The query methods (``knn``, ``match``, ``agg``, ``anomaly``, ``drift``,
``private_agg``) are generated from :data:`repro.query.verbs.VERBS`: each
takes the store, then its verb's required params by position and the
optional ones by keyword, and builds the body with the params dataclass,
so client and server share one set of defaults and field names.

Everything is injectable (``clock``, ``sleep``, ``rng``) so the retry
schedule is unit-testable without real time passing.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
import uuid
from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    BadRequest,
    DeadlineExceeded,
    Degraded,
    Overloaded,
    QueryError,
    RateLimited,
    ReproError,
    RetryBudgetExceeded,
    ServeError,
    StoreError,
    UnknownStore,
)
from ..obs import current_trace_id
from ..query.verbs import VERBS, AppendParams, Params, Verb

__all__ = ["RetryBudget", "RetryPolicy", "ServeClient", "ServeResponse"]


class _RemoteQueryError(QueryError, ServeError):
    """An engine-side ``query.invalid`` 400: the :class:`QueryError` the
    local call raises (same exit code), still a :class:`ServeError`."""

    status = 400
    exit_code = QueryError.exit_code


class _RemoteStoreError(StoreError, ServeError):
    """An engine-side ``store.invalid`` 400: the :class:`StoreError` the
    local call raises (same exit code), still a :class:`ServeError`."""

    status = 400
    exit_code = StoreError.exit_code


#: Wire code → exception class, the inverse of the server's taxonomy.
_CODE_TO_ERROR = {
    "serve.rate-limited": RateLimited,
    "serve.overloaded": Overloaded,
    "serve.degraded-unavailable": Degraded,
    "serve.unknown-store": UnknownStore,
    "serve.bad-request": BadRequest,
    "query.invalid": _RemoteQueryError,
    "store.invalid": _RemoteStoreError,
}


class RetryBudget:
    """Finagle-style retry budget: successes deposit, retries withdraw.

    ``budget_ratio`` is the sustainable retries-per-request ratio; the
    ``reserve`` floor lets a cold client retry at all.  Thread-safety is
    not needed — one client, one thread (the server handles concurrency).
    """

    def __init__(self, budget_ratio: float = 0.2, reserve: float = 3.0,
                 cap: float = 50.0) -> None:
        self.budget_ratio = float(budget_ratio)
        self.cap = float(cap)
        self._balance = float(reserve)

    def deposit(self) -> None:
        self._balance = min(self.cap, self._balance + self.budget_ratio)

    def try_withdraw(self) -> bool:
        if self._balance >= 1.0:
            self._balance -= 1.0
            return True
        return False

    @property
    def balance(self) -> float:
        return self._balance


class RetryPolicy:
    """Backoff schedule + retry classification for one client."""

    def __init__(
        self,
        max_attempts: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if int(max_attempts) < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.rng = rng if rng is not None else random.Random()

    def sleep_for(self, attempt: int,
                  retry_after: Optional[float] = None) -> float:
        """Full-jitter backoff, floored at the server's ``Retry-After``."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        sleep = self.rng.uniform(0.0, ceiling)
        if retry_after is not None:
            sleep = max(sleep, float(retry_after))
        return sleep

    @staticmethod
    def retryable(error: BaseException) -> bool:
        """Overload, degradation-unavailable and transport errors retry;
        client bugs (any 4xx but 429) and deadline expiry do not."""
        if isinstance(error, (RateLimited, Overloaded, Degraded)):
            return True
        if isinstance(error, (BadRequest, UnknownStore, DeadlineExceeded)):
            return False
        if isinstance(error, ServeError):
            # Any other 4xx (``query.invalid``, ``store.invalid``, ...) is
            # the request's fault: sending it again cannot succeed.
            return error.status == 429 or not 400 <= error.status < 500
        if isinstance(error, ReproError):
            return False
        # Transport-level: connection refused/reset, truncated body
        # (``IncompleteRead``/``BadStatusLine`` are HTTPException, not
        # OSError), or a body cut mid-JSON (ValueError).
        return isinstance(error, (
            OSError, urllib.error.URLError,
            http.client.HTTPException, ValueError,
        ))


class ServeResponse(dict):
    """A response body; ``.degraded`` mirrors the server's flag."""

    @property
    def degraded(self) -> bool:
        return bool(self.get("degraded", False))


class ServeClient:
    """HTTP client for a :class:`~repro.serve.server.QueryServer`.

    ``client.knn("fleet", queries, k=4)`` etc. take a verb's params
    (:mod:`repro.query.verbs`) and return the decoded JSON body: the
    verb's codec output plus ``degraded`` (floats round-trip
    bit-identically through JSON, so ``distances`` match the library path
    exactly).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        policy: Optional[RetryPolicy] = None,
        budget: Optional[RetryBudget] = None,
        sleep: Callable[[float], None] = time.sleep,
        trace_id: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.policy = policy if policy is not None else RetryPolicy()
        self.budget = budget if budget is not None else RetryBudget()
        self._sleep = sleep
        #: Pinned trace id sent with every request; when ``None``, the
        #: ambient trace id (an open span on this thread) is used instead,
        #: so a traced caller's id propagates through the HTTP hop.
        self.trace_id = trace_id
        #: The trace id the server echoed (or minted) on the last response.
        self.last_trace_id: Optional[str] = None
        #: Lifetime counters, mostly for the tests and the quickstart.
        self.retries_total = 0
        self.requests_total = 0

    # -- transport ---------------------------------------------------------------

    def _once(self, method: str, path: str,
              body: Optional[Dict] = None) -> ServeResponse:
        url = f"{self.base_url}{path}"
        payload = None
        headers = {"Content-Type": "application/json"}
        trace_id = self.trace_id or current_trace_id()
        if trace_id:
            headers["X-Repro-Trace-Id"] = trace_id
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            url, data=payload, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as rsp:
                echoed = rsp.headers.get("X-Repro-Trace-Id")
                if echoed:
                    self.last_trace_id = echoed
                return ServeResponse(json.loads(rsp.read().decode("utf-8")))
        except urllib.error.HTTPError as exc:
            raise self._decode_error(exc) from None

    @staticmethod
    def _decode_error(exc: urllib.error.HTTPError) -> BaseException:
        """An HTTP error status back into its taxonomy exception."""
        retry_after = None
        header = exc.headers.get("Retry-After") if exc.headers else None
        if header:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        try:
            envelope = json.loads(exc.read().decode("utf-8"))
            info = envelope.get("error", {})
            code = info.get("code", "")
            message = info.get("message", str(exc))
            if retry_after is None and "retry_after" in info:
                retry_after = float(info["retry_after"])
        except Exception:
            code, message = "", f"HTTP {exc.code}: {exc.reason}"
            info = {}
        if code == "query.deadline-exceeded":
            return DeadlineExceeded(
                message,
                budget_ms=info.get("budget_ms"),
                elapsed_ms=info.get("elapsed_ms"),
                completed=info.get("completed"),
                total=info.get("total"),
            )
        cls = _CODE_TO_ERROR.get(code)
        if cls is not None:
            return cls(message, retry_after=retry_after)
        error = ServeError(message, retry_after=retry_after)
        if code:
            error.code = code
        error.status = exc.code
        return error

    def _call(self, method: str, path: str,
              body: Optional[Dict] = None) -> ServeResponse:
        """One logical request: attempts, backoff, budget, Retry-After."""
        self.requests_total += 1
        last: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
            if attempt > 0:
                if not self.budget.try_withdraw():
                    raise RetryBudgetExceeded(
                        f"retry budget exhausted after {attempt} attempts "
                        f"({path}); backing off",
                        attempts=attempt, last_error=last,
                    )
                self.retries_total += 1
                self._sleep(self.policy.sleep_for(
                    attempt - 1, getattr(last, "retry_after", None)
                ))
            try:
                result = self._once(method, path, body)
                self.budget.deposit()
                return result
            except BaseException as error:  # noqa: BLE001 — classified below
                if not self.policy.retryable(error):
                    raise
                last = error
        assert last is not None
        raise last

    # -- endpoints ---------------------------------------------------------------

    def healthz(self) -> ServeResponse:
        return self._call("GET", "/healthz")

    def stores(self) -> List[str]:
        return list(self._call("GET", "/stores").get("stores", []))

    def store_info(self, store: str) -> ServeResponse:
        return self._call("GET", f"/stores/{store}")

    def metrics(self) -> ServeResponse:
        return self._call("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """The server's Prometheus text exposition (``/metrics``)."""
        import urllib.request as _request

        request = _request.Request(
            f"{self.base_url}/metrics?format=prometheus", method="GET"
        )
        with _request.urlopen(request, timeout=self.timeout) as rsp:
            return rsp.read().decode("utf-8")

    def traces_recent(self, n: int = 16) -> List[Dict]:
        """Recent finished trace trees from the server's ring buffer."""
        return list(
            self._call("GET", f"/traces/recent?n={int(n)}").get("traces", [])
        )

    def query(self, store: str, verb: str, params: Params,
              deadline_ms: Optional[float] = None) -> ServeResponse:
        """Send one query verb; ``params`` is its :data:`VERBS` params."""
        body = params.to_body()
        if deadline_ms is not None:
            body["deadline_ms"] = float(deadline_ms)
        return self._call("POST", f"/stores/{store}/{verb}", body)

    def append(self, store: str, indices, reason: str = "append",
               idempotency_key: Optional[str] = None) -> ServeResponse:
        """Append a segment; safe to retry (key auto-generated if absent)."""
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        body = AppendParams(
            indices, reason=reason, idempotency_key=idempotency_key
        ).to_body()
        return self._call("POST", f"/stores/{store}/append", body)


def _verb_method(verb: Verb) -> Callable[..., ServeResponse]:
    """``ServeClient.<verb>(store, *required, deadline_ms=None, **rest)``."""
    def method(self: ServeClient, store: str, *args: Any,
               deadline_ms: Optional[float] = None,
               **kwargs: Any) -> ServeResponse:
        return self.query(
            store, verb.name, verb.params(*args, **kwargs), deadline_ms
        )

    method.__name__ = method.__qualname__ = verb.name
    method.__doc__ = (
        f"``POST /stores/<store>/{verb.name}``; arguments after ``store`` "
        f"are :class:`~repro.query.verbs.{verb.params.__name__}`'s fields."
    )
    return method


for _verb in VERBS.values():
    setattr(ServeClient, _verb.name, _verb_method(_verb))
