"""``repro.serve``: a fault-tolerant query service over symbol stores.

Stdlib-only (``http.server`` + ``socketserver`` threading) HTTP+JSON
serving of the :class:`~repro.query.QueryEngine` workloads — kNN, pattern
match, aggregation, anomaly, drift, private aggregates, store info and
segment appends — with robustness as the design center:

:mod:`repro.serve.limiter`
    Token-bucket rate limiting (429 + honest ``Retry-After``).

:mod:`repro.serve.admission`
    Bounded concurrency + bounded queue: overload sheds fast with a
    structured 503 instead of queuing unboundedly.

:mod:`repro.serve.breaker`
    Per-store circuit breaker: repeated integrity failures flip to
    degraded (quarantine-aware, ``"degraded": true``) serving while a
    background scrub heals; a half-open trial re-verifies before the flag
    clears.

:mod:`repro.serve.server`
    :class:`QueryServer` / :func:`serve`: the threaded server, snapshot
    leases with hot manifest-generation reload, per-request deadlines
    propagated into the scan (504 with partial-work accounting), and
    idempotency-keyed appends that survive SIGKILL.

:mod:`repro.serve.client`
    :class:`ServeClient`: exponential backoff with full jitter, retry
    budgets, ``Retry-After`` obedience, idempotency keys.

:mod:`repro.serve.protocol`
    The wire contract: the verbs' result codecs from
    :mod:`repro.query.verbs` (bit-identical float round-trip) and the
    ``{"error": {"code", ...}}`` envelope over the stable
    :mod:`repro.errors` taxonomy.

The query verbs themselves — params, defaults, request checks, engine
method, codec — are defined once in :data:`repro.query.verbs.VERBS`; the
server's dispatch and the client's query methods run from it.
"""

from .admission import AdmissionGate
from .breaker import CircuitBreaker
from .client import RetryBudget, RetryPolicy, ServeClient, ServeResponse
from .limiter import TokenBucket
from .server import QueryServer, ServerConfig, StoreManager, serve

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "QueryServer",
    "RetryBudget",
    "RetryPolicy",
    "ServeClient",
    "ServeResponse",
    "ServerConfig",
    "StoreManager",
    "TokenBucket",
    "serve",
]
