"""The wire contract of the query service: JSON bodies, both directions.

Each query verb's half lives in :mod:`repro.query.verbs`: its params
dataclass checks a request body (:class:`~repro.errors.BadRequest`, HTTP
400, never a ``TypeError`` leaking as a 500) and builds one, and its codec
turns the engine's report into plain JSON.  The codecs are bound here under
their wire names (``knn_body``, ``match_body``, ...).  Request vectors
travel as their own bytes: the client sends kNN ``queries`` as base64 of
little-endian float64 (``{"shape", "float64"}``), and nested lists of
numbers are accepted too.  Response floats pass through ``json`` with
``repr`` round-tripping.  So a value decoded from a response is
bit-identical to the library result — the parity tests pin this.

This module owns the rest: request and response bytes (:func:`parse_body`,
:func:`dumps`), the ``/stores/<name>`` description, and
:func:`error_body`, which renders any :class:`~repro.errors.ReproError`
into the structured envelope ``{"error": {"code", "message", ...}}``.  The
``code`` values are the stable taxonomy of :mod:`repro.errors`; clients
branch on them, never on message prose.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import (
    BadRequest,
    DeadlineExceeded,
    ReproError,
    ServeError,
)
from ..query.verbs import (
    ID_LIST,
    QUERIES,
    agg_body,
    anomaly_body,
    drift_body,
    knn_body,
    match_body,
    private_agg_body,
)

__all__ = [
    "agg_body",
    "anomaly_body",
    "drift_body",
    "dumps",
    "error_body",
    "knn_body",
    "match_body",
    "parse_body",
    "parse_meters",
    "parse_queries",
    "private_agg_body",
    "status_of",
    "store_info_body",
]

#: Largest accepted request body: queries are batches of float vectors, not
#: bulk uploads; anything bigger is a client bug or abuse.
MAX_BODY_BYTES = 64 * 1024 * 1024


def dumps(payload: Dict[str, Any]) -> bytes:
    """Canonical response encoding (compact separators, UTF-8)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body to a dict, 400 on anything malformed."""
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequest(f"request body is not valid JSON: {exc}")
    if not isinstance(body, dict):
        raise BadRequest(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def parse_queries(body: Dict[str, Any]) -> np.ndarray:
    """The ``queries`` field, packed or nested lists, as a float64 array;
    400 on a bad shape, value or packing."""
    return QUERIES.check("queries", body.get("queries"))


def parse_meters(body: Dict[str, Any]) -> Optional[List]:
    """The optional ``meters`` field (None = whole fleet)."""
    meters = body.get("meters")
    return None if meters is None else ID_LIST.check("meters", meters)


def status_of(error: BaseException) -> int:
    """The HTTP status an exception maps to."""
    if isinstance(error, ServeError):
        return error.status
    if isinstance(error, DeadlineExceeded):
        return 504
    if isinstance(error, ReproError):
        return 400 if error.code.endswith(".invalid") else 500
    return 500


def error_body(error: BaseException, retry_after: Optional[float] = None) -> Dict:
    """The structured error envelope for ``error``.

    ``retry_after`` (seconds) is echoed inside the body *and* belongs in the
    ``Retry-After`` header — the server sets both from the same value so a
    client that only reads bodies still sees the hint.
    """
    code = getattr(error, "code", "internal")
    payload: Dict[str, Any] = {
        "code": code,
        "message": str(error),
    }
    if retry_after is None:
        retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = float(retry_after)
    if isinstance(error, DeadlineExceeded):
        payload["budget_ms"] = error.budget_ms
        payload["elapsed_ms"] = error.elapsed_ms
        payload["completed"] = error.completed
        payload["total"] = error.total
    return {"error": payload}


def store_info_body(store, name: str) -> Dict:
    """The ``/stores/<name>`` description (store-info over the wire).

    ``generation`` is ``None`` for a bare ``.rsym`` file, which has no
    manifest.
    """
    return {
        "name": name,
        "path": str(store.path),
        "n_meters": int(store.n_meters),
        "n_symbols": int(store.n_symbols),
        "alphabet_size": int(store.alphabet_size),
        "layout": store.layout,
        "generation": store.generation,
        "n_segments": int(store.n_segments),
        "quarantined": [
            {"segment": seg, "reason": why} for seg, why in store.quarantined
        ],
    }
