"""The wire contract of the query service: JSON bodies, both directions.

One module owns every translation between library objects and wire JSON so
the server, the client and the tests agree by construction:

* result serializers (``knn_body``, ``match_body``, ...) turn the engine's
  report objects into plain-JSON dicts.  Floats pass through ``json`` with
  ``repr`` round-tripping, so a value decoded from a response is
  bit-identical to the library result — the parity tests pin this.
* :func:`error_body` renders any :class:`~repro.errors.ReproError` into the
  structured error envelope ``{"error": {"code", "message", ...}}``.  The
  ``code`` values are the stable taxonomy of :mod:`repro.errors`; clients
  branch on them, never on message prose.
* :func:`parse_queries` and friends validate request bodies, raising
  :class:`~repro.errors.BadRequest` (HTTP 400) on malformed input instead
  of leaking a ``TypeError`` as a 500.
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

__all__ = [
    "agg_body",
    "anomaly_body",
    "drift_body",
    "dumps",
    "error_body",
    "knn_body",
    "match_body",
    "parse_body",
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
    """The ``queries`` field as a float64 array, 400 on bad shape/values."""
    queries = body.get("queries")
    if queries is None:
        raise BadRequest("request body needs a 'queries' field")
    try:
        arr = np.asarray(queries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"'queries' is not numeric: {exc}")
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise BadRequest(
            f"'queries' must be one vector or a batch of vectors, "
            f"got shape {arr.shape}"
        )
    return arr


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


# -- result serializers ----------------------------------------------------------


def knn_body(result) -> Dict[str, Any]:
    """Serialize a :class:`~repro.query.engine.KNNResult`."""
    return {
        "positions": result.positions.tolist(),
        "ids": [[_plain(i) for i in row] for row in result.ids],
        "distances": result.distances.tolist(),
        "stats": {
            "n_queries": result.stats.n_queries,
            "n_candidates": result.stats.n_candidates,
            "refined": result.stats.refined,
            "index_used": result.stats.index_used,
        },
    }


def match_body(matches) -> Dict[str, Any]:
    """Serialize a :class:`~repro.query.patterns.PatternMatches`."""
    return {
        "pattern": matches.pattern,
        "spans": {
            str(meter): [[int(a), int(b)] for a, b in spans]
            for meter, spans in matches.spans.items()
        },
        "columns_scanned": int(matches.columns_scanned),
        "columns_skipped": int(matches.columns_skipped),
        "runs_scanned": int(matches.runs_scanned),
        "windows_total": int(matches.windows_total),
        "total_matches": int(matches.total_matches),
    }


def agg_body(report) -> Dict[str, Any]:
    """Serialize an :class:`~repro.query.aggregate.AggregateReport`."""
    body = {
        "ids": [_plain(i) for i in report.ids],
        "level": int(report.level),
        "symbol_counts": report.symbol_counts.tolist(),
        "peak_level": report.peak_level.tolist(),
        "duty_cycle": report.duty_cycle.tolist(),
        "run_count": report.run_count.tolist(),
        "mean_run_length": report.mean_run_length.tolist(),
    }
    if report.daily_peak is not None:
        body["daily_peak"] = report.daily_peak.tolist()
    return body


def anomaly_body(report) -> Dict[str, Any]:
    """Serialize an :class:`~repro.query.ops.AnomalyReport`."""
    return {
        "ids": [_plain(i) for i in report.ids],
        "scores": report.scores.tolist(),
        "transitions": report.transitions.tolist(),
        "model": report.model.tolist(),
    }


def drift_body(report) -> Dict[str, Any]:
    """Serialize a :class:`~repro.query.ops.DriftReport`."""
    return {
        "ids": [_plain(i) for i in report.ids],
        "distances": report.distances.tolist(),
        "reference": report.reference,
        "columns_decoded": int(report.columns_decoded),
    }


def private_agg_body(report) -> Dict[str, Any]:
    """Serialize a :class:`~repro.query.ops.PrivateAggregateReport`."""
    return {
        "n_meters": int(report.n_meters),
        "level": int(report.level),
        "k_anon": int(report.k_anon),
        "epsilon": None if report.epsilon is None else float(report.epsilon),
        "symbol_counts": report.symbol_counts.tolist(),
        "suppressed": report.suppressed.tolist(),
        "duty_cycle": float(report.duty_cycle),
        "band_profile": report.band_profile.tolist(),
    }


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


def _plain(value) -> Any:
    """Meter ids as JSON scalars (numpy ints ride in id lists)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def parse_meters(body: Dict[str, Any]) -> Optional[List]:
    """The optional ``meters`` field (None = whole fleet)."""
    meters = body.get("meters")
    if meters is None:
        return None
    if not isinstance(meters, list):
        raise BadRequest(
            f"'meters' must be a list, got {type(meters).__name__}"
        )
    return meters
