"""The query verbs: each query kind the engine serves, defined once.

:data:`VERBS` maps a verb name — the URL segment, the ``serve.<name>`` span,
the ``ServeClient`` method and the ``repro query`` route — to a
:class:`Verb`: a frozen params dataclass, the engine call and the result
codec.  The params' field defaults are *the* defaults (``QueryConfig``, the
engine's keywords, the server, the client and the CLI flags read them from
here) and :meth:`Params.from_body` is the only request check of a query
verb (HTTP 400 on a bad field).  kNN query vectors travel as their own
bytes: the client sends ``queries`` packed, ``{"shape": [Q, T] or [T],
"float64": <base64 of the little-endian doubles, row-major>}``, and the
server also takes nested lists of JSON numbers, for hand-written requests.
Response floats pass through ``json`` with ``repr`` round-tripping.  So a
served body equals ``verb.answer(engine, params)`` on the same store, and
remote CLI output equals local output, by construction.  A new verb is one
entry here, its operator and a CLI renderer.

:class:`AppendParams` checks a segment append's body on the server and
makes it on the client.  It is not a :data:`VERBS` entry: every verb
answers from a leased snapshot through an engine method, and the server,
the client and ``repro query`` run every entry that way; an append writes
the store, so listing it would make that shared code branch on read
versus write.

The engine reads its defaults from here, so this module imports the engine
only inside :meth:`KNNParams.keywords`; it never imports :mod:`repro.serve`.
"""

from __future__ import annotations

import base64
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..errors import BadRequest, QueryError

__all__ = [
    "AggParams",
    "AnomalyParams",
    "AppendParams",
    "DriftParams",
    "KNNParams",
    "MatchParams",
    "Params",
    "PrivateAggParams",
    "VERBS",
    "Verb",
]


# -- wire kinds: how a params field travels in a JSON body --------------------


class Wire(NamedTuple):
    check: Callable[[str, Any], Any]   # body value -> field value, or a 400
    dump: Callable[[Any], Any]         # field value -> JSON value


def _typed(expected: str, accepts: Callable[[Any], bool]):
    def check(name: str, value):
        if not accepts(value):
            got = "null" if value is None else type(value).__name__
            raise BadRequest(f"'{name}' must be {expected}, got {got}")
        return value
    return check


def _queries(name: str, value) -> np.ndarray:
    """``queries`` as a fresh, writable float64 C array, or a 400.

    ``value`` is the packed object, nested lists of JSON numbers or, on the
    client, a numeric array.  A string, boolean or null is refused, never
    read as a number.
    """
    if value is None:
        raise BadRequest(f"request body needs a '{name}' field")
    if type(value) is dict:
        arr = _unpack(name, value)
    elif isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        arr = np.array(value, dtype=np.float64, order="C")
    else:
        arr = _number_lists(name, _listify(value))
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise BadRequest(
            f"'{name}' must be one vector or a batch of vectors, "
            f"got shape {arr.shape}"
        )
    return arr


def _number_lists(name: str, value) -> np.ndarray:
    """Nested lists of JSON numbers as float64.  ``np.array`` alone would
    read ``"1.5"``, ``true`` and ``null`` as numbers; a JSON number is an
    int or a float."""
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadRequest(f"'{name}' is not numeric: {exc}")
    rows = value if arr.ndim == 2 else [value] if arr.ndim == 1 else []
    if any(type(v) not in (int, float) for row in rows for v in row):
        raise BadRequest(
            f"'{name}' must hold numbers only, not strings, booleans or nulls"
        )
    return arr


def _unpack(name: str, value: Dict[str, Any]) -> np.ndarray:
    """The packed form: ``shape`` and the base64 of the little-endian
    float64 bytes, row-major."""
    if value.keys() != {"shape", "float64"}:
        raise BadRequest(
            f"packed '{name}' must have exactly the keys 'shape' and 'float64'"
        )
    shape = value["shape"]
    if (type(shape) is not list or len(shape) not in (1, 2)
            or any(type(n) is not int or n < 1 for n in shape)):
        raise BadRequest(
            f"'{name}.shape' must be a list of one or two positive integers"
        )
    try:
        raw = base64.b64decode(value["float64"], validate=True)
    except (TypeError, ValueError) as exc:  # not a string, or not base64
        raise BadRequest(f"'{name}.float64' is not a base64 string: {exc}")
    nbytes = 8 * math.prod(shape)
    if len(raw) != nbytes:
        raise BadRequest(f"'{name}.float64' holds {len(raw)} bytes; shape "
                         f"{shape} needs {nbytes}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _pack(queries) -> Dict[str, Any]:
    """``queries`` in the packed form, after the server's own check, so a
    value the server would refuse raises the same 400 before it is sent."""
    arr = _queries("queries", queries)
    raw = arr.astype("<f8", copy=False).tobytes()
    return {"shape": list(arr.shape),
            "float64": base64.b64encode(raw).decode("ascii")}


def _indices(name: str, value) -> np.ndarray:
    """``indices`` — nested lists of JSON integers or, on the client, an
    integer array — as an int64 ``(meters, windows)`` matrix, or a 400.
    ``np.asarray`` alone would read ``"3"``, ``true`` and ``2.7`` as symbols."""
    try:
        matrix = np.asarray(value, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadRequest(f"'{name}' is not an integer matrix: {exc}")
    if isinstance(value, np.ndarray):
        integers = value.dtype.kind in "iu"
    else:
        integers = matrix.ndim == 2 and all(
            type(v) is int for row in value for v in row
        )
    if matrix.ndim != 2 or not integers:
        raise BadRequest(f"'{name}' must be a (meters, windows) matrix of "
                         f"integers, not strings, booleans or floats")
    return matrix


def _plain(value) -> Any:
    """Meter ids as JSON scalars (numpy ints ride in id lists)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _listify(value) -> Any:
    """Arrays → nested lists; lists pass through (json takes no ndarray)."""
    tolist = getattr(value, "tolist", None)
    return tolist() if callable(tolist) else value


# JSON ints and bools are exactly ``int`` and ``bool``: ``true`` is no ``k``.
INTEGER = Wire(_typed("an integer", lambda v: type(v) is int), int)
BOOLEAN = Wire(_typed("true or false", lambda v: type(v) is bool), bool)
NUMBER = Wire(_typed("a number", lambda v: type(v) in (int, float)), float)
ID_LIST = Wire(_typed("a list", lambda v: type(v) is list),
               lambda ids: list(_listify(ids)))
QUERIES = Wire(_queries, _pack)
PATTERN = Wire(
    _typed("a non-empty string", lambda v: type(v) is str and v != ""), str
)
STRING = Wire(_typed("a string", lambda v: type(v) is str), str)
INDICES = Wire(_indices, lambda value: _indices("indices", value).tolist())


def _field(wire: Wire, default: Any = MISSING):
    """A params field: positional when required, keyword-only otherwise."""
    if default is MISSING:
        return field(metadata={"wire": wire})
    return field(default=default, kw_only=True, metadata={"wire": wire})


# -- params -------------------------------------------------------------------


class Params:
    """Base of the params dataclasses: the request check and builder."""

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "Params":
        """Params from a request body.  Absent fields take their defaults,
        ``null`` is accepted where the default is ``None``, and unknown keys
        (such as ``deadline_ms``) are ignored."""
        values = {}
        for f in fields(cls):
            wire, value = f.metadata.get("wire"), body.get(f.name)
            if wire is None or (value is None and f.default is None):
                continue  # local-only, or absent/null where None is default
            if f.name in body or f.default is MISSING:
                values[f.name] = wire.check(f.name, value)
        return cls(**values)

    def to_body(self) -> Dict[str, Any]:
        """The JSON-ready request body: every field that is not ``None``."""
        body: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if "wire" not in f.metadata:
                raise QueryError(f"'{f.name}' is local-only; a server never "
                                 f"reads it from a request")
            body[f.name] = f.metadata["wire"].dump(value)
        return body

    def keywords(self, workers: Optional[int]) -> Dict[str, Any]:
        """The engine method's keywords: the fields, plus ``workers`` when
        the method shards (``workers`` is not ``None``)."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        if workers is not None:
            kwargs["workers"] = workers
        return kwargs


@dataclass(frozen=True)
class KNNParams(Params):
    """Exact kNN: ``queries`` is one ``(T,)`` vector or a ``(Q, T)`` batch."""

    queries: Any = _field(QUERIES)
    k: int = _field(INTEGER, 5)
    use_index: bool = _field(BOOLEAN, True)
    refine_chunk: int = _field(INTEGER, 16)
    exclude_ids: Optional[List] = _field(ID_LIST, None)

    def keywords(self, workers: Optional[int]) -> Dict[str, Any]:
        from .engine import QueryConfig

        config = QueryConfig(k=self.k, use_index=self.use_index,
                             refine_chunk=self.refine_chunk, workers=workers)
        return {"queries": self.queries, "config": config,
                "exclude_ids": self.exclude_ids or ()}


@dataclass(frozen=True)
class MatchParams(Params):
    """Run-level symbol pattern match (``"a{2,} *"``)."""

    pattern: str = _field(PATTERN)
    meters: Optional[List] = _field(ID_LIST, None)


@dataclass(frozen=True)
class AggParams(Params):
    """Per-meter aggregates; ``level`` ``None`` means ``alphabet // 2``."""

    per_day: bool = _field(BOOLEAN, False)
    meters: Optional[List] = _field(ID_LIST, None)
    level: Optional[int] = _field(INTEGER, None)


@dataclass(frozen=True)
class AnomalyParams(Params):
    """Per-meter anomaly scores against the fleet transition model."""

    meters: Optional[List] = _field(ID_LIST, None)


@dataclass(frozen=True)
class DriftParams(Params):
    """Drift off ``.rsymx`` histograms, vs the fleet mean or a ``baseline``
    sidecar path — local-only, since a server reads no client paths."""

    meters: Optional[List] = _field(ID_LIST, None)
    baseline: Optional[Any] = field(default=None, kw_only=True)


@dataclass(frozen=True)
class PrivateAggParams(Params):
    """k-anonymous, optionally Laplace-noised (``epsilon``) group aggregate."""

    k_anon: int = _field(INTEGER, 5)
    seed: int = _field(INTEGER, 0)
    meters: Optional[List] = _field(ID_LIST, None)
    level: Optional[int] = _field(INTEGER, None)
    epsilon: Optional[float] = _field(NUMBER, None)


@dataclass(frozen=True)
class AppendParams(Params):
    """A segment append: the ``(meters, windows)`` symbol matrix, the
    manifest ``reason``, and an optional idempotency key."""

    indices: Any = _field(INDICES)
    reason: str = _field(STRING, "append")
    idempotency_key: Optional[str] = _field(STRING, None)


# -- result codecs ------------------------------------------------------------


def knn_body(result) -> Dict[str, Any]:
    """Serialize a :class:`~repro.query.engine.KNNResult`."""
    return {
        "positions": result.positions.tolist(),
        "ids": [[_plain(i) for i in row] for row in result.ids],
        "distances": result.distances.tolist(),
        "stats": asdict(result.stats),
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


# -- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class Verb:
    """One query kind: its params, its engine method and its result codec."""

    name: str
    params: type
    method: str                 # the QueryEngine method that answers it
    codec: Callable[[Any], Dict[str, Any]]
    shards: bool = True         # whether ``method`` takes ``workers``

    def answer(self, engine, params: Params, workers: int = 1,
               deadline=None) -> Dict[str, Any]:
        """The wire body for ``params`` on ``engine`` (minus ``degraded``)."""
        keywords = params.keywords(workers if self.shards else None)
        report = getattr(engine, self.method)(**keywords, deadline=deadline)
        return self.codec(report)


VERBS: Dict[str, Verb] = {verb.name: verb for verb in (
    Verb("knn", KNNParams, "knn", knn_body),
    Verb("match", MatchParams, "match", match_body),
    Verb("agg", AggParams, "aggregate", agg_body),
    Verb("anomaly", AnomalyParams, "anomaly", anomaly_body),
    # Drift reads .rsymx histograms only: there is nothing to shard.
    Verb("drift", DriftParams, "drift", drift_body, shards=False),
    Verb("private_agg", PrivateAggParams, "private_aggregate",
         private_agg_body),
)}
