"""Wire contract: error envelopes, request validation, float round-trip."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    Overloaded,
    QueryError,
    RateLimited,
    UnknownStore,
)
from repro.query.verbs import KNNParams
from repro.serve import protocol


class TestErrorBody:
    def test_code_and_message(self):
        body = protocol.error_body(RateLimited("too fast", retry_after=0.25))
        assert body["error"]["code"] == "serve.rate-limited"
        assert body["error"]["message"] == "too fast"
        assert body["error"]["retry_after"] == 0.25

    def test_deadline_carries_accounting(self):
        error = DeadlineExceeded(
            "out of time", budget_ms=50.0, elapsed_ms=61.0,
            completed=3, total=10,
        )
        info = protocol.error_body(error)["error"]
        assert info["code"] == "query.deadline-exceeded"
        assert info["budget_ms"] == 50.0
        assert info["completed"] == 3
        assert info["total"] == 10

    def test_status_mapping(self):
        assert protocol.status_of(RateLimited("x")) == 429
        assert protocol.status_of(Overloaded("x")) == 503
        assert protocol.status_of(UnknownStore("x")) == 404
        assert protocol.status_of(BadRequest("x")) == 400
        assert protocol.status_of(DeadlineExceeded("x")) == 504
        assert protocol.status_of(QueryError("x")) == 400
        assert protocol.status_of(RuntimeError("x")) == 500

    def test_envelope_is_json_encodable(self):
        raw = protocol.dumps(protocol.error_body(Overloaded("full")))
        decoded = json.loads(raw)
        assert decoded["error"]["code"] == "serve.overloaded"


class TestParsing:
    def test_rejects_non_json(self):
        with pytest.raises(BadRequest):
            protocol.parse_body(b"not json{")

    def test_rejects_non_object(self):
        with pytest.raises(BadRequest):
            protocol.parse_body(b"[1, 2]")

    def test_empty_body_is_empty_dict(self):
        assert protocol.parse_body(b"") == {}

    def test_queries_required(self):
        with pytest.raises(BadRequest):
            protocol.parse_queries({})

    def test_queries_must_be_numeric(self):
        with pytest.raises(BadRequest):
            protocol.parse_queries({"queries": ["a", "b"]})

    def test_queries_shape(self):
        arr = protocol.parse_queries({"queries": [[1.0, 2.0], [3.0, 4.0]]})
        assert arr.shape == (2, 2)
        with pytest.raises(BadRequest):
            protocol.parse_queries({"queries": []})

    def test_meters_must_be_list(self):
        with pytest.raises(BadRequest):
            protocol.parse_meters({"meters": "zero"})
        assert protocol.parse_meters({}) is None


class TestFloatRoundTrip:
    def test_json_floats_are_bit_identical(self):
        """The parity claim rests on repr round-tripping; pin it."""
        values = np.random.default_rng(5).normal(size=1000)
        decoded = json.loads(json.dumps(values.tolist()))
        assert np.asarray(decoded).tobytes() == values.tobytes()


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


#: Doubles text handles worst: -0.0, subnormals, the extremes, values that
#: need 17 significant digits, and NaNs whose payload only bytes keep.
EDGE_BITS = [
    _bits(-0.0),
    1,                                   # smallest subnormal
    _bits(np.finfo(np.float64).smallest_normal) - 1,  # largest subnormal
    _bits(np.finfo(np.float64).max),
    _bits(-np.finfo(np.float64).max),
    _bits(0.1 + 0.2),                    # 0.30000000000000004
    _bits(np.nextafter(1.0, 2.0)),       # 1.0000000000000002
    0x7FF8000000000001,                  # quiet NaN with a payload
    0x7FF0000000000001,                  # signalling NaN
    0xFFF8DEADBEEF0000,                  # negative NaN with a payload
]


@st.composite
def query_batches(draw):
    """Float64 ``(T,)`` and ``(Q, T)`` arrays drawn as raw bit patterns."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 48)),
        st.tuples(st.integers(1, 6), st.integers(1, 48)),
    ))
    bits = draw(hnp.arrays(np.uint64, shape, elements=st.one_of(
        st.sampled_from(EDGE_BITS), st.integers(0, 2 ** 64 - 1),
    )))
    return bits.view(np.float64)


class TestPackedQueries:
    @settings(max_examples=200, deadline=None)
    @given(query_batches())
    def test_packed_round_trip_is_bit_identical(self, queries):
        body = KNNParams(queries).to_body()
        assert body["queries"].keys() == {"shape", "float64"}
        assert body["queries"]["shape"] == list(queries.shape)
        raw = json.dumps(body).encode("utf-8")
        got = KNNParams.from_body(protocol.parse_body(raw)).queries
        assert got.dtype == np.float64 and got.shape == queries.shape
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == queries.tobytes()

    @pytest.mark.parametrize("queries", [
        ["1.5", "2"],
        [[True, False, True]],
        [1.0, None],
        [[1.0, 2.0], [3.0, False]],
    ])
    def test_list_form_refuses_strings_booleans_and_nulls(self, queries):
        with pytest.raises(BadRequest):
            protocol.parse_queries({"queries": queries})
        with pytest.raises(BadRequest):  # the client refuses before sending
            KNNParams(queries).to_body()
