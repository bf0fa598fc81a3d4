"""kNN refine reads: a query block reads the store at most twice.

The refine loop decodes the rounds that find each query's first k-th
distance in one read, and every candidate a later round can still refine
in a second one; each read is one decode across the store's segments.
These tests count outermost per-segment reads on a many-segment store for
the pruned path, brute force and the unindexed scan, and check that only
*when* columns are decoded changed: neighbours equal brute force, and the
refined count, the span's ``refine_rounds`` and the
``query.refine_rounds_total`` delta equal a per-query serial model of the
refine loop (bound order, round size and cutoff).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import disable_tracing, enable_tracing, registry, span, tracer
from repro.query import QueryConfig, QueryEngine, write_query_index
from repro.query.distance import banded_min_cells, histogram_bound
from repro.query.ops import _PRUNE_SLACK
from repro.store import write_segmented_fleet
from repro.store.format import _Segment

N_METERS = 48
SEGMENT_WINDOWS = 16
N_SEGMENTS = 12
K = 3
CHUNK = 4


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    rng = np.random.default_rng(21)
    windows = SEGMENT_WINDOWS * N_SEGMENTS
    levels = np.exp(rng.normal(4.0, 1.0, size=(N_METERS, 1)))
    day = 1.0 + 0.5 * np.sin(np.linspace(0, 4 * np.pi, windows))[None, :]
    values = levels * day * np.exp(rng.normal(0.0, 0.1, size=(N_METERS, windows)))
    path = tmp_path_factory.mktemp("refine_reads") / "fleet.rsyms"
    store = write_segmented_fleet(
        path, values, alphabet_size=16, method="median",
        segment_windows=SEGMENT_WINDOWS, sampling_interval=900.0,
    )
    write_query_index(store)
    store.close()
    return path


@pytest.fixture(scope="module")
def queries(store_dir):
    rng = np.random.default_rng(8)
    with QueryEngine.open(store_dir) as engine:
        picks = rng.choice(N_METERS, size=6, replace=False)
        decoded = engine.store.decode(meters=[engine.store.ids[p] for p in picks])
    return decoded * (1.0 + rng.normal(0.0, 0.05, size=decoded.shape))


def _count_segment_reads(monkeypatch) -> dict:
    """Count outermost ``_Segment`` read calls per segment file."""
    calls: dict = {}
    depth = [0]
    for name in ("runs_block", "matrix", "_packed_window"):
        original = getattr(_Segment, name)

        def counted(self, *args, _original=original, **kwargs):
            if not depth[0]:
                calls[self.path.name] = calls.get(self.path.name, 0) + 1
            depth[0] += 1
            try:
                return _original(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(_Segment, name, counted)
    return calls


def _walk(root):
    yield root
    for child in root.children:
        yield from _walk(child)


def _serial_model(engine, queries, k, chunk, use_index):
    """``(refined, rounds)`` of a per-query serial refine loop.

    Each query visits candidates in lower-bound order, ``chunk`` at a time,
    and stops at the first unseen bound beyond its k-th distance; the
    batched loop runs one round while any query of the block is active.
    """
    table = engine.table
    recon = table.reconstruction_array
    symbols = engine.store.matrix().astype(np.intp)
    n = symbols.shape[0]
    cells = (queries[:, :, None] - recon[None, None, :]) ** 2
    if use_index:
        index = engine.index()
        bounds = histogram_bound(
            banded_min_cells(cells, index.bands_for(symbols.shape[1]), index.n_bands),
            index.float_histograms,
        )
    else:
        bounds = np.zeros((queries.shape[0], n))
    kk = min(k, n)
    refined, rounds = 0, 0
    for q in range(queries.shape[0]):
        d2 = ((queries[q][None, :] - recon[symbols]) ** 2).sum(axis=1)
        order = np.argsort(bounds[q], kind="stable")
        kth, at, steps = np.inf, 0, 0
        while at < n:
            if at >= kk and not bounds[q, order[at]] <= kth * (1.0 + _PRUNE_SLACK):
                break
            at = min(at + chunk, n)
            steps += 1
            if at >= kk:
                kth = np.partition(d2[order[:at]], kk - 1)[kk - 1]
        refined += at
        rounds = max(rounds, steps)
    return refined, rounds


@pytest.mark.parametrize("case", ["pruned", "brute_force", "scan"])
def test_a_query_block_reads_each_segment_at_most_twice(
    store_dir, queries, monkeypatch, case
):
    engine = QueryEngine.open(store_dir)
    try:
        assert engine.store.n_segments == N_SEGMENTS
        brute = engine.brute_force_knn(queries, k=K)
        if case == "brute_force":
            config = QueryConfig(k=K, use_index=False, refine_chunk=N_METERS)
        else:
            config = QueryConfig(
                k=K, use_index=case == "pruned", refine_chunk=CHUNK
            )
        expected = _serial_model(
            engine, queries, K, config.refine_chunk, config.use_index
        )
        calls = _count_segment_reads(monkeypatch)
        before = registry().counter_value("query.refine_rounds_total")
        enable_tracing()
        try:
            with span("test.root") as root:
                result = engine.knn(queries, config)
        finally:
            disable_tracing()
            tracer().clear()
        span_rounds = sum(
            s.attributes.get("refine_rounds", 0) for s in _walk(root)
        )
        rounds = registry().counter_value("query.refine_rounds_total") - before
    finally:
        engine.close()
    assert calls and len(calls) == N_SEGMENTS
    assert max(calls.values()) <= 2, calls
    np.testing.assert_array_equal(result.positions, brute.positions)
    np.testing.assert_array_equal(result.distances, brute.distances)
    assert (result.stats.refined, rounds) == expected
    assert span_rounds == rounds
    if case == "scan":
        # Without the bound every round refines; the old loop read once a round.
        assert rounds == N_METERS // CHUNK
