"""kNN refine reads: a query block reads the store at most twice.

The refine loop decodes the rounds that find each query's first k-th
distance in one read, and every candidate a later round can still refine
in a second one; each read is one decode across the store's segments.
These tests count outermost per-segment reads on a many-segment store for
the pruned path, brute force and the unindexed scan, and check that only
*when* columns are decoded changed: neighbours equal brute force, and the
refined count, the span's ``refine_rounds`` and the
``query.refine_rounds_total`` delta equal a per-query serial model of the
refine loop (bound order, the frontier's transport bound, round size and
cutoff).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import disable_tracing, enable_tracing, registry, span, tracer
from repro.query import QueryConfig, QueryEngine, write_query_index
from repro.query.distance import banded_min_cells, histogram_bound, transport_bound
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


def _transport(query, symbols, bands, recon):
    """The band transport cost, the direct way: each band's query values,
    sorted, handed to the column's reconstruction values in sorted blocks,
    and the squared gaps summed."""
    total = 0.0
    for band in np.unique(bands):
        at = bands == band
        gaps = np.sort(query[at]) - np.sort(recon[symbols[at]])
        total += float((gaps ** 2).sum())
    return total


def _serial_model(engine, queries, k, chunk, use_index):
    """``(refined, rounds)`` of a per-query serial refine loop.

    Each query visits candidates in lower-bound order, ``chunk`` at a time,
    until it has a k-th distance.  Then its frontier, the candidates whose
    bound is within that distance, takes ``max(bound, transport -
    allowance)`` and re-sorts by it, and each later round refines only the
    candidates whose bound is within the current k-th distance; the query
    stops at the first one beyond it.  The batched loop runs one round
    while any query of the block is active.
    """
    table = engine.table
    recon = table.reconstruction_array
    symbols = engine.store.matrix().astype(np.intp)
    n = symbols.shape[0]
    cells = (queries[:, :, None] - recon[None, None, :]) ** 2
    if use_index:
        index = engine.index()
        bands = index.bands_for(symbols.shape[1])
        bounds = histogram_bound(
            banded_min_cells(cells, bands, index.n_bands),
            index.float_histograms,
        )
        _, allowance = transport_bound(
            queries, bands, index.n_bands, recon, index.band_histograms
        )
    else:
        bounds = np.zeros((queries.shape[0], n))
    kk = min(k, n)
    refined, rounds = 0, 0
    for q in range(queries.shape[0]):
        d2 = ((queries[q][None, :] - recon[symbols]) ** 2).sum(axis=1)
        order = np.argsort(bounds[q], kind="stable")
        keys = bounds[q][order]
        kth, at, steps, frontier = np.inf, 0, 0, False
        while at < n:
            full = min(at + chunk, n)
            hi = full
            if at >= kk:
                limit = kth * (1.0 + _PRUNE_SLACK)
                if use_index and not frontier:
                    stop = at + int(np.sum(keys[at:] <= limit))
                    tight = [
                        max(keys[j], _transport(queries[q], symbols[order[j]],
                                                bands, recon)
                            - allowance[q, order[j]])
                        for j in range(at, stop)
                    ]
                    resort = np.argsort(tight, kind="stable")
                    order[at:stop] = order[at:stop][resort]
                    keys[at:stop] = np.asarray(tight)[resort]
                frontier = True
                hi = at + int(np.sum(keys[at:full] <= limit))
                if hi == at:
                    break
            steps += 1
            if hi >= kk:
                kth = np.partition(d2[order[:hi]], kk - 1)[kk - 1]
            at = hi
            if hi < full:
                break
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
