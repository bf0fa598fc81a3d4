"""Command-line interface for the reproduction.

Usage (after ``pip install -e .``)::

    python -m repro generate --days 5 --out data/redd
    python -m repro encode --house 1 --data data/redd --alphabet 8 --method median
    python -m repro encode --all --store fleet.rsym --alphabet 16 --window 900
    python -m repro classify --encoding median --alphabet 16 --classifier naive_bayes
    python -m repro classify --store stores/ --encoding median --alphabet 16
    python -m repro forecast --classifier naive_bayes
    python -m repro compression --alphabet 16 --window 900 --store fleet.rsym
    python -m repro store-info fleet.rsym
    python -m repro query index fleet.rsym
    python -m repro query knn fleet.rsym --query-id 1 --k 5
    python -m repro query match fleet.rsym --pattern "h{4,} * a"
    python -m repro query agg fleet.rsym --level 8
    python -m repro export-arff --encoding median --alphabet 8 --out vectors.arff

Every command works on the synthetic REDD substitute (regenerated from a seed
or loaded from a directory written by ``generate``), prints a plain-text
result table and exits with a non-zero status on error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .analytics import DayVectorConfig, build_day_vectors, classify_households, forecast_dataset
from .core import CompressionModel, SymbolicEncoder
from .datasets import generate_redd, read_dataset, write_dataset
from .errors import ReproError
from .experiments import compression_sweep, render_table
from .ml.arff import write_arff
from .pipeline import FleetEncoder, rle_encode

__all__ = ["main", "build_parser"]


def _load_dataset(args: argparse.Namespace):
    """Load a dataset from ``--data`` or regenerate it from ``--seed``."""
    if getattr(args, "data", None):
        return read_dataset(args.data)
    return generate_redd(
        days=args.days, sampling_interval=args.interval, seed=args.seed,
        with_gaps=not getattr(args, "no_gaps", False),
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel workers (1 = serial, 0 = one per CPU); outputs are "
             "bit-identical for every worker count",
    )


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", type=str, default="",
                        help="directory written by 'repro generate' (default: regenerate)")
    parser.add_argument("--days", type=int, default=10, help="days to generate")
    parser.add_argument("--interval", type=float, default=60.0,
                        help="sampling interval in seconds")
    parser.add_argument("--seed", type=int, default=42, help="generator seed")
    parser.add_argument("--no-gaps", action="store_true",
                        help="generate without metering gaps")


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    directory = write_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} houses ({dataset.total_samples()} samples) to {directory}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    if args.all:
        return _encode_fleet(dataset, args)
    series = dataset.mains(args.house)
    encoder = SymbolicEncoder(
        alphabet_size=args.alphabet,
        method=args.method,
        aggregation_seconds=args.window,
    )
    encoded = encoder.fit_encode(series)
    print(f"house {args.house}: {len(series)} raw samples -> {len(encoded)} symbols "
          f"({encoded.size_in_bits()} bits)")
    print("separators [W]:", " ".join(f"{s:.1f}" for s in encoder.table.separators))
    print("first 48 symbols:", " ".join(encoded.words[:48]))
    print(f"symbol entropy: {encoded.entropy():.2f} bits "
          f"(max {encoder.table.alphabet.bits_per_symbol})")
    return 0


def _encode_fleet(dataset, args: argparse.Namespace) -> int:
    """Encode every house in one vectorized FleetEncoder call."""
    import numpy as np

    houses = list(dataset)
    n_samples = min(len(house.mains) for house in houses)
    dropped = sum(len(house.mains) - n_samples for house in houses)
    if dropped:
        print(f"note: ragged series truncated to {n_samples} samples/meter "
              f"({dropped} trailing samples dropped)")
    matrix = np.vstack([house.mains.values[:n_samples] for house in houses])
    # Window width in samples from the dataset's own sampling interval
    # (``--interval`` only parameterises generation and is stale for --data).
    # The fleet-wide *median* interval sets the window so one odd meter that
    # happens to be ordered first cannot skew every house's window width.
    intervals = [
        float(np.median(np.diff(house.mains.timestamps)))
        for house in houses if len(house.mains) > 1
    ]
    sampling = float(np.median(intervals)) if intervals else 1.0
    if intervals and max(intervals) > 1.5 * min(intervals):
        print(f"note: per-house sampling intervals differ "
              f"({min(intervals):g}-{max(intervals):g} s); count-based windows "
              f"use {sampling:g} s, so window durations vary across meters")
    window = max(1, int(round(args.window / sampling)))
    if getattr(args, "store", ""):
        return _encode_fleet_store(matrix, houses, window, sampling, args)
    fleet = FleetEncoder(
        alphabet_size=args.alphabet,
        method=args.method,
        window=window,
        shared_table=args.global_table,
    )
    indices = fleet.fit_encode(matrix, workers=args.workers)
    rows = []
    for house, house_indices in zip(houses, indices):
        counts = np.bincount(house_indices, minlength=args.alphabet)
        probs = counts[counts > 0] / counts.sum()
        rows.append({
            "house": house.house_id,
            "symbols": int(house_indices.size),
            "runs": int(rle_encode(house_indices).shape[0]),
            "entropy_bits": float(-(probs * np.log2(probs)).sum()),
        })
    table_mode = "1 global table" if args.global_table else f"{len(houses)} per-meter tables"
    print(f"fleet: {matrix.shape[0]} meters x {matrix.shape[1]} samples -> "
          f"{indices.shape[1]} symbols/meter ({table_mode}, window {window} samples)")
    print(render_table(rows, float_digits=2))
    return 0


def _encode_fleet_store(matrix, houses, window: int, sampling: float,
                        args: argparse.Namespace) -> int:
    """Encode the fleet into a bit-packed store.

    One ``.rsym`` file, or with ``--segment-days N`` a crash-safe ``.rsyms``
    directory committed one N-day segment at a time.
    """
    from .core.timeseries import SECONDS_PER_DAY
    from .errors import StoreError
    from .store import RLE, write_fleet_store, write_segmented_fleet

    options = dict(
        alphabet_size=args.alphabet, method=args.method, window=window,
        layout=RLE if args.rle else "dense",
        meter_ids=[house.house_id for house in houses],
        workers=args.workers, sampling_interval=sampling,
    )
    segment_days = getattr(args, "segment_days", 0)
    if segment_days:
        aggregation_seconds = sampling * window
        per_day = SECONDS_PER_DAY / aggregation_seconds
        if abs(per_day - round(per_day)) >= 1e-9:
            raise StoreError(
                f"--segment-days needs a window that divides a day evenly "
                f"({aggregation_seconds:g} s windows give {per_day:.2f} "
                f"windows/day)"
            )
        store = write_segmented_fleet(
            args.store, matrix,
            segment_windows=int(round(per_day)) * int(segment_days), **options,
        )
    else:
        store = write_fleet_store(
            args.store, matrix, shared_table=args.global_table, **options,
        )
    with store:
        if getattr(args, "query_index", False):
            from .query import write_query_index

            path = write_query_index(store, workers=args.workers)
            print(f"wrote query index {path}")
        raw_bytes = matrix.size * matrix.itemsize
        print(f"wrote {store.path}: {store.n_segments} segment(s), "
              f"{store.n_meters} meters x {int(store.counts[0])} symbols "
              f"({store.layout} layout, {store.payload_nbytes} payload bytes, "
              f"{store.file_nbytes} on disk; raw float64 fleet is "
              f"{raw_bytes} bytes, "
              f"{raw_bytes / max(1, store.file_nbytes):.1f}x larger)")
        _print_store_measurement(store)
    return 0


def _print_store_measurement(store) -> None:
    """Measured vs analytic bits-per-day, when the store knows its window."""
    if not store.metadata.get("aggregation_seconds"):
        return
    model = CompressionModel(
        sampling_interval=store.metadata.get("sampling_interval", 1.0)
    )
    cell = model.measured_report(store)
    status = "FLAGGED (>5% divergence)" if cell.flagged else "ok"
    print(f"measured {cell.measured_bits_per_day:.1f} bits/meter-day vs "
          f"analytic {cell.analytic_bits_per_day:.1f} "
          f"({100.0 * cell.divergence:+.2f}%, {status})")


def _cmd_classify(args: argparse.Namespace) -> int:
    config = DayVectorConfig(
        encoding=args.encoding,
        aggregation_seconds=args.window,
        alphabet_size=args.alphabet,
        global_table=args.global_table,
    )
    vectors = None
    if args.store and args.encoding != "raw":
        from .store import day_vector_store_path, load_day_vectors, write_day_vector_store

        path = day_vector_store_path(args.store, config)
        if path.exists():
            vectors = load_day_vectors(path, config=config)
            print(f"read {len(vectors)} day vectors from {path}")
        else:
            vectors = write_day_vector_store(path, _load_dataset(args), config)
            print(f"wrote {len(vectors)} day vectors to {path}")
    if vectors is None:
        vectors = build_day_vectors(_load_dataset(args), config)
    result = classify_households(
        None, config, args.classifier, n_folds=args.folds,
        workers=args.workers, vectors=vectors,
    )
    print(render_table([result.as_dict()], float_digits=3))
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    results = forecast_dataset(
        dataset,
        classifier=args.classifier,
        alphabet_size=args.alphabet,
        train_days=args.train_days,
        test_days=1,
    )
    rows = []
    for house_id, by_method in sorted(results.items()):
        row = {"house": house_id}
        row.update({method: forecast.mae for method, forecast in by_method.items()})
        rows.append(row)
    print(render_table(rows, float_digits=1))
    return 0


def _cmd_compression(args: argparse.Namespace) -> int:
    sweep = compression_sweep(
        alphabet_sizes=(args.alphabet,),
        aggregation_seconds=(args.window,),
        sampling_interval=args.sampling,
        workers=args.workers,
        store=args.store or None,
    )
    print(render_table(sweep.rows(), float_digits=1))
    if any(cell.flagged for cell in sweep.measured.values()):
        print("warning: measured size diverges >5% from the analytic model")
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    """Print a store's layout plus measured-vs-analytic compression."""
    from .errors import CorruptStoreError
    from .store import open_store

    verify = getattr(args, "verify", False)
    try:
        store = open_store(args.path, verify="eager" if verify else "lazy")
    except CorruptStoreError as exc:
        print(f"corrupt store: {exc}")
        if exc.check:
            print(f"  failed check: {exc.check}")
        if exc.hint:
            print(f"  hint: {exc.hint}")
        return 1
    with store:
        tables = store.tables
        if tables is None:
            table_mode = "none"
        elif isinstance(tables, list):
            table_mode = f"{len(tables)} per-column"
        elif isinstance(tables, dict):
            table_mode = f"{len(tables)} by-label"
        else:
            table_mode = "1 shared"
        print(f"store:    {store.path}")
        print(f"segments: {store.n_segments} (generation {store.generation}"
              + (f", {len(store.quarantined)} quarantined"
                 if store.quarantined else "") + ")")
        print(f"layout:   {store.layout} ({store.bits_per_symbol} bits/symbol, "
              f"alphabet {store.alphabet_size})")
        print(f"columns:  {store.n_meters} ({store.n_symbols} symbols total)")
        print(f"tables:   {table_mode}")
        print(f"bytes:    {store.payload_nbytes} payload, "
              f"{store.file_nbytes} on disk")
        _print_run_stats(store)
        if store.metadata:
            keys = ("kind", "method", "window", "aggregation_seconds",
                    "windows_per_day", "sampling_interval")
            summary = {k: store.metadata[k] for k in keys if k in store.metadata}
            if summary:
                print(f"metadata: {summary}")
        _print_store_measurement(store)
        if verify:
            report = store.verify(strict=False)
            quarantined = report["quarantined"]
            if not store.checksummed:
                print("checksums: none (format v1 store; rewrite to add them)")
            elif report["ok"] and not quarantined:
                print(f"checksums: ok (crc32c, {store.n_meters} columns verified)")
            else:
                failures = len(report["errors"]) + len(quarantined)
                print(f"checksums: {failures} FAILURE(S)")
                for error in report["errors"]:
                    print(f"  {error}")
                for name, error in quarantined:
                    print(f"  quarantined {name}: {error}")
                return 1
    return 0


def _cmd_store_scrub(args: argparse.Namespace) -> int:
    """Verify checksums and garbage-collect crash residue."""
    from .store import scrub_store

    report = scrub_store(
        args.path, repair=args.repair, keep_generations=args.keep,
    )
    for line in report.lines():
        print(line)
    return 0 if report.ok or args.repair else 1


def _print_run_stats(store) -> None:
    """Per-column RLE run counts and pattern-pushdown selectivity.

    The mean run length is the factor by which run-level pattern matching
    (``repro query match``) scans fewer elements than the expanded windows —
    printed so users can predict the pushdown benefit before querying.
    Run counts come off the store's query index: its fresh ``.rsymx``
    sidecar, or one built in memory.
    """
    import numpy as np

    from .query import QueryEngine

    if store.n_meters == 0 or store.n_symbols == 0:
        return
    run_counts = QueryEngine.over(store).index().run_counts
    total_runs = int(run_counts.sum())
    mean_run = store.n_symbols / max(1, total_runs)
    source = "stored" if store.layout == "rle" else "computed"
    print(f"runs:     {total_runs} total ({source}; "
          f"min {int(run_counts.min())} / median {int(np.median(run_counts))} / "
          f"max {int(run_counts.max())} per column)")
    print(f"selectivity: mean run length {mean_run:.1f} windows -> pattern "
          f"pushdown scans {100.0 * total_runs / store.n_symbols:.1f}% of "
          f"expanded windows ({mean_run:.1f}x fewer elements)")


def _store_column_id(store, text: str):
    """Resolve a CLI column-id string against a store's (possibly int) ids."""
    if text in store._id_index:
        return text
    try:
        as_int = int(text)
    except ValueError:
        return text
    return as_int if as_int in store._id_index else text


def _cmd_query_index(args: argparse.Namespace) -> int:
    from .query import write_query_index
    from .store import open_store

    with open_store(args.path) as store:
        path = write_query_index(store, workers=args.workers)
        print(f"wrote {path}: {store.n_meters} columns x "
              f"{store.alphabet_size} symbol histogram "
              f"({path.stat().st_size} bytes)")
    return 0


def _span_accounting(root: dict) -> dict:
    """Sum the numeric work-accounting attributes across a span tree.

    A key is only counted at its *deepest* carriers: parent spans roll up
    their children's numbers (plan.run repeats the shard totals), so summing
    every level would double-count the same work.
    """
    keys = ("columns_decoded", "runs_read", "refined",
            "refine_rounds", "items", "kept")
    totals: dict = {}

    def walk(node: dict) -> set:
        carried = set()
        for child in node.get("children", ()):
            carried |= walk(child)
        attrs = node.get("attributes", {})
        for key in keys:
            value = attrs.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if key not in carried:
                    totals[key] = totals.get(key, 0) + value
                carried.add(key)
        return carried

    walk(root)
    return totals


def _print_trace(root: dict) -> None:
    from .obs import format_span_tree

    print(format_span_tree(root), file=sys.stderr)
    totals = _span_accounting(root)
    if totals:
        parts = ", ".join(f"{k}={totals[k]}" for k in sorted(totals))
        print(f"work accounting: {parts}", file=sys.stderr)


@contextmanager
def _trace_session(args: argparse.Namespace):
    """Run a query command with tracing on; print the trace on exit.

    Local queries record into the in-process ring buffer; remote queries
    propagate a fresh trace id via ``X-Repro-Trace-Id`` and fetch the
    matching server-side trace from ``/traces/recent`` afterwards.
    """
    if not getattr(args, "trace", False):
        yield
        return
    from .obs import new_trace_id, registry, tracer

    if getattr(args, "remote", ""):
        args._trace_id = new_trace_id()
        yield
        from .serve import ServeClient

        traces = ServeClient(args.remote).traces_recent(64)
        matched = [t for t in traces if t.get("trace_id") == args._trace_id]
        if not matched:
            print("trace: server returned no matching trace (is the server "
                  "running with tracing enabled?)", file=sys.stderr)
        for root in matched:
            _print_trace(root)
        return
    from .obs import diff_snapshots, recent_traces

    trace = tracer()
    was_enabled = trace.enabled
    trace.enabled = True
    trace.clear()  # one-shot CLI process: only this command's roots matter
    before = registry().snapshot()
    try:
        yield
    finally:
        trace.enabled = was_enabled
        for root in reversed(recent_traces(16)):  # oldest first
            _print_trace(root)

        delta = diff_snapshots(registry().snapshot(), before)
        counters = delta.get("counters", {})
        if counters:
            print("metrics delta:", file=sys.stderr)
            for key in sorted(counters):
                print(f"  {key} = {counters[key]}", file=sys.stderr)


def _cmd_query(args: argparse.Namespace) -> int:
    """Every ``repro query`` verb: flags → params → wire body → renderer.

    The one backend per run is a local engine, or with ``--remote`` the
    server; both yield the verb's wire body, so remote output equals local.
    """
    from .query import QueryEngine
    from .query.verbs import VERBS

    with _trace_session(args):
        if args.remote:
            from .serve import ServeClient

            client = ServeClient(
                args.remote, trace_id=getattr(args, "_trace_id", None)
            )
            verb, params = _query_params(args, None)
            body = client.query(args.path, verb, params)
        else:
            with QueryEngine.open(args.path) as engine:
                verb, params = _query_params(args, engine)
                body = VERBS[verb].answer(
                    engine, params, getattr(args, "workers", 1)
                )
        if body.get("degraded"):
            print("note: served DEGRADED (damaged segments quarantined; "
                  "results cover the healthy subset)", file=sys.stderr)
        _RENDERERS[verb](args, params, body)
    return 0


def _query_params(args: argparse.Namespace, engine):
    """The verb and its params: each field the command's route does not
    give is read from the flag named after it, or keeps its default."""
    from dataclasses import fields

    from .query.verbs import VERBS

    route = _QUERY_COMMANDS[args.query_command].route
    verb, given = route(args, engine) if route else (args.query_command, {})
    params = VERBS[verb].params
    for f in fields(params):
        if f.name not in given and getattr(args, f.name, None) is not None:
            given[f.name] = getattr(args, f.name)
    return verb, params(**given)


def _print_top(ids, values, n: int, column: str) -> None:
    """The ``n`` largest values, ties in column order (``Report.top``)."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(-values, kind="stable")[:n]
    rows = [{"meter": ids[i], column: float(values[i])} for i in order]
    print(render_table(rows, float_digits=4))


def _knn_flags(parser: argparse.ArgumentParser) -> None:
    from .query.verbs import KNNParams

    parser.add_argument("--query-id", type=str, default=None,
                        help="use this stored column's decoded values as the "
                             "query (local stores only)")
    parser.add_argument("--query-csv", type=str, default="",
                        help="comma-separated query values (one per window)")
    parser.add_argument("--k", type=int, default=KNNParams.k)
    parser.add_argument("--no-index", dest="use_index", action="store_false",
                        help="skip histogram pruning (decode every candidate)")
    parser.add_argument("--refine-chunk", type=int,
                        default=KNNParams.refine_chunk,
                        help="candidates unpacked per refine round")
    parser.add_argument("--include-self", action="store_true",
                        help="with --query-id: keep the query column itself "
                             "in the candidate set")
    parser.add_argument("--stats", action="store_true",
                        help="print the QueryStats work accounting "
                             "(candidates, refined/query, decoded fraction)")


def _knn_query(args: argparse.Namespace, engine):
    """``--query-id`` decodes a stored column, so it needs a local store."""
    import numpy as np

    from .errors import QueryError

    if args.query_id is None and not args.query_csv:
        raise QueryError("pass --query-id or --query-csv to choose the query")
    if engine is None and not args.query_csv:
        raise QueryError(
            "--remote needs --query-csv (the store lives on the server, "
            "so --query-id cannot be decoded locally)"
        )
    if engine is None or args.query_id is None:
        query = np.loadtxt(args.query_csv, delimiter=",", dtype=np.float64)
        return "knn", {"queries": query}
    query_id = _store_column_id(engine.store, args.query_id)
    return "knn", {
        "queries": engine.store.decode(meters=[query_id])[0],
        "exclude_ids": None if args.include_self else [query_id],
    }


def _render_knn(args: argparse.Namespace, params, body) -> None:
    from .query import KNNStats, QueryConfig

    many = len(body["ids"]) > 1  # multi-row --query-csv: label each query
    rows = [
        {**({"query": row} if many else {}), "rank": rank, "meter": meter,
         "distance": distance}
        for row, (meters, distances) in enumerate(
            zip(body["ids"], body["distances"]))
        for rank, (meter, distance) in enumerate(zip(meters, distances), 1)
    ]
    print(render_table(rows, float_digits=3))
    stats = KNNStats(**body["stats"])
    config = QueryConfig(k=params.k, use_index=params.use_index,
                         refine_chunk=params.refine_chunk, workers=args.workers)
    mode = "index-pruned" if stats.index_used else "full scan"
    print(f"{config.label()}: refined {stats.refined_per_query:.1f} of "
          f"{stats.n_candidates} candidates/query "
          f"({100.0 * stats.decoded_fraction:.1f}% decoded, {mode})")
    if args.stats:
        print("query stats:")
        print(f"  queries:            {stats.n_queries}")
        print(f"  candidates:         {stats.n_candidates}")
        print(f"  refined (total):    {stats.refined}")
        print(f"  refined/query:      {stats.refined_per_query:.2f}")
        print(f"  decoded fraction:   {stats.decoded_fraction:.3f}")
        print(f"  pruned fraction:    {stats.pruned_fraction:.3f}")
        print(f"  index used:         {stats.index_used}")


def _match_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pattern", type=str, required=True,
                        help="pattern tokens: letter/index with optional "
                             "{min}/{min,}/{min,max} run bounds, '*' for gaps")


def _render_match(args: argparse.Namespace, params, body) -> None:
    rows = []
    for meter_id, spans in body["spans"].items():
        first = ", ".join(f"[{a}, {b})" for a, b in spans[:3])
        if len(spans) > 3:
            first += ", ..."
        rows.append({"meter": meter_id, "matches": len(spans),
                     "windows": first})
    if rows:
        print(render_table(rows))
    print(f"pattern {params.pattern!r}: {body['total_matches']} matches in "
          f"{len(body['spans'])} of {body['columns_scanned']} scanned "
          f"columns ({body['columns_skipped']} skipped by index)")
    runs, windows = body["runs_scanned"], body["windows_total"]
    print(f"pushdown: scanned {runs} runs vs {windows} windows "
          f"({100.0 * (runs / windows if windows else 0.0):.1f}% of "
          f"expanded size)")


def _agg_flags(parser: argparse.ArgumentParser) -> None:
    from .query.verbs import PrivateAggParams

    parser.add_argument("--level", type=int, default=None,
                        help="duty-cycle threshold symbol (default: k/2)")
    parser.add_argument("--per-day", action="store_true",
                        help="add per-day peak levels (needs windows_per_day)")
    parser.add_argument("--k-anon", type=int, default=None, metavar="K",
                        help="release a pooled k-anonymous group aggregate "
                             "instead of per-meter rows (cells under K "
                             "windows suppressed; refuses groups under K "
                             "meters)")
    parser.add_argument("--noise", dest="epsilon", type=float, default=None,
                        metavar="EPS",
                        help="with --k-anon (or alone): add Laplace(1/EPS) "
                             "noise to the released counts")
    parser.add_argument("--seed", type=int, default=PrivateAggParams.seed,
                        help="noise seed (released aggregates are "
                             "deterministic per seed)")


def _agg_route(args: argparse.Namespace, engine):
    """``--k-anon`` or ``--noise`` asks for a k-anonymous release instead."""
    private = args.k_anon is not None or args.epsilon is not None
    return ("private_agg" if private else "agg"), {}


def _render_agg(args: argparse.Namespace, params, body) -> None:
    rows = []
    for i, meter in enumerate(body["ids"]):
        row = {
            "meter": meter,
            "windows": int(sum(body["symbol_counts"][i])),
            "runs": int(body["run_count"][i]),
            "mean_run": float(body["mean_run_length"][i]),
            "peak_level": int(body["peak_level"][i]),
            f"duty>={body['level']}": float(body["duty_cycle"][i]),
        }
        if "daily_peak" in body:
            row["max_daily_peak"] = int(max([0, *body["daily_peak"][i]]))
        rows.append(row)
    print(render_table(rows, float_digits=2))


def _render_private_agg(args: argparse.Namespace, params, body) -> None:
    epsilon = body["epsilon"]
    noise = f"Laplace(1/{epsilon:g})" if epsilon else "none"
    print(f"group of {body['n_meters']} meters "
          f"(k-anon >= {body['k_anon']}, noise: {noise})")
    rows = [
        {"symbol": symbol, "count": float(count), "suppressed": bool(cut)}
        for symbol, (count, cut) in enumerate(
            zip(body["symbol_counts"], body["suppressed"])
        )
    ]
    print(render_table(rows, float_digits=2))
    print(f"suppressed symbols: {sum(body['suppressed'])}  "
          f"duty>={body['level']}: {body['duty_cycle']:.2f}")
    profile = ", ".join(f"{v:.1f}" for v in body["band_profile"])
    print(f"band profile: [{profile}]")


def _anomaly_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--top", type=int, default=10,
                        help="rows printed (highest scores first)")


def _render_anomaly(args: argparse.Namespace, params, body) -> None:
    _print_top(body["ids"], body["scores"], args.top, "score")
    print(f"scored {len(body['ids'])} meters against the fleet transition "
          f"model ({int(sum(body['transitions']))} transitions counted)")


def _drift_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--baseline", type=str, default=None,
                        help="previous .rsymx snapshot (or its store path) to "
                             "diff against; default: current fleet mean "
                             "(local stores only)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows printed (largest shifts first)")
    parser.add_argument("--threshold", type=float, default=0.1,
                        help="TV distance above which a meter counts as "
                             "shifted")


def _render_drift(args: argparse.Namespace, params, body) -> None:
    distances = body["distances"]
    _print_top(body["ids"], distances, args.top, "tv_distance")
    shifted = sum(distance > args.threshold for distance in distances)
    print(f"{shifted} of {len(body['ids'])} meters shifted more than "
          f"{args.threshold:g} TV vs {body['reference']} "
          f"({body['columns_decoded']} columns decoded)")


class _QueryCommand(NamedTuple):
    """A ``repro query`` subcommand; its flags are named after the params
    fields they set (``--no-index`` sets ``use_index``)."""

    help: str
    flags: Callable[[argparse.ArgumentParser], None]
    #: ``(args, local engine or None) -> (verb, params no flag names)``;
    #: without one, the subcommand is its verb.
    route: Optional[Callable] = None


_QUERY_COMMANDS = {
    "knn": _QueryCommand("exact k-nearest-columns with lower-bound pruning",
                         _knn_flags, _knn_query),
    "match": _QueryCommand("run-level symbol pattern matching "
                           "(e.g. \"h{4,} * a\")", _match_flags),
    "agg": _QueryCommand("per-meter symbol statistics pushed down to the "
                         "store", _agg_flags, _agg_route),
    "anomaly": _QueryCommand("per-meter anomaly scores from symbol "
                             "transitions", _anomaly_flags),
    "drift": _QueryCommand("fleet drift report straight off .rsymx "
                           "histograms", _drift_flags),
}

#: Verb → renderer of its wire body; ``private_agg`` is ``agg --k-anon``.
_RENDERERS = {
    "knn": _render_knn, "match": _render_match, "agg": _render_agg,
    "private_agg": _render_private_agg, "anomaly": _render_anomaly,
    "drift": _render_drift,
}


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    """Pretty-print span trees from a JSONL trace sink (last N, -f follows)."""
    import json
    import time

    from .errors import ReproError
    from .obs import format_span_tree

    path = Path(args.path)
    if not path.exists():
        raise ReproError(f"no trace sink at {path}")

    def emit(line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            root = json.loads(line)
        except ValueError:
            print("obs tail: skipped an unparseable line", file=sys.stderr)
            return
        print(format_span_tree(root))

    with path.open("r", encoding="utf-8") as handle:
        lines = handle.readlines()
        for line in lines[-args.n:]:
            emit(line)
        if not args.follow:
            return 0
        try:
            while True:
                position = handle.tell()
                line = handle.readline()
                if not line or not line.endswith("\n"):
                    handle.seek(position)  # re-read half-written tails whole
                    time.sleep(args.interval)
                    continue
                emit(line)
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import StoreError
    from .serve import QueryServer, ServerConfig

    stores = {}
    for spec in args.stores:
        if "=" in spec:
            name, path = spec.split("=", 1)
        else:
            name, path = Path(spec).stem, spec
        if name in stores:
            raise StoreError(f"duplicate store name {name!r}; use name=path")
        stores[name] = path
    config = ServerConfig(
        rate=args.rate,
        burst=args.burst,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        workers=args.workers,
        tracing=not args.no_tracing,
        trace_sink=args.trace_sink or None,
    )
    server = QueryServer(stores, config, host=args.host, port=args.port)
    names = ", ".join(sorted(stores))
    print(f"serving {names} on {server.url} "
          f"(max {config.max_concurrent} concurrent, "
          f"queue {config.max_queue})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _cmd_export_arff(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    config = DayVectorConfig(
        encoding=args.encoding,
        aggregation_seconds=args.window,
        alphabet_size=args.alphabet,
        global_table=args.global_table,
    )
    vectors = build_day_vectors(dataset, config)
    path = write_arff(vectors, args.out, relation=config.label())
    print(f"wrote {len(vectors)} instances x {vectors.n_attributes} attributes to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbolic representation of smart meter data (EDBT 2013 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate and persist a dataset")
    _add_dataset_arguments(generate)
    generate.add_argument("--out", type=str, required=True, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    encode = subparsers.add_parser("encode", help="symbolise one house")
    _add_dataset_arguments(encode)
    encode.add_argument("--house", type=int, default=1)
    encode.add_argument("--alphabet", type=int, default=8)
    encode.add_argument("--method", type=str, default="median")
    encode.add_argument("--window", type=float, default=900.0)
    encode.add_argument("--all", action="store_true",
                        help="encode every house in one vectorized fleet call")
    encode.add_argument("--global-table", action="store_true",
                        help="with --all: one shared table instead of per-meter")
    encode.add_argument("--store", type=str, default="",
                        help="with --all: write a bit-packed .rsym symbol store "
                             "instead of printing per-house statistics")
    encode.add_argument("--rle", action="store_true",
                        help="with --store: run-length-encoded payload layout")
    encode.add_argument("--segment-days", type=int, default=0, metavar="N",
                        help="with --store: write a crash-safe segmented store "
                             "directory, one immutable segment per N days")
    encode.add_argument("--query-index", action="store_true",
                        help="with --store: also write the .rsymx sidecar "
                             "used by 'repro query knn' for pruning")
    _add_workers_argument(encode)
    encode.set_defaults(handler=_cmd_encode)

    classify = subparsers.add_parser("classify", help="household classification")
    _add_dataset_arguments(classify)
    classify.add_argument("--encoding", type=str, default="median")
    classify.add_argument("--alphabet", type=int, default=16)
    classify.add_argument("--window", type=float, default=3600.0)
    classify.add_argument("--classifier", type=str, default="naive_bayes")
    classify.add_argument("--folds", type=int, default=10)
    classify.add_argument("--global-table", action="store_true")
    classify.add_argument("--store", type=str, default="",
                          help="directory of day-vector .rsym stores: read this "
                               "configuration's vectors from it when present, "
                               "write them there otherwise")
    _add_workers_argument(classify)
    classify.set_defaults(handler=_cmd_classify)

    forecast = subparsers.add_parser("forecast", help="next-day hourly forecasting")
    _add_dataset_arguments(forecast)
    forecast.set_defaults(no_gaps=True)
    forecast.add_argument("--classifier", type=str, default="naive_bayes")
    forecast.add_argument("--alphabet", type=int, default=16)
    forecast.add_argument("--train-days", type=int, default=7)
    forecast.set_defaults(handler=_cmd_forecast)

    compression = subparsers.add_parser("compression", help="compression-ratio report")
    compression.add_argument("--alphabet", type=int, default=16)
    compression.add_argument("--window", type=float, default=900.0)
    compression.add_argument("--sampling", type=float, default=1.0)
    compression.add_argument("--store", type=str, default="",
                             help="an .rsym store whose measured bytes are "
                                  "printed next to the analytic model")
    _add_workers_argument(compression)
    compression.set_defaults(handler=_cmd_compression)

    store_info = subparsers.add_parser(
        "store-info", help="inspect a .rsym store or segmented store directory"
    )
    store_info.add_argument("path", type=str,
                            help="path to the .rsym file or segment directory")
    store_info.add_argument("--verify", action="store_true",
                            help="checksum-verify every column and report "
                                 "damage (exit 1 on failures)")
    store_info.set_defaults(handler=_cmd_store_info)

    store_group = subparsers.add_parser(
        "store", help="store maintenance (scrub, garbage collection)"
    )
    store_commands = store_group.add_subparsers(dest="store_command", required=True)
    scrub = store_commands.add_parser(
        "scrub", help="verify checksums, report or repair crash residue"
    )
    scrub.add_argument("path", type=str,
                       help="path to the .rsym file or segment directory")
    scrub.add_argument("--repair", action="store_true",
                       help="remove stale temps/orphans, quarantine corrupt "
                            "segments and commit a clean generation")
    scrub.add_argument("--keep", type=int, default=None, metavar="N",
                       help="with --repair: prune old manifest generations "
                            "beyond the newest N")
    scrub.set_defaults(handler=_cmd_store_scrub)

    obs = subparsers.add_parser(
        "obs", help="observability utilities (trace sink tailing)"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_tail = obs_commands.add_parser(
        "tail", help="pretty-print span trees from a JSONL trace sink"
    )
    obs_tail.add_argument("path", type=str,
                          help="trace sink file written by the tracer "
                               "(one JSON span tree per line)")
    obs_tail.add_argument("--n", type=int, default=8,
                          help="finished traces printed from the tail")
    obs_tail.add_argument("-f", "--follow", action="store_true",
                          help="keep the file open and print new traces as "
                               "they are appended")
    obs_tail.add_argument("--interval", type=float, default=0.25,
                          help="poll interval in seconds with --follow")
    obs_tail.set_defaults(handler=_cmd_obs_tail)

    serve = subparsers.add_parser(
        "serve", help="run the HTTP query server over one or more stores"
    )
    serve.add_argument("stores", type=str, nargs="+", metavar="NAME=PATH",
                       help="stores to export (bare PATH uses the file stem "
                            "as the name)")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7913)
    serve.add_argument("--rate", type=float, default=None, metavar="QPS",
                       help="token-bucket request rate (default: unlimited)")
    serve.add_argument("--burst", type=int, default=None,
                       help="token-bucket burst capacity (default: ~rate)")
    serve.add_argument("--max-concurrent", type=int, default=8,
                       help="requests executing at once")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="requests allowed to wait for a slot; beyond "
                            "this the server sheds with 503")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline (504 on expiry)")
    serve.add_argument("--no-tracing", action="store_true",
                       help="disable request tracing (/traces/recent will "
                            "be empty; removes even the tiny span overhead)")
    serve.add_argument("--trace-sink", type=str, default="", metavar="FILE",
                       help="append every finished request trace to FILE as "
                            "JSON lines (tail with 'repro obs tail FILE')")
    _add_workers_argument(serve)
    serve.set_defaults(handler=_cmd_serve)

    query = subparsers.add_parser(
        "query", help="similarity / pattern / aggregation queries over a store"
    )
    query_commands = query.add_subparsers(dest="query_command", required=True)

    query_index = query_commands.add_parser(
        "index", help="build the .rsymx pruning sidecar for a store"
    )
    query_index.add_argument("path", type=str, help="path to the .rsym file")
    _add_workers_argument(query_index)
    query_index.set_defaults(handler=_cmd_query_index)

    from .query.verbs import VERBS

    for name, command in _QUERY_COMMANDS.items():
        verb = query_commands.add_parser(name, help=command.help)
        verb.add_argument("path", type=str,
                          help="path to the .rsym file or segment directory")
        command.flags(verb)
        if VERBS[name].shards:
            _add_workers_argument(verb)
        verb.add_argument(
            "--remote", type=str, default="", metavar="URL",
            help="query a running 'repro serve' instance instead of a local "
                 "file; PATH is then the server-side store name",
        )
        verb.add_argument(
            "--trace", action="store_true",
            help="print the structured trace (span tree + work accounting) "
                 "for this query on stderr; with --remote the trace is "
                 "fetched from the server's /traces/recent by the propagated "
                 "trace id",
        )
        verb.set_defaults(handler=_cmd_query)

    export = subparsers.add_parser("export-arff", help="export day vectors as ARFF (Weka)")
    _add_dataset_arguments(export)
    export.add_argument("--encoding", type=str, default="median")
    export.add_argument("--alphabet", type=int, default=8)
    export.add_argument("--window", type=float, default=3600.0)
    export.add_argument("--global-table", action="store_true")
    export.add_argument("--out", type=str, required=True)
    export.set_defaults(handler=_cmd_export_arff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        # Pre-taxonomy errors keep exit code 1; serve/deadline errors carry
        # distinct codes clients script against (see repro.errors).
        return error.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
