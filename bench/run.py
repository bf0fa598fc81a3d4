#!/usr/bin/env python3
"""End-to-end serving benchmark: seeded fleet -> store -> HTTP server -> checks.

Run from the repository root::

    python3 bench/run.py --workload knn-point --seed 1 --seconds 15 --trace 0

One run generates a seeded fleet, writes it with ``write_segmented_fleet``
plus its ``.rsymx`` index, starts ``python -m repro serve`` in its own
process and drives it with ``ServeClient`` in a closed loop for
``--seconds``.  Served answers are then checked against the in-process
``QueryEngine``.  ``--trace 1`` runs the same traffic untraced and traced
and reports the per-layer split instead of the end-to-end metrics (see
bench/README.md).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a request or a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

#: With two or more CPUs the load generator keeps the first and the server
#: gets the second, so the two do not compete and neither BLAS thread pool
#: spins against the other process; unpinned, knn-point measured a quarter
#: slower with twice the run-to-run spread.  Set before NumPy loads:
#: OpenBLAS sizes its pool from the affinity it starts with.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
if len(CPUS) >= 2:
    os.sched_setaffinity(0, {CPUS[0]})

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.pipeline import FleetEncoder  # noqa: E402
from repro.query import QueryConfig, QueryEngine, write_query_index  # noqa: E402
from repro.serve import RetryPolicy, ServeClient, protocol  # noqa: E402
from repro.store import (  # noqa: E402
    SegmentedStore,
    append_segment,
    write_segmented_fleet,
)

STORE = "fleet"
ALPHABET = 16
WINDOWS_PER_DAY = 96            # 15-minute windows
WINDOWS_PER_HOUR = 4
SAMPLING_INTERVAL = 900.0
SPARE_HOURS = 240               # readings kept back for ingest-cycle appends
SETUP_REPS = 3                  # setup_s is the median of this many set-ups
CHECKED_OPS = 20                # timed ops replayed in-process and compared
PROBE_REPS = 3
K = 5
QUERY_POOL = 512                # perturbed stored days the kNN ops cycle over
MATCH_PATTERN = f"{ALPHABET - 4}{{4,}} * 2"
SCAN_VERBS = ("agg", "match", "anomaly", "drift", "private_agg")
CLIENT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    clients: int    # closed-loop client threads (one connection each)
    warmup: int     # ops sent before timing starts; they count in no metric


WORKLOADS = {
    "knn-point": Workload(clients=2, warmup=20),
    # One client: two clients encoding 1.8 MB bodies contend in the generator.
    "knn-batch": Workload(clients=1, warmup=6),
    # One client: with two, the mixed-verb p50 depends on which verbs overlap.
    "fleet-scan": Workload(clients=1, warmup=10),
    "ingest-cycle": Workload(clients=1, warmup=1),
}

#: An op is the unit a latency sample times: a list of (ServeClient method,
#: keyword arguments) calls sent back to back.  ``Ops`` maps an op index to
#: its calls, or to ``None`` once the workload has no more ops.
Call = Tuple[str, Dict]
Ops = Callable[[int], Optional[List[Call]]]


# -- inputs ---------------------------------------------------------------------


def make_fleet(rng: np.random.Generator, meters: int, windows: int) -> np.ndarray:
    """Readings ``(meters, windows)``: lognormal level x phased daily profile x noise."""
    t = np.arange(windows)
    level = np.exp(rng.normal(5.0, 1.0, size=(meters, 1)))
    phase = rng.uniform(0.0, 2 * np.pi, size=(meters, 1))
    profile = 1.0 + 0.6 * np.sin(2 * np.pi * t / WINDOWS_PER_DAY + phase)
    noise = np.exp(rng.normal(0.0, 0.1, size=(meters, windows)))
    return level * profile * noise


def knn_ops(rng: np.random.Generator, readings: np.ndarray, batch: int) -> Ops:
    """kNN requests of ``batch`` vectors; vectors are perturbed stored days."""
    picks = rng.integers(0, readings.shape[0], size=QUERY_POOL)
    vectors = readings[picks] * (1.0 + rng.normal(0.0, 0.02, (QUERY_POOL, readings.shape[1])))
    pool = vectors.reshape(-1, batch, readings.shape[1])
    return lambda i: [("knn", {"queries": pool[i % len(pool)], "k": K})]


def scan_calls(rng: np.random.Generator, meters: int) -> Dict[str, Callable[[], Dict]]:
    """Argument makers for the fleet-scan verbs (seeded quarter-fleet subsets)."""
    def subset() -> List[int]:
        return np.sort(rng.choice(meters, meters // 4, replace=False)).tolist()

    return {
        "agg": lambda: {"meters": subset(), "per_day": True},
        "match": lambda: {"pattern": MATCH_PATTERN, "meters": subset()},
        "anomaly": lambda: {"meters": subset()},
        "drift": lambda: {},
        "private_agg": lambda: {},
    }


def scan_ops(rng: np.random.Generator, meters: int) -> Ops:
    """Blocks of the five verbs, each block a seeded permutation."""
    makers = scan_calls(rng, meters)
    pool = [
        [(str(verb), makers[str(verb)]())]
        for _ in range(60) for verb in rng.permutation(SCAN_VERBS)
    ]
    return lambda i: pool[i % len(pool)]


def ingest_ops(hours: np.ndarray, last_hour: int) -> Ops:
    """Append hour ``i`` (pre-encoded symbols) then read the whole fleet."""
    def op(i: int) -> Optional[List[Call]]:
        if i >= last_hour:
            return None
        block = hours[:, i * WINDOWS_PER_HOUR: (i + 1) * WINDOWS_PER_HOUR]
        return [
            ("append", {"indices": block, "reason": "ingest",
                        "idempotency_key": f"hour-{i}"}),
            ("agg", {}),
        ]
    return op


class _BodyOnly(ServeClient):
    """Returns the JSON body ``ServeClient`` would send instead of sending it."""

    def _call(self, method, path, body=None):
        return body


def request_body(verb: str, kwargs: Dict) -> Dict:
    return getattr(_BodyOnly("http://unused"), verb)(STORE, **kwargs)


# -- the server process ---------------------------------------------------------


class Server:
    """One ``python -m repro serve`` process over the store; ``close()`` stops it."""

    def __init__(self, store: Path, log: Path, sink: Optional[Path] = None) -> None:
        command = [sys.executable, "-m", "repro", "serve", f"{STORE}={store}",
                   "--port", "0"]
        command += ["--trace-sink", str(sink)] if sink else ["--no-tracing"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(log, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._log, env=env, cwd=store.parent, text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, {CPUS[1]}))
            if len(CPUS) >= 2 else None,
        )
        try:
            line = self._first_line(timeout=30.0)
            found = re.search(r" on (http://\S+)", line)
            if not found:
                raise RuntimeError(f"server did not start (log: {log}): {line!r}")
        except BaseException:
            self.close()
            raise
        self.url = found.group(1)
        self.boot_s = time.perf_counter() - started

    def _first_line(self, timeout: float) -> str:
        lines: List[str] = []
        reader = threading.Thread(
            target=lambda: lines.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        return lines[0] if lines else ""

    def client(self) -> ServeClient:
        # One attempt per request: every failure counts once, none is retried away.
        return ServeClient(self.url, timeout=CLIENT_TIMEOUT_S,
                           policy=RetryPolicy(max_attempts=1))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- set-up ---------------------------------------------------------------------


def set_up(readings: np.ndarray, work: Path, servers: List[Server]) -> Tuple[Path, List[Dict]]:
    """``SETUP_REPS`` timed set-ups: readings -> store + index -> server -> first answer.

    Each set-up uses a fresh directory; the server of the last one keeps
    running (``servers[-1]``) and serves the workload.
    """
    samples = []
    for rep in range(SETUP_REPS):
        if servers:
            servers.pop().close()
        store_dir = work / f"store-{rep}.rsyms"
        started = time.perf_counter()
        store = write_segmented_fleet(
            store_dir, readings, alphabet_size=ALPHABET, method="median",
            segment_windows=WINDOWS_PER_DAY, sampling_interval=SAMPLING_INTERVAL,
        )
        written = time.perf_counter()
        try:
            index_path = write_query_index(store)
        finally:
            store.close()
        indexed = time.perf_counter()
        servers.append(Server(store_dir, work / "server.log"))
        booted = time.perf_counter()
        servers[-1].client().agg(STORE)
        answered = time.perf_counter()
        samples.append({
            "setup_s": answered - started,
            "write_s": written - started,
            "index_ms": (indexed - written) * 1e3,
            "index_bytes": index_path.stat().st_size,
            "boot_s": servers[-1].boot_s,
            "first_query_ms": (answered - booted) * 1e3,
        })
        if rep:
            shutil.rmtree(work / f"store-{rep - 1}.rsyms")
    return store_dir, samples


# -- the load generator ---------------------------------------------------------


@dataclass
class Op:
    index: int
    started: float = 0.0
    seconds: float = 0.0
    # (verb, kwargs, trace id, seconds, response or None)
    calls: List[tuple] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class Phase:
    ops: List[Op]
    wall_s: float
    next_index: int

    @property
    def ok(self) -> List[Op]:
        return [op for op in self.ops if op.error is None]

    @property
    def failed(self) -> int:
        return len(self.ops) - len(self.ok)

    def latencies_ms(self) -> List[float]:
        return [op.seconds * 1e3 for op in self.ok]


def drive(server: Server, ops: Ops, first: int, clients: int,
          seconds: Optional[float] = None, count: Optional[int] = None,
          traced: bool = False, keep: int = 0) -> Phase:
    """Closed loop: each client thread sends its next op when the last returns.

    Issues ops ``first, first + 1, ...`` until ``seconds`` pass, ``count`` ops
    were issued or ``ops`` runs out.  Traced calls pin a fresh trace id each.
    Responses of the first ``keep`` ops are kept for the checks.  An op still
    outstanding at three times the expected run time is recorded as failed,
    so the benchmark never hangs on the server.
    """
    lock = threading.Lock()
    state = {"next": first, "abort": False}
    finished: List[Op] = []
    in_flight: Dict[int, Op] = {}
    start = time.perf_counter()
    stop_at = start + seconds if seconds is not None else float("inf")
    last = first + count if count is not None else None

    def client_loop() -> None:
        client = server.client()
        while not state["abort"] and time.perf_counter() < stop_at:
            with lock:
                i = state["next"]
                calls = ops(i) if last is None or i < last else None
                if calls is None:
                    return
                state["next"] = i + 1
                op = in_flight[i] = Op(i)
            op.started = time.perf_counter()
            try:
                for verb, kwargs in calls:
                    client.trace_id = uuid.uuid4().hex if traced else None
                    sent = time.perf_counter()
                    response = getattr(client, verb)(STORE, **kwargs)
                    op.calls.append((verb, kwargs, client.trace_id,
                                     time.perf_counter() - sent,
                                     response if i < first + keep else None))
            except Exception as exc:  # noqa: BLE001 — every failure is counted
                op.error = f"{type(exc).__name__}: {exc}"
            op.seconds = time.perf_counter() - op.started
            with lock:
                if in_flight.pop(i, None) is not None:
                    finished.append(op)

    threads = [threading.Thread(target=client_loop, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    deadline = start + 3 * max(seconds or 0.0, 10.0)
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    with lock:
        state["abort"] = True
        for op in in_flight.values():
            op.error = "aborted: outstanding at 3x the expected run time"
            finished.append(op)
        in_flight.clear()
        ends = [op.started + op.seconds for op in finished if op.error is None]
        wall = (max(ends) if ends else time.perf_counter()) - start
        return Phase(sorted(finished, key=lambda op: op.index), wall, state["next"])


# -- in-process replay (the correctness reference) ------------------------------


#: The engine call the server makes for each verb, given the request body and
#: its parsed ``queries`` (knn) or ``meters`` (the rest).
ENGINE = {
    "knn": lambda e, b, q: e.knn(q, QueryConfig(
        k=b["k"], use_index=b["use_index"], refine_chunk=b["refine_chunk"])),
    "agg": lambda e, b, m: e.aggregate(meters=m, per_day=b["per_day"]),
    "match": lambda e, b, m: e.match(b["pattern"], meters=m),
    "anomaly": lambda e, b, m: e.anomaly(meters=m),
    "drift": lambda e, b, m: e.drift(meters=m),
    "private_agg": lambda e, b, m: e.private_aggregate(
        meters=m, k_anon=b["k_anon"], seed=b["seed"]),
}
BODY = {
    "knn": protocol.knn_body, "agg": protocol.agg_body,
    "match": protocol.match_body, "anomaly": protocol.anomaly_body,
    "drift": protocol.drift_body, "private_agg": protocol.private_agg_body,
}


#: Response fields left out of the comparison: ``degraded`` is checked on its
#: own, and a drift report's ``columns_decoded`` counts every decode of the
#: engine's column source since it opened, so it depends on request history.
UNCOMPARED = {"degraded", "columns_decoded"}


def open_engine(store_dir: Path) -> QueryEngine:
    """``QueryEngine.open``, quiet about the stale sidecar that appends leave."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="ignoring stale query index")
        return QueryEngine.open(store_dir)


def replay(engine: QueryEngine, verb: str, body: Dict):
    """What the server computes for ``body``: (result, response body, engine s, encode s)."""
    parsed = protocol.parse_queries(body) if verb == "knn" else protocol.parse_meters(body)
    started = time.perf_counter()
    result = ENGINE[verb](engine, body, parsed)
    computed = time.perf_counter()
    response = BODY[verb](result)
    protocol.dumps(response)
    return result, response, computed - started, time.perf_counter() - computed


def same_answer(served: Dict, expected: Dict) -> bool:
    """Not degraded, and byte-equal JSON apart from the fields in ``UNCOMPARED``."""
    def comparable(body: Dict) -> bytes:
        return protocol.dumps({k: v for k, v in body.items() if k not in UNCOMPARED})
    return not served.get("degraded") and comparable(served) == comparable(expected)


def decode_seconds(verb: str, raw: bytes) -> float:
    """Server-side request decode of the exact bytes the client sent."""
    started = time.perf_counter()
    body = protocol.parse_body(raw)
    if verb == "knn":
        protocol.parse_queries(body)
    elif verb == "append":
        np.asarray(body["indices"], dtype=np.int64)
    else:
        protocol.parse_meters(body)
    return time.perf_counter() - started


@dataclass
class Checks:
    checked: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    split: Dict[str, List[float]] = field(default_factory=lambda: {
        "decode_ms": [], "engine_ms": [], "encode_ms": [],
        "request_bytes": [], "response_bytes": [],
    })

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def record(self, ops: List[Op]) -> None:
        """Per op: request decode time and bytes on the wire, both directions."""
        for op in ops:
            raws = [(verb, json.dumps(request_body(verb, kwargs)).encode("utf-8"))
                    for verb, kwargs, *_ in op.calls]
            self.split["decode_ms"].append(
                sum(decode_seconds(verb, raw) for verb, raw in raws) * 1e3)
            self.split["request_bytes"].append(sum(len(raw) for _, raw in raws))
            self.split["response_bytes"].append(
                sum(len(protocol.dumps(call[4])) for call in op.calls))


def check_queries(store_dir: Path, kept: List[Op]) -> Checks:
    """Each kept knn / fleet-scan answer must equal the in-process one, byte for byte."""
    checks = Checks()
    checks.record(kept)
    with open_engine(store_dir) as engine:
        calls = [call for op in kept for call in op.calls]
        if calls:
            replay(engine, calls[0][0], request_body(calls[0][0], calls[0][1]))  # warm
        for op in kept:
            engine_s = encode_s = 0.0
            for verb, kwargs, _, _, response in op.calls:
                _, expected, spent, encoded = replay(engine, verb, request_body(verb, kwargs))
                engine_s, encode_s = engine_s + spent, encode_s + encoded
                checks.expect(same_answer(response, expected),
                              f"op {op.index}: served {verb} differs from in-process "
                              f"QueryEngine")
            checks.split["engine_ms"].append(engine_s * 1e3)
            checks.split["encode_ms"].append(encode_s * 1e3)
    return checks


def check_ingest(store_dir: Path, days: int, hours: np.ndarray, cycles: int,
                 kept: List[Op]) -> Checks:
    """Generation, symbols and keys after ``cycles`` appends; the last read vs in-process."""
    checks = Checks()
    checks.record(kept[-1:])
    start = days * WINDOWS_PER_DAY
    with SegmentedStore.open(store_dir) as store:
        checks.expect(store.generation == 1 + days + cycles,
                      f"generation {store.generation} != 1 + {days} + {cycles}")
        reasons = [record.reason for record in store.records[days:]]
        checks.expect(len(reasons) == cycles == len(set(reasons)),
                      f"{len(reasons)} appended segments ({len(set(reasons))} "
                      f"distinct) for {cycles} appends")
        stored = store.matrix(window_range=(start, start + cycles * WINDOWS_PER_HOUR))
        checks.expect(
            np.array_equal(stored, hours[:, :cycles * WINDOWS_PER_HOUR]),
            "appended windows do not decode to the sent symbols",
        )
    if kept:
        verb, kwargs, _, _, response = kept[-1].calls[-1]
        with open_engine(store_dir) as engine:
            _, expected, spent, encoded = replay(engine, verb, request_body(verb, kwargs))
        checks.expect(same_answer(response, expected),
                      "last fresh read differs from in-process QueryEngine")
        checks.split["engine_ms"].append(spent * 1e3)
        checks.split["encode_ms"].append(encoded * 1e3)
    return checks


# -- per-layer probes (traced pass) ---------------------------------------------


def median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3


def timed(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def engine_probes(store_dir: Path, probes: Dict[str, Dict]) -> Dict[str, float]:
    """Warm in-process time of one request per verb on the served store."""
    out = {}
    with open_engine(store_dir) as engine:
        for verb, kwargs in probes.items():
            body = request_body(verb, kwargs)
            result = replay(engine, verb, body)[0]
            out[f"query.{verb}_ms"] = statistics.median(
                replay(engine, verb, body)[2] for _ in range(PROBE_REPS)
            ) * 1e3
            if verb == "knn":
                out["query.decoded_fraction"] = result.stats.decoded_fraction
            if verb == "match":
                out["query.match_scan_fraction"] = result.scan_fraction
    return out


def store_probes(store_dir: Path, hours: np.ndarray, first_hour: int) -> Dict[str, float]:
    """In-process append of one hour, reopen, and the first aggregate after it."""
    appends, opens, reads = [], [], []
    for hour in range(first_hour, first_hour + PROBE_REPS):
        block = hours[:, hour * WINDOWS_PER_HOUR: (hour + 1) * WINDOWS_PER_HOUR]
        appends.append(timed(lambda: append_segment(store_dir, block, reason="probe")))
        started = time.perf_counter()
        engine = open_engine(store_dir)
        opens.append(time.perf_counter() - started)
        with engine:
            reads.append(timed(engine.aggregate))
    return {
        "store.append_ms": median_ms(appends),
        "store.open_ms": median_ms(opens),
        "query.fresh_agg_ms": median_ms(reads),
    }


def encode_probe(readings: np.ndarray) -> float:
    """``FleetEncoder`` fit + encode of the set-up readings (median seconds)."""
    return statistics.median(
        timed(lambda: FleetEncoder(alphabet_size=ALPHABET, method="median")
              .fit(readings).encode(readings))
        for _ in range(SETUP_REPS)
    )


def read_spans(sink: Path) -> Dict[str, Dict]:
    """Root spans the server wrote, by trace id."""
    if not sink.exists():
        return {}
    with open(sink, encoding="utf-8") as handle:
        roots = [json.loads(line) for line in handle if line.strip()]
    return {root["trace_id"]: root for root in roots}


def span_split(ops: List[Op], spans: Dict[str, Dict]) -> Dict[str, List[float]]:
    """Per op: client time, handler span time, its self time, and the rest."""
    split: Dict[str, List[float]] = {
        "client_ms": [], "handler_ms": [], "handler_self_ms": [], "outside_handler_ms": [],
    }
    for op in ops:
        roots = [spans.get(call[2]) for call in op.calls]
        if op.error is not None or None in roots:
            continue
        handler = sum(root["duration_ns"] for root in roots) / 1e6
        children = sum(c["duration_ns"] for root in roots for c in root["children"]) / 1e6
        client = op.seconds * 1e3
        split["client_ms"].append(client)
        split["handler_ms"].append(handler)
        split["handler_self_ms"].append(handler - children)
        split["outside_handler_ms"].append(client - handler)
    return split


def counters(server: Server) -> Dict[str, float]:
    return dict(server.client().metrics()["registry"]["counters"])


# -- reporting ------------------------------------------------------------------


def percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else float("nan")


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    q = max(p for p in (50.0, 90.0, 99.0, 99.9) if len(samples) * (100 - p) / 100 >= 10
            or p == 50.0)
    return q, percentile(samples, q)


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def end_to_end(phase: Phase, setups: List[Dict], store_bits: float) -> Dict:
    latencies = phase.latencies_ms()
    return {
        "ops_per_s": metric(len(latencies) / phase.wall_s, "op/s"),
        "p50_ms": metric(percentile(latencies, 50), "ms"),
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "bits_per_meter_day": metric(store_bits, "bit/meter-day"),
    }


def per_layer(setups: List[Dict], encode_s: float, payload_bits: float,
              split: Dict[str, List[float]], checks: Checks, probes: Dict[str, float],
              deltas: Dict[str, float], n_ops: int, untraced_p50: float) -> Dict:
    def setup(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    def p50(samples: List[float]) -> float:
        return percentile(samples, 50)

    per_op = max(n_ops, 1)
    out = {
        "serve.client_ms": metric(p50(split["client_ms"]), "ms"),
        "serve.handler_ms": metric(p50(split["handler_ms"]), "ms"),
        "serve.handler_self_ms": metric(p50(split["handler_self_ms"]), "ms"),
        "serve.outside_handler_ms": metric(p50(split["outside_handler_ms"]), "ms"),
        "serve.boot_s": metric(setup("boot_s"), "s"),
        "serve.first_query_ms": metric(setup("first_query_ms"), "ms"),
        "protocol.decode_ms": metric(p50(checks.split["decode_ms"]), "ms"),
        "protocol.encode_ms": metric(p50(checks.split["encode_ms"]), "ms"),
        "protocol.request_bytes": metric(np.mean(checks.split["request_bytes"]), "B"),
        "protocol.response_bytes": metric(np.mean(checks.split["response_bytes"]), "B"),
        "query.engine_ms": metric(p50(checks.split["engine_ms"]), "ms"),
    }
    for name in ("query.knn_ms", "query.agg_ms", "query.match_ms", "query.anomaly_ms",
                 "query.drift_ms", "query.private_agg_ms", "query.fresh_agg_ms",
                 "store.open_ms", "store.append_ms"):
        out[name] = metric(probes[name], "ms")
    out["query.decoded_fraction"] = metric(probes["query.decoded_fraction"], "ratio")
    out["query.match_scan_fraction"] = metric(probes["query.match_scan_fraction"], "ratio")
    out["store.write_s"] = metric(setup("write_s") - encode_s, "s")
    out["store.payload_bits_per_meter_day"] = metric(payload_bits, "bit/meter-day")
    for counter, name, unit in (
        ("store.columns_decoded_total", "store.columns_decoded_per_op", "count/op"),
        ("store.runs_read_total", "store.runs_read_per_op", "count/op"),
        ("store.bytes_decoded_total", "store.bytes_decoded_per_op", "B/op"),
        ("store.cache_hits_total", "store.cache_hits_per_op", "count/op"),
    ):
        out[name] = metric(deltas.get(counter, 0) / per_op, unit)
    out["index.build_ms"] = metric(setup("index_ms"), "ms")
    out["index.bytes"] = metric(setup("index_bytes"), "B")
    out["pipeline.encode_s"] = metric(encode_s, "s")
    out["obs.tracing_overhead"] = metric(p50(split["client_ms"]) / untraced_p50 - 1, "ratio")
    return out


def print_table(title: str, metrics: Dict, means: Dict[str, float]) -> None:
    print(title)
    for name, entry in metrics.items():
        mean = f"  (mean {means[name]:.4g})" if name in means else ""
        print(f"  {name:36s} {entry['value']:>14.6g} {entry['unit']}{mean}")


def print_end_to_end(metrics: Dict, measured: Phase) -> None:
    print_table("end to end", metrics, {})
    latencies = measured.latencies_ms()
    q, value = tail(latencies)
    print(f"  tail p{q:g} = {value:.3f} ms over {len(latencies)} ops")
    ok = measured.ok
    if ok and len(ok[0].calls) > 1:  # ingest-cycle: each call of the op on its own
        for position, call in enumerate(ok[0].calls):
            per_call = [op.calls[position][3] * 1e3 for op in ok]
            print(f"  {call[0]} p50 = {percentile(per_call, 50):.3f} ms")


def print_layers(metrics: Dict, split: Dict[str, List[float]],
                 replayed: Dict[str, List[float]]) -> None:
    # Means add up where medians do not: the first share line splits the mean
    # client time exactly; the second relates each p50 to the client p50.
    means = {f"serve.{key}": float(np.mean(v)) for key, v in split.items() if v}
    means.update({f"{'query' if key == 'engine_ms' else 'protocol'}.{key}": float(np.mean(v))
                  for key, v in replayed.items() if v})
    print_table("per layer (p50; mean per op in brackets)", metrics, means)
    client = means.get("serve.client_ms")
    if client:
        children = means["serve.handler_ms"] - means["serve.handler_self_ms"]
        print(f"share of the mean client time per op: outside the handler "
              f"{means['serve.outside_handler_ms'] / client:.1%}, handler self "
              f"{means['serve.handler_self_ms'] / client:.1%}, handler child spans "
              f"{children / client:.1%}")
        p50 = metrics["serve.client_ms"]["value"]
        print("share of the client p50: " + ", ".join(
            f"{name} {metrics[name]['value'] / p50:.1%}"
            for name in ("serve.outside_handler_ms", "serve.handler_self_ms",
                         "query.engine_ms", "query.knn_ms")))


def fingerprint() -> Dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        found = re.search(r"model name\s*:\s*(.*)", cpuinfo.read_text())
        model = found.group(1).strip() if found else ""
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__}


# -- the run --------------------------------------------------------------------


def store_bits(store_dir: Path, cells: int) -> Tuple[float, float]:
    """(all bytes in the store directory, packed payload bytes) x 8 / meter-days."""
    on_disk = sum(p.stat().st_size for p in store_dir.rglob("*") if p.is_file())
    with SegmentedStore.open(store_dir) as store:
        payload = store.payload_nbytes
    return on_disk * 8 / cells, payload * 8 / cells


def run(args: argparse.Namespace, work: Path, servers: List[Server]) -> Dict:
    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    windows = args.days * WINDOWS_PER_DAY
    fleet = make_fleet(rng, args.meters, windows + SPARE_HOURS * WINDOWS_PER_HOUR)
    readings = fleet[:, :windows]

    store_dir, setups = set_up(readings, work, servers)
    bits, payload_bits = store_bits(store_dir, args.meters * args.days)
    # Later hours, encoded with the store's table: ingest-cycle appends them
    # and the traced pass's store probes append the last few.
    with SegmentedStore.open(store_dir) as store:
        hours = store.shared_table.indices_for_values(fleet[:, windows:])
    probe_hour = SPARE_HOURS - PROBE_REPS

    if args.workload == "ingest-cycle":
        ops = ingest_ops(hours, probe_hour)
    elif args.workload == "fleet-scan":
        ops = scan_ops(rng, args.meters)
    else:
        ops = knn_ops(rng, readings, 32 if args.workload == "knn-batch" else 1)
    keep = SPARE_HOURS if args.workload == "ingest-cycle" else CHECKED_OPS

    probes: Dict[str, float] = {}
    if args.trace:
        makers = scan_calls(np.random.default_rng(args.seed + 1), args.meters)
        probe_calls = {"knn": knn_ops(rng, readings, 1)(0)[0][1]}
        probe_calls.update({verb: makers[verb]() for verb in SCAN_VERBS})
        probes.update(engine_probes(store_dir, probe_calls))

    seconds = args.seconds / 2 if args.trace else args.seconds
    warm = drive(servers[-1], ops, 0, workload.clients, count=workload.warmup)
    untraced = drive(servers[-1], ops, warm.next_index, workload.clients,
                     seconds=seconds, keep=keep)
    phases = [warm, untraced]
    sink = work / "spans.jsonl"
    deltas: Dict[str, float] = {}
    if args.trace:
        servers.pop().close()
        servers.append(Server(store_dir, work / "server.log", sink=sink))
        phases.append(drive(servers[-1], ops, untraced.next_index, workload.clients,
                            count=workload.warmup))
        before = counters(servers[-1])
        phases.append(drive(servers[-1], ops, phases[-1].next_index, workload.clients,
                            seconds=seconds, traced=True, keep=keep))
        after = counters(servers[-1])
        deltas = {k: v - before.get(k, 0) for k, v in after.items()}
    servers.pop().close()
    measured = phases[-1]

    kept = [op for op in measured.ops if op.error is None and op.calls[-1][4] is not None]
    if args.workload == "ingest-cycle":
        checks = check_ingest(store_dir, args.days, hours, measured.next_index, kept)
    else:
        checks = check_queries(store_dir, kept)
    checks.notes += [f"op {op.index}: {op.error}" for phase in phases for op in phase.ops
                     if op.error is not None]

    print(f"{args.workload}  seed {args.seed}  {args.meters} meters x {args.days} days  "
          f"{len(measured.ok)} ops in {measured.wall_s:.2f} s  trace {args.trace}")
    if args.trace:
        probes.update(store_probes(store_dir, hours, probe_hour))
        split = span_split(measured.ops, read_spans(sink))
        metrics = per_layer(
            setups, encode_probe(readings), payload_bits, split, checks, probes,
            deltas, len(measured.ok), percentile(untraced.latencies_ms(), 50),
        )
        print_layers(metrics, split, checks.split)
    else:
        metrics = end_to_end(measured, setups, bits)
        print_end_to_end(metrics, measured)
    for note in checks.notes[:20]:
        print(f"  FAILED: {note}")
    return {
        "correct": checks.failed == 0,
        "attempted": sum(len(phase.ops) for phase in phases) + checks.checked,
        "failed": sum(phase.failed for phase in phases) + checks.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed phase (split in two halves with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead of end-to-end metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run's result, with a machine fingerprint, "
                             "as one JSON line (input of bench/compare.py)")
    parser.add_argument("--meters", type=int, default=1024)
    parser.add_argument("--days", type=int, default=30)
    args = parser.parse_args(argv)
    if Path(repro.__file__).resolve().parents[1] != SRC:
        parser.error(f"repro was imported from {repro.__file__}, not from {SRC}")

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    servers: List[Server] = []
    try:
        result = run(args, work, servers)
    finally:
        for server in servers:
            server.close()
        shutil.rmtree(work, ignore_errors=True)
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "fingerprint": fingerprint(), **result}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
