"""Regenerate the serving parity ledger (``ledger.json``).

Run from the repository root::

    PYTHONPATH=src python tests/golden/_generate_ledger.py

The ledger pins what a change to the serving path must leave alone:

* **wire bodies** — ``protocol.dumps`` of ``VERBS[name].answer`` for every
  query verb, with default params and with each optional wire field moved,
  over one small seeded segmented store with its ``.rsymx``.  The params
  travel through ``to_body`` and ``from_body``, as a request would.
* **the append path** — through an in-process server, a keyed append, the
  same key again, a second key and an append with no key: each response
  body, plus the SHA-256 of every file left in the store directory.  That
  store is built from explicit symbols and a fixed
  ``LookupTable.from_breakpoints`` table, so no fitted float enters its
  bytes.

Bodies are canonical JSON with ``repr`` floats and compare exactly.
Regenerate only when a wire body or a stored byte is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core.lookup import LookupTable
from repro.query import QueryEngine, write_query_index
from repro.query.verbs import VERBS
from repro.serve import QueryServer, RetryPolicy, ServeClient, protocol
from repro.store import append_segment, create_segmented_store, write_segmented_fleet

LEDGER_PATH = Path(__file__).with_name("ledger.json")

N_METERS, DAYS, WINDOWS_PER_DAY = 12, 4, 24
APPEND_METERS, APPEND_ALPHABET = 6, 8
BREAKPOINTS = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]


def _wire_cases(queries: np.ndarray) -> List[Tuple[str, str, Dict]]:
    """``(case, verb, params keywords)``: each verb's defaults, then one
    case per optional wire field moved off its default."""
    return [
        ("knn", "knn", {}),
        ("knn/k", "knn", {"k": 3}),
        ("knn/use_index", "knn", {"use_index": False}),
        ("knn/refine_chunk", "knn", {"refine_chunk": 2}),
        ("knn/exclude_ids", "knn", {"exclude_ids": [0, 5]}),
        ("match", "match", {}),
        ("match/meters", "match", {"meters": [7, 2, 9]}),
        ("agg", "agg", {}),
        ("agg/per_day", "agg", {"per_day": True}),
        ("agg/meters", "agg", {"meters": [3, 1, 2]}),
        ("agg/level", "agg", {"level": 2}),
        ("anomaly", "anomaly", {}),
        ("anomaly/meters", "anomaly", {"meters": [4, 0, 11]}),
        ("drift", "drift", {}),
        ("drift/meters", "drift", {"meters": [6, 8]}),
        ("private_agg", "private_agg", {}),
        ("private_agg/k_anon", "private_agg", {"k_anon": 3}),
        ("private_agg/seed", "private_agg", {"seed": 7, "epsilon": 0.5}),
        ("private_agg/meters", "private_agg",
         {"meters": [0, 1, 2, 3, 4, 5, 6]}),
        ("private_agg/level", "private_agg", {"level": 2}),
        ("private_agg/epsilon", "private_agg", {"epsilon": 0.5}),
    ]


_REQUIRED = {"knn": "queries", "match": "pattern"}


def wire_ledger(workdir: Path) -> Dict[str, str]:
    """Case name -> ``protocol.dumps`` of the verb's answer, as text."""
    rng = np.random.default_rng(23)
    windows = DAYS * WINDOWS_PER_DAY
    levels = np.exp(rng.normal(3.0, 0.8, size=(N_METERS, 1)))
    shape = 1.0 + 0.5 * np.sin(np.linspace(0, 2 * DAYS * np.pi, windows))
    values = levels * shape[None, :] * np.exp(
        rng.normal(0.0, 0.2, size=(N_METERS, windows))
    )
    path = workdir / "wire.rsyms"
    store = write_segmented_fleet(
        path, values, alphabet_size=8, segment_windows=WINDOWS_PER_DAY,
        sampling_interval=3600.0,
    )
    write_query_index(store)
    store.close()
    queries = values[[1, 6, 10]] * (1.0 + rng.normal(0.0, 0.05, size=(3, windows)))
    required = {"queries": queries, "pattern": "b{2,} * a"}
    bodies: Dict[str, str] = {}
    with QueryEngine.open(path) as engine:
        for case, name, keywords in _wire_cases(queries):
            verb = VERBS[name]
            args = [required[_REQUIRED[name]]] if name in _REQUIRED else []
            sent = json.loads(json.dumps(verb.params(*args, **keywords).to_body()))
            params = verb.params.from_body(sent)
            bodies[case] = protocol.dumps(verb.answer(engine, params)).decode()
    return bodies


def _hour(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, APPEND_ALPHABET, size=(APPEND_METERS, 4))


def append_ledger(workdir: Path) -> Dict:
    """Response bodies of four HTTP appends and the files they leave."""
    directory = workdir / "append.rsyms"
    table = LookupTable.from_breakpoints(BREAKPOINTS)
    symbols = np.random.default_rng(5).integers(
        0, APPEND_ALPHABET, size=(APPEND_METERS, 48)
    )
    create_segmented_store(
        directory, alphabet_size=APPEND_ALPHABET,
        ids=[f"m{i}" for i in range(APPEND_METERS)],
    ).close()
    append_segment(directory, symbols[:, :24], tables=table)
    append_segment(directory, symbols[:, 24:], tables=table)
    with QueryServer({"fleet": directory}) as server:
        client = ServeClient(
            server.url, timeout=30.0, policy=RetryPolicy(max_attempts=1)
        )
        responses = [
            client.append("fleet", _hour(1), idempotency_key="k1"),
            client.append("fleet", _hour(1), idempotency_key="k1"),
            client.append("fleet", _hour(2), idempotency_key="k2"),
            # ServeClient.append always sends a key; the keyless body is
            # what a hand-written request sends.
            client._call("POST", "/stores/fleet/append",
                         {"indices": _hour(3).tolist()}),
        ]
    files = {
        path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }
    return {
        "responses": [protocol.dumps(body).decode() for body in responses],
        "files": files,
    }


def build_ledger() -> Dict:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        return {"wire": wire_ledger(workdir), "append": append_ledger(workdir)}


def main() -> None:
    ledger = build_ledger()
    # Bodies are stored parsed, for reading; json round-trips repr floats,
    # so re-dumping one gives back the exact text.
    stored = {
        "wire": {case: json.loads(text) for case, text in ledger["wire"].items()},
        "append": {
            "responses": [json.loads(text) for text in ledger["append"]["responses"]],
            "files": ledger["append"]["files"],
        },
    }
    LEDGER_PATH.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"wrote {LEDGER_PATH}")


if __name__ == "__main__":
    main()
