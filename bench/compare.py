#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.jsonl B.jsonl [--json OUT]

Each file holds the JSON lines ``bench/run.py --out FILE`` appends, one per
run.  For every workload and metric of ``BENCHMARK.json`` the table gives
each set's median and quartiles (``statistics.quantiles(values, n=4)``),
each set's spread (quartile distance over the median) and how much worse
the second set's median is than the first's: "agree" within the metric's
bound, "better" or "WORSE" beyond it.  Per-layer metrics have no bound and
are listed for reading only.  With one file, only the spreads are checked.
Exits 1 when a spread exceeds its bound or the second set is WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summary(values: List[float]) -> Optional[Dict]:
    if not values:
        return None
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def summarize(records: List[Dict], metrics: List[Dict]) -> Dict[str, Dict[str, Dict]]:
    """workload -> metric -> summary of that metric's values over the runs."""
    out: Dict[str, Dict[str, Dict]] = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        per_metric = {}
        for spec in metrics:
            values = [r["metrics"][spec["name"]]["value"] for r in runs
                      if spec["name"] in r["metrics"]]
            if values:
                per_metric[spec["name"]] = summary(values)
        out[workload] = per_metric
    return out


def worse_by(spec: Dict, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (other - base) / abs(base)
    return change if spec["better"] == "lower" else -change


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=Path, nargs="+", help="one or two JSON-lines files")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the summaries and verdicts to this file")
    args = parser.parse_args(argv)
    if len(args.runs) > 2:
        parser.error("give one or two files of runs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = benchmark["end_to_end"] + benchmark["per_layer"]
    sets = [load(path) for path in args.runs]
    sums = [summarize(records, specs) for records in sets]

    bad = 0
    verdicts: Dict[str, Dict[str, str]] = {}
    header = "  ".join(f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}" for _ in sums)
    for workload in sorted(set().union(*sums)):
        print(f"\n{workload}")
        print(f"  {'metric':34s} {header}  verdict (second set worse by)")
        for spec in specs:
            rows = [s.get(workload, {}).get(spec["name"]) for s in sums]
            if not any(rows):
                continue
            bound = spec.get("bound")
            cells, notes = [], []
            for row in rows:
                if row is None:
                    cells.append(" " * 43)
                    continue
                cells.append(f"{row['median']:11.5g} {row['q1']:11.5g} "
                             f"{row['q3']:11.5g} {row['spread']:7.2%}")
                if bound is not None and spec["name"] != "setup_s" and row["spread"] > bound:
                    notes.append("spread over bound")
            if bound is not None and len(rows) == 2 and all(rows):
                worse = worse_by(spec, rows[0]["median"], rows[1]["median"])
                agreement = ("agree" if abs(worse) <= bound
                             else "better" if worse < 0 else "WORSE")
                notes.append(f"{worse:+.2%} {agreement}")
                bad += agreement == "WORSE"
            bad += sum(note == "spread over bound" for note in notes)
            verdict = ", ".join(notes) if bound is not None else "(no bound)"
            verdicts.setdefault(workload, {})[spec["name"]] = verdict
            print(f"  {spec['name']:34s} {'  '.join(cells)}  {verdict}")

    if args.json is not None:
        fingerprints = [records[0].get("fingerprint") for records in sets if records]
        args.json.write_text(json.dumps({
            "fingerprint": fingerprints[0] if fingerprints else None,
            "runs": {str(path): {"seeds": sorted({r["seed"] for r in records}),
                                 "seconds": sorted({r["seconds"] for r in records})}
                     for path, records in zip(args.runs, sets)},
            "sets": {str(path): s for path, s in zip(args.runs, sums)},
            "verdicts": verdicts,
        }, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
