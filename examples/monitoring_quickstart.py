"""Fleet monitoring quickstart: anomaly + drift + private aggregates.

Run with ``python examples/monitoring_quickstart.py``.

A utility's monitoring loop never wants to decode the fleet: it wants to
know *which meters look wrong*, *whose behaviour shifted since last week*,
and *what it may publish* — all straight off the symbolic store.  This
example builds a segmented ``.rsyms`` store (the crash-safe ingestion
format), lets two meters misbehave, and runs the three store-native
monitoring operators of ``repro.query``:

1. ``anomaly`` scores every meter's symbol transitions against the pooled
   fleet model, counted off adjacent symbol pairs of the dense store (an
   RLE store reads its runs instead) — the flickering meter tops the list;
2. ``drift`` diffs each meter's symbol histogram against a ``.rsymx``
   snapshot taken before the level shift, touching **zero** payload bytes;
3. ``private_aggregate`` releases a k-anonymous, Laplace-noised group
   aggregate — and refuses outright when the group is too small to hide in.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.query import QueryEngine, write_query_index
from repro.store import append_segment, open_store, write_segmented_fleet

N_METERS = 60
WINDOWS_PER_DAY = 96             # 15-minute windows
ALPHABET = 8


def synth_week(rng: np.random.Generator, levels: np.ndarray) -> np.ndarray:
    """One calm week: everyone follows the same day shape, scaled per home."""
    t = np.arange(7 * WINDOWS_PER_DAY)
    daily = t % WINDOWS_PER_DAY
    shape = 0.6 + 0.5 * np.exp(-0.5 * ((daily - 72) / 8.0) ** 2)
    noise = 1.0 + 0.05 * rng.standard_normal((N_METERS, t.size))
    return np.abs(levels * shape[None, :] * noise)


def main() -> None:
    rng = np.random.default_rng(23)
    levels = np.exp(rng.normal(5.5, 0.8, size=(N_METERS, 1)))
    week = synth_week(rng, levels)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "fleet.rsyms"
        store = write_segmented_fleet(
            directory, week, alphabet_size=ALPHABET, window=1,
            sampling_interval=900.0, segment_windows=WINDOWS_PER_DAY,
        )
        # Snapshot this week's index: next week's drift baseline.
        baseline = Path(tmp) / "week1.rsymx"
        write_query_index(store, path=baseline)

        # Week 2 arrives as one more appended segment.  Meter 7 starts
        # flickering between extremes; meter 19's level shifts up for good.
        week2 = synth_week(rng, levels)
        week2[7] = np.where(
            np.arange(week2.shape[1]) % 2 == 0, week2[7] * 0.05, week2[7] * 6.0
        )
        week2[19] *= 4.0
        table = store.shared_table
        symbols = np.stack([
            table.indices_for_values(week2[m]) for m in range(N_METERS)
        ])
        append_segment(directory, symbols, tables=table, reason="week-2")
        store.close()

        with open_store(directory) as reopened:
            write_query_index(reopened)  # refresh the in-store sidecar

        with QueryEngine.open(directory) as engine:
            print(f"store: {engine!r}\n")

            report = engine.anomaly(workers=2)
            print("anomaly: top meters by transition surprise")
            for meter, score in report.top(5):
                flag = "  <-- flickering" if meter == 7 else ""
                print(f"  meter {meter:3d}  score {score:6.3f}{flag}")

            drift = engine.drift(baseline=baseline)
            print(f"\ndrift vs week-1 snapshot "
                  f"({drift.columns_decoded} columns decoded):")
            for meter, distance in drift.top(5):
                flag = "  <-- shifted" if meter in (7, 19) else ""
                print(f"  meter {meter:3d}  TV {distance:5.3f}{flag}")
            print(f"  shifted past 0.15 TV: {drift.shifted(0.15)}")

            released = engine.private_aggregate(k_anon=5, epsilon=1.0, seed=1)
            print(f"\npublishable aggregate over {released.n_meters} meters "
                  f"(k>={released.k_anon}, epsilon={released.epsilon}):")
            for row in released.rows():
                tag = "suppressed" if row["suppressed"] else ""
                print(f"  symbol {row['symbol']}  count {row['count']:9.1f}  {tag}")

            try:
                engine.private_aggregate(meters=list(range(3)), k_anon=5)
            except Exception as exc:
                print(f"\nsmall group refused, as it must be:\n  {exc}")


if __name__ == "__main__":
    main()
