"""``ScanPlan``: one sharding/merge driver for every query operator.

A plan is ``source -> pruning stages -> operator``:

* the :class:`~repro.query.ops.ColumnSource` names the store (file or
  segment directory) the plan reads;
* each stage narrows the operator's work list without touching payload
  bytes (today: :class:`~repro.query.ops.SymbolCountPrune` off the
  ``.rsymx`` histograms);
* the terminal :class:`~repro.query.ops.Operator` does the real work per
  shard and folds shard results in task order.

``run(workers=N)`` is the **only** sharding loop in ``repro.query`` — kNN,
pattern matching, aggregation, index builds and the monitoring operators
all execute through it.  The driver preserves the determinism contract the
bespoke loops had: ``workers=1`` (or a single-item work list) runs the
operator in-process against the already-open source — literally the serial
path — while ``workers != 1`` splits the work list contiguously with
``np.array_split``, runs each shard on a thread over the caller's own open
store (the snapshot the caller holds, never a newer generation), and merges
in task order.  Because every operator's shard results are exact (integers,
or per-item-independent floats), plan results are bit-identical for every
worker count.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import DeadlineExceeded
from ..obs import registry, tracer
from .ops import ColumnSource, Operator

__all__ = ["Deadline", "ScanPlan", "active_deadline", "check_deadline"]

#: Items executed per serial chunk when a deadline is active: small enough
#: that a stalled scan notices expiry within a chunk's work, large enough
#: that chunk bookkeeping stays invisible next to the per-item work.
_DEADLINE_CHUNK = 32

#: The deadline governing the current in-process plan execution, if any.
#: A context variable (not a plain global) so concurrent server threads
#: each see only their own request's deadline.
_ACTIVE_DEADLINE: contextvars.ContextVar[Optional["Deadline"]] = (
    contextvars.ContextVar("repro_active_deadline", default=None)
)


class Deadline:
    """A monotonic expiry an in-flight query checks cooperatively.

    Created once per request (``Deadline(seconds)``); the plan driver and
    the kNN refine loop call :meth:`check` at their natural yield points —
    between item chunks and refine rounds — so expiry surfaces as a
    :class:`~repro.errors.DeadlineExceeded` carrying partial-work
    accounting instead of a request that silently overstays.  ``clock`` is
    injectable for deterministic tests.
    """

    __slots__ = ("budget", "_clock", "started_at", "expires_at")

    def __init__(self, seconds: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.budget = float(seconds)
        self._clock = clock
        self.started_at = clock()
        self.expires_at = self.started_at + self.budget

    @classmethod
    def from_ms(cls, milliseconds: float,
                clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(float(milliseconds) / 1000.0, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def remaining(self) -> float:
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def check(self, completed: Optional[int] = None,
              total: Optional[int] = None) -> None:
        """Raise :class:`DeadlineExceeded` (with accounting) once expired."""
        if not self.expired():
            return
        done = "" if completed is None or total is None else (
            f" after {completed} of {total} items"
        )
        raise DeadlineExceeded(
            f"deadline of {self.budget * 1000.0:.0f} ms exceeded{done} "
            f"({self.elapsed() * 1000.0:.0f} ms elapsed)",
            budget_ms=self.budget * 1000.0,
            elapsed_ms=self.elapsed() * 1000.0,
            completed=completed,
            total=total,
        )


def active_deadline() -> Optional[Deadline]:
    """The deadline of the plan currently executing in this context."""
    return _ACTIVE_DEADLINE.get()


def check_deadline(completed: Optional[int] = None,
                   total: Optional[int] = None) -> None:
    """Cooperative cancellation point for operator inner loops.

    Free when no deadline is active; inner loops (the kNN refine rounds)
    call this so even a single-item plan notices expiry mid-item.
    """
    deadline = _ACTIVE_DEADLINE.get()
    if deadline is not None:
        deadline.check(completed, total)


class ScanPlan:
    """One composed query: source, pruning stages, terminal operator."""

    def __init__(
        self,
        source: ColumnSource,
        operator: Operator,
        items: Optional[Sequence] = None,
        stages: Sequence = (),
    ) -> None:
        self.source = source
        self.operator = operator
        self.items = items
        self.stages = tuple(stages)

    def explain(self) -> str:
        """One-line description of the composed pipeline."""
        parts = [type(self.source).__name__]
        parts += [type(stage).__name__ for stage in self.stages]
        parts.append(type(self.operator).__name__)
        return " -> ".join(parts)

    def run(self, workers: int = 1, deadline: Optional[Deadline] = None):
        """Execute the plan; the one sharding/merge loop in ``repro.query``.

        ``deadline`` bounds the execution cooperatively: the serial path
        runs the work list in chunks and checks expiry between them (and
        operators with inner loops — kNN refinement — check between
        rounds via :func:`check_deadline`), raising
        :class:`~repro.errors.DeadlineExceeded` with partial-work
        accounting.  Without a deadline the execution path is literally
        unchanged, and results are bit-identical either way: chunked shard
        results merge exactly like worker shards do.  Sharded runs check
        the deadline before sharding and after the join; each shard thread
        sees the same deadline, so operators with inner loops check it
        mid-shard too.
        """
        trace = tracer()
        metrics = registry()
        if not trace.enabled and not metrics.enabled:
            return self._execute(workers, deadline)
        op_name = type(self.operator).__name__
        stats = self.source.stats
        decoded_before = stats.columns_decoded
        runs_before = stats.runs_read
        started = time.perf_counter()
        try:
            with trace.span(
                "plan.run", operator=op_name, workers=workers,
                store=str(self.source.store.path),
            ) as plan_span:
                if deadline is not None:
                    plan_span.set_attribute(
                        "deadline_budget_ms", round(deadline.budget * 1e3, 3))
                result = self._execute(workers, deadline, plan_span)
                if deadline is not None:
                    plan_span.set_attribute(
                        "deadline_remaining_ms",
                        round(deadline.remaining() * 1e3, 3))
                plan_span.set_attributes(
                    columns_decoded=int(stats.columns_decoded - decoded_before),
                    runs_read=int(stats.runs_read - runs_before),
                )
        except DeadlineExceeded:
            metrics.counter(
                "plan.deadline_expired_total",
                "Plan executions cancelled by their deadline",
                op=op_name,
            ).inc()
            raise
        finally:
            metrics.histogram(
                "plan.run_seconds", "ScanPlan.run wall time", op=op_name,
            ).observe(time.perf_counter() - started)
        metrics.counter(
            "plan.runs_total", "Completed ScanPlan executions", op=op_name,
        ).inc()
        return result

    def _execute(self, workers: int, deadline: Optional[Deadline],
                 plan_span=None):
        """The original (pre-telemetry) execution path, bit-for-bit."""
        items = (
            self.operator.items(self.source)
            if self.items is None else list(self.items)
        )
        kept: List = list(items)
        for stage in self.stages:
            kept = list(stage.apply(self.source, kept))
        if plan_span is not None:
            plan_span.set_attributes(items=len(items), kept=len(kept))
        if deadline is None:
            if workers == 1 or len(kept) <= 1:
                parts = [self.operator.run_shard(self.source, kept)]
            else:
                parts = self._run_sharded(kept, workers)
            return self.operator.merge(parts, self.source, items, kept)
        token = _ACTIVE_DEADLINE.set(deadline)
        try:
            deadline.check(0, len(kept))
            if workers == 1 or len(kept) <= 1:
                parts = self._run_serial_chunked(kept, deadline)
            else:
                parts = self._run_sharded(kept, workers)
                deadline.check(len(kept), len(kept))
            return self.operator.merge(parts, self.source, items, kept)
        finally:
            _ACTIVE_DEADLINE.reset(token)

    def _run_serial_chunked(self, kept: List, deadline: Deadline) -> List:
        """Serial execution in chunks with a deadline check between them.

        Every operator's ``merge`` already folds arbitrary contiguous
        shards in task order (the worker path depends on it), so chunked
        results are bit-identical to the one-shot call.
        """
        if len(kept) <= 1:
            return [self.operator.run_shard(self.source, kept)]
        parts: List = []
        for start in range(0, len(kept), _DEADLINE_CHUNK):
            deadline.check(start, len(kept))
            parts.append(self.operator.run_shard(
                self.source, kept[start: start + _DEADLINE_CHUNK]
            ))
        return parts

    def _run_sharded(self, kept: List, workers: int) -> List:
        """Run contiguous shards of ``kept`` on threads; results in task order.

        Each shard reads the caller's open store through its own
        :class:`ColumnSource` (per-shard read accounting over the caller's
        index and cached table, :meth:`ColumnSource.for_shard`) and
        runs in a copy of the caller's context, so the request's deadline
        and trace id reach it.  Its ``plan.shard`` span finishes as a collected root and
        hangs under the plan span in task order, whatever order the threads
        finish in.  A shard's exception re-raises here, first in task order.
        """
        from ..parallel.executor import resolve_workers

        bounds = np.array_split(
            np.arange(len(kept)), min(resolve_workers(workers), len(kept))
        )
        shards = [[kept[int(i)] for i in idx] for idx in bounds]
        parent = tracer().current_span()
        with ThreadPoolExecutor(len(shards)) as pool:
            futures = [
                pool.submit(
                    contextvars.copy_context().run, self._run_shard,
                    shard, shard_items, parent,
                )
                for shard, shard_items in enumerate(shards)
            ]
            done = [future.result() for future in futures]
        if parent is not None:
            for _, roots in done:
                parent.children.extend(roots)
        return [result for result, _ in done]

    def _run_shard(self, shard: int, items: Sequence, parent) -> tuple:
        """``(shard result, collected root spans)`` of one shard thread."""
        source = self.source.for_shard()
        trace = tracer()
        with trace.detached(), trace.collect() as roots:
            with trace.span(
                "plan.shard",
                _trace_id=parent.trace_id if parent is not None else None,
                _parent_id=parent.span_id if parent is not None else None,
                shard=shard, items=len(items),
            ) as shard_span:
                result = self.operator.run_shard(source, items)
                shard_span.set_attributes(
                    columns_decoded=int(source.stats.columns_decoded),
                    runs_read=int(source.stats.runs_read),
                )
        return result, roots

    def __repr__(self) -> str:
        return f"ScanPlan({self.explain()})"
