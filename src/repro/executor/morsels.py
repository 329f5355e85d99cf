"""Morsel-driven intra-query parallelism.

One query is decomposed into *morsels* -- contiguous row ranges of
bounded size -- that a shared :class:`MorselScheduler` thread pool
evaluates concurrently while the coordinating (operator) thread merges
the partial results **in morsel order**.  Two operators fan out this way:

* **Scan** -- each zone-map-surviving block run is split into morsels;
  every morsel evaluates the (fused or naive) filter conjunction over
  its slice and returns the surviving row ids, which the coordinator
  concatenates in range order.  Since the sequential scan evaluates the
  same ranges in the same order, the merged selection vector is
  bit-identical.
* **HashJoin probe** -- the build side is sorted once into a shared
  read-only :class:`~repro.storage.index.KeyRuns`; each morsel probes
  a contiguous slice of the probe keys and emits matches with *global*
  probe indices, so concatenating the per-morsel pairs in slice order
  reproduces the whole-input join exactly.

Threads never mutate shared execution state: every morsel accumulates
its kernel counters into a private :class:`MorselCounters` and the
coordinator folds them into the :class:`~repro.executor.operators.ExecContext`
after the fan-out completes (numpy kernels release the GIL, which is
where the parallel speedup comes from).  ``workers=1`` never creates a
pool and runs every task inline, so it is byte-identical to -- and
exactly as fast as -- the sequential path.

Cancellation is cooperative, like the engine's query timeouts: the
scheduler checks the deadline between dispatch and each merge step and
unwinds with :class:`MorselCancelled`; already-running morsels finish
(they are bounded by the morsel size, so nothing is ever torn) and
pending ones are cancelled, leaving the pool immediately reusable.

This module deliberately imports nothing from the operator/executor
layer (they import *it*), so :class:`MorselCancelled` subclasses
``RuntimeError`` and the re-optimization drivers list it alongside
``ExecutionError`` in their abort handlers.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

#: Default rows per morsel.  Large enough that numpy kernel time dwarfs
#: the ~50 us/task pool dispatch overhead, small enough that a handful of
#: morsels exist even at benchmark scale (a 4096-row storage block is far
#: too fine-grained to dispatch individually).
DEFAULT_MORSEL_ROWS = 131_072

T = TypeVar("T")


class MorselCancelled(RuntimeError):
    """The query deadline fired between morsel waves; the fan-out aborted."""


@dataclass
class MorselCounters:
    """Private per-morsel sink for the fused-kernel execution counters.

    Duck-typed stand-in for the ``ctx`` argument of
    :meth:`~repro.executor.kernels.PredicateCompiler.evaluate_range`:
    worker threads accumulate here, and only the coordinating thread
    folds the totals into the shared ``ExecContext`` after the fan-out
    -- so no counter is ever incremented from two threads.
    """

    fused_rows_touched: int = 0
    semijoin_pruned_rows: int = 0

    def merge_into(self, ctx) -> None:
        ctx.fused_rows_touched += self.fused_rows_touched
        ctx.semijoin_pruned_rows += self.semijoin_pruned_rows


class MorselScheduler:
    """A reusable worker pool executing ordered batches of morsel tasks.

    One scheduler serves many queries (and, under the serving layer, many
    concurrent queries): ``run_ordered`` is thread-safe and stateless
    across calls.  The underlying ``ThreadPoolExecutor`` is created
    lazily on the first parallel batch, so a ``workers=1`` scheduler (or
    one that only ever sees single-task batches) never starts a thread.
    """

    def __init__(self, workers: int, morsel_rows: int = DEFAULT_MORSEL_ROWS):
        if workers < 1:
            raise ValueError(f"need >= 1 morsel worker, got {workers}")
        if morsel_rows < 1:
            raise ValueError(f"need >= 1 row per morsel, got {morsel_rows}")
        self.workers = int(workers)
        self.morsel_rows = int(morsel_rows)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Work decomposition
    # ------------------------------------------------------------------
    def split_ranges(self, ranges: Sequence[tuple[int, int]]
                     ) -> list[tuple[int, int]]:
        """Split ``[start, stop)`` ranges into ordered morsel-sized pieces.

        Range order and intra-range order are both preserved, so a merge
        that concatenates per-piece results reproduces the sequential
        evaluation order exactly.  Empty ranges vanish.
        """
        pieces: list[tuple[int, int]] = []
        for start, stop in ranges:
            cursor = start
            while cursor < stop:
                upper = min(cursor + self.morsel_rows, stop)
                pieces.append((cursor, upper))
                cursor = upper
        return pieces

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_ordered(self, tasks: Sequence[Callable[[], T]],
                    deadline: float | None = None) -> list[T]:
        """Run every task, returning their results in task order.

        With one worker (or at most one task) everything runs inline on
        the calling thread.  Otherwise tasks are dispatched to the pool
        and collected in order; if ``deadline`` (``time.perf_counter``
        seconds) passes before the batch completes, pending tasks are
        cancelled, running ones are awaited, and :class:`MorselCancelled`
        is raised -- the pool survives and stays reusable.
        """
        tasks = list(tasks)
        self._check_deadline(deadline)
        if self.workers == 1 or len(tasks) <= 1:
            results = []
            for task in tasks:
                self._check_deadline(deadline)
                results.append(task())
            return results

        pool = self._ensure_pool()
        futures = [pool.submit(task) for task in tasks]
        results: list[T] = []
        try:
            for future in futures:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0.0:
                        raise MorselCancelled(
                            "query deadline passed during morsel fan-out")
                try:
                    results.append(future.result(timeout=remaining))
                except FutureTimeout:
                    raise MorselCancelled(
                        "query deadline passed during morsel fan-out") from None
        except BaseException:
            # Leave no work behind: drop what has not started, wait out
            # what has (morsels are bounded, so this is a short, clean
            # unwind), then let the pool serve the next query.
            for future in futures:
                future.cancel()
            wait_futures(futures)
            raise
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("MorselScheduler is shut down")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="morsel")
            return self._pool

    def shutdown(self) -> None:
        """Join the pool threads (idempotent; the scheduler is dead after)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "MorselScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @staticmethod
    def _check_deadline(deadline: float | None) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise MorselCancelled(
                "query deadline passed during morsel fan-out")
