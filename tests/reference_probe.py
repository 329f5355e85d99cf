"""The sort/searchsorted probe kernel, kept as the oracle of :class:`KeyRuns`.

Before :class:`~repro.storage.index.KeyRuns` gained its direct-address
paths, both the base-table index and the hash join's build side answered
every probe key with two ``searchsorted`` binary searches and expanded the
located runs with ``repeat``/``cumsum``.  That kernel is kept here verbatim
(the build side additionally takes the index's optional ``row_ids``) so
``tests/test_probe_kernel.py`` can assert that every path of the
production kernel returns the same ``(positions, rows)`` arrays in the same
order.
"""

from __future__ import annotations

import numpy as np

from repro.storage import index as index_module
from repro.storage.index import JoinOverflowError, KeyRuns


class ProbeSide:
    """The build side of an equi-join, sorted once and shared read-only."""

    __slots__ = ("order", "sorted_keys")

    def __init__(self, right_keys: np.ndarray,
                 row_ids: np.ndarray | None = None):
        self.order = np.argsort(right_keys, kind="stable")
        self.sorted_keys = right_keys[self.order]
        if row_ids is not None:
            self.order = np.asarray(row_ids, dtype=np.int64)[self.order]

    def __len__(self) -> int:
        return len(self.sorted_keys)


def probe_range(side: ProbeSide, left_keys: np.ndarray,
                start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Matches of ``left_keys[start:stop]`` against a shared build side."""
    keys = left_keys[start:stop] if (start, stop) != (0, len(left_keys)) \
        else left_keys
    lo = np.searchsorted(side.sorted_keys, keys, side="left")
    hi = np.searchsorted(side.sorted_keys, keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if total > index_module.MAX_JOIN_RESULT_ROWS:
        raise JoinOverflowError(
            f"equi-join would produce {total} rows "
            f"(cap {index_module.MAX_JOIN_RESULT_ROWS}); aborting the query")

    left_idx = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    right_sorted_pos = np.repeat(lo, counts) + within
    right_idx = side.order[right_sorted_pos]
    return left_idx, right_idx


def reference_probe(runs: KeyRuns, keys: np.ndarray,
                    base: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Drop-in replacement for :meth:`KeyRuns.probe` using the old kernel.

    ``runs`` already holds the stable sort the old kernel made, so its
    sorted keys and rows stand in for a :class:`ProbeSide` directly.
    """
    side = ProbeSide.__new__(ProbeSide)
    side.sorted_keys, side.order = runs.sorted_keys, runs.rows
    positions, rows = probe_range(side, keys, 0, len(keys))
    return positions + base, rows
