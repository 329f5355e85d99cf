"""Key runs: the engine's one equality-probe kernel, and the sorted index.

:class:`KeyRuns` stable-sorts a key column together with the permutation
back to row ids, so the rows of every key form one contiguous *run*.  A
batch of probe keys is answered by locating each key's run and expanding
the runs into ``(probe_position, row_id)`` pairs.  How a run is located
depends on the keys the structure was built from:

* **Direct map** -- unique integer keys whose span ``hi - lo + 1`` is at
  most ``2·n + 64`` (every suite's dense primary keys) get a key -> row-id
  table: one gather per probe key and no expansion.
* **Dense offsets** -- dense integer keys with duplicates get a run-start
  table indexed by ``key - lo``: two gathers per probe key, then the
  expansion.
* **Fallback** -- non-integer (float, object, bool) or sparse keys locate
  their runs with two ``searchsorted`` calls, the vectorized analogue of
  repeated B+tree descents.  So do probe keys whose common type with the
  index keys is not an integer type (``int64`` against ``uint64``).

Probe keys are compared against ``[lo, hi]`` before ``lo`` is subtracted,
so extreme ``int64`` / ``uint64`` keys cannot wrap into range.  Every path
returns the same pairs in the same order as the sort/searchsorted kernel,
and every path enforces :data:`MAX_JOIN_RESULT_ROWS`.

:class:`SortedIndex` is the stand-in for the B+tree indexes the paper
builds on every primary key (and optionally every foreign key) column of
the JOB / TPC-H / DSB schemas; the executor's hash join
(:mod:`repro.executor.joins`) builds the same structure over its build
side.
"""

from __future__ import annotations

import numpy as np

#: Hard cap on the number of matches a single equi-join or index probe may
#: materialize.  Joins beyond this are the Python-engine analogue of the
#: paper's 1000 s query timeout: the run is aborted and reported as timed out.
MAX_JOIN_RESULT_ROWS = 40_000_000

#: Keys get a direct-address table when their span is at most
#: ``_DENSE_SPAN_FACTOR * n + _DENSE_SPAN_SLACK``, which bounds the table
#: at about twice the length of the sorted keys themselves.
_DENSE_SPAN_FACTOR = 2
_DENSE_SPAN_SLACK = 64


class JoinOverflowError(RuntimeError):
    """Raised when an equi-join would materialize more rows than the cap."""


def check_result_size(total: int) -> None:
    """Raise :class:`JoinOverflowError` if ``total`` matches exceed the cap."""
    if total > MAX_JOIN_RESULT_ROWS:
        raise JoinOverflowError(
            f"equi-join would produce {total} rows "
            f"(cap {MAX_JOIN_RESULT_ROWS}); aborting the query")


def _offsets(keys: np.ndarray, lo, wide: type) -> np.ndarray:
    """``keys - lo`` as ``int64``, computed in the integer type ``wide``.

    Exact for the keys that lie in ``[lo, hi]`` of a dense table (their
    difference is below the span); callers discard the rest.
    """
    diff = keys.astype(wide, copy=False) - wide(lo)
    return diff.astype(np.int64, copy=False)


def _wide_type(dtype: np.dtype) -> type:
    return np.uint64 if dtype.kind == "u" else np.int64


class KeyRuns:
    """A key column sorted once into runs, probed with batches of keys.

    ``row_ids`` optionally maps positions of ``keys`` to the row ids the
    probe returns; by default the row id is the position itself.  The
    arrays are never written after construction, so morsel worker threads
    share one instance freely.
    """

    __slots__ = ("sorted_keys", "rows", "_lo", "_hi", "_direct", "_starts")

    def __init__(self, keys: np.ndarray, row_ids: np.ndarray | None = None):
        order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[order]
        self.rows = (order.astype(np.int64, copy=False) if row_ids is None
                     else np.asarray(row_ids, dtype=np.int64)[order])
        self._lo = self._hi = None
        self._direct = self._starts = None
        n = len(keys)
        if n == 0 or keys.dtype.kind not in "iu":
            return
        lo, hi = self.sorted_keys[0], self.sorted_keys[-1]
        span = int(hi) - int(lo) + 1
        if span > _DENSE_SPAN_FACTOR * n + _DENSE_SPAN_SLACK:
            return
        self._lo, self._hi = lo, hi
        wide = _wide_type(keys.dtype)
        # Both tables have an empty slot ``span`` for out-of-range probe keys.
        new_run = self.sorted_keys[1:] != self.sorted_keys[:-1]
        if new_run.all():
            self._direct = np.full(span + 1, -1, dtype=np.int64)
            self._direct[_offsets(self.sorted_keys, lo, wide)] = self.rows
        else:
            # The rows of slot s are rows[starts[s]:starts[s + 1]]; built
            # per run, so no per-row slot array is materialized.
            run_starts = np.concatenate(([0], np.flatnonzero(new_run) + 1))
            run_slots = _offsets(self.sorted_keys[run_starts], lo, wide)
            lengths = np.zeros(span + 2, dtype=np.int64)
            lengths[run_slots + 1] = np.diff(run_starts, append=n)
            self._starts = np.cumsum(lengths, out=lengths)

    def __len__(self) -> int:
        return len(self.sorted_keys)

    def probe(self, keys: np.ndarray,
              base: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """All matches of ``keys`` as ``(probe_positions, row_ids)``.

        ``probe_positions[i]`` is ``base`` plus the position in ``keys``
        that matched and ``row_ids[i]`` the matching row.  A probe key with
        *k* matches contributes *k* consecutive entries, in probe order and
        then in build order.  Probing the slice ``keys[start:stop]`` with
        ``base=start`` yields global positions, so concatenating the
        results over consecutive slices reproduces the whole-input probe.
        """
        if self._lo is None or not self._dense_probe(keys.dtype):
            begin = np.searchsorted(self.sorted_keys, keys, side="left")
            end = np.searchsorted(self.sorted_keys, keys, side="right")
            return self._expand(begin, end - begin, base)
        slots = self._slots(keys)
        if self._direct is not None:
            hit = self._direct[slots]
            matched = np.flatnonzero(hit >= 0)
            check_result_size(len(matched))
            rows = hit if len(matched) == len(hit) else hit[matched]
            if base:
                matched += base
            return matched, rows
        begin = self._starts[slots]
        return self._expand(begin, self._starts[slots + 1] - begin, base)

    def _dense_probe(self, dtype: np.dtype) -> bool:
        """Whether probe keys of ``dtype`` compare exactly as integers."""
        return (dtype.kind in "iu"
                and np.result_type(dtype, self.sorted_keys.dtype).kind in "iu")

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Dense-table slot of every probe key (``span`` when out of range)."""
        inside = keys >= self._lo
        inside &= keys <= self._hi
        wide = _wide_type(np.result_type(keys.dtype, self.sorted_keys.dtype))
        if inside.all():
            return _offsets(keys, self._lo, wide)
        slots = np.full(len(keys), int(self._hi) - int(self._lo) + 1,
                        dtype=np.int64)
        slots[inside] = _offsets(keys[inside], self._lo, wide)
        return slots

    def _expand(self, begin: np.ndarray, counts: np.ndarray,
                base: int) -> tuple[np.ndarray, np.ndarray]:
        """Expand the runs ``[begin, begin + counts)`` into match pairs."""
        total = int(counts.sum())
        check_result_size(total)
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        first_out = np.cumsum(counts) - counts
        positions = np.repeat(
            np.arange(base, base + len(counts), dtype=np.int64), counts)
        sorted_positions = (np.arange(total, dtype=np.int64)
                            + np.repeat(begin - first_out, counts))
        return positions, self.rows[sorted_positions]


class SortedIndex:
    """A secondary index over one column of a table.

    ``row_ids`` optionally maps positions of ``values`` back to physical
    row ids -- the dynamic-data path rebuilds indexes over only the *live*
    rows of a mutated table (``values = column[valid]``,
    ``row_ids = valid``), so probes never surface deleted rows.
    """

    def __init__(self, table_name: str, column: str, values: np.ndarray,
                 row_ids: np.ndarray | None = None):
        self.table_name = table_name
        self.column = column
        self._runs = KeyRuns(values, row_ids)

    @property
    def num_keys(self) -> int:
        """Number of indexed rows."""
        return len(self._runs)

    def lookup(self, key) -> np.ndarray:
        """Row ids of all rows whose key equals ``key``."""
        return self._runs.probe(np.asarray([key]))[1]

    def lookup_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the index with a batch of keys.

        Returns ``(probe_positions, row_ids)`` where ``probe_positions[i]`` is
        the position in ``keys`` that matched and ``row_ids[i]`` is the
        matching row in the indexed table.  A probe key with *k* matches
        contributes *k* entries.
        """
        return self._runs.probe(keys)

    def __repr__(self) -> str:
        return f"SortedIndex({self.table_name}.{self.column}, keys={self.num_keys})"
