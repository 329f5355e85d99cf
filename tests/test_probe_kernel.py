"""The key-run probe kernel against its sort/searchsorted reference.

:class:`~repro.storage.index.KeyRuns` answers a probe by direct address on
dense integer keys and falls back to ``searchsorted`` otherwise.  Every
case below asserts that it returns exactly the ``(positions, rows)``
arrays of the kernel it replaced (``tests/reference_probe.py``), over key
dtypes, mixed probe dtypes, span boundaries, extreme values, duplicates,
``row_ids`` and probe slices; that every path enforces the join-size cap;
and that all JOB queries execute to the same per-node cardinalities with
either kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.executor import joins
from repro.executor.chunk import MaterializationStats
from repro.executor.executor import Executor
from repro.executor.morsels import MorselScheduler
from repro.executor.operators import ExecContext, HashJoin
from repro.reopt.registry import make_algorithm
from repro.storage import index as index_module
from repro.storage.database import IndexConfig
from repro.storage.index import JoinOverflowError, KeyRuns, SortedIndex
from repro.workloads.imdb import build_imdb_database
from repro.workloads.job_queries import job_queries
from tests.reference_probe import ProbeSide, probe_range, reference_probe


def _path(runs: KeyRuns) -> str:
    if runs._direct is not None:
        return "direct"
    return "dense" if runs._starts is not None else "searchsorted"


def assert_matches_reference(keys, probes, row_ids=None) -> KeyRuns:
    runs = KeyRuns(keys, row_ids)
    got = runs.probe(probes)
    want = probe_range(ProbeSide(keys, row_ids), probes, 0, len(probes))
    for got_part, want_part in zip(got, want):
        assert got_part.dtype == np.int64
        assert np.array_equal(got_part, want_part)
    return runs


def _probes(rng, keys: np.ndarray, dtype) -> np.ndarray:
    """Probe keys of ``dtype``: hits, near misses on both sides, repeats."""
    info = np.iinfo(dtype)
    lo, hi = int(keys.min()), int(keys.max())
    candidates = np.arange(max(lo - 3, info.min), min(hi + 3, info.max) + 1)
    return rng.choice(candidates, 300).astype(dtype)


INT_DTYPES = [np.int8, np.int32, np.int64, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", INT_DTYPES)
@pytest.mark.parametrize("unique", [True, False])
def test_integer_dtypes(dtype, unique):
    rng = np.random.default_rng(7)
    low = 0 if np.iinfo(dtype).min == 0 else -40
    if unique:
        keys = rng.permutation(np.arange(low, low + 80)).astype(dtype)
    else:
        # Every key of the domain repeats except one gap inside it.
        keys = np.concatenate([np.arange(low, low + 50),
                               rng.integers(low, low + 50, 70)])
        keys = rng.permutation(keys[keys != low + 7]).astype(dtype)
    runs = assert_matches_reference(keys, _probes(rng, keys, dtype))
    assert _path(runs) == ("direct" if unique else "dense")


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_full_width_domains(dtype):
    """Keys at both ends of the dtype's range stay exact."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(11)
    for lo in (int(info.min), int(info.max) - 99):
        keys = rng.permutation(np.arange(lo, lo + 100, dtype=object)).astype(dtype)
        keys = np.concatenate([keys, keys[:30]])
        probes = np.array([info.min, info.min + 1, info.max - 1, info.max,
                           lo, lo + 50, lo + 99, 0], dtype=object).astype(dtype)
        runs = assert_matches_reference(keys, probes)
        assert _path(runs) == "dense"


@pytest.mark.parametrize("index_dtype,probe_dtype", [
    (np.int32, np.int64),
    (np.int8, np.int64),
    (np.int64, np.int8),
    (np.uint32, np.int64),
    (np.uint32, np.uint64),
    (np.int64, np.uint32),
    (np.int64, np.uint64),
    (np.uint64, np.int8),
    (np.int64, np.float64),
])
def test_probe_dtype_differs_from_index(index_dtype, probe_dtype):
    rng = np.random.default_rng(5)
    keys = rng.permutation(np.arange(100)).astype(index_dtype)
    probes = np.concatenate([np.arange(-5, 110), [2 ** 40, -(2 ** 40)]])
    if np.dtype(probe_dtype).kind == "u":
        probes = probes[probes >= 0]
    info = (np.iinfo(probe_dtype) if np.dtype(probe_dtype).kind in "iu"
            else np.finfo(probe_dtype))
    probes = probes[(probes >= info.min) & (probes <= info.max)]
    assert_matches_reference(keys, probes.astype(probe_dtype))


def test_extreme_probe_keys_do_not_wrap_into_range():
    """Subtracting ``lo`` first would wrap these keys onto live slots."""
    signed = np.arange(-50, 50, dtype=np.int64)
    extreme = np.array([-(2 ** 63), 2 ** 63 - 1, -(2 ** 63) + 10,
                        2 ** 63 - 10, 0, 49, -50], dtype=np.int64)
    assert_matches_reference(signed, extreme)
    assert_matches_reference(np.repeat(signed, 2), extreme)

    unsigned = np.arange(2 ** 64 - 100, 2 ** 64, dtype=np.uint64)
    extreme = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64 - 100, 99],
                       dtype=np.uint64)
    assert_matches_reference(unsigned, extreme)
    assert_matches_reference(np.repeat(unsigned, 3), extreme)


@pytest.mark.parametrize("unique", [True, False])
def test_span_boundary(unique):
    """``2·n + 64`` is the widest key span that gets a dense table."""
    n = 20
    for span, path in ((2 * n + 64, "dense"), (2 * n + 65, "searchsorted")):
        keys = np.linspace(-5, span - 6, n).astype(np.int64)
        if not unique:
            keys[1:-1] = keys[1]
        assert int(keys[-1]) - int(keys[0]) + 1 == span
        runs = assert_matches_reference(keys, np.arange(-8, span))
        assert _path(runs) == ("direct" if unique and path == "dense"
                               else path)


@pytest.mark.parametrize("keys", [
    np.array([0.5, 1.5, 1.5, -2.0, np.nan]),
    np.array(["b", "a", "b", "c"], dtype=object),
    np.array([True, False, True]),
    np.array([1, 10 ** 9, 5, 10 ** 9], dtype=np.int64),
])
def test_fallback_keys(keys):
    runs = assert_matches_reference(keys, keys[[0, 1, 1, 2]])
    assert _path(runs) == "searchsorted"


def test_empty_probe_and_empty_index():
    assert_matches_reference(np.arange(10), np.empty(0, dtype=np.int64))
    assert_matches_reference(np.empty(0, dtype=np.int64), np.arange(10))
    assert_matches_reference(np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.int64))
    assert_matches_reference(np.repeat(np.arange(5), 2),
                             np.empty(0, dtype=np.int32))


def test_row_ids_as_in_the_mutated_table_rebuild():
    """Indexes rebuilt over live rows map sorted positions to ``row_ids``."""
    rng = np.random.default_rng(3)
    column = rng.permutation(np.arange(1, 301)).astype(np.int64)
    valid = np.flatnonzero(rng.random(300) < 0.7)
    probes = rng.integers(-5, 310, 500)
    runs = assert_matches_reference(column[valid], probes, row_ids=valid)
    assert _path(runs) == "direct"
    foreign = rng.integers(1, 60, 300)
    runs = assert_matches_reference(foreign[valid], probes, row_ids=valid)
    assert _path(runs) == "dense"
    _, rows = SortedIndex("t", "c", column[valid], valid).lookup_batch(probes)
    assert set(rows.tolist()) <= set(valid.tolist())


@pytest.mark.parametrize("unique", [True, False])
def test_slices_with_nonzero_start(unique):
    rng = np.random.default_rng(9)
    keys = (rng.permutation(np.arange(200)) if unique
            else rng.integers(0, 80, 200))
    sparse = keys * 1000
    probes = rng.integers(-10, 210, 1000)
    for build in (keys, sparse):
        runs, side = KeyRuns(build), ProbeSide(build)
        for start, stop in ((0, 400), (400, 401), (401, 401), (401, 1000)):
            got = runs.probe(probes[start:stop], start)
            want = probe_range(side, probes, start, stop)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_joins_reexports_the_storage_cap():
    assert joins.JoinOverflowError is JoinOverflowError
    assert joins.MAX_JOIN_RESULT_ROWS is index_module.MAX_JOIN_RESULT_ROWS


class TestOverflowCap:
    """Every probe path raises once the match count exceeds the cap."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(index_module, "MAX_JOIN_RESULT_ROWS", 50)

    @pytest.mark.parametrize("keys,path", [
        (np.arange(100), "direct"),
        (np.repeat(np.arange(10), 10), "dense"),
        (np.arange(100) * 1000, "searchsorted"),
        (np.arange(100) + 0.5, "searchsorted"),
    ])
    def test_index_paths(self, keys, path):
        index = SortedIndex("t", "c", keys)
        assert _path(index._runs) == path
        index.lookup_batch(keys[:5])
        with pytest.raises(JoinOverflowError):
            index.lookup_batch(keys)

    def _ctx(self, scheduler) -> ExecContext:
        return ExecContext(database=None, stats=MaterializationStats(),
                           needed=frozenset(), morsels=scheduler)

    def test_morsel_parallel_hash_join(self):
        build = np.arange(100)
        with MorselScheduler(2, morsel_rows=40) as scheduler:
            ctx = self._ctx(scheduler)
            # Every morsel stays under the cap; their merged total does not.
            with pytest.raises(JoinOverflowError):
                HashJoin._join_indices(ctx, [np.arange(100)], [build])
            # One morsel alone exceeds the cap.
            with pytest.raises(JoinOverflowError):
                HashJoin._join_indices(ctx, [np.zeros(100, np.int64)],
                                       [np.zeros(2, np.int64)])
            left, right = HashJoin._join_indices(ctx, [np.arange(50)], [build])
            assert left.tolist() == right.tolist() == list(range(50))

    def test_run_ends_timed_out(self, tiny_db, tiny_query, monkeypatch):
        monkeypatch.setattr(index_module, "MAX_JOIN_RESULT_ROWS", 0)
        report = make_algorithm("Default", tiny_db).run(tiny_query)
        assert report.timed_out
        assert tiny_db.temp_table_names == []


def _node_rows(node) -> tuple:
    if not hasattr(node, "left"):
        return (node.actual_rows,)
    return (node.actual_rows, _node_rows(node.left), _node_rows(node.right))


def _job_cardinalities(db, monkeypatch) -> list[tuple]:
    """Per-node ``actual_rows`` of every plan Default executes, and results."""
    recorded: list[tuple] = []
    original = Executor.execute

    def execute(executor, plan, *args, **kwargs):
        result = original(executor, plan, *args, **kwargs)
        recorded.append(_node_rows(plan.root))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(Executor, "execute", execute)
        algorithm = make_algorithm("Default", db)
        for query in job_queries():
            report = algorithm.run(query)
            assert not report.timed_out, query.name
            recorded.append(tuple(report.final_table.to_rows()))
    return recorded


def test_job_default_cardinalities_match_reference_kernel(monkeypatch):
    """All JOB queries, PK and FK indexes: identical rows on every plan node."""
    db = build_imdb_database(scale=0.1, index_config=IndexConfig.PK_FK)
    actual = _job_cardinalities(db, monkeypatch)
    monkeypatch.setattr(KeyRuns, "probe", reference_probe)
    expected = _job_cardinalities(db, monkeypatch)
    assert len(actual) >= 2 * len(job_queries())
    assert actual == expected
