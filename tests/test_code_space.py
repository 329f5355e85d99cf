"""Dictionary codes through temps, ANALYZE and aggregates.

Two families:

* **Code space vs value space** -- :func:`group_aggregate` over
  dictionary codes must equal the same aggregation over the decoded values
  (output row order included), and both must equal a plain-Python SQL
  reference: MIN/MAX/SUM/AVG skip NULLs, a group with no non-null input
  yields NULL, GROUP BY puts the NULL group first.  The sweep covers random
  encoded columns with NULLs, single rows, empty inputs and all-NULL
  groups, then replays generated queries end to end over a nullable
  database with ``Database(dict_encode=)`` on and off.
* **Representation** -- temps registered by QuerySplit and Reopt carry
  ``int32`` codes plus the base table's dictionary, ANALYZE over such a
  temp equals ANALYZE over its decoded values, and ``report.final_table``
  holds decoded values.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.catalog.analyze import analyze_columns
from repro.executor.aggregates import group_aggregate
from repro.plan.expressions import ColumnRef, JoinPredicate
from repro.plan.logical import AggregateSpec, Query, RelationRef, SPJQuery
from repro.reopt.registry import make_algorithm
from repro.storage.database import Database, IndexConfig
from repro.storage.dictionary import encode_column
from repro.storage.table import DataTable
from repro.workloads.sqlgen import (
    AggregateSamplerConfig,
    JoinSamplerConfig,
    PredicateSamplerConfig,
    RandomQueryGenerator,
)
from tests.reference_eval import (
    assert_results_match,
    canonicalize_table,
    reference_execute,
)
from tests.test_differential import DIFF_SCHEMA

SEED = 20261017
ALPHABET = np.array(["ant", "bee", "cat", "dog", "eel", "fox", "gnu"],
                    dtype=object)


# ----------------------------------------------------------------------
# Random columns and a plain-Python SQL reference
# ----------------------------------------------------------------------
def _random_columns(rng: np.random.Generator, rows: int) -> dict:
    """String value/key columns with NULLs, a float with NaNs, an int key."""
    def strings(null_rate: float) -> np.ndarray:
        values = rng.choice(ALPHABET[:int(rng.integers(1, len(ALPHABET) + 1))],
                            rows).astype(object)
        values[rng.random(rows) < null_rate] = None
        return values

    value_null_rate = float(rng.choice([0.0, 0.3, 1.0]))
    floats = np.round(rng.normal(size=rows), 3)
    floats[rng.random(rows) < value_null_rate] = np.nan
    return {
        "v.s": strings(value_null_rate),
        "v.f": floats,
        "v.i": rng.integers(-5, 6, rows),
        "g.s": strings(float(rng.choice([0.0, 0.4]))),
        "g.i": rng.integers(0, 3, rows),
    }


AGGREGATES = (
    AggregateSpec("min", ColumnRef("v", "s"), "min_s"),
    AggregateSpec("max", ColumnRef("v", "s"), "max_s"),
    AggregateSpec("min", ColumnRef("v", "f"), "min_f"),
    AggregateSpec("max", ColumnRef("v", "f"), "max_f"),
    AggregateSpec("sum", ColumnRef("v", "f"), "sum_f"),
    AggregateSpec("sum", ColumnRef("v", "i"), "sum_i"),
    AggregateSpec("avg", ColumnRef("v", "f"), "avg_f"),
    AggregateSpec("count", None, "cnt"),
)

GROUPINGS = {
    "scalar": (),
    "int-key": (ColumnRef("g", "i"),),
    "string-key": (ColumnRef("g", "s"),),
    "both-keys": (ColumnRef("g", "s"), ColumnRef("g", "i")),
}


def _is_null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _python_aggregate(columns: dict, group_by, aggregates) -> list[tuple]:
    """Row-at-a-time SQL aggregation, groups ordered by key, NULL first."""
    rows = len(next(iter(columns.values())))
    groups: dict[tuple, list[int]] = {}
    for i in range(rows):
        key = tuple(columns[ref.qualified][i] for ref in group_by)
        groups.setdefault(key, []).append(i)
    if not group_by:
        groups = {(): list(range(rows))}

    def order(key):
        return tuple((v is not None, v if v is not None else "") for v in key)

    out = []
    for key in sorted(groups, key=order):
        members = groups[key]
        row = list(key)
        for spec in aggregates:
            if spec.func == "count":
                row.append(len(members))
                continue
            values = [columns[spec.column.qualified][i] for i in members]
            values = [v for v in values if not _is_null(v)]
            if not values:
                row.append(None)
            elif spec.func == "min":
                row.append(min(values))
            elif spec.func == "max":
                row.append(max(values))
            elif spec.func == "sum":
                row.append(sum(values))
            else:
                row.append(math.fsum(values) / len(values))
        out.append(tuple(row))
    return out


def _plain(row: tuple) -> tuple:
    return tuple(v.item() if hasattr(v, "item") else v for v in row)


def _assert_rows_equal(expected: list[tuple], actual: list[tuple],
                       context: str) -> None:
    assert len(expected) == len(actual), context
    for want, got in zip(expected, actual):
        assert len(want) == len(got), context
        for a, b in zip(want, got):
            if isinstance(a, float) and isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), \
                    f"{context}: {want} vs {got}"
            else:
                assert a == b and type(a) is type(b), \
                    f"{context}: {want} vs {got}"


class TestCodeSpaceAggregates:
    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    def test_code_space_equals_value_space_and_sql(self, grouping):
        group_by = GROUPINGS[grouping]
        rng = np.random.default_rng([SEED, len(grouping)])
        for trial in range(60):
            rows = int(rng.choice([0, 1, 2, int(rng.integers(3, 80))]))
            values = _random_columns(rng, rows)
            encoded, dictionaries = dict(values), {}
            for name in ("v.s", "g.s"):
                codes, dictionary = encode_column(values[name])
                encoded[name], dictionaries[name] = codes, dictionary
            context = f"{grouping} trial {trial} ({rows} rows)"

            by_values = group_aggregate(values, group_by, AGGREGATES)
            by_codes = group_aggregate(encoded, group_by, AGGREGATES,
                                       dictionaries)
            # Encoded inputs stay encoded: MIN/MAX and string keys are
            # int32 codes referencing the input dictionary.
            assert by_codes.dictionaries["min_s"] is dictionaries["v.s"]
            assert by_codes.column("max_s").dtype == np.int32
            assert not by_values.dictionaries

            expected = [_plain(r) for r in
                        _python_aggregate(values, group_by, AGGREGATES)]
            value_rows = [_plain(r) for r in by_values.to_rows()]
            code_rows = [_plain(r) for r in by_codes.decoded().to_rows()]
            _assert_rows_equal(expected, value_rows, f"value space, {context}")
            _assert_rows_equal(value_rows, code_rows, f"code space, {context}")

    def test_all_null_and_empty_inputs_yield_null(self):
        nulls = np.array([None, None], dtype=object)
        codes, dictionary = encode_column(nulls)
        specs = (AggregateSpec("min", ColumnRef("v", "s"), "lo"),
                 AggregateSpec("max", ColumnRef("v", "s"), "hi"),
                 AggregateSpec("count", None, "cnt"))
        for columns, dictionaries in (({"v.s": nulls}, None),
                                      ({"v.s": codes}, {"v.s": dictionary}),
                                      ({"v.s": nulls[:0]}, None)):
            out = group_aggregate(columns, (), specs, dictionaries).decoded()
            assert out.to_rows() == [(None, None, len(columns["v.s"]))]

    def test_float_nan_is_skipped(self):
        columns = {"v.f": np.array([np.nan, 2.0, np.nan, -1.0])}
        specs = tuple(AggregateSpec(func, ColumnRef("v", "f"), func)
                      for func in ("min", "max", "sum", "avg"))
        assert group_aggregate(columns, (), specs).to_rows() == [
            (-1.0, 2.0, 1.0, 0.5)]


# ----------------------------------------------------------------------
# End to end over a nullable database, dict_encode on and off
# ----------------------------------------------------------------------
def build_nullable_database(dict_encode: bool) -> Database:
    """The differential schema with NULLs in string and float columns."""
    rng = np.random.default_rng(SEED)

    def nullable(values: np.ndarray, rate: float) -> np.ndarray:
        values = values.astype(object if values.dtype == object else float)
        values[rng.random(len(values)) < rate] = (
            None if values.dtype == object else np.nan)
        return values

    n_movie, n_kw, n_person, n_mk, n_ci = 120, 20, 60, 300, 400
    db = Database(DIFF_SCHEMA, index_config=IndexConfig.PK_FK, block_size=64,
                  dict_encode=dict_encode)
    db.load_table(DataTable("movie", {
        "id": np.arange(1, n_movie + 1),
        "year": rng.integers(1960, 2026, n_movie),
        "rating": nullable(np.round(rng.uniform(1.0, 10.0, n_movie), 3), 0.2),
        "kind": nullable(rng.choice(ALPHABET[:4], n_movie), 0.3),
    }))
    db.load_table(DataTable("keyword", {
        "id": np.arange(1, n_kw + 1),
        "kw": np.array([f"kw_{i:03d}" for i in range(n_kw)], dtype=object),
    }))
    db.load_table(DataTable("person", {
        "id": np.arange(1, n_person + 1),
        "age": rng.integers(15, 90, n_person),
        # Entirely NULL: every MIN/MAX over it must be NULL.
        "gender": np.array([None] * n_person, dtype=object),
    }))
    db.load_table(DataTable("movie_kw", {
        "id": np.arange(1, n_mk + 1),
        "movie_id": rng.integers(1, n_movie + 1, n_mk),
        "keyword_id": rng.integers(1, n_kw + 1, n_mk),
        "weight": np.round(rng.uniform(0.0, 1.0, n_mk), 3),
    }))
    db.load_table(DataTable("cast_info", {
        "id": np.arange(1, n_ci + 1),
        "movie_id": rng.integers(1, n_movie + 1, n_ci),
        "person_id": rng.integers(1, n_person + 1, n_ci),
        "salary": nullable(np.round(rng.uniform(1e3, 1e6, n_ci), 2), 0.1),
        "note": nullable(rng.choice(ALPHABET[2:], n_ci), 0.5),
    }))
    return db


@pytest.mark.parametrize("dict_encode", [False, True],
                         ids=["dict-off", "dict-on"])
def test_generated_queries_over_nulls_match_reference(dict_encode):
    db = build_nullable_database(dict_encode)
    assert bool(db.table("cast_info").dictionaries) == dict_encode
    generator = RandomQueryGenerator(
        db, seed=SEED,
        join_config=JoinSamplerConfig(max_joins=3, min_joins=0, fk_only=False),
        predicate_config=PredicateSamplerConfig(max_predicates=2),
        aggregate_config=AggregateSamplerConfig(group_by_probability=0.4,
                                                max_aggregates=3),
        name_prefix="nulls")
    runners = [make_algorithm(name, db)
               for name in ("Default", "QuerySplit", "Reopt")]
    for index in range(60):
        query = generator.query_at(index)
        expected = reference_execute(db, query)
        for runner in runners:
            report = runner.run(query)
            assert not report.timed_out, (runner.name, index)
            assert_results_match(
                expected, canonicalize_table(report.final_table),
                context=f"{runner.name} (seed={SEED}, index={index}, "
                        f"dict_encode={dict_encode}) [{query.name}]")
        assert db.temp_table_names == []


# ----------------------------------------------------------------------
# Representation: codes through temps, decoded output
# ----------------------------------------------------------------------
def _five_way_string_query() -> Query:
    def ref(alias, column):
        return ColumnRef(alias, column)

    return Query.from_spj(SPJQuery(
        name="codes-5way",
        relations=(RelationRef.base("m", "movie"),
                   RelationRef.base("mk", "movie_kw"),
                   RelationRef.base("k", "keyword"),
                   RelationRef.base("ci", "cast_info"),
                   RelationRef.base("p", "person")),
        join_predicates=(JoinPredicate(ref("mk", "movie_id"), ref("m", "id")),
                         JoinPredicate(ref("mk", "keyword_id"), ref("k", "id")),
                         JoinPredicate(ref("ci", "movie_id"), ref("m", "id")),
                         JoinPredicate(ref("ci", "person_id"), ref("p", "id"))),
        aggregates=(AggregateSpec("min", ref("k", "kw"), "min_kw"),
                    AggregateSpec("max", ref("m", "kind"), "max_kind"),
                    AggregateSpec("min", ref("ci", "note"), "min_note"),
                    AggregateSpec("count", None, "cnt")),
    ))


def _assert_same_stats(a, b) -> None:
    """TableStats equality (histogram bounds are arrays)."""
    assert (a.num_rows, a.analyzed_epoch) == (b.num_rows, b.analyzed_epoch)
    assert list(a.columns) == list(b.columns)
    for name, stats in a.columns.items():
        other = b.columns[name]
        assert replace(stats, histogram=None) == replace(other, histogram=None)
        assert (stats.histogram is None) == (other.histogram is None)
        if stats.histogram is not None:
            np.testing.assert_array_equal(stats.histogram.bounds,
                                          other.histogram.bounds)


@pytest.mark.parametrize("algorithm", ["QuerySplit", "Reopt"])
def test_temps_carry_codes_and_final_table_is_decoded(algorithm, monkeypatch):
    db = build_nullable_database(dict_encode=True)
    base_dictionaries = {id(d) for name in db.base_table_names
                         for d in db.table(name).dictionaries.values()}
    temps: list[DataTable] = []
    register = db.register_temp

    def recording_register(table, stats, covered_aliases):
        name = register(table, stats, covered_aliases)
        temps.append(db.table(name))
        return name

    monkeypatch.setattr(db, "register_temp", recording_register)
    runner = make_algorithm(algorithm, db)
    if algorithm == "Reopt":
        runner.trigger_threshold = 0.0  # re-plan (and materialize) everywhere
    query = _five_way_string_query()
    report = runner.run(query)
    assert not report.timed_out

    encoded = [(temp, name) for temp in temps for name in temp.dictionaries]
    assert encoded, "no temp carried an encoded column"
    for temp, name in encoded:
        assert temp.column(name).dtype == np.int32
        assert id(temp.dictionaries[name]) in base_dictionaries
        # ANALYZE on codes == ANALYZE on the decoded values.
        by_codes = analyze_columns(dict(temp.columns), num_rows=temp.num_rows,
                                   dictionaries=temp.dictionaries)
        by_values = analyze_columns(dict(temp.decoded().columns),
                                    num_rows=temp.num_rows)
        _assert_same_stats(by_codes, by_values)

    final = report.final_table
    assert not final.dictionaries
    assert final.column("min_kw").dtype == object
    assert isinstance(final.column("min_kw")[0], str)
    expected = reference_execute(db, query)
    assert_results_match(expected, canonicalize_table(final),
                         context=f"{algorithm} codes-5way")
