"""Tests for the re-optimization baselines, the registry, and the reports."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.executor.executor import Executor
from repro.optimizer.join_enum import JoinEnumerator
from repro.optimizer.optimizer import Optimizer
from repro.plan.physical import JoinMethod
from repro.reopt import (
    ALGORITHM_NAMES,
    BaselineConfig,
    DefaultBaseline,
    IEFBaseline,
    OptimalBaseline,
    Perron19Baseline,
    PopBaseline,
    ReoptBaseline,
    make_algorithm,
)
from repro.report import ExecutionReport, IterationRecord, WorkloadResult
from tests.conftest import five_way_query


@pytest.fixture(scope="module")
def expected_rows(tiny_db):
    plan = Optimizer(tiny_db).plan(five_way_query())
    return Executor(tiny_db).execute(plan).table.to_rows()


class TestRegistry:
    def test_all_names_constructible(self, tiny_db):
        for name in ALGORITHM_NAMES:
            algorithm = make_algorithm(name, tiny_db)
            assert hasattr(algorithm, "run")
            assert algorithm.name == name or name in algorithm.name

    def test_unknown_name_rejected(self, tiny_db):
        with pytest.raises(ValueError):
            make_algorithm("MagicSort", tiny_db)


class TestBaselineCorrectness:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_algorithm_same_answer(self, name, tiny_db, tiny_query,
                                         expected_rows):
        """All 14 algorithms must return the same result for the 5-way join."""
        report = make_algorithm(name, tiny_db).run(tiny_query)
        assert not report.timed_out
        assert report.final_table.to_rows() == expected_rows

    def test_temp_tables_dropped_after_each_query(self, tiny_db, tiny_query):
        for name in ("QuerySplit", "Pop", "Perron19", "IEF"):
            make_algorithm(name, tiny_db).run(tiny_query)
            assert tiny_db.temp_table_names == []


class TestBaselineBehaviour:
    def test_default_never_materializes(self, tiny_db, tiny_query):
        report = DefaultBaseline(tiny_db, Optimizer(tiny_db)).run(tiny_query)
        assert report.materializations == 0
        assert report.num_iterations == 1

    def test_optimal_uses_oracle(self, tiny_db, tiny_query):
        baseline = OptimalBaseline(tiny_db)
        report = baseline.run(tiny_query)
        assert report.materializations == 0
        assert baseline.oracle.executions >= 0  # oracle reset after the run
        assert report.final_rows == 1

    def test_pop_materializes_every_join(self, tiny_db, tiny_query):
        report = PopBaseline(tiny_db, Optimizer(tiny_db)).run(tiny_query)
        # A 5-way join has 4 joins; the final one is never materialized.
        assert report.materializations == 3

    def test_perron_materializes_and_uses_high_threshold(self, tiny_db, tiny_query):
        report = Perron19Baseline(tiny_db, Optimizer(tiny_db)).run(tiny_query)
        assert report.materializations >= 1
        assert Perron19Baseline.trigger_threshold == 32.0

    def test_reopt_materializes_only_on_trigger(self, tiny_db, tiny_query):
        report = ReoptBaseline(tiny_db, Optimizer(tiny_db)).run(tiny_query)
        assert report.materializations <= 3
        assert all(it.materialized == it.replanned or not it.materialized
                   for it in report.iterations)

    def test_reopt_points_are_pipeline_breakers(self, tiny_db):
        baseline = ReoptBaseline(tiny_db, Optimizer(tiny_db))
        plan = Optimizer(tiny_db).plan(five_way_query())
        for node in baseline.materialization_points(plan):
            assert node.is_pipeline_breaker

    def test_ief_selects_single_uncertain_point(self, tiny_db):
        baseline = IEFBaseline(tiny_db, Optimizer(tiny_db))
        plan = Optimizer(tiny_db).plan(five_way_query())
        points = baseline.materialization_points(plan)
        assert len(points) <= 1

    def test_statistics_toggle_respected(self, tiny_db, tiny_query):
        config = BaselineConfig(collect_statistics=False)
        report = Perron19Baseline(tiny_db, Optimizer(tiny_db), config=config).run(tiny_query)
        assert report.stats_collections == 0

    def test_join_overflow_reported_as_timeout(self):
        """A JoinOverflowError inside execution surfaces as a timed-out run."""
        import numpy as np

        from repro.catalog.schema import Column, Schema, TableSchema
        from repro.catalog.types import DataType
        from repro.plan.expressions import ColumnRef, JoinPredicate
        from repro.plan.logical import Query, RelationRef, SPJQuery
        from repro.storage.database import Database, IndexConfig
        from repro.storage.table import DataTable

        schema = Schema([
            TableSchema("a", [Column("id", DataType.INT),
                              Column("key", DataType.INT)], primary_key="id"),
            TableSchema("b", [Column("id", DataType.INT),
                              Column("key", DataType.INT)], primary_key="id"),
        ])
        db = Database(schema, index_config=IndexConfig.NONE)
        # 7000 x 7000 rows with a constant join key: 49M matches, above the
        # 40M join-result cap, so the equi-join kernel aborts the query.
        n = 7000
        db.load_table(DataTable("a", {"id": np.arange(n),
                                      "key": np.zeros(n, dtype=np.int64)}))
        db.load_table(DataTable("b", {"id": np.arange(n),
                                      "key": np.zeros(n, dtype=np.int64)}))
        query = Query.from_spj(SPJQuery(
            name="overflow",
            relations=(RelationRef.base("a", "a"), RelationRef.base("b", "b")),
            join_predicates=(JoinPredicate(ColumnRef("a", "key"),
                                           ColumnRef("b", "key")),),
        ))
        baseline = DefaultBaseline(db, Optimizer(db),
                                   config=BaselineConfig(timeout_seconds=5.0))
        report = baseline.run(query)
        assert report.timed_out
        assert report.total_time >= 5.0
        assert db.temp_table_names == []

    def test_timeout_flag(self, tiny_db, tiny_query):
        config = BaselineConfig(timeout_seconds=0.0)
        report = PopBaseline(tiny_db, Optimizer(tiny_db), config=config).run(tiny_query)
        assert report.timed_out
        assert report.total_time >= 0.0


class TestReports:
    def _record(self, **kwargs):
        defaults = dict(index=0, description="x", aliases=frozenset({"a"}),
                        result_rows=10, wall_time=0.5, memory_bytes=100,
                        materialized=True, replanned=False)
        defaults.update(kwargs)
        return IterationRecord(**defaults)

    def test_materialization_metrics(self):
        report = ExecutionReport(query_name="q", algorithm="A", total_time=1.0,
                                 iterations=[self._record(),
                                             self._record(index=1, materialized=False)])
        assert report.num_iterations == 2
        assert report.materializations == 1
        assert report.materialized_bytes == 100
        assert report.avg_memory_per_materialization == 100
        assert report.max_intermediate_rows == 10

    def test_empty_report_metrics(self):
        report = ExecutionReport(query_name="q", algorithm="A", total_time=0.0)
        assert report.avg_memory_per_materialization == 0.0
        assert report.max_intermediate_rows == 0
        assert report.timeline() == []

    def test_workload_result_aggregation(self):
        result = WorkloadResult(algorithm="A", reports=[
            ExecutionReport(query_name="q1", algorithm="A", total_time=1.0),
            ExecutionReport(query_name="q2", algorithm="A", total_time=2.0,
                            timed_out=True),
        ])
        assert result.total_time == 3.0
        assert result.timeouts == 1
        assert result.report_for("q1").query_name == "q1"
        with pytest.raises(KeyError):
            result.report_for("zz")

    @pytest.mark.parametrize("algorithm", ["Default", "QuerySplit"])
    def test_planner_time_reported_but_not_in_total(self, tiny_db, tiny_query,
                                                    monkeypatch, algorithm):
        delay = 0.2
        original = JoinEnumerator.plan

        def slow_plan(self, query):
            time.sleep(delay)
            return original(self, query)

        monkeypatch.setattr(JoinEnumerator, "plan", slow_plan)
        report = make_algorithm(algorithm, tiny_db).run(tiny_query)
        assert report.planner_invocations > 0
        assert report.planner_time >= delay * report.planner_invocations
        assert report.total_time < delay


#: Plans every query Reopt builds for JOB 28c and prints their estimates.
_REOPT_28C_PLANS = """
from repro.bench.harness import HarnessConfig, run_query
from repro.optimizer.optimizer import Optimizer
from repro.workloads.imdb import build_imdb_database
from repro.workloads.job_queries import query_by_name

plans = []
original = Optimizer.plan

def plan(self, query):
    result = original(self, query)
    plans.append([(repr(node.est_rows), repr(node.est_cost))
                  for node in result.join_nodes()])
    return result

Optimizer.plan = plan
run_query(build_imdb_database(scale=0.25), query_by_name("28c"), "Reopt",
          HarnessConfig(timeout_seconds=None))
print(plans)
"""


def test_reopt_plans_independent_of_hash_seed():
    """Reopt's temps keep their columns in a fixed order, so ANALYZE's
    sampling, and every re-plan after it, is the same under any
    ``PYTHONHASHSEED``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs.append(subprocess.Popen([sys.executable, "-c", _REOPT_28C_PLANS],
                                     env=env, stdout=subprocess.PIPE, text=True))
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert outputs[0].startswith("[[")
    assert outputs[0] == outputs[1]
