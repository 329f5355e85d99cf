"""The bitmask join enumerator against its reference (``reference_planner``).

Every plan the production :class:`JoinEnumerator` builds while the
workloads below run is re-planned by :class:`ReferenceJoinEnumerator` --
the per-split enumerator the bitmask one replaced -- with the same
database, estimator, cost model and configuration, and the two trees must
be identical: shape, join method, predicate order, index column, and
``est_rows`` / ``est_cost`` to the bit.  Plans over temporaries come from
QuerySplit's and Reopt's re-planning; the explicit cases cover the
configuration switches and the planner's rarer paths.
"""

from __future__ import annotations

import pytest

from repro.optimizer.cost import CostModel
from repro.optimizer.join_enum import EnumeratorConfig, JoinEnumerator
from repro.optimizer.cardinality import DefaultCardinalityEstimator
from repro.plan.expressions import ColumnRef, Comparison, JoinPredicate
from repro.plan.logical import RelationRef, SPJQuery
from repro.plan.physical import JoinMethod, ScanNode
from repro.reopt.registry import make_algorithm
from repro.workloads.dsb import build_dsb_database, dsb_queries
from repro.workloads.imdb import build_imdb_database
from repro.workloads.job_queries import job_queries
from repro.workloads.sqlgen import JoinSamplerConfig, RandomQueryGenerator
from repro.workloads.tpch import build_tpch_database, tpch_queries
from tests.reference_planner import ReferenceJoinEnumerator


def _shape(node) -> tuple:
    """Everything a plan tree decides, floats by exact ``repr``."""
    costs = (repr(node.est_rows), repr(node.est_cost))
    if isinstance(node, ScanNode):
        return ("scan", node.relation, node.filters) + costs
    return ((node.method, node.predicates, node.index_column) + costs
            + (_shape(node.left), _shape(node.right)))


def _reference_plan(enumerator: JoinEnumerator, query: SPJQuery):
    return ReferenceJoinEnumerator(
        enumerator.database, enumerator.estimator, enumerator.cost_model,
        enumerator.config).plan(query)


class PlanChecker:
    """Re-plans every query the production enumerator plans."""

    def __init__(self, monkeypatch):
        self.checked = 0
        self.mismatches: list[str] = []
        original = JoinEnumerator.plan

        def plan(enumerator, query):
            root = original(enumerator, query)
            self.compare(root, _reference_plan(enumerator, query), query.name)
            return root

        monkeypatch.setattr(JoinEnumerator, "plan", plan)

    def compare(self, root, reference, name: str) -> None:
        self.checked += 1
        if _shape(root) != _shape(reference):
            self.mismatches.append(name)

    def assert_clean(self, at_least: int) -> None:
        assert not self.mismatches, self.mismatches[:10]
        assert self.checked >= at_least


@pytest.fixture
def checker(monkeypatch) -> PlanChecker:
    return PlanChecker(monkeypatch)


@pytest.fixture(scope="module")
def small_imdb():
    return build_imdb_database(scale=0.1)


def _run(database, queries, algorithms) -> None:
    for name in algorithms:
        runner = make_algorithm(name, database)
        for query in queries:
            runner.run(query)
        assert database.temp_table_names == []


# ----------------------------------------------------------------------
# Every plan built while the workloads run
# ----------------------------------------------------------------------
ADAPTIVE = ("QuerySplit", "Default", "Reopt")


def test_job_plans_match_reference(checker, small_imdb):
    _run(small_imdb, job_queries(), ADAPTIVE)
    checker.assert_clean(at_least=600)


def test_tpch_plans_match_reference(checker):
    _run(build_tpch_database(scale=0.05), tpch_queries(), ADAPTIVE)
    checker.assert_clean(at_least=100)


def test_dsb_plans_match_reference(checker):
    _run(build_dsb_database(scale=0.05), dsb_queries(), ADAPTIVE)
    checker.assert_clean(at_least=50)


def test_robust_and_oracle_baselines_match_reference(checker, small_imdb):
    """Optimal (oracle estimates), FS (robust objective), USE (no nested
    loops) and Pessi. (upper-bound estimates) on a JOB subset."""
    queries = job_queries(families=[1, 6, 12, 17, 28])
    _run(small_imdb, queries, ("Optimal", "FS", "USE", "Pessi."))
    checker.assert_clean(at_least=4 * len(queries))


def test_generated_batch_matches_reference(checker):
    """Cross-FK joins too, so the join graphs include cycles."""
    database = build_imdb_database(scale=0.03)
    generator = RandomQueryGenerator(
        database, seed=5,
        join_config=JoinSamplerConfig(max_joins=7, min_joins=2, fk_only=False))
    _run(database, generator.generate(40), ("Default", "QuerySplit"))
    checker.assert_clean(at_least=80)


# ----------------------------------------------------------------------
# Configuration switches and rare paths
# ----------------------------------------------------------------------
CONFIGS = {
    "no-hash": EnumeratorConfig(enable_hash=False),
    "no-merge": EnumeratorConfig(enable_merge=False),
    "no-index-nl": EnumeratorConfig(enable_index_nl=False),
    "no-nl": EnumeratorConfig(enable_nl=False),
    "nl-only": EnumeratorConfig(enable_hash=False, enable_merge=False,
                                enable_index_nl=False),
    "zone-map-scan-cost": EnumeratorConfig(zone_map_scan_cost=True),
    "robust": EnumeratorConfig(robustness_blowup=8.0, robustness_weight=0.5),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_switches_match_reference(name, small_imdb):
    """Each switch on the DP (up to 8 relations) and greedy (9-10) paths."""
    enumerator = JoinEnumerator(small_imdb, DefaultCardinalityEstimator(small_imdb),
                                CostModel(), CONFIGS[name])
    for query in job_queries(families=[2, 6, 12, 17, 24, 26, 28]):
        root = enumerator.plan(query.spj)
        assert _shape(root) == _shape(_reference_plan(enumerator, query.spj)), \
            query.name


def _disconnected_query() -> SPJQuery:
    """``t-mk-k`` and ``n`` with no join predicate between them."""
    return SPJQuery(
        name="disconnected",
        relations=tuple(RelationRef.base(a, a) for a in ("t", "mk", "n", "k")),
        filters=(Comparison(ColumnRef("n", "gender"), "=", "f"),),
        join_predicates=(
            JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id")),
            JoinPredicate(ColumnRef("mk", "keyword_id"), ColumnRef("k", "id")),
        ),
    )


@pytest.mark.parametrize("dp_relation_limit", [8, 3])
def test_disconnected_graph_without_nested_loops(tiny_db, dp_relation_limit):
    """With NL disabled the DP cannot join across components, so the
    components' best plans are combined by cross products; the greedy path
    cross-products the two smallest components instead."""
    query = _disconnected_query()
    enumerator = JoinEnumerator(
        tiny_db, DefaultCardinalityEstimator(tiny_db), CostModel(),
        EnumeratorConfig(enable_nl=False, dp_relation_limit=dp_relation_limit))
    root = enumerator.plan(query)
    assert root.method is JoinMethod.NL and root.predicates == ()
    assert root.covered_aliases() == {"t", "mk", "n", "k"}
    assert _shape(root) == _shape(_reference_plan(enumerator, query))


@pytest.mark.parametrize("name, relations", [("17a", 8), ("28a", 10)])
def test_dp_relation_limit_boundary(small_imdb, monkeypatch, name, relations):
    """A query at ``dp_relation_limit`` takes the DP, one above it the
    greedy path; both match the reference."""
    query = next(q.spj for q in job_queries() if q.name == name)
    assert len(query.relations) == relations
    taken = []
    for path in ("_dynamic_programming", "_greedy"):
        original = getattr(JoinEnumerator, path)

        def spy(self, *args, _original=original, _path=path):
            taken.append(_path)
            return _original(self, *args)

        monkeypatch.setattr(JoinEnumerator, path, spy)
    estimator = DefaultCardinalityEstimator(small_imdb)
    for limit, expected in ((relations, "_dynamic_programming"),
                            (relations - 1, "_greedy")):
        taken.clear()
        enumerator = JoinEnumerator(small_imdb, estimator, CostModel(),
                                    EnumeratorConfig(dp_relation_limit=limit))
        root = enumerator.plan(query)
        assert taken == [expected]
        assert _shape(root) == _shape(_reference_plan(enumerator, query))


def test_split_predicates_grouped_by_relation_pair(tiny_db):
    """A DP split crossing two relation pairs lists each pair's predicates
    together, pairs in order of first appearance, not in query order."""
    first = JoinPredicate(ColumnRef("mk", "movie_id"), ColumnRef("t", "id"))
    other_pair = JoinPredicate(ColumnRef("mk", "keyword_id"), ColumnRef("k", "id"))
    second = JoinPredicate(ColumnRef("mk", "id"), ColumnRef("t", "id"))
    query = SPJQuery(
        name="interleaved",
        relations=tuple(RelationRef.base(a, a) for a in ("t", "mk", "k")),
        # One-row t and k and no index probes into them: their cross
        # product is joined to mk last, by both pairs' predicates.
        filters=(Comparison(ColumnRef("t", "id"), "=", 7),
                 Comparison(ColumnRef("k", "id"), "=", 3)),
        join_predicates=(first, other_pair, second),
    )
    enumerator = JoinEnumerator(tiny_db, DefaultCardinalityEstimator(tiny_db),
                                CostModel(), EnumeratorConfig(enable_index_nl=False))
    root = enumerator.plan(query)
    assert root.predicates == (first, second, other_pair), str(root)
    assert _shape(root) == _shape(_reference_plan(enumerator, query))
