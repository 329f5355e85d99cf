"""The benchmark's three workloads, driven through the public ``repro`` API.

Every workload has the same two phases per round, in different
proportions:

* **batch** -- each query runs sequentially under QuerySplit, Default and
  Reopt (interleaved per query, so a slow stretch of the host hits all
  three alike);
* **served** -- the queries are served closed-loop through
  :class:`~repro.serving.server.EngineServer` under QuerySplit: one client
  per worker, each issuing its next query when its previous one
  completes.

``job`` and ``tpch_drift`` serve each query through a one-worker server
right after its batch runs, so both phases see the same stretch of host
speed; ``served`` runs a long two-worker phase after a short batch, and
``tpch_drift`` adds seeded mutations.  Every round checks its outputs
(see :class:`Gate`); the checks run outside the timed segments.
"""

from __future__ import annotations

import math
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import HarnessConfig, run_query
from repro.dynamic import DriftConfig, DriftStream, StalenessController
from repro.executor.subplan_cache import SubplanCache
from repro.serving.admission import AdmissionPolicy
from repro.serving.server import EngineServer, QueryTicket, ServingConfig
from repro.workloads.imdb import build_imdb_database
from repro.workloads.job_queries import job_queries
from repro.workloads.sqlgen import (
    AggregateSamplerConfig,
    JoinSamplerConfig,
    PredicateSamplerConfig,
    RandomQueryGenerator,
)
from repro.workloads.tpch import build_tpch_database, tpch_queries

ALGORITHMS = ("QuerySplit", "Default", "Reopt")
#: Per-query budget: over 10x the slowest query of any workload here, so
#: a timeout signals a fault rather than a slow query.
TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Seeds:
    """Every generator's seed, derived from ``--seed`` and ``--data-seed``.

    ``--seed s`` drives the drift stream (``1 + s``) and the order the
    queries are issued in (``s``): inputs whose cost is steady from seed
    to seed.  ``--data-seed d`` shifts the content generators -- IMDB
    (``42 + d``), TPC-H (``7 + d``) and the generated query stream
    (``17 + d``) -- whose cost is not: a few heavy queries swing a whole
    run by up to 4x between seeds (see README.md).  Both default to 0,
    which gives the repository's own seeds.
    """

    imdb: int
    tpch: int
    drift: int
    sqlgen: int
    order: int

    @classmethod
    def from_args(cls, seed: int, data_seed: int = 0) -> "Seeds":
        return cls(imdb=42 + data_seed, tpch=7 + data_seed, drift=1 + seed,
                   sqlgen=17 + data_seed, order=seed)

    def shuffled(self, items: list) -> list:
        """``items`` in this run's issue order."""
        order = np.random.default_rng(self.order).permutation(len(items))
        return [items[i] for i in order]


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _sort_key(row):
    key = []
    for value in row:
        if value is None:
            key.append((0, 0))
        elif isinstance(value, float):
            key.append((1, 0.0) if math.isnan(value)
                       else (2, float(f"{value:.6g}")))
        else:
            key.append((3, value))
    return key


def canonical(table) -> list[tuple]:
    """A result's rows as plain Python values, in a canonical order."""
    rows = [tuple(_plain(v) for v in row) for row in table.to_rows()]
    return sorted(rows, key=_sort_key)


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
    return a == b


def same_rows(a: list[tuple], b: list[tuple]) -> bool:
    return len(a) == len(b) and all(
        len(x) == len(y) and all(map(_same_value, x, y))
        for x, y in zip(a, b))


class Gate:
    """Collects every correctness violation of a run."""

    def __init__(self):
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def expect_same(self, key: str, source: str, rows: list[tuple],
                    expected: dict) -> None:
        """Record ``source``'s rows for query ``key``, or compare with the
        rows recorded first."""
        if key not in expected:
            expected[key] = (source, rows)
            return
        first, first_rows = expected[key]
        self.check(same_rows(rows, first_rows),
                   f"{key}: {source} returned {len(rows)} rows that differ "
                   f"from {first}'s {len(first_rows)} rows")


# ----------------------------------------------------------------------
# What a round measured
# ----------------------------------------------------------------------

@dataclass
class RoundStats:
    wall: float = 0.0
    algorithm_s: dict = field(default_factory=lambda: dict.fromkeys(
        ALGORITHMS, 0.0))
    paper_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    mutate_s: float = 0.0
    served_wall: float = 0.0
    served_completed: int = 0
    served_latencies_ms: list = field(default_factory=list)
    queue_wait_ms: list = field(default_factory=list)
    service_ms: list = field(default_factory=list)
    max_queue_depth: int = 0
    shed: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    attempted: int = 0
    failed: int = 0
    #: Per-algorithm sums over its reports (iterations, materializations,
    #: materialized_bytes, replans).
    reports: dict = field(default_factory=lambda: {
        name: dict.fromkeys(("iterations", "materializations",
                             "materialized_bytes", "replans"), 0)
        for name in ALGORITHMS})
    qerror_mean: float = 0.0
    #: Peak resident memory (MB) read just before a multi-worker served
    #: phase; None where the round has none.
    peak_rss_mb: float | None = None

    def add_report(self, algorithm: str, seconds: float, report) -> None:
        self.wall += seconds
        self.algorithm_s[algorithm] += seconds
        self.paper_s += report.total_time
        self.latencies_ms.append(seconds * 1e3)
        self.attempted += 1
        self.failed += int(report.timed_out)
        sums = self.reports[algorithm]
        sums["iterations"] += report.num_iterations
        sums["materializations"] += report.materializations
        sums["materialized_bytes"] += report.materialized_bytes
        sums["replans"] += sum(1 for it in report.iterations if it.replanned)


# ----------------------------------------------------------------------
# The two phases
# ----------------------------------------------------------------------

def run_batch(database, queries, stats: RoundStats, gate: Gate,
              expected: dict, observe=None) -> None:
    """Each query under every algorithm; results must agree.

    ``expected`` maps a query name to the first completed algorithm and
    its canonical rows.  ``observe(query, report)`` runs after Default's
    run and is timed as mutation work.
    """
    config = HarnessConfig(timeout_seconds=TIMEOUT_S)
    for query in queries:
        for algorithm in ALGORITHMS:
            start = time.perf_counter()
            report = run_query(database, query, algorithm, config)
            stats.add_report(algorithm, time.perf_counter() - start, report)
            gate.check(not database.temp_table_names,
                       f"{query.name}/{algorithm}: temp tables leaked: "
                       f"{database.temp_table_names}")
            if observe is not None and algorithm == "Default":
                start = time.perf_counter()
                observe(query, report)
                elapsed = time.perf_counter() - start
                stats.mutate_s += elapsed
                stats.wall += elapsed
            if not report.timed_out:
                gate.expect_same(query.name, algorithm,
                                 canonical(report.final_table), expected)


class _ClosedLoopServer(EngineServer):
    """An engine server that wakes a client when its query completes."""

    def __init__(self, database, config):
        super().__init__(database, config)
        self._completion = threading.Condition()
        self._completed: set[int] = set()

    def _record(self, outcome) -> None:
        super()._record(outcome)
        with self._completion:
            self._completed.add(outcome.index)
            self._completion.notify_all()

    def wait_for(self, index: int) -> bool:
        with self._completion:
            return self._completion.wait_for(
                lambda: index in self._completed, timeout=4 * TIMEOUT_S)


class Serving:
    """A QuerySplit engine server under closed-loop load, checked on exit.

    :meth:`issue` sends one query from the calling thread and waits for
    it; :meth:`run_clients` runs one client thread per worker over a list
    of queries.  Either way a client issues its next query only when its
    previous one completed, so the queue never holds more than
    ``workers`` requests and a shed is a fault.  Served wall time counts
    the time spent inside those two calls.  On exit the outcomes are
    folded into ``stats``; requests must be conserved, and every query
    named in ``expected`` (the batch phase's rows) must return its rows.
    """

    def __init__(self, database, stats: RoundStats, gate: Gate,
                 expected: dict, *, workers: int, subplan_cache=None):
        self.server = _ClosedLoopServer(database, ServingConfig(
            algorithm="QuerySplit", workers=workers,
            queue_capacity=workers, admission=AdmissionPolicy.SHED,
            timeout_seconds=TIMEOUT_S, subplan_cache=subplan_cache,
            keep_results=True))
        self.stats, self.gate, self.expected = stats, gate, expected
        self.workers = workers
        self.cache = subplan_cache
        self.offered = 0
        self.stalled: list[int] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "Serving":
        self.server.start()
        self.server.mark_epoch()
        return self

    def _send(self, query, user_id: int) -> bool:
        with self._lock:
            index = self.offered
            self.offered += 1
        self.server.submit(QueryTicket(index=index, query=query,
                                       user_id=user_id,
                                       arrival_time=self.server.now()))
        if self.server.wait_for(index):
            return True
        self.stalled.append(index)
        return False

    def _timed(self, seconds: float) -> None:
        self.stats.wall += seconds
        self.stats.served_wall += seconds

    def issue(self, query) -> None:
        start = time.perf_counter()
        self._send(query, user_id=0)
        self._timed(time.perf_counter() - start)

    def run_clients(self, queries) -> None:
        pending = iter(queries)

        def client(user_id: int) -> None:
            while True:
                with self._lock:
                    query = next(pending, None)
                if query is None or not self._send(query, user_id):
                    return

        clients = [threading.Thread(target=client, args=(user,),
                                    name=f"bench-client-{user}")
                   for user in range(self.workers)]
        start = time.perf_counter()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        self._timed(time.perf_counter() - start)

    def __exit__(self, exc_type, exc, traceback) -> None:
        outcomes = self.server.shutdown()
        if exc_type is None:
            self._check(outcomes)

    def _check(self, outcomes) -> None:
        stats, gate = self.stats, self.gate
        gate.check(not self.stalled,
                   f"served requests never completed: {self.stalled}")
        stats.max_queue_depth = max(stats.max_queue_depth,
                                    self.server.queue.max_depth)
        if self.cache is not None:
            stats.cache_hits += self.cache.hits
            stats.cache_lookups += self.cache.hits + self.cache.misses
        completed = [o for o in outcomes
                     if not o.shed and o.error is None and o.report is not None]
        shed = sum(1 for o in outcomes if o.shed)
        errors = [o.error for o in outcomes if o.error]
        gate.check(len(outcomes) == self.offered
                   and self.offered == len(completed) + shed + len(errors),
                   f"served requests not conserved: offered {self.offered}, "
                   f"recorded {len(outcomes)}, completed {len(completed)}, "
                   f"shed {shed}, errors {len(errors)}")
        gate.check(not errors, f"served errors: {errors[:3]}")
        stats.shed += shed
        stats.attempted += self.offered
        stats.failed += shed + len(errors) + sum(
            1 for o in completed if o.timed_out)
        stats.served_completed += len(completed)
        for outcome in completed:
            stats.served_latencies_ms.append(outcome.latency * 1e3)
            stats.queue_wait_ms.append(outcome.queue_wait * 1e3)
            stats.service_ms.append(
                (outcome.finish_time - outcome.start_time) * 1e3)
            if outcome.query_name in self.expected and not outcome.timed_out:
                gate.expect_same(outcome.query_name, "served QuerySplit",
                                 canonical(outcome.report.final_table),
                                 self.expected)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _warm_up(database, queries) -> None:
    config = HarnessConfig(timeout_seconds=TIMEOUT_S)
    for query in queries:
        run_query(database, query, "QuerySplit", config)


class Job:
    """The paper's headline suite: all JOB queries on synthetic IMDB.

    Read-only and GROUP-BY-free: the planner, index nested-loop probes and
    QuerySplit's materialize/ANALYZE/finalize do the work.  Each query is
    also served through a one-worker server with no subplan cache: the
    serving path's own cost, without contention.
    """

    name = "job"
    scale = 0.25
    nominal_round_s = 16.0

    def __init__(self, seeds: Seeds):
        self.seeds = seeds

    def build(self) -> tuple[float, float]:
        start = time.perf_counter()
        self.database = build_imdb_database(scale=self.scale,
                                            seed=self.seeds.imdb)
        built = time.perf_counter()
        self.queries = self.seeds.shuffled(job_queries())
        return built - start, time.perf_counter() - built

    def warm_up(self) -> None:
        _warm_up(self.database, self.queries)

    def prepare_round(self) -> None:
        return None

    def run_round(self, stats: RoundStats, gate: Gate) -> None:
        expected: dict = {}
        with Serving(self.database, stats, gate, expected,
                     workers=1) as serving:
            for query in self.queries:
                run_batch(self.database, [query], stats, gate, expected)
                serving.issue(query)

    def sizes(self) -> dict:
        return {"imdb_scale": self.scale, "queries": len(self.queries),
                "base_rows": _base_rows(self.database)}


class TpchDrift:
    """TPC-H under seeded drift on ``lineitem``, re-ANALYZE triggered.

    The star-schema control: re-optimization has little to fix and GROUP
    BY aggregation dominates.  Every round starts from a freshly built
    database (its build is a set-up sample, not timed work); each drift
    step appends and deletes rows, then runs each of the 22 queries as a
    batch (a triggered re-ANALYZE controller watches Default) and serves
    it through a one-worker server.
    """

    name = "tpch_drift"
    scale = 1.5
    nominal_round_s = 13.0
    steps = 6
    append_fraction = 0.05
    delete_fraction = 0.02

    def __init__(self, seeds: Seeds):
        self.seeds = seeds

    def build(self) -> tuple[float, float]:
        start = time.perf_counter()
        self.database = build_tpch_database(scale=self.scale,
                                            seed=self.seeds.tpch)
        built = time.perf_counter()
        self.queries = self.seeds.shuffled(tpch_queries())
        initial = self.database.table("lineitem").num_rows
        self.stream = DriftStream(
            self.database,
            DriftConfig(fact_table="lineitem",
                        append_rows=int(initial * self.append_fraction),
                        delete_fraction=self.delete_fraction),
            seed=self.seeds.drift)
        return built - start, time.perf_counter() - built

    def warm_up(self) -> None:
        _warm_up(self.database, self.queries)

    def prepare_round(self) -> tuple[float, float]:
        """A fresh database: drift mutates it.  Returns its set-up times."""
        return self.build()

    def run_round(self, stats: RoundStats, gate: Gate) -> None:
        controller = StalenessController(self.database, policy="triggered")

        def observe(query, report):
            if report.timed_out:
                return
            actual = (report.iterations[-1].result_rows
                      if report.iterations else report.final_rows)
            controller.observe(query, actual)

        try:
            for step in range(self.steps):
                start = time.perf_counter()
                self.stream.apply(step)
                elapsed = time.perf_counter() - start
                stats.mutate_s += elapsed
                stats.wall += elapsed
                expected: dict = {}
                with Serving(self.database, stats, gate, expected,
                             workers=1) as serving:
                    for query in self.queries:
                        run_batch(self.database, [query], stats, gate,
                                  expected, observe=observe)
                        serving.issue(query)
        finally:
            controller.close()
        stats.qerror_mean = controller.mean_q_error

    def sizes(self) -> dict:
        return {"tpch_scale": self.scale, "queries": len(self.queries),
                "drift_steps": self.steps,
                "append_rows_per_step": self.stream.config.append_rows,
                "delete_fraction": self.delete_fraction,
                "base_rows": _base_rows(self.database)}


class Served:
    """A generated FK-only stream served closed-loop with a shared cache.

    The only workload that exercises admission, session views, subplan
    cache sharing and GIL contention between serving workers.  Every
    ``check_every``-th stream position also runs as a batch under all
    three algorithms; those results must match the served ones.  The
    server stays up for the whole round, idle while a batch slice runs.
    """

    name = "served"
    scale = 0.25
    stream_length = 400
    check_every = 4
    slices = 4
    nominal_round_s = 15.0

    def __init__(self, seeds: Seeds):
        self.seeds = seeds

    def build(self) -> tuple[float, float]:
        start = time.perf_counter()
        self.database = build_imdb_database(scale=self.scale,
                                            seed=self.seeds.imdb)
        built = time.perf_counter()
        # The FK-only sampler of the bench_serving experiment: service
        # times stay in the tens of milliseconds, with no fk-fk blow-ups.
        generator = RandomQueryGenerator(
            self.database, seed=self.seeds.sqlgen,
            join_config=JoinSamplerConfig(max_joins=3, min_joins=1,
                                          fk_only=True),
            predicate_config=PredicateSamplerConfig(max_predicates=3),
            aggregate_config=AggregateSamplerConfig(
                group_by_probability=0.2),
            name_prefix="serve")
        stream = generator.generate(self.stream_length)
        self.checked = stream[::self.check_every]
        self.queries = self.seeds.shuffled(stream)
        return built - start, time.perf_counter() - built

    def warm_up(self) -> None:
        _warm_up(self.database, self.checked)

    def prepare_round(self) -> None:
        return None

    def run_round(self, stats: RoundStats, gate: Gate) -> None:
        """Batch and served slices alternate, so both phases see the same
        stretch of host speed."""
        expected: dict = {}
        n = len(self.queries)
        with Serving(self.database, stats, gate, expected, workers=2,
                     subplan_cache=SubplanCache()) as serving:
            for part in range(self.slices):
                run_batch(self.database, self.checked[part::self.slices],
                          stats, gate, expected)
                if part == 0:
                    # Whether two workers' peaks coincide is chance: read
                    # memory before they first run.
                    stats.peak_rss_mb = peak_rss_mb()
                serving.run_clients(
                    self.queries[part * n // self.slices:
                                 (part + 1) * n // self.slices])

    def sizes(self) -> dict:
        return {"imdb_scale": self.scale, "stream_length": len(self.queries),
                "batch_queries": len(self.checked),
                "base_rows": _base_rows(self.database)}


def peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _base_rows(database) -> int:
    return sum(database.table(name).num_rows
               for name in database.base_table_names)


WORKLOADS = {cls.name: cls for cls in (Job, TpchDrift, Served)}
