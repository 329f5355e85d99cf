"""Span tracing of the engine's layers, installed from outside the engine.

:class:`Tracer` replaces a fixed set of public entry points (class methods
and module-level function bindings) with thin wrappers that record one
span per call: name, start, end, parent span, request id and thread.
Nothing inside ``repro`` is edited; :meth:`Tracer.uninstall` puts every
original back.  Spans stay in memory until the run ends, when
:func:`layer_metrics` folds them into the per-layer metrics and
:meth:`Tracer.dump` writes them out.

Each thread keeps its own span stack, so the served workload's worker
threads trace concurrently.  A ``query`` span (an algorithm's ``run``)
opens a new request id; every span below it carries that id.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread",
                 "counts")

    def __init__(self, id, name, start, parent, request, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, new_request: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if new_request or parent is None:
            request = next(self._requests) if new_request else 0
        else:
            request = parent.request
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.id if parent else None, request,
                    threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    # -- installation --------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, request: bool = False,
             before=None, after=None) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``before(span, args, kwargs)`` runs as the span opens and
        ``after(span, args, kwargs, result)`` once the call returns
        (outside the span's timed interval); both attach counts.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name, request)
            if before is not None:
                before(span, args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {t: i for i, t in enumerate(
            dict.fromkeys(s.thread for s in self.spans))}
        payload = {
            "summary": summary,
            "columns": ["id", "name", "start_s", "end_s", "parent",
                        "request", "thread", "counts"],
            "spans": [[s.id, s.name, round(s.start - origin, 7),
                       round(s.end - origin, 7), s.parent, s.request,
                       threads[s.thread], s.counts or None]
                      for s in sorted(self.spans, key=lambda s: s.id)],
        }
        # A call that raised never ran its ``after`` hook; drop its scratch.
        path.write_text(json.dumps(payload, separators=(",", ":"),
                                   default=lambda _: None))


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------

def _cache_arg(args, kwargs):
    cache = kwargs.get("cache", args[3] if len(args) > 3 else None)
    return cache or {}


def _executed_nodes(span, args, kwargs) -> None:
    span.counts["skip"] = frozenset(_cache_arg(args, kwargs))


def _plan_node_breakdown(span, args, kwargs, result) -> None:
    """Operator self times and est-vs-actual rows of one ``execute`` call.

    A node's self time is its ``actual_time`` minus its children's.  Nodes
    the caller's per-plan ``cache`` held before the call did not run in it
    and are skipped; a subplan-cache hit records ``actual_time == 0.0``
    and its children did not run either.
    """
    from repro.plan.physical import JoinMethod, ScanNode

    skip = span.counts.pop("skip")
    ops: dict[str, float] = {}
    qerrors: list[float] = []
    hits = 0

    def visit(node) -> float:
        """The node's inclusive time in this call."""
        nonlocal hits
        if id(node) in skip or node.actual_time is None:
            return 0.0
        if node.actual_time == 0.0:
            hits += 1
            return 0.0
        own = node.actual_time - sum(visit(c) for c in node.children())
        if isinstance(node, ScanNode):
            kind = "scan"
        elif (node.method is JoinMethod.INDEX_NL
              and isinstance(node.right, ScanNode)):
            kind = "index_nl_join"
        elif node.predicates:
            kind = "hash_join"
        else:
            kind = "cross_product"
        ops[kind] = ops.get(kind, 0.0) + max(own, 0.0)
        est = max(float(node.est_rows), 1.0)
        act = max(float(node.actual_rows or 0), 1.0)
        qerrors.append(max(est / act, act / est))
        return node.actual_time

    ops["root"] = max(result.wall_time - visit(args[1].root), 0.0)
    span.counts.update(
        ops=ops, qerrors=qerrors, subplan_hits=hits,
        rows_out=result.table.num_rows,
        materialized_bytes=result.materialized_bytes,
        blocks_total=result.scan_blocks_total,
        blocks_pruned=result.scan_blocks_pruned,
        semijoin_pruned_rows=result.semijoin_pruned_rows)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark measures."""
    import repro.core.nonspj as nonspj
    import repro.core.splitter as splitter
    import repro.executor.operators as operators
    import repro.reopt.base as reopt_base
    from repro.core.splitter import QuerySplitExecutor
    from repro.dynamic import DriftStream, StalenessController
    from repro.executor.executor import Executor
    from repro.optimizer.optimizer import Optimizer
    from repro.reopt.base import AlgorithmBase
    from repro.storage.database import Database
    from repro.storage.index import SortedIndex

    def algorithm(span, args, kwargs, result):
        span.counts["algorithm"] = args[0].name

    tracer.wrap(QuerySplitExecutor, "run", "query", request=True,
                after=algorithm)
    tracer.wrap(AlgorithmBase, "run", "query", request=True, after=algorithm)
    tracer.wrap(Optimizer, "plan", "optimizer.plan")
    tracer.wrap(Optimizer, "estimate", "optimizer.estimate")

    # The per-plan cache is snapshotted before the call so the breakdown
    # skips subtrees that did not run in it.
    tracer.wrap(Executor, "execute", "executor.execute",
                before=_executed_nodes, after=_plan_node_breakdown)

    def probe(span, args, kwargs, result):
        span.counts["keys"] = int(len(args[1]))
        span.counts["matches"] = int(len(result[0]))

    tracer.wrap(SortedIndex, "lookup_batch", "storage.index_probe",
                after=probe)

    def rows(span, args, kwargs, result):
        span.counts["rows"] = int(result)

    tracer.wrap(Database, "append_rows", "storage.append", after=rows)
    tracer.wrap(Database, "delete_rows", "storage.delete", after=rows)
    tracer.wrap(Database, "analyze", "dynamic.reanalyze")

    def temp(span, args, kwargs, result):
        span.counts["bytes"] = int(args[1].memory_bytes)

    tracer.wrap(Database, "register_temp", "storage.register_temp",
                after=temp)
    tracer.wrap(DriftStream, "apply", "dynamic.drift_apply")
    tracer.wrap(StalenessController, "observe", "dynamic.observe")

    def analyzed(span, args, kwargs, result):
        span.counts["rows"] = int(kwargs.get("num_rows") or 0)

    for module in (splitter, reopt_base):
        tracer.wrap(module, "analyze_columns", "catalog.analyze",
                    after=analyzed)
    for module in (splitter, nonspj, operators):
        tracer.wrap(module, "group_aggregate", "executor.group_aggregate")
    tracer.wrap(splitter, "generate_subqueries", "core.qsa")
    tracer.wrap(splitter, "select_subquery", "core.ssa")


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold one traced round's spans into the per-layer metrics."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                       + span.duration)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def self_time(algorithm):
        return sum(s.duration - child_time.get(s.id, 0.0)
                   for s in named("query")
                   if s.counts.get("algorithm") == algorithm)

    executes = named("executor.execute")
    ops: dict[str, float] = {}
    qerrors: list[float] = []
    for span in executes:
        for kind, seconds in span.counts.get("ops", {}).items():
            ops[kind] = ops.get(kind, 0.0) + seconds
        qerrors.extend(span.counts.get("qerrors", ()))
    blocks_total = count("executor.execute", "blocks_total")
    plan_calls = len(named("optimizer.plan"))
    return {
        "optimizer.plan_s": total("optimizer.plan"),
        "optimizer.plan_calls": plan_calls,
        "optimizer.estimate_s": total("optimizer.estimate"),
        "optimizer.estimate_calls": len(named("optimizer.estimate")),
        "optimizer.plans_per_execution":
            plan_calls / len(executes) if executes else 0.0,
        "optimizer.qerror_p50": _percentile(qerrors, 50),
        "optimizer.qerror_p95": _percentile(qerrors, 95),
        "core.self_s": self_time("QuerySplit"),
        "core.qsa_s": total("core.qsa"),
        "core.ssa_s": total("core.ssa"),
        "reopt.self_s": self_time("Reopt"),
        "catalog.analyze_s": total("catalog.analyze"),
        "catalog.analyze_calls": len(named("catalog.analyze")),
        "catalog.analyze_rows": count("catalog.analyze", "rows"),
        "executor.execute_s": sum(s.duration for s in executes),
        "executor.execute_calls": len(executes),
        "executor.scan_s": ops.get("scan", 0.0),
        "executor.hash_join_s": ops.get("hash_join", 0.0),
        "executor.index_nl_join_s": ops.get("index_nl_join", 0.0),
        "executor.cross_product_s": ops.get("cross_product", 0.0),
        "executor.root_s": ops.get("root", 0.0),
        "executor.group_aggregate_s": total("executor.group_aggregate"),
        "executor.group_aggregate_calls":
            len(named("executor.group_aggregate")),
        "executor.rows_out": count("executor.execute", "rows_out"),
        "executor.materialized_bytes":
            count("executor.execute", "materialized_bytes"),
        "executor.blocks_pruned_frac":
            (count("executor.execute", "blocks_pruned") / blocks_total
             if blocks_total else 0.0),
        "executor.semijoin_pruned_rows":
            count("executor.execute", "semijoin_pruned_rows"),
        "storage.index_probe_s": total("storage.index_probe"),
        "storage.index_probe_keys": count("storage.index_probe", "keys"),
        "storage.index_probe_matches":
            count("storage.index_probe", "matches"),
        "storage.append_s": total("storage.append"),
        "storage.delete_s": total("storage.delete"),
        "storage.rows_appended": count("storage.append", "rows"),
        "storage.rows_deleted": count("storage.delete", "rows"),
        "storage.temp_bytes": count("storage.register_temp", "bytes"),
        "dynamic.reanalyze_s": total("dynamic.reanalyze"),
        "dynamic.reanalyzes": len(named("dynamic.reanalyze")),
    }
