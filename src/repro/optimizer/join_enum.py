"""Join-order enumeration.

The enumerator runs the classic dynamic program over relation subsets used
by System R descendants, up to a configurable relation count, and falls
back to greedy operator ordering (GOO) for wider queries.  For every join
it considers hash join, merge join, index nested-loop join (when the inner
side is a single indexed base relation) and plain nested-loop join, and
keeps the cheapest.

The dynamic program works on bitmasks (Vance & Maier, "Rapid Bushy
Join-order Optimization with Cartesian Products", SIGMOD 1996): relation
``i`` is bit ``1 << i`` and a subset is the OR of its bits.  Each plan call
builds a few tables once -- per relation the relations it joins, per
subset the union of its members' neighbours, per filter the relations it
reads and per join predicate the pair it connects -- so a split's
connectivity is one AND, and a subset's cardinality-estimate inputs are
mask tests.  Each ordered split of a subset is costed with scalar
arithmetic; only the winning split becomes a :class:`JoinNode`, and only it
assembles its predicate tuple.

Splits without a join predicate are kept as nested-loop cross products
rather than pruned as connected-subgraph enumerators (DPccp) do: joining a
1-row estimate by a cross product early is often the cheapest plan, and 22
of the 91 JOB plans on synthetic IMDB at scale 0.25 under the default
estimator do exactly that.

The enumerator is deliberately driven *only* by the injected cardinality
estimator: feeding it the default estimator reproduces PostgreSQL's
behaviour (including its mistakes), feeding it the oracle produces the
"Optimal" baseline, and feeding it a noisy estimator produces the robustness
study of Figure 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.plan.expressions import ColumnRef, JoinPredicate, Predicate
from repro.plan.logical import RelationRef, SPJQuery
from repro.plan.physical import JoinMethod, JoinNode, PlanNode, ScanNode
from repro.storage.database import Database

_INF = float("inf")


@dataclass(frozen=True)
class EnumeratorConfig:
    """Knobs controlling the plan search."""

    dp_relation_limit: int = 8
    enable_index_nl: bool = True
    enable_hash: bool = True
    enable_merge: bool = True
    enable_nl: bool = True
    #: Account for zone-map block pruning in scan costs: the expected pruned
    #: fraction is computed from the stored table's actual zone maps (an
    #: exact "EXPLAIN-time" dry run of the pruning pass).  Off by default so
    #: plan choices match the paper's PostgreSQL-style cost model.
    zone_map_scan_cost: bool = False
    #: Multiplier applied to estimated cardinalities when evaluating plan
    #: robustness (used by the FS baseline); 1.0 disables the penalty.
    robustness_blowup: float = 1.0
    #: Weight of the blown-up cost in the robust objective (0 = pure cost).
    robustness_weight: float = 0.0


class JoinEnumerator:
    """Builds the cheapest physical join tree for an SPJ query."""

    def __init__(self, database: Database, estimator: CardinalityEstimator,
                 cost_model: CostModel, config: EnumeratorConfig | None = None):
        self.database = database
        self.estimator = estimator
        self.cost_model = cost_model
        self.config = config or EnumeratorConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(self, query: SPJQuery) -> PlanNode:
        """Return the root of the cheapest join tree found for ``query``."""
        base_nodes = [self._scan_node(query, rel) for rel in query.relations]
        if len(base_nodes) == 1:
            return base_nodes[0]
        graph = _JoinGraph(query, self.estimator)
        if len(base_nodes) <= self.config.dp_relation_limit:
            return self._dynamic_programming(graph, base_nodes)
        return self._greedy(graph, base_nodes)

    # ------------------------------------------------------------------
    # Leaf plans
    # ------------------------------------------------------------------
    def _scan_node(self, query: SPJQuery, relation: RelationRef) -> ScanNode:
        filters = query.filters_for(relation)
        rows = self.estimator.estimate_rows((relation,), filters, (), query.name)
        table_rows = self.estimator.relation_rows(relation)
        pruned, block_rows = self._pruned_fraction(relation, filters)
        cost = self.cost_model.scan_cost(
            table_rows, rows, len(filters),
            pruned_fraction=pruned, block_rows=block_rows,
            code_space_filters=self._code_space_filters(relation, filters))
        return ScanNode(relation=relation, filters=filters,
                        est_rows=rows, est_cost=cost)

    def _code_space_filters(self, relation: RelationRef,
                            filters: tuple[Predicate, ...]) -> int:
        """Filters the scan will evaluate in dictionary code space.

        A filter qualifies when every column it references is stored
        dictionary-encoded in the base table, so the executor's predicate
        translation turns it into an int compare.  Scans over temps are
        costed in value space, although their encoded columns translate
        too.
        """
        if not filters or relation.is_temp:
            return 0
        if not self.database.has_table(relation.table_name):
            return 0
        table = self.database.table(relation.table_name)
        if not table.dictionaries:
            return 0
        return sum(
            1 for pred in filters
            if all(table.has_column(ref.column) and table.is_encoded(ref.column)
                   for ref in pred.column_refs()))

    def _pruned_fraction(self, relation: RelationRef,
                         filters: tuple[Predicate, ...]
                         ) -> tuple[float, float | None]:
        """Expected zone-map pruning for this scan: (fraction, block rows).

        (0.0, None) unless ``zone_map_scan_cost`` is enabled and the stored
        table has zone maps; the fraction is an exact EXPLAIN-time dry run
        of the pruner over the real zone maps.
        """
        if not self.config.zone_map_scan_cost or not filters or relation.is_temp:
            return 0.0, None
        if not self.database.has_table(relation.table_name):
            return 0.0, None
        zone_maps = self.database.table(relation.table_name).zone_maps
        if zone_maps is None:
            return 0.0, None
        fraction = zone_maps.pruned_fraction(filters, lambda ref: ref.column)
        return fraction, float(zone_maps.block_size)

    # ------------------------------------------------------------------
    # Dynamic programming over subsets
    # ------------------------------------------------------------------
    def _dynamic_programming(self, graph: _JoinGraph,
                             base_nodes: list[ScanNode]) -> PlanNode:
        size = 1 << len(base_nodes)
        nodes: list[PlanNode | None] = [None] * size
        plans: list[tuple[float, float, float] | None] = [None] * size
        for i, node in enumerate(base_nodes):
            nodes[1 << i] = node
            plans[1 << i] = self._summary(node)
        neighbours = graph.subset_neighbours()
        probes = self._index_probes(graph)

        for mask in sorted(range(3, size), key=int.bit_count):
            if not mask & (mask - 1):
                continue
            rows = graph.rows(mask)
            best: tuple[int, tuple[float, float, JoinMethod]] | None = None
            best_score = _INF
            # Every ordered split (sub, other) is considered so that both join
            # orientations (which side builds / is probed via its index) are
            # explored.
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                left = plans[sub]
                right = plans[other]
                if left is not None and right is not None:
                    joined = neighbours[sub] & other
                    probe = _probe(probes, other, sub) if joined else None
                    candidate = self._cheapest(left, right, rows, joined, probe)
                    if candidate is not None and candidate[0] < best_score:
                        best_score = candidate[0]
                        best = (sub, candidate)
                sub = (sub - 1) & mask
            if best is not None:
                sub, (_, cost, method) = best
                other = mask ^ sub
                nodes[mask] = self._join_node(
                    nodes[sub], nodes[other], graph.pair_predicates(sub, other),
                    method, rows, cost)
                plans[mask] = (rows, cost, self.cost_model.sort_cost(rows))

        if nodes[size - 1] is not None:
            return nodes[size - 1]
        # The join graph is disconnected: combine the best plans of its
        # connected components with cross products.
        return self._combine_components(nodes)

    def _combine_components(self, nodes: list[PlanNode | None]) -> PlanNode:
        full_mask = len(nodes) - 1
        # Greedily merge the largest solved masks until everything is covered.
        solved = sorted((mask for mask in range(1, len(nodes))
                         if nodes[mask] is not None),
                        key=int.bit_count, reverse=True)
        covered = 0
        parts: list[PlanNode] = []
        for mask in solved:
            if covered & mask:
                continue
            parts.append(nodes[mask])
            covered |= mask
            if covered == full_mask:
                break
        result = parts[0]
        for part in parts[1:]:
            result = self._cross_product(result, part)
        return result

    # ------------------------------------------------------------------
    # Greedy operator ordering for wide queries
    # ------------------------------------------------------------------
    def _greedy(self, graph: _JoinGraph, base_nodes: list[ScanNode]) -> PlanNode:
        probes = self._index_probes(graph)
        # A component is (relation mask, neighbour mask, plan, plan summary).
        components = [(1 << i, graph.adjacent[i], node, self._summary(node))
                      for i, node in enumerate(base_nodes)]
        while len(components) > 1:
            best: tuple[int, int, tuple[float, float, JoinMethod]] | None = None
            best_score = _INF
            for i, (l_mask, l_neighbours, _, left) in enumerate(components):
                for j, (r_mask, _, _, right) in enumerate(components):
                    if i == j or not l_neighbours & r_mask:
                        continue
                    candidate = self._cheapest(
                        left, right, graph.rows(l_mask | r_mask), True,
                        _probe(probes, r_mask, l_mask))
                    if candidate is not None and candidate[0] < best_score:
                        best_score = candidate[0]
                        best = (i, j, candidate)
            if best is None:
                # No connected pair remains: cross product the two smallest.
                components.sort(key=lambda c: c[2].est_rows)
                i, j = 0, 1
                node = self._cross_product(components[0][2], components[1][2])
            else:
                i, j, (_, cost, method) = best
                left_mask, right_mask = components[i][0], components[j][0]
                node = self._join_node(
                    components[i][2], components[j][2],
                    graph.query_predicates(left_mask, right_mask), method,
                    graph.rows(left_mask | right_mask), cost)
            merged = (components[i][0] | components[j][0],
                      components[i][1] | components[j][1],
                      node, self._summary(node))
            components = [c for k, c in enumerate(components) if k not in (i, j)]
            components.append(merged)
        return components[0][2]

    # ------------------------------------------------------------------
    # Join candidate costing
    # ------------------------------------------------------------------
    def _cheapest(self, left: tuple[float, float, float],
                  right: tuple[float, float, float], output_rows: float,
                  joined: int | bool, probe: float | None
                  ) -> tuple[float, float, JoinMethod] | None:
        """The cheapest join of two sub-plans as ``(score, cost, method)``.

        ``left`` and ``right`` summarize the outer and inner sub-plan as
        ``(rows, cost, sort)``, ``sort`` being the merge join's cost of
        sorting that input.  ``joined`` is true when a join predicate
        connects them; ``probe`` is the inner relation's per-probe index
        cost when an index nested-loop join applies, else ``None``.

        Candidates are tried in the order hash, merge, index nested-loop,
        nested-loop (the last for cross products, or when nothing else is
        enabled), and the first with the strictly lowest score wins.  The
        costs are :meth:`CostModel.join_cost` plus the children's costs,
        evaluated term for term in the same order, so each is the same
        float a :class:`JoinNode` costed through the model would carry.
        Returns ``None`` when no method is enabled for this join.
        """
        l_rows, l_cost, l_sort = left
        r_rows, r_cost, r_sort = right
        p = self.cost_model.params
        config = self.config
        emit = output_rows * p.cpu_tuple_cost
        child_cost = l_cost + r_cost
        candidates: list[tuple[JoinMethod, float]] = []
        if joined:
            if config.enable_hash:
                candidates.append((JoinMethod.HASH, child_cost + (
                    r_rows * p.cpu_tuple_cost * p.hash_build_factor
                    + l_rows * (p.cpu_tuple_cost + p.cpu_operator_cost)
                    + emit)))
            if config.enable_merge:
                candidates.append((JoinMethod.MERGE, child_cost + (
                    l_sort + r_sort + (l_rows + r_rows) * p.cpu_tuple_cost
                    + emit)))
            if probe is not None:
                candidates.append((JoinMethod.INDEX_NL, child_cost - r_cost + (
                    l_rows * probe + emit)))
        if config.enable_nl and not candidates:
            candidates.append((JoinMethod.NL, child_cost + (
                l_rows * r_rows * p.cpu_operator_cost + emit)))

        best = None
        best_score = _INF
        robust = config.robustness_weight > 0.0
        for method, cost in candidates:
            score = (self._robust_score(method, cost, left, right, output_rows)
                     if robust else cost)
            if score < best_score:
                best_score = score
                best = (score, cost, method)
        return best

    def _robust_score(self, method: JoinMethod, cost: float,
                      left: tuple[float, float, float],
                      right: tuple[float, float, float],
                      output_rows: float) -> float:
        """FS's objective: cost mixed with the cost under blown-up estimates.

        The blown-up cost is the join's cost if every cardinality were
        ``robustness_blowup`` times larger, plus the children's costs.
        """
        blowup = self.config.robustness_blowup
        inflated = self.cost_model.join_cost(
            method, left[0] * blowup, right[0] * blowup, output_rows * blowup,
            inner_indexed=method is JoinMethod.INDEX_NL,
        ) + left[1] + right[1]
        w = self.config.robustness_weight
        return (1.0 - w) * cost + w * inflated

    def _index_probes(self, graph: _JoinGraph) -> dict[int, tuple[int, float]]:
        """Index nested-loop inners, keyed by relation bit.

        Each indexed base relation maps to the mask of relations it joins
        through an indexed column of its own, and to the cost of one index
        probe into it.  Empty when index nested-loop joins are disabled.
        """
        if not self.config.enable_index_nl:
            return {}
        probes: dict[int, tuple[int, float]] = {}
        for i, relation in enumerate(graph.relations):
            if relation.is_temp:
                continue
            bit = 1 << i
            indexed = 0
            for pair, pred in graph.joins:
                if pair & bit:
                    side = pred.left if relation.covers(pred.left.alias) else pred.right
                    if self.database.has_index(relation.table_name, side.column):
                        indexed |= pair ^ bit
            if indexed:
                probes[bit] = (indexed, self.cost_model.index_probe_cost(
                    self.estimator.relation_rows(relation)))
        return probes

    def _summary(self, node: PlanNode) -> tuple[float, float, float]:
        """``(rows, cost, sort)`` of a sub-plan, as :meth:`_cheapest` takes it."""
        return node.est_rows, node.est_cost, self.cost_model.sort_cost(node.est_rows)

    def _join_node(self, left: PlanNode, right: PlanNode,
                   preds: tuple[JoinPredicate, ...], method: JoinMethod,
                   rows: float, cost: float) -> JoinNode:
        index_column = (self._index_column(right.relation, preds)
                        if method is JoinMethod.INDEX_NL else None)
        return JoinNode(left=left, right=right, predicates=preds, method=method,
                        index_column=index_column, est_rows=rows, est_cost=cost)

    def _cross_product(self, left: PlanNode, right: PlanNode) -> JoinNode:
        """A nested-loop cross product of two sub-plans."""
        out_rows = max(left.est_rows * right.est_rows, 1.0)
        cost = (left.est_cost + right.est_cost
                + self.cost_model.join_cost(JoinMethod.NL, left.est_rows,
                                            right.est_rows, out_rows))
        return JoinNode(left=left, right=right, predicates=(),
                        method=JoinMethod.NL, est_rows=out_rows, est_cost=cost)

    def _index_column(self, relation: RelationRef,
                      preds: tuple[JoinPredicate, ...]) -> ColumnRef | None:
        """The index an index nested-loop join into ``relation`` probes: the
        first side of ``preds`` on ``relation`` whose column is indexed."""
        for pred in preds:
            for side in (pred.left, pred.right):
                if relation.covers(side.alias) and self.database.has_index(
                        relation.table_name, side.column):
                    return side
        return None


def _probe(probes: dict[int, tuple[int, float]], inner: int,
           outer: int) -> float | None:
    """Per-probe cost of an index nested-loop join of ``outer`` into
    ``inner``, or ``None`` when none applies (see ``_index_probes``)."""
    entry = probes.get(inner)
    if entry is None or not entry[0] & outer:
        return None
    return entry[1]


class _JoinGraph:
    """Bitmask tables of one query's join graph.

    Relation ``i`` of the query is bit ``1 << i``; a set of relations is
    the OR of their bits.  Built once per :meth:`JoinEnumerator.plan` call.
    """

    def __init__(self, query: SPJQuery, estimator: CardinalityEstimator):
        self.query = query
        self.estimator = estimator
        self.relations = query.relations
        bit_of = {alias: 1 << i for i, relation in enumerate(self.relations)
                  for alias in relation.covered_aliases}
        #: Per relation: the mask of relations it shares a join predicate with.
        self.adjacent = [0] * len(self.relations)
        #: Join predicates between two different relations, in query order,
        #: each with the mask of the two relations it connects.  Predicates
        #: inside one relation (a temporary) were applied when it was built.
        self.joins: list[tuple[int, JoinPredicate]] = []
        by_pair: dict[int, list[JoinPredicate]] = {}
        for pred in query.join_predicates:
            left, right = bit_of[pred.left.alias], bit_of[pred.right.alias]
            if left == right:
                continue
            self.joins.append((left | right, pred))
            by_pair.setdefault(left | right, []).append(pred)
            self.adjacent[left.bit_length() - 1] |= right
            self.adjacent[right.bit_length() - 1] |= left
        #: The same predicates grouped by relation pair, pairs in order of
        #: first appearance: the order a DP split lists its predicates in.
        self.pairs = [(pair, tuple(preds)) for pair, preds in by_pair.items()]
        #: Filters in query order, each with the mask of relations it reads.
        self.filters: list[tuple[int, Predicate]] = []
        for pred in query.filters:
            mask = 0
            for alias in pred.aliases():
                mask |= bit_of[alias]
            self.filters.append((mask, pred))
        self._rows: dict[int, float] = {}

    def subset_neighbours(self) -> list[int]:
        """Per subset mask: the union of its members' neighbours."""
        neighbours = [0] * (1 << len(self.relations))
        for mask in range(1, len(neighbours)):
            low = mask & -mask
            neighbours[mask] = (neighbours[mask ^ low]
                                | self.adjacent[low.bit_length() - 1])
        return neighbours

    def rows(self, mask: int) -> float:
        """Estimated output rows of joining the relations in ``mask``.

        The estimator sees the relations, and the filters and join
        predicates within them, each in query order.
        """
        rows = self._rows.get(mask)
        if rows is None:
            relations = tuple(relation for i, relation in enumerate(self.relations)
                              if mask >> i & 1)
            filters = tuple(pred for within, pred in self.filters
                            if not within & ~mask)
            joins = tuple(pred for pair, pred in self.joins if not pair & ~mask)
            rows = self.estimator.estimate_rows(relations, filters, joins,
                                                self.query.name)
            self._rows[mask] = rows
        return rows

    def pair_predicates(self, left: int, right: int) -> tuple[JoinPredicate, ...]:
        """Predicates joining two disjoint masks, grouped by relation pair."""
        return tuple(pred for pair, preds in self.pairs
                     if pair & left and pair & right for pred in preds)

    def query_predicates(self, left: int, right: int) -> tuple[JoinPredicate, ...]:
        """Predicates joining two disjoint masks, in query order."""
        return tuple(pred for pair, pred in self.joins
                     if pair & left and pair & right)
