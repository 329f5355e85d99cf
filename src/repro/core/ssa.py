"""Subquery Selection Algorithm (SSA) cost functions (Section 4.2, Table 2).

At every QuerySplit iteration the SSA ranks the remaining subqueries by a
cost function Phi of the optimizer's estimated execution cost ``C(q)`` and
estimated output cardinality ``S(q)`` and executes the subquery with the
smallest value:

=========  ==========================
Phi1       C(q)
Phi2       C(q) * log(S(q))
Phi3       C(q) * sqrt(S(q))
Phi4       C(q) * S(q)        (the paper's default)
Phi5       S(q)
=========  ==========================

``global_deep`` is the baseline ordering policy evaluated in Table 3: it
follows the global physical plan, selecting the subquery whose relation set
contains the relations of the deepest not-yet-consumed join of that plan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.plan.logical import SPJQuery
from repro.plan.physical import PhysicalPlan


class CostFunction(enum.Enum):
    """Selectable SSA ranking policies."""

    PHI1 = "phi1"
    PHI2 = "phi2"
    PHI3 = "phi3"
    PHI4 = "phi4"
    PHI5 = "phi5"
    GLOBAL_DEEP = "global_deep"


def phi1(cost: float, rows: float) -> float:
    """Phi1 = C(q)."""
    return cost


def phi2(cost: float, rows: float) -> float:
    """Phi2 = C(q) * log(S(q))."""
    return cost * math.log(max(rows, 2.0))


def phi3(cost: float, rows: float) -> float:
    """Phi3 = C(q) * sqrt(S(q))."""
    return cost * math.sqrt(max(rows, 1.0))


def phi4(cost: float, rows: float) -> float:
    """Phi4 = C(q) * S(q) (the paper's default)."""
    return cost * max(rows, 1.0)


def phi5(cost: float, rows: float) -> float:
    """Phi5 = S(q)."""
    return rows


#: Mapping from the enum to the scoring callables (GLOBAL_DEEP is handled
#: separately because it needs the global physical plan, not C/S estimates).
SSA_FUNCTIONS = {
    CostFunction.PHI1: phi1,
    CostFunction.PHI2: phi2,
    CostFunction.PHI3: phi3,
    CostFunction.PHI4: phi4,
    CostFunction.PHI5: phi5,
}


@dataclass(frozen=True)
class SubqueryEstimate:
    """The optimizer's estimates for one candidate subquery."""

    subquery: SPJQuery
    cost: float
    rows: float
    #: The plan the estimates come from, executed if this subquery is chosen.
    plan: PhysicalPlan | None = None


def select_subquery(estimates: list[SubqueryEstimate],
                    cost_function: CostFunction,
                    global_plan: PhysicalPlan | None = None,
                    consumed_aliases: frozenset[str] = frozenset()) -> int:
    """Index of the subquery to execute next.

    Parameters
    ----------
    estimates:
        Estimated cost / cardinality of every remaining subquery.
    cost_function:
        Which ranking policy to apply.
    global_plan:
        The global physical plan (required by ``GLOBAL_DEEP``).
    consumed_aliases:
        Aliases already executed in previous iterations; ``GLOBAL_DEEP`` skips
        plan joins that are already fully consumed.
    """
    if not estimates:
        raise ValueError("no subqueries to select from")
    if cost_function is CostFunction.GLOBAL_DEEP:
        return _select_global_deep(estimates, global_plan, consumed_aliases)
    scorer = SSA_FUNCTIONS[cost_function]
    scores = [scorer(est.cost, est.rows) for est in estimates]
    return min(range(len(estimates)), key=scores.__getitem__)


def _select_global_deep(estimates: list[SubqueryEstimate],
                        global_plan: PhysicalPlan | None,
                        consumed_aliases: frozenset[str]) -> int:
    if global_plan is None:
        raise ValueError("GLOBAL_DEEP selection requires the global physical plan")
    # Walk the plan's joins from the deepest up and find the first whose
    # relations are not yet fully consumed; pick a subquery covering them.
    for join in global_plan.join_nodes():
        relations = join.covered_aliases()
        if relations <= consumed_aliases:
            continue
        for i, est in enumerate(estimates):
            if relations <= est.subquery.covered_aliases():
                return i
        # No subquery is a superset of this join: fall back to the subquery
        # with the largest overlap with it.
        overlaps = [
            len(relations & est.subquery.covered_aliases()) for est in estimates
        ]
        if max(overlaps) > 0:
            return max(range(len(estimates)), key=overlaps.__getitem__)
    # Every join is consumed (or the plan has none): default to Phi4 ordering.
    scores = [phi4(est.cost, est.rows) for est in estimates]
    return min(range(len(estimates)), key=scores.__getitem__)
