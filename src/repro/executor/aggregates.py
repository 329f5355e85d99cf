"""Vectorized aggregation: the engine's single aggregation entry point.

Every aggregate the engine computes -- the executor's plan-root
:class:`~repro.executor.operators.Aggregate` operator, QuerySplit's final
merge, and non-SPJ ``AggregateNode`` blocks -- goes through
:func:`group_aggregate`.

**Code space.**  Inputs may be dictionary-encoded: ``columns`` then holds
``int32`` codes and ``dictionaries`` maps the column name to its sorted
value dictionary (see :mod:`repro.storage.dictionary`).  The codes are
order-preserving, so GROUP BY keys and MIN/MAX run directly on them, and
the output keeps codes plus the same dictionary reference: only the
query's output rows are ever decoded (by
:meth:`DataTable.decoded <repro.storage.table.DataTable.decoded>`).  SUM
and AVG over an encoded column aggregate its decoded values.

**GROUP BY** is computed with sort + segment reductions
(``np.ufunc.reduceat``) instead of a per-group Python loop: rows are ordered
by group id once, group boundaries are located with ``searchsorted``, and
every aggregate is then a single reduceat call over the sorted values.
Output groups are ordered by key (NULL keys first).  Aggregate output
columns keep the historical ``object`` dtype contract (mixed int/float
values per table); encoded MIN/MAX outputs are ``int32`` codes instead.

**NULL semantics** follow SQL: MIN/MAX/SUM/AVG skip NULLs (``None`` in
object columns, ``NaN`` in float columns, code ``-1`` in encoded ones), a
group without any non-null input -- including the empty input of a scalar
aggregate -- yields NULL (``None``), and COUNT counts rows.
"""

from __future__ import annotations

import numpy as np

from repro.executor.joins import _MAX_COMBINED_CODE
from repro.plan.expressions import ColumnRef
from repro.plan.logical import AggregateSpec
from repro.storage.dictionary import NULL_CODE, decode, null_mask
from repro.storage.table import DataTable

#: Segment reductions per aggregate function (AVG reduces with ``add``).
_REDUCERS = {"min": np.minimum, "max": np.maximum, "sum": np.add,
             "avg": np.add}


def _num_rows(columns: dict[str, np.ndarray]) -> int:
    if not columns:
        return 0
    return len(next(iter(columns.values())))


def group_aggregate(columns: dict[str, np.ndarray],
                    group_by: tuple[ColumnRef, ...],
                    aggregates: tuple[AggregateSpec, ...],
                    dictionaries: dict[str, np.ndarray] | None = None,
                    num_rows: int | None = None) -> DataTable:
    """GROUP BY (or, with no ``group_by``, scalar) aggregation.

    ``dictionaries`` names the sorted dictionary of every encoded column in
    ``columns``.  ``num_rows`` overrides the row count inferred from
    ``columns`` -- needed for pure ``COUNT(*)`` queries whose input carries
    no columns.  The result table carries the dictionaries of its encoded
    output columns (group keys and MIN/MAX over encoded inputs).
    """
    dictionaries = dictionaries or {}
    rows = _num_rows(columns) if num_rows is None else num_rows
    out: dict[str, np.ndarray] = {}
    out_dictionaries: dict[str, np.ndarray] = {}
    if group_by:
        group_ids, first_rows = _group_ids(
            [columns[ref.qualified] for ref in group_by], rows)
        num_groups = len(first_rows)
        order = np.argsort(group_ids, kind="stable")
        sorted_ids = group_ids[order]
        counts = np.bincount(sorted_ids, minlength=num_groups)
        for ref in group_by:
            name = ref.qualified
            out[name] = columns[name][first_rows]
            if name in dictionaries:
                out_dictionaries[name] = dictionaries[name]
    else:
        # One group holding every row (possibly none): no sort needed.
        num_groups, order, sorted_ids = 1, None, None
        counts = np.array([rows], dtype=np.int64)
    for spec in aggregates:
        name = spec.output_name
        if spec.func == "count":
            out[name] = np.empty(num_groups, dtype=object)
            out[name][:] = [int(c) for c in counts]
            continue
        data = columns[spec.column.qualified]
        dictionary = dictionaries.get(spec.column.qualified)
        if dictionary is not None and spec.func in ("min", "max"):
            out[name] = _segment_aggregate(data, data != NULL_CODE, order,
                                           sorted_ids, num_groups, spec.func,
                                           encoded=True)
            out_dictionaries[name] = dictionary
            continue
        if dictionary is not None:
            data = decode(data, dictionary)
        out[name] = _segment_aggregate(data, ~null_mask(data), order,
                                       sorted_ids, num_groups, spec.func)
    return DataTable(name="aggregate", columns=out,
                     dictionaries=out_dictionaries)


def _key_inverse(values: np.ndarray) -> np.ndarray:
    """Dense, order-preserving ids of one GROUP BY key column.

    NULLs of an object column form one group ordered first -- the position
    the NULL code (``-1``) takes in an encoded column, so both
    representations produce the same groups in the same order.
    """
    if values.dtype == object:
        nulls = null_mask(values)
        if nulls.any():
            inverse = np.zeros(len(values), dtype=np.int64)
            _, present = np.unique(values[~nulls], return_inverse=True)
            inverse[~nulls] = present.reshape(-1) + 1
            return inverse
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1)


def _group_ids(key_arrays: list[np.ndarray], rows: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(dense group id per row, first row of each group)``, key-ordered.

    Group ids come from successive uniquification of the key columns.  As
    in :func:`~repro.executor.joins.combine_key_pair`, the running
    ``ids * span + inverse`` encoding is re-uniquified into a dense range
    whenever the next extension could overflow int64 (equal composites
    stay equal, so the grouping is unchanged).
    """
    group_ids = np.zeros(rows, dtype=np.int64)
    for arr in key_arrays:
        inverse = _key_inverse(arr)
        span = int(inverse.max()) + 1 if rows else 1
        current_max = int(group_ids.max()) if rows else 0
        if current_max and span > _MAX_COMBINED_CODE // (current_max + 1):
            _, group_ids = np.unique(group_ids, return_inverse=True)
            group_ids = group_ids.reshape(-1).astype(np.int64)
        group_ids = group_ids * span + inverse
    _, first_rows, dense = np.unique(group_ids, return_index=True,
                                     return_inverse=True)
    return dense.reshape(-1), first_rows


def _segment_aggregate(data: np.ndarray, valid: np.ndarray,
                       order: np.ndarray | None,
                       sorted_ids: np.ndarray | None, num_groups: int,
                       func: str, encoded: bool = False) -> np.ndarray:
    """One MIN/MAX/SUM/AVG over every group, skipping NULL inputs.

    ``order`` sorts the input rows by group and ``sorted_ids`` holds the
    group id of each sorted row; both are ``None`` for a scalar aggregate
    (one group holding every row).  ``valid`` marks the non-null inputs.
    ``encoded`` MIN/MAX reduce dictionary codes and return codes.  Groups
    left without non-null input yield NULL: ``None`` in the object
    output, the NULL code in an encoded one.
    """
    if order is not None:
        data, valid = data[order], valid[order]
    if not valid.all():
        data = data[valid]
        if sorted_ids is not None:
            sorted_ids = sorted_ids[valid]
    reducer = _REDUCERS[func]
    if sorted_ids is None:
        present_counts = np.array([len(data)], dtype=np.int64)
        reduced = [reducer.reduce(data)] if len(data) else []
    else:
        present_counts = np.bincount(sorted_ids, minlength=num_groups)
        groups = np.nonzero(present_counts)[0]
        reduced = (list(reducer.reduceat(data,
                                         np.searchsorted(sorted_ids, groups)))
                   if len(groups) else [])
    present = present_counts > 0
    if encoded:
        out = np.full(num_groups, NULL_CODE, dtype=np.int32)
    else:
        out = np.empty(num_groups, dtype=object)
        if func == "avg":
            sums = np.asarray(reduced, dtype=np.float64)
            reduced = [float(v) for v in sums / present_counts[present]]
    out[present] = reduced
    return out


def union_all(tables: list[DataTable]) -> DataTable:
    """UNION ALL of result tables with identical column sets.

    A column stays encoded when every input shares one dictionary (the
    same base column); otherwise its inputs are decoded and concatenated.
    """
    if not tables:
        return DataTable(name="union", columns={})
    columns: dict[str, np.ndarray] = {}
    dictionaries: dict[str, np.ndarray] = {}
    for name in tables[0].column_names:
        dictionary = tables[0].dictionaries.get(name)
        if dictionary is not None and all(
                t.dictionaries.get(name) is dictionary for t in tables):
            columns[name] = np.concatenate([t.column(name) for t in tables])
            dictionaries[name] = dictionary
        else:
            columns[name] = np.concatenate(
                [t.column_values(name, cache=False) for t in tables])
    return DataTable(name="union", columns=columns, dictionaries=dictionaries)
