"""Storage subsystem: in-memory columnar tables, indexes, and the database.

This replaces the PostgreSQL storage layer used in the paper.  Tables are
columnar (one numpy array per column) and block-partitioned (per-block zone
maps drive scan pruning, see :mod:`repro.storage.zonemaps`), indexes are
sorted permutations, with a direct-address table over dense integer keys,
that support vectorized equality probes (the analogue of B+tree index
lookups), and a :class:`~repro.storage.database.Database`
bundles the schema, the base tables, their statistics, the configured
indexes, and any temporary tables materialized during re-optimization.
"""

from repro.storage.table import DataTable
from repro.storage.index import SortedIndex
from repro.storage.database import Database, IndexConfig
from repro.storage.zonemaps import DEFAULT_BLOCK_SIZE, BlockZone, TableZoneMaps

__all__ = ["DataTable", "SortedIndex", "Database", "IndexConfig",
           "DEFAULT_BLOCK_SIZE", "BlockZone", "TableZoneMaps"]
