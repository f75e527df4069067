"""Vectorized per-batch transform primitives (SURVEY.md §2.2, §2.8).

Arrow-compute re-expressions of the reference's PySpark column operations:
``cast``/``alias`` (/root/reference/src/silver/order.py:73-83), ``rlike``
regex filters (/root/reference/src/silver/product.py:70-84) and
``explode``. All functions are pure ``pa.Table -> pa.Table`` and composable
inside one ``map_batches`` call.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def cast_columns(tbl: pa.Table, casts: dict[str, pa.DataType]) -> pa.Table:
    """``df.withColumn(c, col(c).cast(T))`` — pc.cast per column."""
    for name, dtype in casts.items():
        i = tbl.schema.get_field_index(name)
        tbl = tbl.set_column(i, pa.field(name, dtype), tbl.column(name).cast(dtype))
    return tbl


def rename_columns(tbl: pa.Table, renames: dict[str, str]) -> pa.Table:
    """``col(a).alias(b)`` — keeps order."""
    return tbl.rename_columns([renames.get(n, n) for n in tbl.column_names])


def project(tbl: pa.Table, names: list[str]) -> pa.Table:
    """``df.select(...)`` — declared column order on write
    (/root/reference/src/models/writer.py:37,56)."""
    return tbl.select(names)


def filter_regex(tbl: pa.Table, column: str, pattern: str) -> pa.Table:
    """``df.filter(col.rlike(pattern))`` — pc.match_substring_regex mask.
    Nulls never match (Spark rlike semantics)."""
    mask = pc.match_substring_regex(tbl.column(column), pattern)
    return tbl.filter(pc.fill_null(mask, False))


def explode_struct_list(tbl: pa.Table, column: str, keep: list[str] | None = None) -> pa.Table:
    """``F.explode(list<struct>)`` then struct-field access — the reference's
    DQ-failure flattening (/root/reference/src/models/data_quality_evaluator.py:53-65):
    one output row per list element, struct fields become top-level columns,
    ``keep`` columns are repeated per element. Rows with empty/null lists
    produce no output (explode, not explode_outer)."""
    col = tbl.column(column).combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lengths = pc.list_value_length(col).fill_null(0).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(col)  # drops nulls/empties, concatenates elements
    import numpy as np

    parent = np.repeat(np.arange(len(tbl)), lengths)
    out_cols: dict[str, pa.Array | pa.ChunkedArray] = {}
    for name in keep or []:
        out_cols[name] = tbl.column(name).take(pa.array(parent))
    struct_type = col.type.value_type
    for i in range(struct_type.num_fields):
        f = struct_type.field(i)
        out_cols[f.name] = pc.struct_field(flat, f.name)
    return pa.table(out_cols)
