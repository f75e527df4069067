"""Vectorized last-writer-wins (LWW) reduction over Arrow tables.

The CDC engine's core per-key semantics: among all change events (and the
existing lake row) for a key ``(conv_id, turn_idx)``, the one with the
greatest ``(ts, lsn)`` wins; delete events are tombstones. This generalizes
the reference's MERGE upsert — ``whenMatchedUpdateAll`` / ``whenNotMatched
InsertAll`` on PK equality (/root/reference/src/models/writer.py:42-67) —
replacing Spark's "source wins" with an explicit commutative LWW order so
replay of any permutation of a batch converges (SURVEY.md §2.9).

Everything here is Arrow/numpy-vectorized: sort → adjacent-diff group
boundaries → filter. No per-row Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import is_binary_like

__all__ = ["lww_reduce", "lww_survivor_indices", "last_per_key_mask", "distinct_key_count"]


def _codes(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Integer codes such that equal values get equal codes (for adjacent
    comparison on a sorted table)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_dictionary(t):
        return col.indices.to_numpy(zero_copy_only=False)
    if is_binary_like(t):
        return pc.dictionary_encode(col).indices.to_numpy(zero_copy_only=False)
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
    return col.to_numpy(zero_copy_only=False)


def last_per_key_mask(sorted_tbl: pa.Table, key_cols: tuple[str, ...]) -> np.ndarray:
    """Boolean mask selecting the LAST row of each key group of a table
    already sorted by ``key_cols`` (+ any order columns)."""
    n = sorted_tbl.num_rows
    if n == 0:
        return np.zeros(0, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    mask[-1] = True
    for k in key_cols:
        vals = _codes(sorted_tbl.column(k))
        mask[:-1] |= vals[:-1] != vals[1:]
    return mask


def _sort_codes(col: pa.ChunkedArray | pa.Array) -> pa.Array | pa.ChunkedArray:
    """An order-preserving integer stand-in for a string, binary or
    dictionary key column: each row's value's rank among the column's
    distinct values (``dictionary_encode`` + a dense ``pc.rank`` of the
    dictionary), NULL staying NULL. Arrow orders strings bytewise in both
    ``sort_indices`` and ``rank``, so sorting by the codes orders rows
    exactly as sorting by the values, and equal values share a code.
    Other columns sort as they are."""
    t = col.type
    if not (pa.types.is_dictionary(t) or is_binary_like(t)):
        return col
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = col if pa.types.is_dictionary(t) else pc.dictionary_encode(col)
    ranks = pc.rank(d.dictionary, sort_keys="ascending", tiebreaker="dense")
    return ranks.take(d.indices)


def distinct_key_count(tbl: pa.Table, key_cols: tuple[str, ...]) -> int:
    """Exact number of distinct ``key_cols`` tuples in ``tbl`` — the row
    count :func:`lww_survivor_indices` returns, found without sorting the
    rows by key. Each key column's dictionary indices (a dictionary
    column's own, so a caller that already encoded the leading key pays
    no second hash pass) fold into one int64 per row, and ``np.unique``
    counts them. A row with a NULL key is its own group, as
    :func:`last_per_key_mask` treats it."""
    n = tbl.num_rows
    if n <= 1 or not key_cols:
        return min(n, 1)
    codes = np.zeros(n, dtype=np.int64)
    null_rows = np.zeros(n, dtype=bool)
    for k in key_cols:
        col = tbl.column(k)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = col if pa.types.is_dictionary(col.type) else pc.dictionary_encode(col)
        idx = d.indices
        if idx.null_count:
            null_rows |= ~idx.is_valid().to_numpy(zero_copy_only=False)
            idx = idx.fill_null(0)
        card = max(len(d.dictionary), 1)
        if int(codes.max()) >= (1 << 62) // card:  # re-densify before the product overflows
            codes = np.unique(codes, return_inverse=True)[1].astype(np.int64)
        codes = codes * card + idx.to_numpy(zero_copy_only=False)
    n_null = int(null_rows.sum())
    return n_null + len(np.unique(codes[~null_rows] if n_null else codes))


def lww_survivor_indices(
    tbl: pa.Table,
    key_cols: tuple[str, ...] = ("conv_id", "turn_idx"),
    order_cols: tuple[str, ...] = ("ts", "lsn"),
) -> np.ndarray:
    """Original-row indices of the per-key winners, in key-sorted order.

    Touches ONLY the narrow key/order columns (sort + boundary mask) — no
    payload bytes move. Callers decide when to pay the single wide gather,
    and can fuse it with other reorderings (e.g. the hash-partition split)
    so the text column is copied exactly once per stage.

    String and binary key columns (and dictionary-typed ones, whose
    dictionary a caller may already hold) sort as their
    :func:`_sort_codes`: integer ranks that order exactly as the values,
    so the sort and the boundary mask compare integers and the survivors
    and their order equal a sort on the values themselves."""
    cols = [_sort_codes(tbl.column(k)) for k in key_cols]
    cols += [tbl.column(c) for c in order_cols]
    narrow = pa.Table.from_arrays(cols, names=[*key_cols, *order_cols])
    sort_keys = [(k, "ascending") for k in (*key_cols, *order_cols)]
    idx = pc.sort_indices(narrow, sort_keys=sort_keys)
    keys_sorted = narrow.select(list(key_cols)).take(idx)
    mask = last_per_key_mask(keys_sorted, key_cols)
    return idx.to_numpy(zero_copy_only=False)[mask]


def lww_reduce(
    tbl: pa.Table,
    key_cols: tuple[str, ...] = ("conv_id", "turn_idx"),
    order_cols: tuple[str, ...] = ("ts", "lsn"),
    drop: str | None = None,
) -> pa.Table:
    """Keep, per key tuple, the single row with the greatest order tuple.

    Stable under duplicate delivery: two rows with identical
    ``(key, order)`` are the same event re-delivered, so either copy is
    correct. Used both as the per-batch shuffle *combiner* (cuts shuffle
    bytes for hot conversations before the groupby) and as the
    per-partition merge reduction.

    ``drop`` names a boolean column (a merge-on-read's tombstone flag):
    survivors where it is true or NULL are left out of the one gather, so
    the result equals ``lww_reduce(tbl).filter(~tbl[drop])`` without a
    second full-width copy. Only the survivors' flags are read.
    """
    if tbl.num_rows <= 1 and drop is None:
        return tbl
    if tbl.num_rows <= 1:
        idx = np.arange(tbl.num_rows)
    else:
        idx = lww_survivor_indices(tbl, key_cols, order_cols)
    if drop is not None:
        dead = pc.fill_null(tbl.column(drop).take(idx), True)
        idx = idx[~dead.to_numpy(zero_copy_only=False)]
    return tbl.take(pa.array(idx))
