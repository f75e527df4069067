"""GROUPING SETS / ROLLUP / CUBE — multi-granularity aggregates in ONE
input pass: SQL's ``GROUP BY GROUPING SETS ((a,b),(a),())`` with a
``GROUPING()`` id column, the reshaping OLAP pipelines use to compute a
report's every subtotal level without rescanning the fact table.

Execution shape: combiner + replicate-the-partials + one exchange. Each
input block pre-aggregates ONCE at the finest grain (the union of all
grouping-set columns) — so the raw rows never shuffle — then each tiny
partial row is replicated once per grouping set with that set's excluded
key columns nulled and a ``grouping_id`` stamped. The replicated partials
(|sets| × groups-per-block rows, still tiny) co-locate on the direct hash
exchange (:func:`~.joins._direct_grouped_apply`) keyed by the encoded
(grouping_id, visible keys) tuple, and one kernel per bucket merges them
to final aggregates. Cost: one scan, one narrow exchange — vs the naive
|sets| separate GROUP BY jobs (|sets| scans of a 100 TB fact table).

Semantics (SQL parity, checked against DuckDB):
- ``grouping_id`` = ``GROUPING(c1,...,ck)`` over the ordered union of
  grouping-set columns: bit ``1 << (k-1-i)`` set iff column ``ci`` is
  aggregated away in the row's set — which is how a consumer tells a
  data NULL from a subtotal NULL.
- NULL key values form their own groups (``GROUP BY`` keeps them).
- ``count`` counts rows; ``count_col`` counts non-null values; ``sum`` /
  ``min`` / ``max`` / ``avg`` are NULL when a group has no non-null
  values; ``avg`` is float64.
- ``var_samp`` / ``var_pop`` / ``stddev_samp`` / ``stddev_pop`` are
  exact second-moment aggregates from mergeable ``(n, Σx, Σx²)``
  partials (float64): sample variants are NULL below 2 non-null values,
  population variants 0 at one — DuckDB's behavior. Cancellation guard:
  the merged value clips at 0, and the partial Σ run numpy pairwise
  summation, so parity with a stable one-pass oracle holds to ~1e-9
  relative on realistic magnitudes (snap both sides when hash-comparing).
- Empty input emits one row per ZERO-column grouping set (count 0,
  sums NULL) — exactly DuckDB's behavior — and nothing for keyed sets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .analytic import _sum_dtype
from .joins import _direct_grouped_apply, _mat_arrow_unified
from .util import null_safe_from_pandas

_FNS = (
    "count", "count_col", "sum", "min", "max", "avg",
    "var_samp", "var_pop", "stddev_samp", "stddev_pop",
)
#: aggregates that need the Σx² quadratic partial
_VAR_FNS = ("var_samp", "var_pop", "stddev_samp", "stddev_pop")
#: routing-key encoding: unit separator between columns; NUL-prefixed
#: sentinel for "null key" so it cannot collide with a real string value
_SEP = "\x1f"
_NULL = "\x00"


def rollup_sets(cols: list[str]) -> list[tuple[str, ...]]:
    """ROLLUP(c1..ck): every prefix, finest first — ((c1..ck) ... (c1) ())."""
    cols = list(cols)
    return [tuple(cols[:i]) for i in range(len(cols), -1, -1)]


def grouping_sets(
    ds: "ray.data.Dataset",
    sets: list[tuple[str, ...]],
    aggs: dict[str, tuple[str, str | None]],
    grouping_col: str = "grouping_id",
    shuffle_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Aggregate ``ds`` at every granularity in ``sets`` in one pass.

    ``aggs``: output column name -> ``(fn, col)`` with fn in
    ``count | count_col | sum | min | max | avg | var_samp | var_pop |
    stddev_samp | stddev_pop`` (``count`` ignores col).
    Output columns: the ordered union of set columns (NULL where a row's
    set aggregates the column away), ``grouping_col`` (int64 SQL
    ``GROUPING()`` id), then one column per agg. Returns a streaming
    Dataset; row count = sum over sets of that set's group count.
    """
    sets = [tuple(s) for s in sets]
    if not sets:
        raise ValueError("need at least one grouping set")
    if len(set(sets)) != len(sets):
        raise ValueError("duplicate grouping sets (UNION semantics would "
                         "double-emit rows); deduplicate the list")
    group_cols: list[str] = []
    for s in sets:
        for c in s:
            if c not in group_cols:
                group_cols.append(c)
    k = len(group_cols)
    for name, (fn, col) in aggs.items():
        if fn not in _FNS:
            raise ValueError(f"agg {name!r}: unknown fn {fn!r} (use {_FNS})")
        if fn != "count" and not col:
            raise ValueError(f"agg {name!r}: fn {fn!r} needs a column")
        if name in group_cols or name == grouping_col:
            raise ValueError(f"agg output {name!r} collides with a key column")

    ds, schema = _mat_arrow_unified(ds)
    if schema is None:
        raise ValueError("grouping_sets needs a non-empty schema")
    in_types = dict(zip(schema.names, schema.types))
    for c in group_cols:
        if c not in in_types:
            raise KeyError(f"grouping column {c!r} not in dataset schema")
    val_cols = sorted({col for fn, col in aggs.values() if fn != "count"})
    for c in val_cols:
        if c not in in_types:
            raise KeyError(f"aggregate column {c!r} not in dataset schema")

    def _gid(s: tuple[str, ...]) -> int:
        return sum(1 << (k - 1 - i) for i, c in enumerate(group_cols) if c not in s)

    gids = [_gid(s) for s in sets]
    # merge plan over partial columns (one partial set per distinct source
    # column per need, shared across aggs)
    need_n = any(fn == "count" for fn, _ in aggs.values())
    need_ns = sorted(
        {c for fn, c in aggs.values() if fn in ("count_col", "sum", "avg") or fn in _VAR_FNS}
    )
    need_s = sorted({c for fn, c in aggs.values() if fn in ("sum", "avg") or fn in _VAR_FNS})
    need_q = sorted({c for fn, c in aggs.values() if fn in _VAR_FNS})
    need_mn = sorted({c for fn, c in aggs.values() if fn == "min"})
    need_mx = sorted({c for fn, c in aggs.values() if fn == "max"})
    # an all-NULL column arrives Arrow `null`-typed: every sum/avg over
    # it is NULL — type the output float64 instead of failing the plan
    sum_ts = {
        c: pa.float64() if pa.types.is_null(in_types[c]) else _sum_dtype(in_types[c])
        for c in need_s
    }

    part_fields: list[tuple[str, pa.DataType]] = (
        [(grouping_col, pa.int64())]
        + [(c, in_types[c]) for c in group_cols]
        + ([("_n", pa.int64())] if need_n else [])
        + [(f"_ns_{c}", pa.int64()) for c in need_ns]
        + [(f"_s_{c}", sum_ts[c]) for c in need_s]
        + [(f"_q_{c}", pa.float64()) for c in need_q]
        + [(f"_mn_{c}", in_types[c]) for c in need_mn]
        + [(f"_mx_{c}", in_types[c]) for c in need_mx]
    )
    part_schema = pa.schema([pa.field(n, t) for n, t in part_fields] + [pa.field("_gk", pa.string())])

    def _route_key(g: pd.DataFrame, gid: int, visible: tuple[str, ...]) -> pd.Series:
        """Deterministic equality-preserving routing string for the
        exchange (collisions only cost co-bucketing, never correctness)."""
        key = pd.Series(str(gid), index=g.index, dtype=object)
        for c in group_cols:
            if c in visible:
                col = g[c]
                enc = col.astype(str).where(col.notna(), _NULL)
            else:
                enc = _NULL
            key = key + _SEP + enc
        return key

    def partial(batch: pa.Table) -> pa.Table:
        from ..pipelines.cdc import _single_threaded_arrow

        _single_threaded_arrow()
        if batch.num_rows == 0:
            return part_schema.empty_table()
        df = batch.select(list(dict.fromkeys(group_cols + val_cols))).to_pandas()
        for c in need_q:  # quadratic partial: NaN-propagating square, summed skipna
            df[f"_qsrc_{c}"] = df[c].astype(np.float64) ** 2
        spec: dict[str, tuple] = {}
        for c in need_ns:
            spec[f"_ns_{c}"] = (c, "count")
        for c in need_s:
            spec[f"_s_{c}"] = (c, "sum")
        for c in need_q:
            spec[f"_q_{c}"] = (f"_qsrc_{c}", "sum")
        for c in need_mn:
            spec[f"_mn_{c}"] = (c, "min")
        for c in need_mx:
            spec[f"_mx_{c}"] = (c, "max")
        if group_cols:
            g = df.groupby(group_cols, dropna=False, sort=False)
            sizes = g.size()
            fine = g.agg(**spec) if spec else pd.DataFrame(index=sizes.index)
            if need_n:
                fine["_n"] = sizes
            fine = fine.reset_index()
        else:  # only the () set exists: one global partial row
            fine = pd.DataFrame(index=[0])
            if need_n:
                fine["_n"] = len(df)
            for c in need_ns:
                fine[f"_ns_{c}"] = df[c].count()
            for c in need_s:
                fine[f"_s_{c}"] = df[c].sum(min_count=1)
            for c in need_q:
                fine[f"_q_{c}"] = df[f"_qsrc_{c}"].sum()
            for c in need_mn:
                fine[f"_mn_{c}"] = df[c].min()
            for c in need_mx:
                fine[f"_mx_{c}"] = df[c].max()
        reps = []
        for s, gid in zip(sets, gids):
            r = fine.copy()
            for c in group_cols:
                if c not in s:
                    r[c] = None
            r[grouping_col] = gid
            r["_gk"] = _route_key(fine, gid, s)
            reps.append(r)
        allr = pd.concat(reps, ignore_index=True)
        out = {n: null_safe_from_pandas(allr[n], t) for n, t in part_fields}
        out["_gk"] = pa.Array.from_pandas(allr["_gk"], type=pa.string())
        return pa.table(out)

    out_fields: list[tuple[str, pa.DataType]] = [
        (c, in_types[c]) for c in group_cols
    ] + [(grouping_col, pa.int64())]
    for name, (fn, col) in aggs.items():
        if fn in ("count", "count_col"):
            out_fields.append((name, pa.int64()))
        elif fn == "sum":
            out_fields.append((name, sum_ts[col]))
        elif fn == "avg" or fn in _VAR_FNS:
            out_fields.append((name, pa.float64()))
        else:
            out_fields.append((name, in_types[col]))

    def kernel(df: pd.DataFrame) -> pa.Table:
        if not len(df):
            return pa.table({n: pa.nulls(0, t) for n, t in out_fields})
        merge: dict[str, tuple] = {}
        if need_n:
            merge["_n"] = ("_n", "sum")
        for c in need_ns:
            merge[f"_ns_{c}"] = (f"_ns_{c}", "sum")
        for c in need_s:
            merge[f"_s_{c}"] = (f"_s_{c}", "sum")
        for c in need_q:
            merge[f"_q_{c}"] = (f"_q_{c}", "sum")
        for c in need_mn:
            merge[f"_mn_{c}"] = (f"_mn_{c}", "min")
        for c in need_mx:
            merge[f"_mx_{c}"] = (f"_mx_{c}", "max")
        g = (
            df.groupby(group_cols + [grouping_col], dropna=False, sort=False)
            .agg(**merge)
            .reset_index()
        )
        out: dict[str, pa.Array] = {
            c: null_safe_from_pandas(g[c], in_types[c]) for c in group_cols
        }
        out[grouping_col] = pa.Array.from_pandas(g[grouping_col], type=pa.int64())
        for name, (fn, col) in aggs.items():
            if fn == "count":
                out[name] = pa.Array.from_pandas(g["_n"], type=pa.int64())
            elif fn == "count_col":
                out[name] = pa.Array.from_pandas(g[f"_ns_{col}"], type=pa.int64())
            elif fn == "sum":
                has = pa.array(g[f"_ns_{col}"].to_numpy(np.int64) > 0)
                s = pa.Array.from_pandas(g[f"_s_{col}"], type=sum_ts[col])
                out[name] = pc.if_else(has, s, pa.scalar(None, sum_ts[col]))
            elif fn == "avg":
                ns = g[f"_ns_{col}"].to_numpy(np.int64)
                with np.errstate(invalid="ignore", divide="ignore"):
                    av = g[f"_s_{col}"].to_numpy(np.float64) / ns
                out[name] = pc.if_else(
                    pa.array(ns > 0), pa.array(av, pa.float64()),
                    pa.scalar(None, pa.float64()),
                )
            elif fn in _VAR_FNS:
                ns = g[f"_ns_{col}"].to_numpy(np.int64)
                s = g[f"_s_{col}"].to_numpy(np.float64)
                q = g[f"_q_{col}"].to_numpy(np.float64)
                denom = ns - 1 if fn in ("var_samp", "stddev_samp") else ns
                with np.errstate(invalid="ignore", divide="ignore"):
                    # clip: Σx² − (Σx)²/n can go ~-1e-12 on constant groups
                    v = np.maximum(q - s * s / ns, 0.0) / denom
                    if fn.startswith("stddev"):
                        v = np.sqrt(v)
                # SQL gates: sample variants NULL below 2 non-null values,
                # population variants 0 at one, all NULL on empty groups
                valid = ns >= (2 if fn in ("var_samp", "stddev_samp") else 1)
                out[name] = pc.if_else(
                    pa.array(valid), pa.array(np.where(valid, v, 0.0), pa.float64()),
                    pa.scalar(None, pa.float64()),
                )
            else:  # min / max: pandas NaN for all-null groups -> Arrow null
                out[name] = pa.Array.from_pandas(g[f"_mn_{col}" if fn == "min" else f"_mx_{col}"],
                                                 type=in_types[col])
        return pa.table(out)

    if ds.count() == 0:
        # SQL on an EMPTY input: each zero-column grouping set still
        # yields one row (count 0, sums NULL); keyed sets yield nothing
        rows: dict[str, list] = {n: [] for n, _ in out_fields}
        for s, gid in zip(sets, gids):
            if s:
                continue
            for c in group_cols:
                rows[c].append(None)
            rows[grouping_col].append(gid)
            for name, (fn, _col) in aggs.items():
                rows[name].append(0 if fn in ("count", "count_col") else None)
        return ray.data.from_arrow(
            pa.table({n: pa.array(rows[n], type=t) for n, t in out_fields})
        )
    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return _direct_grouped_apply(partials, "_gk", kernel, shuffle_buckets)
