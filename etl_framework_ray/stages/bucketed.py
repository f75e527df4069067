"""Bucketed table layout — persist a dataset hash-partitioned by a key
so every LATER stage keyed on it needs ZERO shuffle: the Hive/Iceberg
bucketing contract, and the physical form of the brief's "pick ONE
partitioning key and reuse it across stages". A nightly pipeline writes
its fact table bucketed once; every downstream join / grouped aggregate
against any co-bucketed table then runs bucket-by-bucket as embarrassingly
parallel map tasks — no exchange, no all-to-all, at any scale.

Layout: ``dir/bucket=NNNNN/part-*.parquet`` + a ``_BUCKETS`` manifest
recording ``{key, num_buckets, hash: "stable_hash_array % nb"}``. Routing
uses the engine's own ``stable_hash_array`` (the SAME function the direct
exchange uses), so a bucketed table is co-partitioned with the exchange's
buckets by construction. NULL keys route to bucket 0 (the exchange's
rule). Writes are resumable: each bucket commits via tmp+rename, the
manifest last.

``bucketed_equi_join`` verifies BOTH manifests agree on ``num_buckets``
(and warns loud if keys' dtypes mismatch), then schedules one join task
per bucket pair — reading only that bucket's files on both sides.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.hashing import stable_hash_array
from .joins import _block_refs, _ensure_arrow, _single_threaded_arrow, _typed_out

_MANIFEST = "_BUCKETS"


def _route(arr: pa.ChunkedArray | pa.Array, nb: int) -> np.ndarray:
    """Bucket ids for a key column — dtype-stable under nulls (hash only
    the valid values at their true dtype; nulls → bucket 0), identical to
    ``joins._split_side_task``'s routing."""
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    valid = pc.is_valid(arr).to_numpy(zero_copy_only=False)
    pid = np.zeros(len(arr), dtype=np.int64)
    vv = arr.drop_null().to_numpy(zero_copy_only=False)
    if len(vv):
        pid[np.flatnonzero(valid)] = (
            stable_hash_array(vv) % np.uint64(nb)
        ).astype(np.int64)
    return pid


def write_bucketed(
    ds: "ray.data.Dataset",
    out_dir: str,
    key: str,
    num_buckets: int = 32,
) -> dict:
    """Write ``ds`` hash-bucketed by ``key``: one map round splits each
    group of blocks into per-bucket slices (the exchange's map half), one
    write task per bucket commits ``bucket=NNNNN/part-00000.parquet``
    atomically; the ``_BUCKETS`` manifest is the commit point. Returns
    ``{buckets, rows}``."""
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    ds = _ensure_arrow(ds).materialize()
    schema = ds.schema()
    if schema is None:
        raise ValueError("write_bucketed needs a non-empty schema")
    if key not in schema.names:
        raise KeyError(f"key column {key!r} not in dataset schema")
    os.makedirs(out_dir, exist_ok=True)
    refs = _block_refs(ds)
    nb = num_buckets

    @ray.remote
    def _split(*blocks):
        _single_threaded_arrow()
        tabs = [
            pa.Table.from_pandas(b, preserve_index=False)
            if isinstance(b, pd.DataFrame) else b
            for b in blocks
        ]
        tabs = [t for t in tabs if t.num_rows]
        if not tabs:
            return tuple(None for _ in range(nb)) if nb > 1 else None
        t = pa.concat_tables(tabs)
        pid = _route(t.column(key), nb)
        order = np.argsort(pid, kind="stable")
        t = t.take(pa.array(order))
        cuts = np.searchsorted(pid[order], np.arange(nb + 1))
        slices = tuple(
            t.slice(cuts[i], cuts[i + 1] - cuts[i]) if cuts[i + 1] > cuts[i] else None
            for i in range(nb)
        )
        return slices if nb > 1 else slices[0]

    @ray.remote
    def _write(i: int, *pieces):
        _single_threaded_arrow()
        import pyarrow.parquet as pq

        parts = [p for p in pieces if p is not None and p.num_rows]
        bdir = os.path.join(out_dir, f"bucket={i:05d}")
        os.makedirs(bdir, exist_ok=True)
        path = os.path.join(bdir, "part-00000.parquet")
        t = pa.concat_tables(parts) if parts else None
        if t is None:
            # empty buckets still get a file so readers see the schema
            t = pa.schema(
                [(n, ty) for n, ty in zip(schema.names, schema.types)]
            ).empty_table()
        tmp = path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return t.num_rows

    cpus = int(ray.cluster_resources().get("CPU", 8))
    n_tasks = min(len(refs), max(1, cpus)) if refs else 0
    groups = [refs[i::n_tasks] for i in range(n_tasks)]
    outs = [_split.options(num_returns=nb).remote(*g) for g in groups]
    splits = [[o] for o in outs] if nb == 1 else outs
    rows = sum(
        ray.get([_write.remote(i, *[s[i] for s in splits]) for i in range(nb)])
    ) if refs else 0
    if not refs:  # empty input: still lay down the empty buckets
        rows = sum(ray.get([_write.remote(i) for i in range(nb)]))
    man = {"key": key, "num_buckets": nb, "hash": "stable_hash_array%nb"}
    tmp = os.path.join(out_dir, _MANIFEST + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(man, fh)
    os.replace(tmp, os.path.join(out_dir, _MANIFEST))
    return {"buckets": nb, "rows": rows}


def read_manifest(dir_: str) -> dict:
    path = os.path.join(dir_, _MANIFEST)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{dir_} is not a bucketed table (no {_MANIFEST} manifest)"
        )
    with open(path) as fh:
        return json.load(fh)


def bucketed_equi_join(
    left_dir: str,
    right_dir: str,
    left_on: str,
    right_on: str,
    right_cols: list[str],
    how: str = "inner",
) -> "ray.data.Dataset":
    """SHUFFLE-FREE equi-join of two co-bucketed tables: both manifests
    must agree on ``num_buckets`` (fail-loud — co-partitioning is the
    entire contract); one task per bucket reads exactly its own files on
    both sides and merges. Identical semantics to
    ``joins.equi_join(how=inner|left|semi|anti)`` (NULL keys never
    match)."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError("how must be 'inner', 'left', 'semi' or 'anti'")
    if how in ("semi", "anti") and right_cols:
        raise ValueError(f"{how} join carries no right payload; pass right_cols=[]")
    lm, rm = read_manifest(left_dir), read_manifest(right_dir)
    if lm["num_buckets"] != rm["num_buckets"]:
        raise ValueError(
            f"bucket count mismatch: {lm['num_buckets']} vs {rm['num_buckets']} — "
            "rewrite one side (co-partitioning is the zero-shuffle contract)"
        )
    if lm["key"] != left_on or rm["key"] != right_on:
        raise ValueError(
            f"join keys must be the bucketing keys: left {lm['key']!r} vs "
            f"{left_on!r}, right {rm['key']!r} vs {right_on!r}"
        )
    nb = lm["num_buckets"]

    @ray.remote
    def _join_bucket(i: int):
        _single_threaded_arrow()
        import pyarrow.parquet as pq

        def read_side(d):
            bdir = os.path.join(d, f"bucket={i:05d}")
            files = sorted(
                os.path.join(bdir, f)
                for f in os.listdir(bdir)
                if f.endswith(".parquet")
            )
            return pa.concat_tables([pq.read_table(f) for f in files])

        lt, rt = read_side(left_dir), read_side(right_dir)
        l_names = lt.column_names
        l_types = dict(zip(lt.column_names, lt.schema.types))
        r_cols = [c for c in right_cols if c != right_on]
        r_types = dict(zip(rt.column_names, rt.schema.types))
        ldf = lt.to_pandas()
        ldf["_key"] = lt.column(left_on).to_pandas()
        rdf = rt.select([right_on] + r_cols).to_pandas().rename(
            columns={right_on: "_key", **{c: f"r_{c}" for c in r_cols}}
        )
        rdf = rdf[rdf["_key"].notna()]
        if how in ("semi", "anti"):
            member = ldf["_key"].isin(rdf["_key"].unique()) & ldf["_key"].notna()
            out = ldf[member if how == "semi" else ~member]
            return _typed_out(out.reset_index(drop=True), l_names, l_types, {})
        out = ldf.merge(rdf, on="_key", how=how).reset_index(drop=True)
        return _typed_out(
            out, l_names, l_types,
            {f"r_{c}": (out[f"r_{c}"], r_types[c]) for c in r_cols},
        )

    return ray.data.from_arrow_refs([_join_bucket.remote(i) for i in range(nb)])
