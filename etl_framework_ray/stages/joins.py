"""As-of (temporal) and trailing-window joins — custom operators Ray Data
lacks natively.

``asof_join(left, right, ...)``: for each left row, attach the LATEST
right row of the same key whose time is ≤ the left row's time (backward
direction; LEFT-join semantics — unmatched left rows keep nulls). The
classic "attach the dimension version in effect at event time" /
point-in-time-correct lookup of feature-store and market-data pipelines.

Execution shape — a DIRECT two-round hash exchange (the CDC engine's own
shuffle pattern, pipelines/cdc.py): one map task per input block
hash-splits that block by key into B bucket slices (``num_returns=B``),
one reduce task per bucket concatenates its slices from every block and
runs the vectorized bucket kernel (sort right side once, one
``searchsorted`` batch per key). Round 2 replaced the Dataset
``groupby("_cb").map_groups`` route: that is a sort-based all-to-all
(sample → sort-map → sort-reduce → apply, four scheduling rounds with a
barrier) whose fixed costs measured ~95% of the operator wall at sf0.1 —
9.6 s wall against 0.36 s of bucket compute (BASELINE.md round 2); it
also required UNIONING both sides onto one wide schema, doubling the
shuffled volume with null padding. The direct exchange ships each side's
own slim schema and needs no sort.

Partitioning assumptions (documented per the operator brief): all rows
of ONE key fit a worker (the same co-location contract as the CDC
applier), and split-tasks × buckets object refs stay bounded — split
tasks are capped at ~1 per CPU (each takes a stride of blocks) and
buckets at max(shuffle_buckets, 2×CPU, ≤256), so the ref matrix grows
with the cluster, not with how finely Ray happened to split the read.

Determinism: if the right side can hold several rows with the SAME
(key, time), pre-reduce it first (the oracle query does the same) —
"which of the tied rows" is otherwise engine-defined, matching DuckDB
ASOF JOIN's unspecified tie behavior.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..functions.hashing import stable_hash_array

_RESERVED = ("_key", "_t")

#: auto bucket count pinned per Ray job — see :func:`resolve_buckets`
_PINNED_AUTO_BUCKETS: dict[str, int] = {}


def resolve_buckets(shuffle_buckets: int | None) -> int:
    """Resolve an exchange bucket count.

    - An EXPLICIT ``shuffle_buckets`` is used exactly (callers sizing for
      tiny inputs or tests get what they asked for).
    - ``None`` (the default everywhere) auto-sizes to 2×cluster CPUs,
      clamped to [32, 256] — and the resolved value is PINNED for the
      rest of the Ray job: on an autoscaling cluster
      ``ray.cluster_resources()`` moves between a pipeline's stages, and
      two exchanges of one pipeline disagreeing on bucket count would
      re-route keys mid-pipeline. First resolution wins; results are
      bucket-count-invariant either way, but routing determinism makes
      runs reproducible and keeps per-bucket caps comparable."""
    if shuffle_buckets is not None:
        nb = int(shuffle_buckets)
        if nb < 1:
            raise ValueError("shuffle_buckets must be >= 1")
        return nb
    try:
        job = ray.get_runtime_context().get_job_id() or "default"
    except Exception:
        job = "default"
    nb = _PINNED_AUTO_BUCKETS.get(job)
    if nb is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        nb = int(min(256, max(32, cpus * 2)))
        _PINNED_AUTO_BUCKETS[job] = nb
    return nb


def _auto_buckets(size_bytes: int, target_bucket_bytes: int = 64 << 20) -> int:
    """Bucket count sized so one bucket (payload/buckets) is ~64 MiB —
    small enough for a single worker's in-memory kernel, large enough to
    bound the per-bucket dispatch count. Clamped to [16, 65536]."""
    return int(min(65536, max(16, -(-size_bytes // target_bucket_bytes))))


def _tree_reduce(refs: list, submit, fanin: int = 8):
    """Log-depth task-side fan-in: ``submit(*child_refs) -> ref`` merges
    up to ``fanin`` children per node; the driver launches ⌈N/F⌉ + ⌈N/F²⌉
    + … tasks and holds ONE final ref instead of pulling and folding N
    partials itself. Always applies one final fold even for a single ref
    — a raw leaf block can hold several partial rows (one per input
    batch). Returns the final ref (``ray.get`` it yourself); ``refs``
    must be non-empty."""
    while len(refs) > 1:
        refs = [submit(*refs[i : i + fanin]) for i in range(0, len(refs), fanin)]
    return submit(refs[0])


def _single_threaded_arrow() -> None:
    """Arrow kernels inside raw Ray tasks must not fan out onto Arrow's
    global thread pool (one task per CPU already — see cdc.py's measured
    3× oversubscription note)."""
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)


def _block_refs(ds: "ray.data.Dataset") -> list:
    """Object refs of the dataset's blocks — executes the (lazy) upstream
    pipeline streaming into the object store; nothing lands on the
    driver."""
    refs: list = []
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend(getattr(bundle, "block_refs", None) or [r for r, _ in bundle.blocks])
    return refs


def _ensure_arrow(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Pandas-backed datasets (``from_pandas``) report numpy dtypes from
    ``schema()``; the exchange needs Arrow types for its casts and empty
    slim schemas. One pass-through ``map_batches`` converts the blocks."""
    schema = ds.schema()
    if schema is not None and any(not isinstance(t, pa.DataType) for t in schema.types):
        return ds.map_batches(lambda t: t, batch_format="pyarrow")
    return ds


def _mat_arrow(ds: "ray.data.Dataset"):
    """Materialize ONCE and return ``(materialized_ds, schema)``.

    The direct exchange needs the dataset's block refs, so execution is
    unavoidable; materializing FIRST makes ``schema()`` a metadata read
    instead of its own partial execution — a lazy ``ds.schema()`` runs
    the upstream to its first block, so stateful upstream stages (funnel
    counters, metrics actors) would observe the pipeline running twice."""
    ds = ds.materialize()
    schema = ds.schema()
    if schema is not None and any(not isinstance(t, pa.DataType) for t in schema.types):
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow").materialize()
        schema = ds.schema()
    return ds, schema


def _mat_arrow_unified(ds: "ray.data.Dataset"):
    """:func:`_mat_arrow`, plus block-schema unification when an all-NULL
    slice made Ray infer a column as Arrow ``null`` in SOME blocks (a
    ``from_pandas`` + ``repartition`` artifact): ``schema()`` reports one
    block's guess, and a downstream cast double→null fails. Unify the
    bundles' schemas (null promotes to the real type) and cast every
    block onto the result — the extra pass runs ONLY in the mixed case."""
    ds, schema = _mat_arrow(ds)
    if schema is None:
        return ds, schema
    if not any(
        isinstance(t, pa.DataType) and pa.types.is_null(t) for t in schema.types
    ):
        return ds, schema
    # discover the TRUE per-block schemas (bundle metadata reports one
    # block's guess): one cheap pass emitting each block's schema as IPC
    # bytes, then unify and cast every block onto the result
    def emit_schema(t: pa.Table) -> pa.Table:
        return pa.table({"s": pa.array([t.schema.serialize().to_pybytes()])})

    schemas = []
    for b in ds.map_batches(emit_schema, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for raw in b.column("s").to_pylist():
            schemas.append(pa.ipc.read_schema(pa.py_buffer(raw)))
    if not schemas:
        return ds, schema
    uni = pa.unify_schemas(schemas, promote_options="permissive")
    tgt = {n: uni.field(n).type for n in uni.names}

    def recast(t: pa.Table) -> pa.Table:
        return pa.table({c: t.column(c).cast(tgt[c]) for c in uni.names})

    ds = ds.map_batches(recast, batch_format="pyarrow").materialize()
    return ds, ds.schema()


def _resolve_side_types(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_by: str,
    left_on: str,
    right_by: str,
    right_cols: list[str],
):
    """Schema resolution shared by the keyed joins: left payload keeps
    its own types; the shared ``_key``/``_t`` columns get one common
    comparable type; an EMPTY right side types its payload columns null
    (uniform across blocks, so unification still works). ``left_on`` is
    None for the pure equality join — no ``_t`` column ships then."""
    l_schema = left.schema()  # ray.data Schema wrapper: .names / .types
    if l_schema is None:
        raise ValueError("left dataset has no schema (empty input?)")
    l_types = dict(zip(l_schema.names, l_schema.types))
    l_names = list(l_schema.names)
    for r in _RESERVED:
        if r in l_names:
            raise ValueError(f"left dataset may not contain a column named {r!r}")
    r_cols = [c for c in dict.fromkeys(right_cols) if c != right_by]
    for r in _RESERVED:
        # same rule on the right: _split_side_task would silently overwrite
        # a payload column of this name with the join key/time
        if r in r_cols:
            raise ValueError(f"right_cols may not contain a column named {r!r}")
    r_schema = right.schema()
    if r_schema is None:
        r_types = {c: pa.null() for c in r_cols}
        right_empty = True
    else:
        r_types = dict(zip(r_schema.names, r_schema.types))
        right_empty = False
    key_t = l_types[left_by]
    if left_on is None:
        t_t = None
    else:
        t_t = pa.timestamp("us") if pa.types.is_temporal(l_types[left_on]) else pa.float64()
    return l_names, l_types, r_cols, r_types, key_t, t_t, right_empty


@ray.remote
def _split_side_task(
    by: str,
    on: str,
    keep_cols: list[str],
    keep_types: dict,
    key_t,
    t_t,
    num_buckets: int,
    *blocks,
):
    """Map round: normalize a GROUP of blocks onto its side's slim schema
    (payload + ``_key``/``_t``) and hash-split the concatenation by key
    into ``num_buckets`` sub-tables (``num_returns=num_buckets``).
    Grouping matters: Ray Data reads
    split small tables into dozens of tiny blocks, and one split task per
    tiny block × one return per bucket made scheduling (not compute) the
    cost — 64-block × 64-block inputs measured 16k shuffle refs of
    near-empty tables before grouping."""
    _single_threaded_arrow()

    def slim_one(block) -> pa.Table | None:
        t = (
            pa.Table.from_pandas(block, preserve_index=False)
            if isinstance(block, pd.DataFrame)
            else block
        )
        if t.num_rows == 0:
            # zero-row blocks (e.g. from repartition) can arrive with ZERO
            # columns — skip; the empty slim schema below covers them
            return None
        cols = {}
        for c in keep_cols:
            cols[c] = (
                t.column(c).cast(keep_types[c])
                if c in t.column_names
                else pa.nulls(t.num_rows, keep_types[c])
            )
        cols["_key"] = t.column(by).cast(key_t)
        if t_t is not None:
            cols["_t"] = t.column(on).cast(t_t)
        return pa.table(cols)

    slims = [s for s in (slim_one(b) for b in blocks) if s is not None]
    if not slims:
        empty = pa.table(
            {
                **{c: pa.nulls(0, keep_types[c]) for c in keep_cols},
                "_key": pa.nulls(0, key_t),
                **({"_t": pa.nulls(0, t_t)} if t_t is not None else {}),
            }
        )
        return tuple(empty for _ in range(num_buckets)) if num_buckets > 1 else empty
    slim = pa.concat_tables(slims) if len(slims) > 1 else slims[0]
    # bucket routing must be DTYPE-STABLE under nulls (the group_topk
    # finding): hash only the VALID keys at their true Arrow dtype — an
    # int64 column converts to float64 only in blocks that happen to hold
    # a null, splitting one key across buckets. Null keys (which never
    # match in any join) all route to bucket 0.
    import pyarrow.compute as pc

    karr = slim.column("_key")
    if isinstance(karr, pa.ChunkedArray):
        karr = karr.combine_chunks()
    valid = pc.is_valid(karr).to_numpy(zero_copy_only=False)
    pid = np.zeros(slim.num_rows, dtype=np.int64)
    vv = karr.drop_null().to_numpy(zero_copy_only=False)
    if len(vv):
        pid[np.flatnonzero(valid)] = (
            stable_hash_array(vv) % np.uint64(num_buckets)
        ).astype(np.int64)
    order = np.argsort(pid, kind="stable")
    slim = slim.take(pa.array(order))
    bounds = np.searchsorted(pid[order], np.arange(num_buckets + 1))
    slices = tuple(slim.slice(bounds[i], bounds[i + 1] - bounds[i]) for i in range(num_buckets))
    return slices if num_buckets > 1 else slices[0]


@ray.remote
def _bucket_join_task(kernel, n_left: int, *pieces: pa.Table) -> pa.Table:
    """Reduce round: concat this bucket's left and right slices from every
    block and run the vectorized bucket kernel."""
    _single_threaded_arrow()
    lhs = pa.concat_tables(pieces[:n_left]).to_pandas() if n_left else pd.DataFrame()
    rhs = pa.concat_tables(pieces[n_left:]) if len(pieces) > n_left else None
    rdf = rhs.to_pandas() if rhs is not None else pd.DataFrame()
    return kernel(lhs.reset_index(drop=True), rdf)


@ray.remote
def _bucket_apply_task(kernel, as_pandas: bool, *pieces: pa.Table) -> pa.Table:
    """Reduce round of the ONE-input exchange: concat this bucket's slices
    and run ``kernel`` over the whole bucket (``_key`` routing column
    dropped; the original key column is still in the payload)."""
    _single_threaded_arrow()
    t = pa.concat_tables(pieces)
    t = t.drop_columns(["_key"])
    return kernel(t.to_pandas()) if as_pandas else kernel(t)


def _direct_keyed_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_by: str,
    right_by: str,
    left_on: str,
    right_on: str,
    l_names: list[str],
    l_types: dict,
    keep_cols: list[str],
    keep_types: dict,
    key_t,
    t_t,
    right_empty: bool,
    kernel,
    shuffle_buckets: int,
) -> "ray.data.Dataset":
    """Run ``kernel(lhs_df, rhs_df) -> pa.Table`` per hash bucket via the
    direct exchange; returns the result as a streaming Dataset."""
    l_refs = _block_refs(left)
    r_refs = [] if right_empty else _block_refs(right)
    # scale buckets with the CLUSTER, not the block count: 32 buckets cap
    # reduce parallelism at 32 tasks on bigger clusters (round-2 finding),
    # but block-count scaling exploded the ref matrix on block-happy reads
    # (Ray splits even a 15k-row parquet into 64 blocks → 128 buckets ×
    # 128 split tasks = 16k tiny shuffle objects, scheduling-bound)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nb = resolve_buckets(shuffle_buckets)
    if not l_refs and not r_refs:
        return ray.data.from_arrow_refs([_bucket_join_task.remote(kernel, 0)])
    if not l_refs:
        # zero left blocks: inner/left/semi/anti kernels emit empty
        # buckets, but a FULL OUTER kernel must still see the right rows
        nb = 1

    def split(refs, by, on, kc, kt):
        if not refs:
            return []
        # one split task per ~CPU, each taking a stride of blocks
        n_tasks = min(len(refs), max(1, cpus))
        groups = [refs[i::n_tasks] for i in range(n_tasks)]
        outs = [
            _split_side_task.options(num_returns=nb).remote(
                by, on, kc, kt, key_t, t_t, nb, *grp
            )
            for grp in groups
        ]
        return [[o] for o in outs] if nb == 1 else outs

    splits_l = split(l_refs, left_by, left_on, l_names, l_types)
    splits_r = split(r_refs, right_by, right_on, keep_cols, keep_types)
    out_refs = [
        _bucket_join_task.remote(
            kernel, len(splits_l), *[s[i] for s in splits_l], *[s[i] for s in splits_r]
        )
        for i in range(nb)
    ]
    return ray.data.from_arrow_refs(out_refs)


def _typed_out(lhs: pd.DataFrame, l_names, l_types, extra: dict) -> pa.Table:
    """Build the bucket kernel's output as an Arrow table with EXPLICIT
    field types: a bucket with zero left rows (or zero matches) must
    still emit int64/timestamp columns, never pandas-inferred null/object
    types that break downstream schema unification."""
    cols = {}
    for c in l_names:
        cols[c] = pa.Array.from_pandas(
            lhs[c] if c in lhs.columns else pd.Series([], dtype=object), type=l_types[c]
        )
    for name, (values, typ) in extra.items():
        # numpy value arrays convert directly; object arrays (asof match
        # results holding None) go through from_pandas for null handling
        if isinstance(values, np.ndarray) and values.dtype != object:
            cols[name] = pa.array(values, type=typ)
        else:
            cols[name] = pa.Array.from_pandas(pd.Series(values), type=typ)
    return pa.table(cols)


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_by: str,
    right_by: str,
    left_on: str,
    right_on: str,
    right_cols: list[str],
    shuffle_buckets: int | None = None,
    tie_break: str | None = None,
) -> "ray.data.Dataset":
    """Backward as-of LEFT join. Output = all left columns + one
    ``r_<col>`` per entry of ``right_cols`` (nulls where no right row
    precedes the left row's time).

    ``left_by``/``right_by`` are the equality keys, ``left_on``/
    ``right_on`` the ordering (time) columns; the two time columns must
    be mutually comparable after Arrow casting.

    ``tie_break``: when the right side may hold SEVERAL rows with the
    same (key, time), ``"max"``/``"min"`` keeps the lexicographically
    largest/smallest ``right_cols`` tuple per (key, time) — resolved
    VECTORIZED inside each bucket kernel, so no pre-reduce shuffle is
    needed (a Ray ``groupby().max()`` pre-reduce measured 5.1 s of
    sort-shuffle fixed cost at sf0.1 against 1.0 s for the whole
    exchange). Default ``None`` = caller guarantees unique (key, time)
    and tie choice is engine-defined (DuckDB ASOF parity)."""
    left, right = _ensure_arrow(left), _ensure_arrow(right)
    l_names, l_types, r_cols, r_types, key_t, t_t, right_empty = _resolve_side_types(
        left, right, left_by, left_on, right_by, right_cols
    )
    if tie_break not in (None, "max", "min"):
        raise ValueError("tie_break must be None, 'max' or 'min'")

    def kernel(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pa.Table:
        matched: dict[str, np.ndarray] = {
            c: np.full(len(ldf), None, dtype=object) for c in r_cols
        }
        if len(rdf) and len(ldf):
            if tie_break is not None:
                rdf = rdf.sort_values(["_key", "_t"] + r_cols).drop_duplicates(
                    ["_key", "_t"], keep="last" if tie_break == "max" else "first"
                )
            rdf = rdf.sort_values(["_key", "_t"], kind="mergesort")
            r_groups = {k: g for k, g in rdf.groupby("_key", sort=False)}
            lt = ldf["_t"].to_numpy()
            for k, lg in ldf.groupby("_key", sort=False):  # one pass, no per-key scans
                rg = r_groups.get(k)
                if rg is None:
                    continue
                sel = lg.index.to_numpy()
                idx = np.searchsorted(rg["_t"].to_numpy(), lt[sel], side="right") - 1
                hit = idx >= 0
                for c in r_cols:
                    vals = rg[c].to_numpy()
                    matched[c][sel[hit]] = vals[idx[hit]]
        return _typed_out(
            ldf, l_names, l_types, {f"r_{c}": (matched[c], r_types[c]) for c in r_cols}
        )

    return _direct_keyed_join(
        left, right, left_by, right_by, left_on, right_on,
        l_names, l_types, r_cols, r_types, key_t, t_t, right_empty, kernel,
        shuffle_buckets,
    )


def equi_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    right_cols: list[str],
    how: str = "inner",
    shuffle_buckets: int | None = None,
    skew: "str | list | None" = None,
    skew_factor: float = 4.0,
    max_broadcast_rows: int = 2_000_000,
    stats_out: dict | None = None,
) -> "ray.data.Dataset":
    """Hash equi-join on the direct two-round exchange — the large–large
    shuffle-join path (the broadcast pattern covers small sides;
    reference join semantics /root/reference/src/gold/product_dimension.py:62-74).

    ``how``:

    - ``"inner"`` / ``"left"`` — output is all left columns + one
      ``r_<col>`` per entry of ``right_cols``; duplicate right keys
      multiply rows (standard join semantics).
    - ``"outer"`` — FULL OUTER: additionally keeps right rows with no
      left match (left payload NULL) — and the LEFT key column carries
      the COALESCEd key (``COALESCE(l.key, r.key)``) so right-only rows
      stay addressable; mirror with the same COALESCE in oracle SQL.
    - ``"right"`` — RIGHT OUTER: every right row survives (same output
      shape and COALESCEd key column as ``outer``), unmatched LEFT rows
      drop. Provided so callers never have to swap sides and lose the
      left-columns-plus-``r_<col>`` output contract.
    - ``"semi"`` / ``"anti"`` — output is the left rows with at least one
      / no right match, left columns only, never multiplied
      (``right_cols`` must be empty; only the right KEY ships through the
      exchange). For a semi-join against a large right side consider
      ``sketches.bloom_semijoin`` first — it pre-filters without
      shuffling the left side at all.

    NULL keys never match (SQL parity — pandas ``merge`` would otherwise
    pair NaN with NaN; NULL-key left rows survive ``anti``, as in SQL
    ``NOT EXISTS``).

    Why not ``Dataset.join``: Ray Data's hash join is a 4-round
    sort/exchange with a barrier whose fixed costs measured ~4.1 s at
    sf0.1 for revenue_by_mktsegment against <0.5 s of actual merge
    compute (BASELINE.md round 2 sweep); this exchange ships each side's
    slim schema once and runs one vectorized pandas merge per bucket.

    Partitioning assumption (as the temporal joins): all rows of one join
    key fit a worker; blocks × buckets refs stay ≲1e5 — UNLESS ``skew``
    is set, which lifts the hot-key half of that assumption:

    ``skew`` (opt-in): hot-key broadcast hybrid for skewed left sides.
    ``"auto"`` detects hot keys from per-block top counts (a key whose
    row count exceeds ``skew_factor ×`` the average bucket share), or
    pass an explicit key list. Hot-key LEFT rows never shuffle — the
    (small, capped at ``max_broadcast_rows``) hot slice of the RIGHT
    side broadcasts once via ``ray.put`` and joins map-side on the
    left's own blocks; cold keys take the normal exchange; the result
    is the UNION. Not supported for ``how="outer"`` (right-only hot
    rows would need cross-block dedup). ``stats_out`` receives
    ``skew_hot_keys`` / ``skew_broadcast_rows``."""
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(
            "how must be 'inner', 'left', 'right', 'outer', 'semi' or 'anti'"
        )
    if how in ("semi", "anti") and right_cols:
        raise ValueError(f"{how} join carries no right payload; pass right_cols=[]")
    if skew is not None:
        if how in ("outer", "right"):
            raise ValueError(f"skew hot-key hybrid does not support how={how!r}")
        return _skew_equi_join(
            left, right, left_on, right_on, right_cols, how, shuffle_buckets,
            skew, skew_factor, max_broadcast_rows, stats_out,
        )
    left, right = _ensure_arrow(left), _ensure_arrow(right)
    l_names, l_types, r_cols, r_types, key_t, t_t, right_empty = _resolve_side_types(
        left, right, left_on, None, right_on, right_cols
    )

    def kernel(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pa.Table:
        if "_key" not in ldf.columns:
            # a bucket fed zero left blocks arrives as a no-column frame
            ldf = pd.DataFrame({"_key": pd.Series(dtype=object)})
        if how in ("semi", "anti"):
            rk = rdf["_key"].dropna().unique() if len(rdf) else []
            member = ldf["_key"].isin(rk) & ldf["_key"].notna()
            out = ldf[member if how == "semi" else ~member]
            return _typed_out(out.reset_index(drop=True), l_names, l_types, {})
        ren = {c: f"r_{c}" for c in r_cols}
        if how in ("outer", "right"):
            # FULL OUTER / RIGHT OUTER with SQL NULL semantics: null keys
            # never match (pandas merge would pair NaN with NaN) but the
            # unmatched rows of the preserved side(s) survive, and the
            # left key column carries the coalesced key so right-only
            # rows stay addressable. RIGHT = OUTER minus unmatched-left.
            rdf = rdf.rename(columns=ren) if len(rdf) else pd.DataFrame(
                {"_key": pd.Series(dtype=object)}
            )
            out = pd.concat(
                [
                    ldf[ldf["_key"].notna()].merge(
                        rdf[rdf["_key"].notna()], on="_key", how=how
                    ),
                    *([ldf[ldf["_key"].isna()]] if how == "outer" else []),
                    rdf[rdf["_key"].isna()],
                ],
                ignore_index=True,
                sort=False,
            )
            for c in l_names:
                if c not in out.columns:
                    out[c] = None
            out[left_on] = out[left_on].where(out[left_on].notna(), out["_key"])
            for c in r_cols:
                if f"r_{c}" not in out.columns:
                    out[f"r_{c}"] = None
            return _typed_out(
                out, l_names, l_types,
                {f"r_{c}": (out[f"r_{c}"], r_types[c]) for c in r_cols},
            )
        if len(rdf):
            # drop NULL right keys pre-merge: SQL joins never match NULLs,
            # pandas merge would pair NaN with NaN
            rdf = rdf[rdf["_key"].notna()].rename(columns=ren)
            out = ldf.merge(rdf, on="_key", how=how)
        elif how == "left":
            out = ldf.copy()
            for c in r_cols:
                out[f"r_{c}"] = None
        else:
            out = ldf.iloc[0:0].copy()
            for c in r_cols:
                out[f"r_{c}"] = None
        out = out.reset_index(drop=True)
        # pass Series (not ndarray): unmatched LEFT rows surface as NaN in
        # a float-widened column; from_pandas maps them to nulls at the
        # right side's true Arrow type instead of failing the int cast
        return _typed_out(
            out, l_names, l_types, {f"r_{c}": (out[f"r_{c}"], r_types[c]) for c in r_cols}
        )

    return _direct_keyed_join(
        left, right, left_on, right_on, None, None,
        l_names, l_types, r_cols, r_types, key_t, t_t, right_empty, kernel,
        shuffle_buckets,
    )


def _detect_hot_keys(
    left: "ray.data.Dataset", left_on: str, skew_factor: float, nb: int, total: int
) -> list:
    """Hot-key detection from per-block top counts: each block emits its
    16 most frequent keys (a key hot enough to matter tops most blocks,
    so the driver's sum is ~exact for it); hot = summed rows >
    ``skew_factor ×`` the average bucket share of ``total`` rows."""

    def part(batch: pa.Table) -> pa.Table:
        arr = batch.column(left_on).drop_null()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if len(arr) == 0:
            return pa.table({"k": arr, "n": pa.nulls(0, pa.int64())})
        vc = arr.value_counts()
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        top = np.argsort(counts)[::-1][:16]
        return pa.table({
            "k": vc.field("values").take(pa.array(top)),
            "n": pa.array(counts[top].astype(np.int64)),
        })

    agg: dict = {}
    for b in left.map_batches(part, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for k, n in zip(b.column("k").to_pylist(), b.column("n").to_pylist()):
            agg[k] = agg.get(k, 0) + n
    if not agg or total == 0:
        return []
    cut = skew_factor * total / max(nb, 1)
    return sorted((k for k, n in agg.items() if n > cut), key=lambda v: (str(type(v)), v))


def _skew_equi_join(
    left, right, left_on, right_on, right_cols, how, shuffle_buckets,
    skew, skew_factor, max_broadcast_rows, stats_out,
):
    """Hot-key broadcast hybrid (see :func:`equi_join` docstring): hot
    LEFT rows join map-side against the broadcast hot slice of the right;
    cold keys take the normal exchange; results union."""
    import pyarrow.compute as pc

    # materialize once: the hybrid reads each side at least twice
    # (detector/filters), and count() becomes a metadata read
    left = _ensure_arrow(left).materialize()
    right = _ensure_arrow(right).materialize()
    nb = resolve_buckets(shuffle_buckets)
    hot = (
        _detect_hot_keys(left, left_on, skew_factor, nb, left.count())
        if isinstance(skew, str) and skew == "auto"
        else list(skew)
    )
    if stats_out is not None:
        stats_out["skew_hot_keys"] = len(hot)
        stats_out["skew_broadcast_rows"] = 0
    if not hot:
        return equi_join(left, right, left_on, right_on, right_cols, how,
                         shuffle_buckets)
    l_names, l_types, r_cols, r_types, key_t, _t, right_empty = _resolve_side_types(
        left, right, left_on, None, right_on, right_cols
    )
    hot_arr = pa.array(hot).cast(key_t)

    def side_filter(col: str, keep_hot: bool):
        def fn(t: pa.Table) -> pa.Table:
            ishot = pc.fill_null(
                pc.is_in(t.column(col), value_set=hot_arr), False
            )
            return t.filter(ishot if keep_hot else pc.invert(ishot))

        return fn

    left_cold = left.map_batches(side_filter(left_on, False), batch_format="pyarrow")
    left_hot = left.map_batches(side_filter(left_on, True), batch_format="pyarrow")
    cold = equi_join(left_cold, right, left_on, right_on, right_cols, how,
                     shuffle_buckets)
    # NOTE the cold exchange keeps the FULL right side: hot-key right rows
    # simply match nothing there (their left partners were filtered out),
    # which costs shipping them once but keeps this path allocation-free.

    # broadcast the hot slice of the right side (capped, fail-loud)
    if right_empty:
        bcast = None
        n_bcast = 0
    else:
        r_keep = [right_on] + [c for c in r_cols]
        r_hot = right.map_batches(side_filter(right_on, True), batch_format="pyarrow")
        r_hot = r_hot.map_batches(
            lambda t: t.select([c for c in r_keep if c in t.column_names]),
            batch_format="pyarrow",
        ).materialize()
        n_bcast = r_hot.count()
        if n_bcast > max_broadcast_rows:
            raise ValueError(
                f"skew broadcast would carry {n_bcast} right rows "
                f"(> max_broadcast_rows={max_broadcast_rows}); the hot keys' "
                "right side is itself large — raise the cap or salt instead"
            )
        parts = [
            b for b in r_hot.iter_batches(batch_format="pyarrow")
        ]
        bcast = ray.put(
            pa.concat_tables(parts) if parts else None
        )
    if stats_out is not None:
        stats_out["skew_broadcast_rows"] = n_bcast

    def hot_kernel(batch: pa.Table) -> pa.Table:
        rt = ray.get(bcast) if bcast is not None else None
        ldf = batch.to_pandas()
        ldf["_key"] = batch.column(left_on).to_pandas()
        if rt is None or rt.num_rows == 0:
            rkeys = pd.Series(dtype=object)
            rdf = pd.DataFrame({"_key": rkeys,
                                **{f"r_{c}": pd.Series(dtype=object) for c in r_cols}})
        else:
            rdf = rt.to_pandas().rename(
                columns={right_on: "_key", **{c: f"r_{c}" for c in r_cols}}
            )
        if how in ("semi", "anti"):
            member = ldf["_key"].isin(rdf["_key"].dropna().unique()) & ldf["_key"].notna()
            out = ldf[member if how == "semi" else ~member]
            return _typed_out(out.reset_index(drop=True), l_names, l_types, {})
        out = ldf.merge(rdf[rdf["_key"].notna()], on="_key", how="inner" if how == "inner" else "left")
        out = out.reset_index(drop=True)
        return _typed_out(
            out, l_names, l_types,
            {f"r_{c}": (out[f"r_{c}"], r_types[c]) for c in r_cols},
        )

    hot_ds = left_hot.map_batches(hot_kernel, batch_format="pyarrow")
    return cold.union(hot_ds)


def _direct_grouped_apply(
    ds: "ray.data.Dataset",
    key_col: str,
    kernel,
    shuffle_buckets: int | None = None,
    kernel_format: str = "pandas",
    target_bucket_bytes: int | None = None,
) -> "ray.data.Dataset":
    """One-input direct exchange: hash-split the dataset's blocks by
    ``key_col`` (dtype-stable under nulls; null keys to bucket 0) and run
    the kernel ONCE per bucket over all of its groups — the join exchange
    with an absent right side. The input's own blocks (grouped ~one split
    task per CPU) replace a Dataset ``groupby().map_groups`` sort exchange
    and its four scheduling rounds.

    ``kernel_format``: ``"pandas"`` calls ``kernel(df) -> pa.Table``;
    ``"pyarrow"`` calls ``kernel(pa.Table) -> pa.Table`` (no pandas
    round-trip — use for Arrow-native kernels where the conversion would
    lose types or cost a copy). Either way the kernel MUST return a
    consistently-typed Arrow table, including for a zero-row bucket.

    ``target_bucket_bytes``: when set (and ``shuffle_buckets`` is None),
    the auto bucket count additionally scales with the MATERIALIZED data
    size so one bucket stays ~this many bytes — the memory contract for
    kernels that hold a whole bucket's payload (exact_dedup's distinct
    text). Without it a fixed 2×CPU count lets bucket size grow linearly
    with the corpus."""
    ds, schema = _mat_arrow(ds)
    if schema is None:
        return ds
    names = list(schema.names)
    types = dict(zip(schema.names, schema.types))
    refs = _block_refs(ds)
    if not refs:
        return ds
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nb = resolve_buckets(shuffle_buckets)
    if shuffle_buckets is None:
        size = int(ds.size_bytes() or 0)
        if target_bucket_bytes is not None:
            nb = max(nb, _auto_buckets(size, target_bucket_bytes))
        else:
            # TINY exchanges (combiner partials measured in KB–MB): the
            # split×bucket ref matrix IS the cost — shrink buckets to
            # ~4 MiB each (floor 8) instead of paying 2×CPU scheduling
            # rounds to move kilobytes. Results are bucket-count-
            # invariant; the input is already materialized so the size
            # is exact, and the same data always resolves the same nb.
            nb = min(nb, max(8, -(-size // (4 << 20))))
    n_tasks = min(len(refs), max(1, cpus))
    block_groups = [refs[i::n_tasks] for i in range(n_tasks)]
    outs = [
        _split_side_task.options(num_returns=nb).remote(
            key_col, None, names, types, types[key_col], None, nb, *grp
        )
        for grp in block_groups
    ]
    splits = [[o] for o in outs] if nb == 1 else outs
    as_pandas = kernel_format == "pandas"
    out_refs = [
        _bucket_apply_task.remote(kernel, as_pandas, *[s[i] for s in splits])
        for i in range(nb)
    ]
    return ray.data.from_arrow_refs(out_refs)


def group_topk(
    ds: "ray.data.Dataset",
    group_col: str,
    order_cols: list[str],
    k: int,
    descending: bool | list[bool] = True,
    shuffle_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Top-k rows PER GROUP by ``order_cols`` (the generic form of A5's
    argmax; deterministic when ``order_cols`` ends in a unique
    tie-breaker). Runs on the direct exchange
    (:func:`_direct_grouped_apply`): one pandas sort+head per bucket
    handles ALL of its groups — one UDF dispatch per bucket, not per
    group, and none of the Dataset sort-exchange's fixed costs.
    Pre-trim: each input block keeps only its own per-group top-k
    before the shuffle, so at most ``k × groups`` rows per block move.
    Outputs rebuild at the INPUT's Arrow types (a pandas round-trip flips
    nullable int64 → float64 only in blocks that happen to hold nulls,
    splitting block schemas)."""
    if isinstance(descending, bool):
        descending = [descending] * len(order_cols)
    ascending = [not d for d in descending]
    schema = ds.schema()
    if schema is None:
        return ds
    out_types = dict(zip(schema.names, schema.types))
    out_names = list(schema.names)

    def _retype(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {c: pa.Array.from_pandas(df[c], type=out_types[c]) for c in out_names}
        )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(order_cols, ascending=ascending, kind="mergesort")
            .groupby(group_col, sort=False, dropna=False)  # SQL keeps the NULL partition
            .head(k)
        )

    def trim(batch: pa.Table) -> pa.Table:
        return _retype(topk(batch.to_pandas()))

    return _direct_grouped_apply(
        ds.map_batches(trim, batch_format="pyarrow"),
        group_col,
        lambda df: _retype(topk(df)),
        shuffle_buckets,
    )


def trailing_window_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_by: str,
    right_by: str,
    left_on: str,
    right_on: str,
    value_col: str,
    span_s: float,
    count_name: str = "n_right",
    sum_name: str = "sum_value",
    shuffle_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Range (interval) join + aggregate: for each left row, COUNT and SUM
    the right rows of the same key whose time lies in the trailing window
    ``(t − span_s, t]`` — "orders in the last 7 days per event", the
    feature-engineering staple. LEFT semantics: rows with no right match
    get count 0 / sum 0.0.

    Same direct-exchange plumbing as :func:`asof_join`; inside a bucket
    each key's right side is sorted once, a prefix-sum array is built, and
    every left row resolves with TWO ``searchsorted`` calls — O((L+R) log
    R) per key, no row pairing ever materialized (a naive inequality join
    would be O(L×R) rows before aggregation, which is how the SQL oracle
    states it)."""
    left, right = _ensure_arrow(left), _ensure_arrow(right)
    l_names, l_types, r_cols, r_types, key_t, t_t, right_empty = _resolve_side_types(
        left, right, left_by, left_on, right_by, [value_col]
    )

    def kernel(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pa.Table:
        counts = np.zeros(len(ldf), dtype=np.int64)
        sums = np.zeros(len(ldf), dtype=np.float64)
        if len(rdf) and len(ldf):
            rdf = rdf.sort_values(["_key", "_t"])
            r_groups = {k: g for k, g in rdf.groupby("_key", sort=False)}
            lt = ldf["_t"].to_numpy()
            span = (
                np.timedelta64(int(span_s * 1_000_000), "us")
                if np.issubdtype(lt.dtype, np.datetime64)
                else span_s
            )
            for k, lg in ldf.groupby("_key", sort=False):
                rg = r_groups.get(k)
                if rg is None:
                    continue
                sel = lg.index.to_numpy()
                rt = rg["_t"].to_numpy()
                cs = np.concatenate(
                    [[0.0], np.cumsum(rg[value_col].to_numpy(dtype=np.float64))]
                )
                lo = np.searchsorted(rt, lt[sel] - span, side="right")  # > t−span
                hi = np.searchsorted(rt, lt[sel], side="right")  # ≤ t
                counts[sel] = hi - lo
                sums[sel] = cs[hi] - cs[lo]
        return _typed_out(
            ldf,
            l_names,
            l_types,
            {count_name: (counts, pa.int64()), sum_name: (sums, pa.float64())},
        )

    return _direct_keyed_join(
        left, right, left_by, right_by, left_on, right_on,
        l_names, l_types, r_cols, r_types, key_t, t_t, right_empty, kernel,
        shuffle_buckets,
    )
