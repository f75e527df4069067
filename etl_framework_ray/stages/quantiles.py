"""Distributed EXACT quantiles by histogram rank-select.

``rank_select_quantiles(ds, col, qs)`` returns, for each q, the element
of the sorted column at global rank ``floor(q × (n−1))`` — the
discrete-quantile definition both engines can state exactly (the SQL
oracle is ``ROW_NUMBER() ... WHERE rn = rank``), with NO floating-point
interpolation to diverge on.

Algorithm (a few distributed passes, never a driver-side column copy):

1. ``count`` + ``min``/``max`` (native aggregates).
2. One histogram pass: every block bins its values into ``bins``
   fixed-width buckets (indices CLIPPED into range, so totals are exact
   regardless of float edge effects) — a ``bins``-length int64 vector
   per block reaches the driver; the column itself never does.
3. Cumulative counts locate the bucket holding each target rank. An
   over-populated bucket (> ``collect_limit``) REFINES: the recursion
   narrows by appending the bucket to a membership CHAIN of binning
   predicates — membership is always decided by the same clipped index
   arithmetic that counted it, so every level partitions the parent's
   count exactly (no value-range re-filtering to disagree at the ULP).
4. One filtered collect of the (small) winning bucket resolves the exact
   element by local rank.

Scale: passes are column-pruned full scans (the pruned column is
materialized once and re-scanned); driver memory is O(bins +
collect_limit). The deterministic output makes this the oracle tier;
approximate one-pass sketches can reuse the histogram machinery when
scan count matters more than exactness.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray


def _chain_mask(v: np.ndarray, chain) -> np.ndarray:
    m = np.ones(len(v), dtype=bool)
    for lo, width, bins, b in chain:
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
        m &= idx == b
    return m


def _group_values(batch: pa.Table, col: str, group) -> np.ndarray:
    """The column as float64, restricted to ``group=(group_col, value)``
    when set — the per-group variant reuses every numeric pass unchanged."""
    v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
    if group is not None:
        gcol, gval = group
        gm = batch.column(gcol).to_numpy(zero_copy_only=False) == gval
        v = v[gm]
    return v


def _histogram(
    ds, col: str, chain, lo: float, width: float, bins: int, group=None
) -> np.ndarray:
    def part(batch: pa.Table) -> pa.Table:
        v = _group_values(batch, col, group)
        v = v[_chain_mask(v, chain)]
        if len(v):
            idx = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
            counts = np.bincount(idx, minlength=bins)
        else:
            counts = np.zeros(bins, dtype=np.int64)
        return pa.table({"h": pa.array([counts.astype(np.int64)], pa.list_(pa.int64()))})

    out = np.zeros(bins, dtype=np.int64)
    for r in ds.map_batches(part, batch_format="pyarrow").take_all():
        out += np.asarray(r["h"], dtype=np.int64)
    return out


def _collect_chain(ds, col: str, chain, group=None) -> np.ndarray:
    def part(batch: pa.Table) -> pa.Table:
        v = _group_values(batch, col, group)
        return pa.table({"v": pa.array(v[_chain_mask(v, chain)], pa.float64())})

    parts = [
        t.column("v").to_numpy(zero_copy_only=False)
        for t in ds.map_batches(part, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]
    vals = np.concatenate(parts) if parts else np.array([], dtype=np.float64)
    return np.sort(vals)


def _resolve_rank(
    ds,
    col: str,
    rank: int,
    chain,
    lo: float,
    hi: float,
    below: int,
    bins: int,
    collect_limit: int,
    max_refine: int,
    hist: np.ndarray | None = None,  # precomputed level histogram (shared across qs)
    group=None,
) -> float:
    if hi <= lo:
        return lo
    width = (hi - lo) / bins
    if hist is None:
        hist = _histogram(ds, col, chain, lo, width, bins, group=group)
    cum = np.cumsum(hist)
    b = int(np.searchsorted(below + cum, rank + 1))
    b_below = below + (int(cum[b - 1]) if b else 0)
    sub_chain = [*chain, (lo, width, bins, b)]
    if hist[b] > collect_limit and max_refine > 0:
        return _resolve_rank(
            ds,
            col,
            rank,
            sub_chain,
            lo + b * width,
            lo + (b + 1) * width,
            b_below,
            bins,
            collect_limit,
            max_refine - 1,
            group=group,
        )
    vals = _collect_chain(ds, col, sub_chain, group=group)
    return float(vals[rank - b_below])


def rank_select_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    bins: int = 4096,
    collect_limit: int = 100_000,
    max_refine: int = 4,
) -> pa.Table:
    """Exact discrete quantiles of a numeric column: for each q, the
    element at sorted rank ``floor(q × (n−1))``, where n counts NON-NULL
    values (nulls are excluded, like SQL aggregate quantiles; an all-null
    or empty column returns an empty table). Returns a small Arrow table
    ``(q, v)``.

    Pass count (nothing is pinned in the object store — ``pruned`` is a
    LAZY column-pruned read, re-executed per pass, which streams at any
    scale where a full-column ``materialize()`` could not): 1 fused
    (n, min, max) aggregate + 1 level-0 histogram + 1 batched bucket
    collect, plus 2 more per refinement LEVEL (histogram + collect) for
    the rare buckets over ``collect_limit``."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min

    pruned = ds.select_columns([col]).map_batches(
        lambda b: b.filter(pc.is_valid(b.column(col))), batch_format="pyarrow"
    )  # lazy: re-executed per pass (see docstring)
    agg = pruned.aggregate(
        Count(alias_name="n"), Min(col, alias_name="mn"), Max(col, alias_name="mx")
    )
    n = int(agg["n"] or 0) if agg is not None else 0  # None: empty dataset
    if n == 0:
        return pa.table({"q": pa.array([], pa.float64()), "v": pa.array([], pa.float64())})
    mn = float(agg["mn"])
    mx = float(agg["mx"])
    # one level-0 histogram pass serves EVERY quantile; only refinements
    # and the final bucket collects are per-rank
    hist0 = (
        _histogram(pruned, col, [], mn, (mx - mn) / bins, bins) if mx > mn else None
    )
    out_q, out_v = [], []
    for q in qs:
        rank = int(math.floor(q * (n - 1)))
        if mn == mx:
            out_q.append(float(q))
            out_v.append(mn)
            continue
        out_q.append(float(q))
        out_v.append(
            _resolve_rank(
                pruned, col, rank, [], mn, mx, 0, bins, collect_limit, max_refine,
                hist=hist0,
            )
        )
    return pa.table({"q": pa.array(out_q, pa.float64()), "v": pa.array(out_v, pa.float64())})


def grouped_rank_select_quantiles(
    ds: "ray.data.Dataset",
    group_col: str,
    col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    bins: int = 4096,
    collect_limit: int = 100_000,
    max_refine: int = 4,
) -> pa.Table:
    """Exact per-group discrete quantiles: for every group and q, the
    element at sorted rank ``floor(q × (n_g − 1))`` within the group
    (the same zero-interpolation definition as the global
    :func:`rank_select_quantiles`, so the SQL oracle is the identical
    ``ROW_NUMBER() OVER (PARTITION BY g)`` rank select).

    Scale shape: group stats are one small ``groupby().aggregate`` (G
    rows); the level-0 histograms for ALL groups come from ONE extra
    pass (each block bincounts each of its groups against that group's
    broadcast (lo, width) — driver memory O(G × bins), the column never
    moves); only groups whose winning bucket exceeds ``collect_limit``
    pay further group-filtered refinement passes. Designed for
    low-cardinality group columns (segments, event types, languages) —
    for millions of groups use an aggregate sketch instead.

    Pass count (NOTHING is pinned — ``pruned`` is a lazy column-pruned
    read re-executed per pass; a ``materialize()`` here would pin the
    whole 2-column table in the object store, which cannot stream at
    100 TB): 1 per-group (n, min, max) groupby + 1 all-groups histogram
    + 1 batched terminal-bucket collect, plus 2 per refinement level for
    the rare over-populated (group, q) buckets."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min

    pruned = ds.select_columns([group_col, col]).map_batches(
        lambda b: b.filter(
            pc.and_(pc.is_valid(b.column(col)), pc.is_valid(b.column(group_col)))
        ),
        batch_format="pyarrow",
    )  # lazy: re-executed per pass (see docstring)
    g_type = pruned.schema().base_schema.field(group_col).type
    stats = pruned.groupby(group_col).aggregate(
        Count(alias_name="n"), Min(col, alias_name="mn"), Max(col, alias_name="mx")
    ).take_all()
    if not stats:
        return pa.table(
            {
                group_col: pa.array([], g_type),
                "q": pa.array([], pa.float64()),
                "v": pa.array([], pa.float64()),
            }
        )
    ranges = {
        s[group_col]: (float(s["mn"]), float(s["mx"]), int(s["n"])) for s in stats
    }
    spread = {g: (mn, (mx - mn) / bins) for g, (mn, mx, _n) in ranges.items() if mx > mn}
    ref = ray.put(spread)

    def part(batch: pa.Table) -> pa.Table:
        sp = ray.get(ref)
        gv = batch.column(group_col).to_pandas()
        v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        out_g, out_h = [], []
        for g, pos in gv.groupby(gv, sort=False).indices.items():
            if g not in sp:
                continue
            lo, width = sp[g]
            idx = np.clip(((v[pos] - lo) / width).astype(np.int64), 0, bins - 1)
            out_g.append(g)
            out_h.append(np.bincount(idx, minlength=bins).astype(np.int64))
        return pa.table(
            {
                "g": pa.array(out_g, g_type),
                "h": pa.array([h for h in out_h], pa.list_(pa.int64())),
            }
        )

    hists: dict = {}
    for r in pruned.map_batches(part, batch_format="pyarrow").take_all():
        h = np.asarray(r["h"], dtype=np.int64)
        hists[r["g"]] = hists.get(r["g"], 0) + h

    # Locate every (group, q)'s level-0 winning bucket from the merged
    # histograms, then fetch ALL terminal buckets in ONE batched collect
    # pass — per-(g,q) collect passes would scan the dataset ~G×len(qs)
    # times for values the histograms already pinpoint. Only buckets over
    # collect_limit fall back to the per-pair refinement recursion.
    tasks = []  # (g, q, rank, bucket, below, refine)
    wanted: dict = {}  # g -> set of terminal level-0 buckets
    for g in sorted(ranges):
        mn, mx, n = ranges[g]
        for q in qs:
            if mx <= mn:
                tasks.append((g, float(q), 0, -1, 0, False))
                continue
            rank = int(math.floor(q * (n - 1)))
            cum = np.cumsum(hists[g])
            b = int(np.searchsorted(cum, rank + 1))
            below = int(cum[b - 1]) if b else 0
            refine = hists[g][b] > collect_limit and max_refine > 0
            tasks.append((g, float(q), rank, b, below, refine))
            if not refine:
                wanted.setdefault(g, set()).add(b)

    bucket_vals: dict = {}
    if wanted:
        want_ref = ray.put({g: np.array(sorted(bs), np.int64) for g, bs in wanted.items()})

        def collect_part(batch: pa.Table) -> pa.Table:
            want = ray.get(want_ref)
            sp = ray.get(ref)
            gv = batch.column(group_col).to_pandas()
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            out_g, out_b, out_v = [], [], []
            for g, pos in gv.groupby(gv, sort=False).indices.items():
                if g not in want:
                    continue
                lo, width = sp[g]
                idx = np.clip(((v[pos] - lo) / width).astype(np.int64), 0, bins - 1)
                m = np.isin(idx, want[g])
                out_g.extend([g] * int(m.sum()))
                out_b.append(idx[m])
                out_v.append(v[pos][m])
            return pa.table(
                {
                    "g": pa.array(out_g, g_type),
                    "b": pa.array(
                        np.concatenate(out_b) if out_b else np.array([], np.int64), pa.int64()
                    ),
                    "v": pa.array(
                        np.concatenate(out_v) if out_v else np.array([], np.float64),
                        pa.float64(),
                    ),
                }
            )

        import pandas as pd

        frames = [
            t.to_pandas()
            for t in pruned.map_batches(collect_part, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            )
        ]
        collected = pd.concat(frames) if frames else pd.DataFrame(columns=["g", "b", "v"])
        bucket_vals = {
            (g, int(b)): np.sort(grp.to_numpy(np.float64))
            for (g, b), grp in collected.groupby(["g", "b"], sort=False)["v"]
        }

    out_g, out_q, out_v = [], [], []
    for g, q, rank, b, below, refine in tasks:
        out_g.append(g)
        out_q.append(q)
        mn, mx, _n = ranges[g]
        if b < 0:
            out_v.append(mn)
        elif not refine:
            out_v.append(float(bucket_vals[(g, b)][rank - below]))
        else:
            lo, width = spread[g]
            out_v.append(
                _resolve_rank(
                    pruned,
                    col,
                    rank,
                    [(lo, width, bins, b)],
                    lo + b * width,
                    lo + (b + 1) * width,
                    below,
                    bins,
                    collect_limit,
                    max_refine - 1,
                    group=(group_col, g),
                )
            )
    return pa.table(
        {
            group_col: pa.array(out_g, g_type),
            "q": pa.array(out_q, pa.float64()),
            "v": pa.array(out_v, pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# One-pass approximate quantiles (the sketch tier)
# ---------------------------------------------------------------------------


def _compress_summary(v: np.ndarray, w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Re-compress a weighted, VALUE-SORTED summary to ≤k equi-weight
    points: sample at the k midpoint ranks (i+0.5)·W/k. Each compression
    moves any rank estimate by ≤ W/(2k) — the error budget below."""
    if len(v) <= k:
        return v, w
    W = float(w.sum())
    cum = np.cumsum(w) - w / 2.0  # midpoint rank of each point
    targets = (np.arange(k, dtype=np.float64) + 0.5) * (W / k)
    idx = np.clip(np.searchsorted(cum, targets, side="left"), 0, len(v) - 1)
    return v[idx], np.full(k, W / k, dtype=np.float64)


@ray.remote
def _merge_summaries_task(k: int, *tables: pa.Table) -> pa.Table:
    """One fan-in node of the summary tree: concat the children's
    (vals, wts) rows, sort by value, re-compress to k points."""
    from .joins import _single_threaded_arrow

    _single_threaded_arrow()
    vs, ws = [], []
    for t in tables:
        for i in range(t.num_rows):
            vs.append(np.asarray(t.column("vals")[i].as_py(), dtype=np.float64))
            ws.append(np.asarray(t.column("wts")[i].as_py(), dtype=np.float64))
    if not vs:
        return pa.table(
            {"vals": pa.array([], pa.list_(pa.float64())), "wts": pa.array([], pa.list_(pa.float64()))}
        )
    v = np.concatenate(vs)
    w = np.concatenate(ws)
    order = np.argsort(v, kind="mergesort")
    v, w = _compress_summary(v[order], w[order], k)
    return pa.table(
        {"vals": pa.array([v], pa.list_(pa.float64())), "wts": pa.array([w], pa.list_(pa.float64()))}
    )


def approx_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    k: int = 512,
    fanin: int = 8,
) -> pa.Table:
    """ONE-PASS approximate quantiles — the sketch tier next to the exact
    :func:`rank_select_quantiles` (which re-scans per refinement level).

    Per block: sort its non-null values and keep ``k`` equi-weight order
    statistics (weight n_b/k each) — a ``2k``-float summary per block;
    the column never reaches the driver. Summaries merge in a log-depth
    task tree (sort + re-compress at each node); the driver ``ray.get``s
    ONE summary and reads every quantile off it.

    Error bound: each compression shifts any rank by ≤ W/(2k), so with
    tree depth d (≈ log_fanin(blocks)) the total rank error is ≤
    (d+1)/(2k) of N — k=512, fan-in 8, a million blocks (d=7) → ≤0.8%
    rank error. Raise ``k`` for tighter answers; the exact tier is the
    oracle when zero error is required.

    Returns ``(q, v)`` like the exact tier; empty/all-null input returns
    an empty table."""
    from .joins import _block_refs, _tree_reduce

    def part(batch: pa.Table) -> pa.Table:
        v = batch.column(col).drop_null().to_numpy(zero_copy_only=False).astype(np.float64)
        if not len(v):
            return pa.table(
                {"vals": pa.array([], pa.list_(pa.float64())), "wts": pa.array([], pa.list_(pa.float64()))}
            )
        v = np.sort(v)
        if len(v) > k:
            idx = ((np.arange(k, dtype=np.float64) + 0.5) * (len(v) / k)).astype(np.int64)
            vv, ww = v[np.clip(idx, 0, len(v) - 1)], np.full(k, len(v) / k, dtype=np.float64)
        else:
            vv, ww = v, np.ones(len(v), dtype=np.float64)
        return pa.table(
            {"vals": pa.array([vv], pa.list_(pa.float64())), "wts": pa.array([ww], pa.list_(pa.float64()))}
        )

    refs = _block_refs(ds.select_columns([col]).map_batches(part, batch_format="pyarrow"))
    if not refs:
        return pa.table({"q": pa.array([], pa.float64()), "v": pa.array([], pa.float64())})
    final = ray.get(
        _tree_reduce(refs, lambda *rs: _merge_summaries_task.remote(k, *rs), fanin=fanin)
    )
    if final.num_rows == 0:
        return pa.table({"q": pa.array([], pa.float64()), "v": pa.array([], pa.float64())})
    v = np.asarray(final.column("vals")[0].as_py(), dtype=np.float64)
    w = np.asarray(final.column("wts")[0].as_py(), dtype=np.float64)
    W = float(w.sum())
    cum = np.cumsum(w)
    out_q, out_v = [], []
    for q in qs:
        target = float(q) * W
        i = int(np.clip(np.searchsorted(cum, target, side="left"), 0, len(v) - 1))
        out_q.append(float(q))
        out_v.append(float(v[i]))
    return pa.table({"q": pa.array(out_q, pa.float64()), "v": pa.array(out_v, pa.float64())})
