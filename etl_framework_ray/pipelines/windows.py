"""Windowed aggregates over an event stream — custom operators Ray Data
lacks natively (task-spec "windowed aggregate"; guide: streaming-shaped
workloads).

Ray Data has no event-time windows; both operators follow the documented
pattern: express the window as a *key* (tumbling) or as partition-local
ordered state (session) and let groupby/map_groups do the rest.

- ``tumbling_counts``: window start = ``floor(epoch(ts)/w)*w`` computed
  vectorized per batch, then pre-aggregated partials → small groupby.
  SQL-expressible → oracle-checked.
- ``session_windows``: gap-based sessionization per key. All events of a
  key co-locate via ``groupby(key)``; inside the group a pandas cumsum
  over ``gap > timeout`` assigns session ids on the (ts, event_id)-sorted
  stream. Ordering assumption: session state is PARTITION-LOCAL per key —
  the same co-location contract the CDC applier uses. Also
  SQL-expressible (window functions) → oracle-checked.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import ray


def _epoch_seconds(batch: pa.Table) -> "np.ndarray":
    """Unit-safe TRUNCATING epoch seconds of ``ts``: normalize to [us]
    then floor-divide (a datetime64[s] cast ROUNDS sub-seconds — boundary
    events would land in the next window vs SQL's epoch() truncation)."""
    import numpy as np

    ts = batch.column("ts").cast(pa.timestamp("us"))
    return ts.to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(
        np.int64
    ) // 1_000_000


def _grouped_window_partial(
    batch: pa.Table, win_starts: "np.ndarray", row_idx: "np.ndarray"
) -> pa.Table:
    """Arrow/numpy pre-aggregation of (event_type, window_start) →
    (n_events, sum_value) for one batch — no pandas round-trip. ``row_idx``
    maps each (replicated) window row back to its source row; composite
    group ids come from two ``np.unique`` inverse passes, counts and sums
    from ``np.bincount``."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.joins import _single_threaded_arrow

    _single_threaded_arrow()
    et = batch.column("event_type")
    enc = pc.dictionary_encode(
        et.combine_chunks() if isinstance(et, pa.ChunkedArray) else et
    )
    codes = enc.indices
    if codes.null_count:
        # a null event_type is no group (pandas groupby semantics): drop
        # its rows, whose null index would decode as a garbage code
        valid = pc.is_valid(codes).to_numpy(zero_copy_only=False)[row_idx]
        win_starts, row_idx = win_starts[valid], row_idx[valid]
        codes = pc.fill_null(codes, 0)
    codes = codes.to_numpy(zero_copy_only=False).astype(np.int64)[row_idx]
    vals = batch.column("value").to_numpy(zero_copy_only=False).astype(np.float64)[
        row_idx
    ]
    vals = np.where(np.isnan(vals), 0.0, vals)  # sum skips nulls, size counts them
    uw, wi = np.unique(win_starts, return_inverse=True)
    key = codes * len(uw) + wi
    uk, inv = np.unique(key, return_inverse=True)
    return pa.table(
        {
            "event_type": enc.dictionary.take(pa.array(uk // len(uw))),
            "window_start": pa.array(uw[uk % len(uw)] * 1_000_000).cast(
                pa.timestamp("us")
            ),
            "n_events": pa.array(np.bincount(inv), pa.int64()),
            "sum_value": pa.array(np.bincount(inv, weights=vals), pa.float64()),
        }
    )


def tumbling_counts(sf_dir: str, window_s: int = 3600) -> "ray.data.Dataset":
    """Events per (event_type, tumbling window): count + value sum.
    Partials are Arrow/numpy-native (dictionary-encode + bincount — the
    same pattern session_windows got in round 4; no pandas round-trip)."""

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        win = (_epoch_seconds(batch) // window_s) * window_s
        return _grouped_window_partial(
            batch, win, np.arange(batch.num_rows, dtype=np.int64)
        )

    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )
    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("sum_value", alias_name="sum_value"))
    )

    def snap(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        i = batch.schema.get_field_index("sum_value")
        cents = pc.round(pc.multiply(batch.column("sum_value"), pa.scalar(100.0)), 0)
        batch = batch.set_column(
            i, "sum_value", pc.divide(pc.cast(cents, pa.int64()).cast(pa.float64()), pa.scalar(100.0))
        )
        j = batch.schema.get_field_index("window_start")
        return batch.set_column(
            j, "window_start", batch.column("window_start").cast(pa.timestamp("us"))
        )

    return out.map_batches(snap, batch_format="pyarrow")


def hopping_counts(
    sf_dir: str, window_s: int = 3600, hop_s: int = 900
) -> "ray.data.Dataset":
    """Events per (event_type, HOPPING window): overlapping windows of
    ``window_s`` advancing every ``hop_s`` (``window_s % hop_s == 0``).

    Each event belongs to exactly ``window_s // hop_s`` windows; the
    replication happens vectorized inside the batch map (np.repeat/tile),
    partials pre-aggregate per batch, and ONE small groupby combines —
    the same partial-before-shuffle shape as ``tumbling_counts``, with
    shuffle volume bounded by distinct (type, window) pairs × blocks, not
    by the ``window/hop``× event replication."""
    if window_s % hop_s:
        raise ValueError("window_s must be a multiple of hop_s")
    m = window_s // hop_s

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        last_start = (_epoch_seconds(batch) // hop_s) * hop_s
        n = batch.num_rows
        starts = np.repeat(last_start, m) - np.tile(
            np.arange(m, dtype=np.int64) * hop_s, n
        )
        row_idx = np.repeat(np.arange(n, dtype=np.int64), m)
        return _grouped_window_partial(batch, starts, row_idx)

    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )
    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("sum_value", alias_name="sum_value"))
    )

    def snap(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        i = batch.schema.get_field_index("sum_value")
        cents = pc.round(pc.multiply(batch.column("sum_value"), pa.scalar(100.0)), 0)
        batch = batch.set_column(
            i, "sum_value", pc.divide(pc.cast(cents, pa.int64()).cast(pa.float64()), pa.scalar(100.0))
        )
        j = batch.schema.get_field_index("window_start")
        return batch.set_column(
            j, "window_start", batch.column("window_start").cast(pa.timestamp("us"))
        )

    return out.map_batches(snap, batch_format="pyarrow")


def session_windows(
    sf_dir: str, gap_s: int = 1800, shuffle_buckets: int | None = None
) -> "ray.data.Dataset":
    """Per-user sessions: a new session starts when the gap since the
    previous event exceeds ``gap_s``. Output one row per session.

    Users co-locate by ``hash(user_id)`` on the DIRECT exchange
    (:func:`~..stages.joins._direct_grouped_apply`; round 4 retired the
    ``groupby("_cb").map_groups`` sort exchange) and ONE vectorized kernel
    per bucket sessionizes all of its users — sort by (user, ts,
    event_id), session boundaries = user-change OR gap>τ (the
    ``lww.last_per_key_mask`` adjacent-diff trick), cumsum for ids, one
    pandas groupby-agg in C for the rollup. Per-user ``map_groups`` costs
    one Python dispatch per user — a scale bug at millions of keys
    (measured on this engine: per-group vs per-bucket dispatch is 15 s vs
    0.5 s for 5 k groups, joins.py)."""
    import numpy as np

    from ..stages.joins import _direct_grouped_apply

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_id", "ts"]
    )
    schema = ds.schema()  # parquet metadata read — no execution
    user_t = schema.types[schema.names.index("user_id")]
    ts_t = schema.types[schema.names.index("ts")]

    def bucket_sessions(df: pd.DataFrame) -> pa.Table:
        if not len(df):  # every bucket must emit the identical schema
            return pa.table(
                {
                    "user_id": pa.array([], user_t),
                    "session_start": pa.array([], ts_t),
                    "session_end": pa.array([], ts_t),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        g = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = g["ts"].to_numpy()
        uid = g["user_id"].to_numpy()
        gap = np.empty(len(g))
        gap[0] = np.inf
        gap[1:] = (ts[1:] - ts[:-1]) / np.timedelta64(1, "s")
        new_session = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            new_session[1:] = (uid[1:] != uid[:-1]) | (gap[1:] > gap_s)
        g = g.assign(_sid=np.cumsum(new_session))
        out = (
            g.groupby("_sid", sort=True)
            .agg(
                user_id=("user_id", "first"),
                session_start=("ts", "min"),
                session_end=("ts", "max"),
                n_events=("event_id", "size"),
            )
            .reset_index(drop=True)
        )
        return pa.table(
            {
                "user_id": pa.array(out["user_id"], user_t),
                "session_start": pa.array(out["session_start"]).cast(ts_t),
                "session_end": pa.array(out["session_end"]).cast(ts_t),
                "n_events": pa.array(out["n_events"].to_numpy(np.int64)),
            }
        )

    return _direct_grouped_apply(ds, "user_id", bucket_sessions, shuffle_buckets)
