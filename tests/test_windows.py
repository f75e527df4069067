"""Windowed aggregates vs DuckDB oracles (tumbling + gap sessions)."""

import duckdb
import pytest

from etl_framework_ray.pipelines.windows import session_windows, tumbling_counts

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_tumbling_counts_matches_sql():
    got = tumbling_counts(SF, window_s=3600).to_pandas()
    con = duckdb.connect()
    exp = con.sql(
        f"""SELECT event_type,
               to_timestamp(CAST(FLOOR(epoch(ts) / 3600) AS BIGINT) * 3600)::TIMESTAMP AS window_start,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(ROUND(SUM(value) * 100) AS BIGINT) / 100.0 AS sum_value
            FROM read_parquet('{SF}/events.parquet') GROUP BY 1, 2"""
    ).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    x = exp[cols].sort_values(cols).reset_index(drop=True)
    assert len(g) == len(x)
    assert (g.n_events.to_numpy() == x.n_events.to_numpy()).all()
    assert (g.sum_value - x.sum_value).abs().max() < 1e-9
    assert (g.window_start.to_numpy() == x.window_start.to_numpy()).all()
    assert str(g.window_start.dtype) == "datetime64[us]"  # oracle-compatible dtype


@pytest.mark.usefixtures("ray_session")
def test_session_windows_matches_sql():
    got = session_windows(SF, gap_s=1800).to_pandas()
    con = duckdb.connect()
    exp = con.sql(
        f"""WITH gaps AS (
               SELECT user_id, event_id, ts,
                      CASE WHEN epoch(ts - LAG(ts) OVER w) > 1800 THEN 1 ELSE 0 END AS new_sess
               FROM read_parquet('{SF}/events.parquet')
               WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), sess AS (
               SELECT user_id, ts,
                      SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                          ROWS UNBOUNDED PRECEDING) AS session_id
               FROM gaps)
            SELECT user_id, MIN(ts) AS session_start, MAX(ts) AS session_end,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM sess GROUP BY user_id, session_id"""
    ).df()
    cols = sorted(got.columns)
    g = got[cols].sort_values(cols).reset_index(drop=True)
    x = exp[cols].sort_values(cols).reset_index(drop=True)
    assert len(g) == len(x)
    for c in cols:
        assert (g[c].to_numpy() == x[c].to_numpy()).all(), c
    # sessions are non-overlapping and ordered per user
    per_user = got.sort_values(["user_id", "session_start"])
    prev_end = per_user.groupby("user_id")["session_end"].shift()
    gaps = (per_user["session_start"] - prev_end).dt.total_seconds().dropna()
    assert (gaps > 1800).all()


@pytest.mark.usefixtures("ray_session")
def test_hopping_counts_cover_tumbling():
    """Every event lands in window/hop hopping windows, so total hopping
    event-count = (window/hop) x total tumbling event-count, and the
    aligned hopping window is a superset of its tumbling twin."""
    from etl_framework_ray.pipelines.windows import hopping_counts, tumbling_counts

    hop = hopping_counts(SF, window_s=3600, hop_s=900).to_pandas()
    tum = tumbling_counts(SF, window_s=3600).to_pandas()
    assert hop.n_events.sum() == 4 * tum.n_events.sum()
    # aligned windows: hopping count >= tumbling count for the same start
    m = hop.merge(tum, on=["event_type", "window_start"], suffixes=("_h", "_t"))
    assert (m.n_events_h >= m.n_events_t).all()


def test_hopping_rejects_misaligned_hop():
    from etl_framework_ray.pipelines.windows import hopping_counts

    with pytest.raises(ValueError, match="multiple"):
        hopping_counts(SF, window_s=3600, hop_s=1000)


def test_window_partial_drops_null_event_type():
    """A null event_type is no group (pandas groupby semantics): its row
    must not surface under a garbage dictionary code."""
    import datetime

    import numpy as np
    import pyarrow as pa

    from etl_framework_ray.pipelines.windows import _grouped_window_partial

    one = pa.table(
        {
            "ts": pa.array([datetime.datetime(2024, 1, 1)], pa.timestamp("us")),
            "event_type": pa.array([None], pa.string()),
            "value": pa.array([1.5], pa.float64()),
        }
    )
    zero = np.zeros(1, dtype=np.int64)
    assert _grouped_window_partial(one, zero, zero).num_rows == 0
