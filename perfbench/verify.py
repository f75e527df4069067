"""Untimed correctness gates: each returns the number of mismatches."""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PUBLIC = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def segment_files(*log_dirs: str) -> list[str]:
    return sorted(f for d in log_dirs for f in glob.glob(os.path.join(d, "segment-*.parquet")))


def lake_vs_duckdb(state: pa.Table, log_dirs: list[str]) -> int:
    """Rows in the engine's state and not in a DuckDB last-writer-wins
    over the raw segments (order ``(ts, lsn)``, ``D`` deletes), plus the
    reverse. Only for logs without partial images."""
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads TO 2")
    files = segment_files(*log_dirs)
    cols = ", ".join(PUBLIC)
    con.execute(
        f"CREATE TEMP TABLE ref AS SELECT {cols} FROM (SELECT *, row_number() OVER "
        f"(PARTITION BY conv_id, turn_idx ORDER BY ts DESC, lsn DESC) AS rn "
        f"FROM read_parquet({files!r})) WHERE rn = 1 AND op <> 'D'"
    )
    con.register("eng", state.select(PUBLIC))
    missing = con.execute("SELECT count(*) FROM (FROM ref EXCEPT ALL FROM eng)").fetchone()[0]
    extra = con.execute("SELECT count(*) FROM (FROM eng EXCEPT ALL FROM ref)").fetchone()[0]
    con.close()
    return int(missing) + int(extra)


def lake_vs_oracle(state: pa.Table, log_dirs: list[str], payload: tuple[str, ...]) -> int:
    """Keys whose engine row differs from ``generator.oracle_replay`` (a
    plain dict replay that understands partial images)."""
    from etl_framework_ray.sources.generator import oracle_replay

    log = pa.concat_tables(
        [pq.read_table(f) for f in segment_files(*log_dirs)], promote_options="default"
    )
    want = oracle_replay(log, payload_cols=payload)
    got = {(r["conv_id"], r["turn_idx"]): r for r in state.to_pylist()}
    bad = len(set(want) ^ set(got))
    for k in set(want) & set(got):
        if any(want[k][c] != got[k].get(c) for c in (*payload, "ts")):
            bad += 1
    return bad


def view_vs_rebuild(engine, view, scratch_dir: str) -> int:
    """1 when the maintained view differs from a full rebuild of the same
    lake state in a fresh directory, else 0."""
    from etl_framework_ray.pipelines.incremental import IncrementalRollup

    fresh = IncrementalRollup(engine, scratch_dir)
    fresh.rebuild()
    return int(not view.read_arrow().equals(fresh.read_arrow()))


def lookups_vs_snapshot(state: pa.Table, results: list[tuple[str, pa.Table]]) -> int:
    """Lookups whose result differs from the snapshot filtered to the key."""
    keys = state.column("conv_id").to_numpy(zero_copy_only=False)
    bad = 0
    for key, got in results:
        lo, hi = np.searchsorted(keys, key, "left"), np.searchsorted(keys, key, "right")
        if not got.equals(state.slice(lo, hi - lo)):
            bad += 1
    return bad


def scan_vs_snapshot(got: pa.Table, state: pa.Table, columns: list[str], predicate: list) -> int:
    """1 when a projected, predicated scan differs from the snapshot
    filtered and projected the same way."""
    want = filtered(state, predicate).select(columns)
    order = [(c, "ascending") for c in ("conv_id", "turn_idx")]
    return int(not got.select(columns).sort_by(order).equals(want.sort_by(order)))


def filtered(state: pa.Table, predicate: list) -> pa.Table:
    from etl_framework_ray.state import zonemap

    return zonemap.filter_table(state, predicate)
