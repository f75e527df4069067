"""One lake codec and one gather per live merge.

Every lake data file — CDC deltas and bases, view and replica partition
files, ``LakeWriter`` staging — is written LZ4-compressed by
``cdc.lake_parquet_args``, and Snappy files written before that rule stack,
read and compact beside LZ4 ones. A live-state merge
(``partition_chunks(..., live=True)``) drops tombstones inside the LWW
gather; it must yield exactly the tombstone-keeping merge's live rows on
every path: the whole-partition merge, the streamed k-way merge, row-group
pruning by conjuncts, and the PK-less concat.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from test_streamed_merge import KEYS, LAKE, _file, _synth_partition

from etl_framework_ray.pipelines import cdc
from etl_framework_ray.pipelines.cdc import CDCEngine, partition_chunks
from etl_framework_ray.pipelines.writer import LakeWriter
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog, oracle_replay
from etl_framework_ray.state.schema import ColumnSpec, TableSpec


def _codecs(path: str) -> set[str]:
    md = pq.read_metadata(path)
    return {
        md.row_group(g).column(c).compression
        for g in range(md.num_row_groups)
        for c in range(md.num_columns)
    }


def _listed(eng: CDCEngine) -> list[str]:
    return [f for ps in eng.manifest.partitions.values() for f in ps.files]


def _by_key(t: pa.Table) -> dict:
    return {
        (r["conv_id"], r["turn_idx"]): {c: r[c] for c in ("role", "text", "tool", "ts")}
        for r in t.to_pylist()
    }


@pytest.mark.usefixtures("ray_session")
def test_snappy_files_stack_read_and_compact_with_lz4_ones(tmp_path):
    """A lake whose first epochs were written Snappy (the files are
    rewritten with the pre-LZ4 arguments) and whose later epochs are LZ4:
    lookups, the driver snapshot, the changefeed and a compaction all
    equal the oracle, and the compacted bases are LZ4."""
    log = generate_changelog(
        GenConfig(num_events=4_000, num_conversations=120, seed=29, delete_frac=0.05, text_pad=8)
    )
    half = log.num_rows // 2
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, half), segment_rows=500)
    table = str(tmp_path / "t")
    eng = CDCEngine(table, num_partitions=4, compact_every=100)
    eng.replay(clog, segments_per_epoch=1)
    snappy = _listed(eng)
    for f in snappy:
        t = pq.read_table(f)
        pq.write_table(t, f, **{**cdc.lake_parquet_args(t.schema), "compression": "snappy"})
        assert _codecs(f) == {"SNAPPY"}
    clog.write_segments(log.slice(half), segment_rows=500)
    eng.replay(clog, segments_per_epoch=1)
    lz4 = [f for f in _listed(eng) if f not in snappy]
    assert lz4 and all(_codecs(f) == {"LZ4"} for f in lz4)

    oracle = oracle_replay(log)
    snap = eng.snapshot_arrow()
    assert _by_key(snap) == oracle
    keys = sorted({k[0] for k in oracle})[::5]
    assert eng.lookup(keys).equals(
        snap.filter(pc.is_in(snap.column("conv_id"), value_set=pa.array(keys)))
    )
    changes = eng.read_changes(0)
    live = changes.filter(pc.invert(changes.column("_deleted"))).select(snap.column_names)
    assert _by_key(live) == oracle

    assert eng.compact() > 0
    assert _by_key(eng.snapshot_arrow()) == oracle
    assert all(_codecs(f) == {"LZ4"} for f in _listed(eng))


@pytest.mark.usefixtures("ray_session")
def test_every_lake_writer_writes_lz4(tmp_path):
    """After a replay, a view advance, an overwrite and a replica follow,
    every column chunk of every file listed by the lake, view and replica
    manifests is LZ4."""
    from etl_framework_ray.pipelines.consumer import ViewDeltaConsumer
    from etl_framework_ray.pipelines.incremental import IncrementalRollup
    from etl_framework_ray.pipelines.replica import ReplicaTable

    log = generate_changelog(
        GenConfig(num_events=2_000, num_conversations=40, seed=31, delete_frac=0.1)
    )
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    eng = CDCEngine(
        str(tmp_path / "tbl"), num_partitions=4, compact_every=2, changefeed_retention_lsn=10**9
    )
    view = IncrementalRollup(eng, str(tmp_path / "view"), emit_changes=True)
    con = ViewDeltaConsumer(view, str(tmp_path / "sink"))
    rep = ReplicaTable(str(tmp_path / "replica"), num_partitions=4)
    epochs = clog.epochs(1)
    eng.apply_epoch(epochs[0])
    view.advance()
    con.seed_from_view()
    for ep in epochs[1:]:
        eng.apply_epoch(ep)
    view.advance()
    rep.follow(con)

    spec = TableSpec(
        name="evlog",
        columns=(ColumnSpec("event_id", pa.int64(), nullable=False), ColumnSpec("tag", pa.string())),
    )
    w = LakeWriter(str(tmp_path / "overwrite"), spec, num_partitions=2)
    n = 300
    w.overwrite(
        ray.data.from_arrow(
            pa.table({"event_id": pa.array(range(n), pa.int64()), "tag": [f"t{i % 7}" for i in range(n)]})
        )
    )

    view_state = view._load_state()
    files = {
        "lake": _listed(eng),
        "view": list(view_state["files"].values()),
        "view changes": [f for fs in view_state["deltas"].values() for f in fs],
        "replica": list(rep._load_state()["files"].values()),
        "overwrite": _listed(w.engine),
    }
    assert any(os.path.basename(f).startswith("base-") for f in files["lake"])
    for kind, fs in files.items():
        assert fs, kind
        for f in fs:
            assert _codecs(f) == {"LZ4"}, (kind, f)


def _live(t: pa.Table) -> pa.Table:
    return t.filter(pc.invert(t.column("_deleted")))


def _concat(chunks: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(chunks) if chunks else LAKE.empty_table()


@pytest.mark.parametrize("chunk_rows", [7, 64, 100_000])
@pytest.mark.parametrize("conjuncts", [None, [("conv_id", ">=", "conv-0004")]])
def test_live_partition_chunks_equal_kept_tombstones_filtered(tmp_path, chunk_rows, conjuncts):
    """Streamed (small ``chunk_rows``) and whole-partition paths, with and
    without row-group pruning: the live merge equals the tombstone-keeping
    merge with its tombstones filtered out, in the same order, and yields
    no empty chunk."""
    files = _synth_partition(tmp_path)
    kept = list(partition_chunks(files, LAKE, KEYS, conjuncts=conjuncts, chunk_rows=chunk_rows))
    live = list(
        partition_chunks(files, LAKE, KEYS, conjuncts=conjuncts, chunk_rows=chunk_rows, live=True)
    )
    assert all(c.num_rows for c in live)
    want = _live(_concat(kept))
    assert 0 < want.num_rows < _concat(kept).num_rows
    assert _concat(live).equals(want)
    assert not pc.any(_concat(live).column("_deleted")).as_py()


@pytest.mark.parametrize("chunk_rows", [3, 100_000])
def test_live_merge_of_an_all_tombstone_partition_yields_nothing(tmp_path, chunk_rows):
    rows = [(f"conv-{i % 3:04d}", i, f"v{i}", (i + 1) * 1000, i + 1, True) for i in range(40)]
    older = [(f"conv-{i % 3:04d}", i, f"old{i}", 0, 0, False) for i in range(40)]
    files = [
        _file(tmp_path, "base-00000-000000000001.parquet", older),
        _file(tmp_path, "delta-00000-000000000002.parquet", rows),
    ]
    kept = list(partition_chunks(files, LAKE, KEYS, chunk_rows=chunk_rows))
    assert sum(c.num_rows for c in kept) == 40
    assert list(partition_chunks(files, LAKE, KEYS, chunk_rows=chunk_rows, live=True)) == []


def test_live_merge_of_pk_less_and_one_row_stacks(tmp_path):
    """The PK-less concat drops tombstones in its one filter; a one-row
    stack (no LWW sort) drops a lone tombstone too."""
    rng = np.random.default_rng(5)
    rows = [
        (f"conv-{int(rng.integers(0, 9)):04d}", i, f"v{i}", i, i, bool(rng.random() < 0.3))
        for i in range(50)
    ]
    f = _file(tmp_path, "a.parquet", rows)
    kept = _concat(list(partition_chunks([f], LAKE, ())))
    assert _concat(list(partition_chunks([f], LAKE, (), live=True))).equals(_live(kept))

    one = _file(tmp_path, "delta-00000-000000000001.parquet", [("conv-0001", 1, "x", 1, 1, True)])
    assert list(partition_chunks([one], LAKE, KEYS, live=True)) == []
    assert sum(c.num_rows for c in partition_chunks([one], LAKE, KEYS)) == 1


def test_lake_readers_skip_the_dataset_api():
    """Per-file reads in the CDC, view and replica modules use a direct
    reader (``cdc._footer``/``_parquet`` for lake files,
    ``pq.ParquetFile`` for view files), never ``pq.read_table``."""
    from test_partition_reader import _calls, _on_pq

    mods = {"pipelines/cdc.py", "pipelines/incremental.py", "pipelines/replica.py"}
    found = {(rel, fn) for rel, fn, call in _calls("read_table") if rel in mods and _on_pq(call)}
    assert found == set()
