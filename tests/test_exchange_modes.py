"""The direct hash exchange: committed state equals the dict oracle at
any partition count (load-packed reduce tasks, untouched partitions
skipped), and compaction composes with mid-replay schema evolution."""

import os

import pyarrow as pa
import pytest

from etl_framework_ray.pipelines.cdc import CDCEngine, _pack_partitions
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog, oracle_replay


def _assert_matches_oracle(eng, log):
    oracle = oracle_replay(log)
    got = eng.snapshot_arrow().to_pylist()
    keys = [(r["conv_id"], r["turn_idx"]) for r in got]
    assert len(set(keys)) == len(keys) == len(oracle)
    for r in got:
        exp = oracle[(r["conv_id"], r["turn_idx"])]
        for c in ("text", "role", "tool", "ts"):
            assert r[c] == exp[c], (r["conv_id"], r["turn_idx"], c)


@pytest.mark.usefixtures("ray_session")
def test_exchange_matches_oracle_per_key(tmp_path):
    log = generate_changelog(GenConfig(num_events=4000, num_conversations=80, seed=21))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=1000)

    eng = CDCEngine(str(tmp_path / "a"), num_partitions=4)
    eng.replay(clog, segments_per_epoch=2)
    _assert_matches_oracle(eng, log)


def test_pack_partitions_largest_first_onto_least_loaded():
    import numpy as np

    loads = np.array([0, 5, 3, 0, 3, 1])
    # 1 (5) → task 0; 2 (3) → task 1; 4 (3) → task 1 (3 < 5); 5 (1) → task 0 (5 < 6)
    assert _pack_partitions(loads, 2) == [[1, 5], [2, 4]]
    assert _pack_partitions(loads, 16) == [[1], [2], [4], [5]]
    assert _pack_partitions(np.zeros(4, dtype=np.int64), 2) == []


@pytest.mark.usefixtures("ray_session")
def test_packed_reduce_matches_oracle(tmp_path):
    """64 partitions on a 4-CPU session get at most 16 reduce tasks, so
    several partitions share one task; state still equals the oracle, as
    it does at the degenerate single partition."""
    import ray

    log = generate_changelog(
        GenConfig(num_events=6000, num_conversations=300, seed=5, hot_key_frac=0.2,
                  delete_frac=0.1, out_of_order=True)
    )
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=64, compact_every=2)

    epoch = clog.epochs(4)[0]
    refs = eng._submit_prep(epoch, eng._epoch_schemas(epoch)[0])
    assert len(refs) == len(epoch.paths)
    for table_ref, bounds_ref in refs:
        table, bounds = ray.get([table_ref, bounds_ref])
        assert len(bounds) == 65 and bounds[0] == 0 and bounds[-1] == table.num_rows
        assert (bounds[1:] >= bounds[:-1]).all()

    eng.replay(clog, segments_per_epoch=4)
    assert len(eng.manifest.partitions) > 4 * ray.cluster_resources()["CPU"]
    _assert_matches_oracle(eng, log)

    one = CDCEngine(str(tmp_path / "one"), num_partitions=1, compact_every=2)
    one.replay(clog, segments_per_epoch=4)
    _assert_matches_oracle(one, log)


@pytest.mark.usefixtures("ray_session")
def test_untouched_partition_gets_no_file_or_lineage(tmp_path):
    from etl_framework_ray.functions.hashing import salted_partition_ids
    from etl_framework_ray.pipelines.metrics import read_metrics

    log = generate_changelog(GenConfig(num_events=600, num_conversations=3, seed=9))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=200)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=64)
    eng.replay(clog, segments_per_epoch=2)
    _assert_matches_oracle(eng, log)

    touched = set(salted_partition_ids(log, eng.key_cols, 64).tolist())
    assert 0 < len(touched) <= 3
    assert set(eng.manifest.partitions) == touched
    written = {int(d.split("=")[1]) for d in os.listdir(os.path.join(eng.table_dir, "data"))}
    assert written == touched
    assert set(read_metrics(eng.table_dir).column("partition").to_pylist()) == touched


def test_removed_exchange_options_fail_loud(tmp_path):
    for kw in ({"exchange": "sort"}, {"auto_sort_refs": None}):
        with pytest.raises(TypeError, match=next(iter(kw))):
            CDCEngine(str(tmp_path / "x"), **kw)


@pytest.mark.usefixtures("ray_session")
def test_null_key_feed_rejected(tmp_path):
    import pyarrow.parquet as pq

    from etl_framework_ray.sources.generator import CHANGELOG_SCHEMA

    bad = pa.Table.from_pylist(
        [
            {"lsn": 1, "op": "I", "ts": 0, "conv_id": "c1", "turn_idx": 0, "role": "user",
             "text": "x", "tool": None},
            {"lsn": 2, "op": "I", "ts": 0, "conv_id": None, "turn_idx": 1, "role": "user",
             "text": "y", "tool": None},
        ],
        schema=pa.schema([f.with_nullable(True) for f in CHANGELOG_SCHEMA]),
    )
    clog = ChangeLog(str(tmp_path / "log"))
    path = str(tmp_path / "log" / "segment-000000000001-000000000002.parquet")
    pq.write_table(bad, path)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=2)
    with pytest.raises(Exception, match="NULL values in key column"):
        eng.replay(clog)


def test_pkless_spec_cannot_apply(tmp_path):
    from etl_framework_ray.sources.changelog import Epoch, Segment
    from etl_framework_ray.state.schema import ColumnSpec, TableSpec

    spec = TableSpec(name="nopk", columns=(ColumnSpec("a", pa.int64()),))
    eng = CDCEngine(str(tmp_path / "t"), spec=spec, num_partitions=2)
    with pytest.raises(ValueError, match="primary key"):
        eng.apply_epoch(Epoch((Segment("/nonexistent", 1, 10),)))


@pytest.mark.usefixtures("ray_session")
def test_compaction_composes_with_schema_evolution(tmp_path):
    """Old (pre-evolution) delta files must normalize correctly when a
    compaction folds them under the evolved schema."""
    from etl_framework_ray.state.schema import ColumnSpec, TableSpec

    spec_v1 = TableSpec(
        name="transcripts",
        columns=(
            ColumnSpec("conv_id", pa.string(), nullable=False),
            ColumnSpec("turn_idx", pa.int32(), nullable=False),
            ColumnSpec("role", pa.string()),
            ColumnSpec("text", pa.large_string()),
            ColumnSpec("ts", pa.timestamp("us"), nullable=False),
        ),
        primary_key=("conv_id", "turn_idx"),
    )
    log = generate_changelog(GenConfig(num_events=3000, num_conversations=40, seed=31))
    early = log.slice(0, 1500).drop_columns(["tool"])
    late = log.slice(1500)
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(early, segment_rows=300)  # 5 pre-evolution segments
    clog.write_segments(late, segment_rows=300)  # 5 evolved segments

    # compact_every=2 → multiple compactions, some folding old-schema files
    eng = CDCEngine(str(tmp_path / "tbl"), spec=spec_v1, num_partitions=4, compact_every=2)
    stats = eng.replay(clog, segments_per_epoch=1)
    assert any("add tool" in c for c in stats.schema_changes)

    early_as_fed = log.slice(0, 1500).set_column(
        log.schema.get_field_index("tool"), "tool", pa.nulls(1500, pa.string())
    )
    oracle = oracle_replay(pa.concat_tables([early_as_fed, late]))
    got = eng.snapshot_arrow().to_pylist()
    assert len(got) == len(oracle)
    for r in got:
        exp = oracle[(r["conv_id"], r["turn_idx"])]
        assert r["text"] == exp["text"] and r["tool"] == exp["tool"]
