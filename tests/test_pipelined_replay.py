"""Pipelined replay (prefetch next epoch's map round) must be byte-
equivalent to sequential replay — including mid-replay schema evolution,
where epoch N+1's schema is planned against the schema N commits."""

import pyarrow as pa
import pytest

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog, oracle_replay
from etl_framework_ray.state.schema import ColumnSpec, TableSpec


@pytest.mark.usefixtures("ray_session")
def test_pipelined_equals_sequential(tmp_path):
    log = generate_changelog(GenConfig(num_events=6000, num_conversations=100, seed=55))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=750)

    seq = CDCEngine(str(tmp_path / "seq"), num_partitions=4)
    for ep in clog.epochs(2):
        seq.apply_epoch(ep)
    pipe = CDCEngine(str(tmp_path / "pipe"), num_partitions=4)
    st = pipe.replay(clog, segments_per_epoch=2)
    assert st.epochs_applied == 4
    assert pipe.snapshot_arrow().equals(seq.snapshot_arrow())
    assert pipe.manifest.applied_lsn == seq.manifest.applied_lsn


@pytest.mark.usefixtures("ray_session")
def test_pipelined_with_schema_evolution(tmp_path):
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
    log = generate_changelog(GenConfig(num_events=4000, num_conversations=60, seed=66))
    early = log.slice(0, 2000).drop_columns(["tool"])
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(early, segment_rows=500)
    clog.write_segments(log.slice(2000), segment_rows=500)

    eng = CDCEngine(str(tmp_path / "tbl"), spec=spec_v1, num_partitions=4)
    stats = eng.replay(clog, segments_per_epoch=1)  # evolution mid-stream
    assert any("add tool" in c for c in stats.schema_changes)

    early_as_fed = log.slice(0, 2000).set_column(
        log.schema.get_field_index("tool"), "tool", pa.nulls(2000, pa.string())
    )
    oracle = oracle_replay(pa.concat_tables([early_as_fed, log.slice(2000)]))
    got = eng.snapshot_arrow().to_pylist()
    assert len(got) == len(oracle)
    for r in got:
        exp = oracle[(r["conv_id"], r["turn_idx"])]
        assert r["text"] == exp["text"] and r["tool"] == exp["tool"]


@pytest.mark.usefixtures("ray_session")
def test_pipelined_resume(tmp_path):
    log = generate_changelog(GenConfig(num_events=3000, num_conversations=50, seed=77))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    for ep in clog.epochs(2)[:1]:
        eng.apply_epoch(ep)
    eng2 = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    st = eng2.replay(clog, segments_per_epoch=2)
    assert st.epochs_applied == 2  # remaining epochs only
    oracle = oracle_replay(log)
    assert eng2.snapshot_arrow().num_rows == len(oracle)


@pytest.mark.usefixtures("ray_session")
def test_pipelined_tail_never_reprepares_overlapping_segments(tmp_path):
    """Segments list by min LSN, so with overlapping ranges the last
    listed epoch need not hold the newest LSN. Here a source redelivers
    LSNs 11..20 inside a segment covering 1..30: the tail's listing
    watermark must still reach 30, so the re-list does not hand the
    already-queued 1..30 segment to the map round a second time."""
    log = generate_changelog(GenConfig(num_events=30, num_conversations=5, seed=88))
    log = log.sort_by("lsn")
    assert log.column("lsn").to_pylist() == list(range(1, 31))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=30)  # segment 1..30
    clog.write_segments(log.slice(10, 10), segment_rows=10)  # redelivered 11..20
    assert [(s.min_lsn, s.max_lsn) for s in clog.segments()] == [(1, 30), (11, 20)]

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=2)
    prepped: list[str] = []
    submit = eng._submit_prep

    def counting_submit(epoch, chg_schema):
        prepped.extend(epoch.paths)
        return submit(epoch, chg_schema)

    eng._submit_prep = counting_submit
    eng.tail(clog, poll_s=0, idle_stop_polls=1, segments_per_epoch=1)
    assert sorted(prepped) == sorted(s.path for s in clog.segments())
    assert eng.manifest.applied_lsn == 30
    assert eng.snapshot_arrow().num_rows == len(oracle_replay(log))


def test_serial_driver_is_gone(tmp_path):
    """replay and tail have one driver; asking for the removed serial one
    fails loud before anything is listed or applied."""
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=2)
    clog = ChangeLog(str(tmp_path / "log"))
    with pytest.raises(ValueError, match="pipelined=False"):
        eng.replay(clog, pipelined=False)
    with pytest.raises(ValueError, match="pipelined=False"):
        eng.tail(clog, poll_s=0, max_polls=1, pipelined=False)
    assert eng.manifest.version == 1
