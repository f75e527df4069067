"""Skew mitigation: detect → salt → migrate (SURVEY.md §4.2/§7.4).

The residual-skew scenario is ``hot_max_turns``: one conversation with
thousands of DISTINCT turns — the per-segment LWW combiner can't collapse
it, so every epoch funnels a large fraction of events into one
partition's reduce. Mitigation must spread the hot key WITHOUT breaking
per-(conv, turn) co-location (LWW correctness), and committed state must
still equal the oracle."""

import numpy as np
import pyarrow as pa
import pytest

from etl_framework_ray.functions.hashing import partition_ids, salted_partition_ids
from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.metrics import detect_skew, read_metrics
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog, oracle_replay

KEYS = ("conv_id", "turn_idx")


def _keys_tbl(convs, turns):
    return pa.table(
        {
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(turns, pa.int32()),
        }
    )


def test_salted_routing_invariants():
    t = _keys_tbl(
        ["hot"] * 64 + ["cold-a", "cold-b"] * 8,
        list(range(64)) + [0, 1] * 8,
    )
    P = 8
    unsalted = partition_ids(t.column("conv_id"), P)
    salted = salted_partition_ids(t, KEYS, P, {"hot": 4})
    convs = t.column("conv_id").to_pylist()
    turns = t.column("turn_idx").to_pylist()
    # cold keys route exactly as before
    cold = [i for i, c in enumerate(convs) if c != "hot"]
    assert all(salted[i] == unsalted[i] for i in cold)
    # the hot conversation fans out over >1 partition...
    hot_pids = {salted[i] for i, c in enumerate(convs) if c == "hot"}
    assert len(hot_pids) > 1
    # ...but every full PK maps to exactly one partition (repeat rows agree)
    by_key = {}
    for i, (c, tu) in enumerate(zip(convs, turns)):
        by_key.setdefault((c, tu), set()).add(salted[i])
    assert all(len(pids) == 1 for pids in by_key.values())
    # deterministic across calls
    again = salted_partition_ids(t, KEYS, P, {"hot": 4})
    assert np.array_equal(salted, again)


def _skewed_log():
    return generate_changelog(
        GenConfig(
            num_events=12_000,
            num_conversations=50,
            max_turns=8,
            hot_key_frac=0.4,
            hot_max_turns=3_000,  # many DISTINCT keys on one conversation
            seed=77,
        )
    )


def _spread(table_dir, epoch_id):
    df = read_metrics(table_dir).to_pandas()
    last = df[df.epoch_id == epoch_id]
    return float(last.events_applied.max()) / max(1.0, float(last.events_applied.median()))


@pytest.mark.usefixtures("ray_session")
def test_skew_mitigation_e2e(tmp_path):
    log = _skewed_log()
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=1_500)  # 8 segments → 4 epochs

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)
    stats = eng.replay(clog, segments_per_epoch=2, auto_mitigate_skew=True)
    assert stats.epochs_applied == 4
    # the hot conversation was detected and salted
    assert "conv-000000" in eng.salt_map
    # post-mitigation epochs show no partition above the detection factor
    last_epoch = eng.manifest.applied_lsn
    assert detect_skew(str(tmp_path / "tbl"), factor=4.0, epoch_id=last_epoch) == []
    assert _spread(str(tmp_path / "tbl"), last_epoch) < 4.0
    # correctness unchanged: committed state equals the oracle
    oracle = oracle_replay(log)
    got = eng.snapshot_arrow().to_pylist()
    assert len(got) == len(oracle)
    for r in got:
        assert r["text"] == oracle[(r["conv_id"], r["turn_idx"])]["text"]


@pytest.mark.usefixtures("ray_session")
def test_mitigation_survives_restart_and_more_epochs(tmp_path):
    """Salt map is manifest-durable: a fresh engine keeps routing salted,
    and replaying additional epochs converges to the same oracle state."""
    log = _skewed_log()
    half = log.slice(0, 6_000)
    rest = log.slice(6_000)
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(half, segment_rows=1_500)

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)
    eng.replay(clog, segments_per_epoch=2, auto_mitigate_skew=True)
    assert eng.salt_map

    clog.write_segments(rest, segment_rows=1_500)
    eng2 = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)  # restart
    assert eng2.salt_map == eng.salt_map
    eng2.replay(clog, segments_per_epoch=2)
    oracle = oracle_replay(log)
    assert eng2.snapshot_arrow().num_rows == len(oracle)


def test_mitigate_noop_without_composite_pk(tmp_path):
    from etl_framework_ray.state.schema import ColumnSpec, TableSpec

    spec = TableSpec(
        name="single",
        columns=(ColumnSpec("k", pa.string(), nullable=False), ColumnSpec("v", pa.int64())),
        primary_key=("k",),
    )
    eng = CDCEngine(str(tmp_path / "t"), spec=spec, num_partitions=4)
    assert eng.mitigate_skew() == {}


@pytest.mark.usefixtures("ray_session")
def test_cli_mitigate_skew(tmp_path, capsys):
    import json

    from etl_framework_ray.__main__ import main

    log = _skewed_log()
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=3_000)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)
    eng.replay(clog, segments_per_epoch=2)  # skewed, unmitigated

    main(["mitigate-skew", "--table", str(tmp_path / "tbl")])
    out = json.loads(capsys.readouterr().out.strip())
    assert "conv-000000" in out["salted_keys"]
    # committed state unchanged by the migration
    eng2 = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)
    assert eng2.snapshot_arrow().num_rows == len(oracle_replay(log))


@pytest.mark.usefixtures("ray_session")
def test_salt_migration_crash_before_commit_is_invisible(tmp_path):
    """2PC: a migration that stages files but dies before the manifest
    commit changes NOTHING visible; vacuum sweeps the orphans; a retried
    mitigation then succeeds."""
    import ray as _ray

    from etl_framework_ray.pipelines.cdc import _resalt_partition_task

    log = _skewed_log()
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=3_000)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)
    eng.replay(clog, segments_per_epoch=2, vacuum=False)
    before = eng.snapshot_arrow()

    # simulate the crash: stage the migration files, never commit
    man = eng.manifest
    live = np.bincount(partition_ids(before.column("conv_id"), man.num_partitions))
    hot_pid = int(np.argmax(live))
    _ray.get(
        _resalt_partition_task.remote(
            eng.table_dir,
            hot_pid,
            man.partitions[hot_pid].files,
            man.schema,
            eng.key_cols,
            {"conv-000000": 4},
            man.num_partitions,
            man.version + 1,
            man.applied_lsn,
        )
    )
    # nothing visible changed; a fresh engine sees the same state
    assert CDCEngine(str(tmp_path / "tbl")).snapshot_arrow().equals(before)
    # vacuum sweeps the staged orphans
    assert eng.vacuum() > 0
    assert eng.snapshot_arrow().equals(before)
    # the retried mitigation commits atomically and preserves state
    assert eng.mitigate_skew() != {}
    assert eng.snapshot_arrow().equals(before)


@pytest.mark.usefixtures("ray_session")
def test_mutual_migration_between_two_hot_partitions(tmp_path):
    """Two hot conversations on DIFFERENT partitions salted in one round,
    each fanning into the other's partition — the manifest update must not
    drop either migration's files (regression: interleaved replace/append
    lost the earlier append)."""
    import pyarrow.parquet as pq

    from etl_framework_ray.sources.generator import CHANGELOG_SCHEMA

    P = 4
    # two hot convs that hash to different partitions
    hot_a = "hotA"
    hot_b = next(
        c
        for c in (f"hotB{i}" for i in range(50))
        if partition_ids(pa.array([c]), P)[0] != partition_ids(pa.array([hot_a]), P)[0]
    )
    rows = []
    lsn = 0
    for conv, turns in [(hot_a, 300), (hot_b, 300)] + [(f"bg-{i}", 2) for i in range(20)]:
        for t in range(turns):
            lsn += 1
            rows.append(
                {
                    "lsn": lsn, "op": "I", "ts": lsn * 1000, "conv_id": conv,
                    "turn_idx": t, "role": "user", "text": f"{conv}/{t}", "tool": None,
                }
            )
    tbl = pa.Table.from_pylist(rows, schema=pa.schema([f.with_nullable(True) for f in CHANGELOG_SCHEMA]))
    clog = ChangeLog(str(tmp_path / "log"))
    pq.write_table(tbl, str(tmp_path / "log" / f"segment-{1:012d}-{lsn:012d}.parquet"))

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=P)
    eng.replay(clog, vacuum=False)
    before = eng.snapshot_arrow()
    assert before.num_rows == len(rows)  # all keys distinct

    salted = eng.mitigate_skew(factor=1.5, fanout=P, min_share=0.4)
    assert set(salted) == {hot_a, hot_b}  # both migrated in ONE round
    # no rows lost: state identical, also after vacuum and a restart
    assert eng.snapshot_arrow().equals(before)
    eng.vacuum()
    assert CDCEngine(str(tmp_path / "tbl"), num_partitions=P).snapshot_arrow().equals(before)
