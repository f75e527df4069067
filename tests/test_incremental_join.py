"""Incrementally-maintained JOIN view across two co-partitioned CDC tables
(pipelines/incremental.IncrementalJoin).

The view must equal the brute-force dict-replay join after every advance,
recompute only the partitions whose keys changed ON EITHER SIDE, handle
deletes on both sides (dimension delete → nulls under LEFT, row drop under
INNER; fact delete → rows gone), and fail loud with a rebuild path on
reshard, partition-count mismatch, or a config change."""

import os

import pytest

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.incremental import IncrementalJoin
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import (
    GenConfig,
    generate_changelog,
    generate_profile_changelog,
    oracle_profile_replay,
    oracle_replay,
)
from etl_framework_ray.state.schema import CONV_PROFILE


def _mk(tmp_path, num_partitions=4, n_events=3_000, n_profile=800, n_convs=60, seed=17):
    tlog = generate_changelog(
        GenConfig(num_events=n_events, num_conversations=n_convs, seed=seed, out_of_order=True)
    )
    plog = generate_profile_changelog(
        GenConfig(num_events=n_profile, num_conversations=n_convs, seed=seed, out_of_order=True)
    )
    tclog = ChangeLog(str(tmp_path / "tlog"))
    tclog.write_segments(tlog, segment_rows=max(1, n_events // 8))
    pclog = ChangeLog(str(tmp_path / "plog"))
    pclog.write_segments(plog, segment_rows=max(1, n_profile // 8))
    L = CDCEngine(str(tmp_path / "transcripts"), num_partitions=num_partitions)
    R = CDCEngine(str(tmp_path / "profile"), spec=CONV_PROFILE, num_partitions=num_partitions)
    return tlog, plog, tclog, pclog, L, R


def _oracle_join(tlog, plog, how="left"):
    to, po = oracle_replay(tlog), oracle_profile_replay(plog)
    out = {}
    for (cid, tix), v in to.items():
        p = po.get(cid)
        if p is None and how == "inner":
            continue
        out[(cid, tix)] = (
            v["role"], v["text"], v["tool"], v["ts"],
            p["channel"] if p else None,
            p["priority"] if p else None,
        )
    return out


def _view_rows(view):
    return {
        (r["conv_id"], r["turn_idx"]): (
            r["role"], r["text"], r["tool"], r["ts"], r["channel"], r["priority"]
        )
        for r in view.read_arrow().to_pylist()
    }


@pytest.mark.usefixtures("ray_session")
def test_join_view_bootstrap_advance_equals_oracle_and_rebuild(tmp_path):
    tlog, plog, tclog, pclog, L, R = _mk(tmp_path)
    view = IncrementalJoin(L, R, str(tmp_path / "view"), right_cols=["channel", "priority"])

    # bootstrap at half of each log, then advance over the rest
    L.apply_epoch(tclog.epochs(segments_per_epoch=4)[0])
    R.apply_epoch(pclog.epochs(segments_per_epoch=4)[0])
    view.advance()
    L.replay(tclog, segments_per_epoch=2)
    R.replay(pclog, segments_per_epoch=2)
    stats = view.advance()
    assert stats["touched_partitions"] > 0

    assert _view_rows(view) == _oracle_join(tlog, plog)
    assert view.fsck()["ok"]

    # incremental must equal a from-scratch rebuild byte-for-byte
    v2 = IncrementalJoin(L, R, str(tmp_path / "view2"), right_cols=["channel", "priority"])
    v2.rebuild()
    assert v2.read_arrow().equals(view.read_arrow())

    # a no-change advance is a cheap no-op
    s = view.advance()
    assert s["touched_partitions"] == 0 and s["rows_written"] == 0


@pytest.mark.usefixtures("ray_session")
def test_join_view_inner_mode_and_dimension_only_touch(tmp_path):
    tlog, plog, tclog, pclog, L, R = _mk(tmp_path)
    L.replay(tclog, segments_per_epoch=4)
    R.apply_epoch(pclog.epochs(segments_per_epoch=4)[0])
    view = IncrementalJoin(L, R, str(tmp_path / "view"), right_cols=["channel", "priority"], how="inner")
    view.advance()

    # second window touches ONLY the dimension side — the union rule must
    # still re-join those conversations' fact rows
    R.replay(pclog, segments_per_epoch=2)
    stats = view.advance()
    assert stats["touched_convs"] > 0
    assert _view_rows(view) == _oracle_join(tlog, plog, how="inner")


@pytest.mark.usefixtures("ray_session")
def test_join_view_untouched_partitions_carry_forward(tmp_path):
    """A trickle epoch touching one conversation rewrites only that
    conversation's partition; every other view file carries forward by
    path identity."""
    import numpy as np
    import pyarrow as pa

    tlog, plog, tclog, pclog, L, R = _mk(tmp_path, num_partitions=8)
    L.replay(tclog, segments_per_epoch=4)
    R.replay(pclog, segments_per_epoch=4)
    view = IncrementalJoin(L, R, str(tmp_path / "view"), right_cols=["channel", "priority"])
    view.rebuild()
    before = dict(view._load_state()["files"])

    # one profile update for one conversation
    seg = pa.table(
        {
            "lsn": pa.array([R.manifest.applied_lsn + 1], pa.int64()),
            "op": pa.array(["U"], pa.string()),
            "ts": pa.array([np.datetime64("2100-01-01", "us")], pa.timestamp("us")),
            "conv_id": pa.array(["conv-000003"], pa.string()),
            "channel": pa.array(["trickle"], pa.string()),
            "priority": pa.array([9], pa.int32()),
        }
    )
    pclog.write_segments(seg, segment_rows=10)
    R.replay(pclog, segments_per_epoch=1)
    stats = view.advance()
    assert stats["touched_convs"] == 1 and stats["touched_partitions"] == 1
    after = dict(view._load_state()["files"])
    changed = {p for p in after if after[p] != before.get(p)}
    assert len(changed) == 1
    got = _view_rows(view)
    for (cid, _tix), v in got.items():
        if cid == "conv-000003":
            assert v[4] == "trickle" and v[5] == 9


@pytest.mark.usefixtures("ray_session")
def test_join_view_deletes_on_both_sides(tmp_path):
    import numpy as np
    import pyarrow as pa

    tlog, plog, tclog, pclog, L, R = _mk(tmp_path)
    L.replay(tclog, segments_per_epoch=4)
    R.replay(pclog, segments_per_epoch=4)
    view = IncrementalJoin(L, R, str(tmp_path / "view"), right_cols=["channel", "priority"])
    view.rebuild()
    rows = _view_rows(view)
    # pick a conversation that currently HAS a profile and fact rows
    live_with_profile = sorted({cid for (cid, _t), v in rows.items() if v[4] is not None})
    victim = live_with_profile[0]

    # delete its profile row → LEFT join keeps fact rows with null dims
    seg = pa.table(
        {
            "lsn": pa.array([R.manifest.applied_lsn + 1], pa.int64()),
            "op": pa.array(["D"], pa.string()),
            "ts": pa.array([np.datetime64("2100-01-01", "us")], pa.timestamp("us")),
            "conv_id": pa.array([victim], pa.string()),
            "channel": pa.array([None], pa.string()),
            "priority": pa.array([None], pa.int32()),
        }
    )
    pclog.write_segments(seg, segment_rows=10)
    R.replay(pclog, segments_per_epoch=1)
    view.advance()
    rows = _view_rows(view)
    vic_rows = {k: v for k, v in rows.items() if k[0] == victim}
    assert vic_rows and all(v[4] is None and v[5] is None for v in vic_rows.values())

    # delete every fact row of the conversation → its view rows vanish
    keys = sorted(k for k in rows if k[0] == victim)
    lsn0 = L.manifest.applied_lsn + 1
    seg = pa.table(
        {
            "lsn": pa.array(list(range(lsn0, lsn0 + len(keys))), pa.int64()),
            "op": pa.array(["D"] * len(keys), pa.string()),
            "ts": pa.array(
                [np.datetime64("2100-01-02", "us")] * len(keys), pa.timestamp("us")
            ),
            "conv_id": pa.array([victim] * len(keys), pa.string()),
            "turn_idx": pa.array([k[1] for k in keys], pa.int32()),
            "role": pa.array([None] * len(keys), pa.string()),
            "text": pa.array([None] * len(keys), pa.large_string()),
            "tool": pa.array([None] * len(keys), pa.string()),
        }
    )
    tclog.write_segments(seg, segment_rows=100)
    L.replay(tclog, segments_per_epoch=1)
    view.advance()
    assert not any(k[0] == victim for k in _view_rows(view))
    assert view.fsck()["ok"]


@pytest.mark.usefixtures("ray_session")
def test_join_view_guards_fail_loud(tmp_path):
    tlog, plog, tclog, pclog, L, R = _mk(tmp_path)
    L.replay(tclog, segments_per_epoch=4)
    R.replay(pclog, segments_per_epoch=4)

    # partition-count mismatch refused
    R8 = CDCEngine(str(tmp_path / "profile8"), spec=CONV_PROFILE, num_partitions=8)
    with pytest.raises(RuntimeError, match="co-partitioned"):
        IncrementalJoin(L, R8, str(tmp_path / "v_mismatch")).rebuild()

    # different leading key refused at construction
    from etl_framework_ray.state.schema import ColumnSpec, TableSpec
    import pyarrow as pa

    other = TableSpec(
        name="other",
        columns=(
            ColumnSpec("user_id", pa.string(), nullable=False),
            ColumnSpec("ts", pa.timestamp("us"), nullable=False),
        ),
        primary_key=("user_id",),
    )
    O = CDCEngine(str(tmp_path / "other"), spec=other, num_partitions=4)
    with pytest.raises(ValueError, match="leading key"):
        IncrementalJoin(L, O, str(tmp_path / "v_key"))

    # clash with left columns refused unless excluded
    with pytest.raises(ValueError, match="clash"):
        IncrementalJoin(L, R, str(tmp_path / "v_clash"), right_cols=["ts"])

    # config change on an existing view refused; reshard refused
    view = IncrementalJoin(L, R, str(tmp_path / "view"), right_cols=["channel", "priority"])
    view.rebuild()
    v_alt = IncrementalJoin(L, R, str(tmp_path / "view"), right_cols=["channel"])
    with pytest.raises(RuntimeError, match="config|built as"):
        v_alt.advance()
    R.reshard(new_num_partitions=8)
    with pytest.raises(RuntimeError, match="reshard"):
        view.advance()
    assert not view.fsck()["ok"]  # the audit flags it too
    # rebuild() is refused while the sides disagree — reshard the left to
    # match, then rebuild recovers
    L.reshard(new_num_partitions=8)
    view.rebuild()
    assert _view_rows(view) == _oracle_join(tlog, plog)
    assert view.fsck()["ok"]

    # a deleted view manifest with data files on disk is a finding
    os.remove(os.path.join(view.view_dir, "_view_manifest.json"))
    r = view.fsck()
    assert not r["ok"] and any("no view manifest" in i for i in r["issues"])
