"""Property-based convergence: ANY changelog replay equals the dict oracle.

Hypothesis generates arbitrary event sequences (random keys from a small
pool, random op/ts, arbitrary delivery order and segmentation) — the
committed state must always equal the (ts, lsn)-ordered dict replay, with
unique sorted keys. This is the commutativity/idempotence claim of
SURVEY.md §2.9 stated as a property, not an example.
"""

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import CHANGELOG_SCHEMA, oracle_replay

_EVENT = st.tuples(
    st.integers(0, 5),  # conv
    st.integers(0, 3),  # turn
    st.sampled_from(["I", "U", "D"]),
    st.integers(0, 8),  # ts bucket (coarse → plenty of (ts) ties)
    st.text(alphabet="abcxyz", min_size=0, max_size=6),
)


def _to_table(events: list[tuple]) -> pa.Table:
    n = len(events)
    return pa.Table.from_arrays(
        [
            pa.array(range(1, n + 1), pa.int64()),  # lsn by delivery order
            pa.array([e[2] for e in events], pa.string()),
            pa.array([e[3] * 1_000_000 for e in events], pa.timestamp("us")),
            pa.array([f"c{e[0]}" for e in events], pa.string()),
            pa.array([e[1] for e in events], pa.int32()),
            pa.array([None if e[2] == "D" else "user" for e in events], pa.string()),
            pa.array([None if e[2] == "D" else e[4] for e in events], pa.large_string()),
            pa.array([None] * n, pa.string()),
        ],
        schema=CHANGELOG_SCHEMA,
    )


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    events=st.lists(_EVENT, min_size=1, max_size=60),
    segment_rows=st.sampled_from([7, 20, 100]),
    num_partitions=st.sampled_from([1, 3]),
)
def test_replay_always_matches_oracle(tmp_path_factory, events, segment_rows, num_partitions):
    tmp = tmp_path_factory.mktemp("prop")
    log = _to_table(events)
    clog = ChangeLog(str(tmp / "log"))
    clog.write_segments(log, segment_rows=segment_rows)
    eng = CDCEngine(str(tmp / "tbl"), num_partitions=num_partitions)
    eng.replay(clog, segments_per_epoch=2)

    oracle = oracle_replay(log)
    got = eng.snapshot_arrow().to_pylist()
    keys = [(r["conv_id"], r["turn_idx"]) for r in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert len(got) == len(oracle)
    for r in got:
        exp = oracle[(r["conv_id"], r["turn_idx"])]
        assert r["text"] == exp["text"]
        assert r["ts"] == exp["ts"]


#: patch-bearing event: (conv, turn, op, ts, text, set_text, set_tool).
#: For op="P" at least one of set_text/set_tool is forced on below.
_PATCH_EVENT = st.tuples(
    st.integers(0, 5),
    st.integers(0, 3),
    st.sampled_from(["I", "U", "D", "P", "P"]),  # patches oversampled
    st.integers(0, 8),
    st.text(alphabet="abcxyz", min_size=0, max_size=6),
    st.booleans(),
    st.booleans(),
)


def _to_patch_table(events: list[tuple]) -> pa.Table:
    # patch resolution is defined for feeds delivering each key's events
    # in nondecreasing (ts, lsn) order across epochs (binlog reality and
    # the documented contract) — sort by ts, then lsn = delivery order;
    # intra-epoch order still varies with segmentation
    events = sorted(events, key=lambda e: e[3])
    n = len(events)
    text, role, tool, ops = [], [], [], []
    for i, e in enumerate(events):
        op = e[2]
        if op == "P":
            set_text = e[5] or not e[6]  # at least one column set
            text.append(e[4] + "!" if set_text else None)
            role.append(None)
            tool.append(f"t{i % 3}" if e[6] else None)
        elif op == "D":
            text.append(None), role.append(None), tool.append(None)
        else:
            text.append(e[4]), role.append("user"), tool.append(None)
        ops.append(op)
    return pa.Table.from_arrays(
        [
            pa.array(range(1, n + 1), pa.int64()),
            pa.array(ops, pa.string()),
            pa.array([e[3] * 1_000_000 for e in events], pa.timestamp("us")),
            pa.array([f"c{e[0]}" for e in events], pa.string()),
            pa.array([e[1] for e in events], pa.int32()),
            pa.array(role, pa.string()),
            pa.array(text, pa.large_string()),
            pa.array(tool, pa.string()),
        ],
        schema=CHANGELOG_SCHEMA,
    )


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    events=st.lists(_PATCH_EVENT, min_size=1, max_size=60),
    segment_rows=st.sampled_from([7, 20, 100]),
    num_partitions=st.sampled_from([1, 3]),
    compact_every=st.sampled_from([1, 4]),
)
def test_patch_replay_always_matches_oracle(
    tmp_path_factory, events, segment_rows, num_partitions, compact_every
):
    """Patch-fold property: for ANY in-(ts,lsn)-order event sequence with
    partial images — patches to live, deleted, never-inserted or
    shadowed keys, single- or multi-column, any segmentation/partition
    count, with or without compaction folds — the committed state equals
    the dict oracle's sequential fold."""
    tmp = tmp_path_factory.mktemp("patchprop")
    log = _to_patch_table(events)
    clog = ChangeLog(str(tmp / "log"))
    clog.write_segments(log, segment_rows=segment_rows)
    eng = CDCEngine(
        str(tmp / "tbl"), num_partitions=num_partitions, compact_every=compact_every
    )
    eng.replay(clog, segments_per_epoch=2)

    oracle = oracle_replay(log)
    got = eng.snapshot_arrow().to_pylist()
    keys = [(r["conv_id"], r["turn_idx"]) for r in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert len(got) == len(oracle)
    for r in got:
        exp = oracle[(r["conv_id"], r["turn_idx"])]
        assert r["text"] == exp["text"]
        assert r["tool"] == exp["tool"]
        assert r["role"] == exp["role"]
        assert r["ts"] == exp["ts"]


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    windows=st.lists(st.lists(_EVENT, min_size=1, max_size=25), min_size=2, max_size=4),
)
def test_view_changefeed_replica_always_matches_view(tmp_path_factory, windows):
    """For ANY sequence of edit/delete windows, a downstream replica
    maintained ONLY from the rollup view's changefeed equals read() after
    every advance — the delta stream's REPLACE semantics stated as a
    property (net=True collapses multi-advance windows; here each window
    is consumed as emitted)."""
    import pandas as pd

    from etl_framework_ray.pipelines.incremental import IncrementalRollup

    tmp = tmp_path_factory.mktemp("vprop")
    clog = ChangeLog(str(tmp / "log"))
    eng = CDCEngine(str(tmp / "tbl"), num_partitions=3, compact_every=1_000_000)
    view = IncrementalRollup(eng, str(tmp / "view"), emit_changes=True)

    lsn0 = 0
    replica = None
    cursor = 0
    for events in windows:
        t = _to_table(events)
        t = t.set_column(
            0, "lsn", pa.array(range(lsn0 + 1, lsn0 + t.num_rows + 1), pa.int64())
        )
        lsn0 += t.num_rows
        clog.write_segments(t, segment_rows=max(1, t.num_rows // 2))
        eng.replay(clog, segments_per_epoch=2)
        view.advance()
        want = view.read_arrow().to_pandas()
        if replica is None:  # bootstrap: full resync, cursor at floor
            replica = want.copy()
        else:
            delta = view.changes(cursor).to_pandas()
            if len(delta):
                replica = replica[~replica["conv_id"].isin(set(delta["conv_id"]))]
                ins = delta[delta["op"] == "U"].drop(columns=["op", "version"])
                replica = pd.concat(
                    [replica, ins.astype(replica.dtypes)], ignore_index=True
                )
        cursor = view.version
        got = replica.sort_values("conv_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want.reindex(columns=got.columns))


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=6, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    windows=st.lists(st.lists(_EVENT, min_size=1, max_size=20), min_size=2, max_size=4),
)
def test_replication_chain_always_matches_view(tmp_path_factory, windows):
    """For ANY edit/delete sequence, the PRODUCT chain (emitting view →
    ViewDeltaConsumer windows → ReplicaTable.follow) keeps the replica
    byte-equal to the view after every window — the replica never reads
    the view or the lake."""
    import pandas as pd

    from etl_framework_ray.pipelines.consumer import ViewDeltaConsumer
    from etl_framework_ray.pipelines.incremental import IncrementalRollup
    from etl_framework_ray.pipelines.replica import ReplicaTable

    tmp = tmp_path_factory.mktemp("rprop")
    clog = ChangeLog(str(tmp / "log"))
    eng = CDCEngine(str(tmp / "tbl"), num_partitions=3, compact_every=1_000_000)
    view = IncrementalRollup(eng, str(tmp / "view"), emit_changes=True)
    con = ViewDeltaConsumer(view, str(tmp / "sink"))
    rep = ReplicaTable(str(tmp / "replica"), num_partitions=3)

    lsn0 = 0
    seeded = False
    for events in windows:
        t = _to_table(events)
        t = t.set_column(
            0, "lsn", pa.array(range(lsn0 + 1, lsn0 + t.num_rows + 1), pa.int64())
        )
        lsn0 += t.num_rows
        clog.write_segments(t, segment_rows=max(1, t.num_rows // 2))
        eng.replay(clog, segments_per_epoch=2)
        view.advance()
        if not seeded:
            con.seed_from_view()
            seeded = True
        else:
            con.poll()
        rep.follow(con)
        got = rep.read_arrow().to_pandas()
        want = view.read_arrow().to_pandas()
        pd.testing.assert_frame_equal(got, want.reindex(columns=got.columns))


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    events=st.lists(_EVENT, min_size=4, max_size=60),
    segment_rows=st.sampled_from([5, 13, 40]),
    num_partitions=st.sampled_from([1, 4]),
    split_frac=st.sampled_from([0.25, 0.5, 0.9]),
)
def test_pipelined_tail_always_matches_oracle(
    tmp_path_factory, events, segment_rows, num_partitions, split_frac
):
    """The cross-poll pipelined tail converges to the dict oracle for ANY
    feed, segmentation, partition count and arrival split."""
    tmp = tmp_path_factory.mktemp("ptail")
    log = _to_table(events)
    cut = max(1, int(log.num_rows * split_frac))
    clog = ChangeLog(str(tmp / "log"))
    clog.write_segments(log.slice(0, cut), segment_rows=segment_rows)
    eng = CDCEngine(str(tmp / "tbl"), num_partitions=num_partitions)
    eng.tail(clog, poll_s=0, idle_stop_polls=1, segments_per_epoch=2)
    if cut < log.num_rows:
        clog.write_segments(log.slice(cut), segment_rows=segment_rows)
    eng.tail(clog, poll_s=0, idle_stop_polls=2, segments_per_epoch=2)

    oracle = oracle_replay(log)
    got = eng.snapshot_arrow().to_pylist()
    keys = [(r["conv_id"], r["turn_idx"]) for r in got]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert len(got) == len(oracle)
    for r in got:
        exp = oracle[(r["conv_id"], r["turn_idx"])]
        assert r["text"] == exp["text"]
        assert r["ts"] == exp["ts"]
    # re-tailing is a no-op
    assert eng.tail(clog, poll_s=0, idle_stop_polls=1).events == 0
