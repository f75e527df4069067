"""Publish/gold layer tests: snapshot export, rollups, broadcast join, PK
invariant (SURVEY.md §2.4 J1, §2.5 A4, §3.1 gold stage)."""

import glob

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.publish import (
    attach_role_group,
    conversation_rollup,
    pk_violations,
    publish_snapshot,
)
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog, oracle_replay


@pytest.fixture(scope="module")
def engine(tmp_path_factory, ray_session):
    tmp = tmp_path_factory.mktemp("publish")
    log = generate_changelog(GenConfig(num_events=4000, num_conversations=100, seed=5))
    clog = ChangeLog(str(tmp / "log"))
    clog.write_segments(log, segment_rows=1000)
    eng = CDCEngine(str(tmp / "tbl"), num_partitions=4)
    eng.replay(clog)
    return eng, log, tmp


def test_publish_snapshot_partitioned_and_resumable(engine):
    import os

    eng, log, tmp = engine
    out = str(tmp / "out")
    exported = publish_snapshot(eng, out)
    assert exported > 1  # one directory per hash partition
    files = glob.glob(f"{out}/part=*/data.parquet")
    assert len(files) == exported
    total = sum(pq.read_metadata(f).num_rows for f in files)
    assert total == len(oracle_replay(log))
    snap = eng.snapshot_arrow()
    published = pa.concat_tables([pq.ParquetFile(f).read() for f in files])
    keys = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    assert published.sort_by(keys).to_pylist() == snap.to_pylist()

    # complete rerun: nothing re-exported
    assert publish_snapshot(eng, out) == 0
    # simulate a crash that lost one partition's marker → only it re-exports
    victim = sorted(glob.glob(f"{out}/part=*/_SUCCESS"))[0]
    os.remove(victim)
    assert publish_snapshot(eng, out) == 1


def test_conversation_rollup_matches_pandas(engine):
    eng, log, tmp = engine
    got = conversation_rollup(eng.snapshot()).to_pandas().set_index("conv_id").sort_index()
    exp_rows = eng.snapshot_arrow().to_pandas()
    exp = exp_rows.groupby("conv_id").agg(
        n_turns=("turn_idx", "size"),
        n_assistant_turns=("role", lambda s: (s == "assistant").sum()),
        total_chars=("text", lambda s: s.fillna("").str.len().sum()),
        last_ts=("ts", "max"),
    )
    assert (got["n_turns"] == exp["n_turns"]).all()
    assert (got["n_assistant_turns"] == exp["n_assistant_turns"]).all()
    assert (got["total_chars"] == exp["total_chars"]).all()
    assert (got["last_ts"] == exp["last_ts"]).all()


def test_broadcast_role_dim_join(engine):
    eng, log, tmp = engine
    rows = attach_role_group(eng.snapshot()).take(200)
    for r in rows:
        if r["role"] in ("user",):
            assert r["role_group"] == "human"
        elif r["role"] in ("assistant",):
            assert r["role_group"] == "model"
        elif r["role"] in ("system", "tool"):
            assert r["role_group"] == "control"


def test_pk_uniqueness_invariant(engine):
    eng, log, tmp = engine
    assert pk_violations(eng.snapshot(), ("conv_id", "turn_idx")) == 0
    # and a deliberately duplicated dataset is caught
    dup = eng.snapshot().union(eng.snapshot().limit(10))
    assert pk_violations(dup, ("conv_id", "turn_idx")) == 10


def test_assemble_conversations_round_trip(engine):
    """Each conversation renders as one 'role: text' document in turn
    order, matching a pandas reconstruction from the generator oracle."""
    import pyarrow as pa

    from etl_framework_ray.pipelines.publish import assemble_conversations

    eng, log, tmp = engine
    out = pa.concat_tables(
        assemble_conversations(eng.snapshot(), shuffle_buckets=8).iter_batches(
            batch_format="pyarrow"
        )
    ).to_pandas()

    state = oracle_replay(log)
    expected = {}
    for (conv, turn) in sorted(state):
        row = state[(conv, turn)]
        line = f"{row['role'] or ''}: {row['text'] or ''}"
        expected.setdefault(conv, []).append(line)
    assert len(out) == len(expected)
    got = dict(zip(out["conv_id"], out["dialogue"]))
    turns = dict(zip(out["conv_id"], out["n_turns"]))
    for conv, lines in expected.items():
        assert got[conv] == "\n".join(lines), conv
        assert turns[conv] == len(lines)


def test_conversation_windows_rolling_context(engine):
    """Each turn's context is exactly the last-k 'role: text' lines of
    its conversation in turn order (k-row window, not k turn-index
    values — gaps from deletes still count rows)."""
    import pyarrow as pa

    from etl_framework_ray.pipelines.publish import conversation_windows

    eng, log, tmp = engine
    k = 3
    out = pa.concat_tables(
        conversation_windows(eng.snapshot(), k=k, shuffle_buckets=8).iter_batches(
            batch_format="pyarrow"
        )
    ).to_pandas()

    state = oracle_replay(log)
    lines: dict = {}
    for (conv, turn) in sorted(state):
        row = state[(conv, turn)]
        lines.setdefault(conv, []).append((turn, f"{row['role'] or ''}: {row['text'] or ''}"))
    expected = {}
    for conv, ls in lines.items():
        for i, (turn, _line) in enumerate(ls):
            ctx = "\n".join(l for _t, l in ls[max(0, i - k + 1) : i + 1])
            expected[(conv, turn)] = ctx
    assert len(out) == len(expected)
    for _, r in out.iterrows():
        assert expected[(r["conv_id"], r["turn_idx"])] == r["context"]


def test_tool_usage_matches_oracle(engine):
    """Per-tool calls and distinct conversations equal the generator
    oracle's reconstruction (null tool = no call, excluded)."""
    import pyarrow as pa

    from etl_framework_ray.pipelines.publish import tool_usage

    eng, log, tmp = engine
    out = (
        pa.concat_tables(tool_usage(eng.snapshot()).iter_batches(batch_format="pyarrow"))
        .to_pandas()
        .set_index("tool")
        .sort_index()
    )
    state = oracle_replay(log)
    calls: dict = {}
    convs: dict = {}
    for (conv, _turn), row in state.items():
        if row["tool"] is not None:
            calls[row["tool"]] = calls.get(row["tool"], 0) + 1
            convs.setdefault(row["tool"], set()).add(conv)
    assert set(out.index) == set(calls)
    for tool in calls:
        assert out.loc[tool, "n_calls"] == calls[tool]
        assert out.loc[tool, "n_convs"] == len(convs[tool])
