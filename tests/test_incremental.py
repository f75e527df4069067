"""Incremental materialized-view maintenance (IVM) over the changefeed.

The view must equal a from-scratch recompute after every advance, touch
only the partitions whose conversations changed, survive deletes and
salted hot keys, and fail loud (with a documented rebuild path) when it
lags past the changefeed horizon."""

import datetime
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.incremental import IncrementalJoin, IncrementalRollup
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import (
    CHANGELOG_SCHEMA,
    GenConfig,
    generate_changelog,
    generate_profile_changelog,
)
from etl_framework_ray.state.schema import CONV_PROFILE


def _expected(eng) -> pd.DataFrame:
    """Independent driver-side recompute of the rollup from committed state."""
    snap = eng.snapshot_arrow().to_pandas()
    return (
        snap.assign(
            is_assistant=(snap["role"] == "assistant"),
            chars=snap["text"].fillna("").str.len(),
        )
        .groupby("conv_id", sort=True)
        .agg(
            n_turns=("conv_id", "size"),
            n_assistant_turns=("is_assistant", "sum"),
            total_chars=("chars", "sum"),
            last_ts=("ts", "max"),
        )
        .reset_index()
        .astype({"n_turns": "int64", "n_assistant_turns": "int64", "total_chars": "int64"})
    )


def _assert_view_equals(view: IncrementalRollup, eng) -> None:
    got = view.read_arrow().to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, _expected(eng))


def _next_ts(eng) -> datetime.datetime:
    return pc.max(eng.snapshot_arrow().column("ts")).as_py() + datetime.timedelta(seconds=5)


def _manual_rows(eng, clog: ChangeLog, rows: list[dict]) -> None:
    """Append a hand-built segment continuing the log's LSN sequence."""
    lsn0 = eng.manifest.applied_lsn + 1
    ts = _next_ts(eng)
    full = [
        {
            "lsn": lsn0 + i,
            "ts": ts,
            "role": None,
            "text": None,
            "tool": None,
            **r,
        }
        for i, r in enumerate(rows)
    ]
    clog.write_segments(pa.Table.from_pylist(full, schema=CHANGELOG_SCHEMA), segment_rows=len(full))


def _setup(tmp_path, **gen_kw):
    cfg = GenConfig(
        num_events=gen_kw.pop("num_events", 6000),
        num_conversations=gen_kw.pop("num_conversations", 80),
        seed=gen_kw.pop("seed", 11),
        delete_frac=gen_kw.pop("delete_frac", 0.08),
        **gen_kw,
    )
    log = generate_changelog(cfg)
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=1000)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8, compact_every=100)
    return clog, eng


def _view_setup(tmp_path, kind: str, emit_changes: bool = False, **gen_kw):
    """``(clog, eng, make)`` over :func:`_setup`'s table, where
    ``make(view_dir)`` builds a view of ``kind``: the rollup, or the join
    of the table with a fully replayed conv_profile table over the same
    conversations — the one- and two-source cases of the one view
    driver."""
    n_convs = gen_kw.get("num_conversations", 80)
    clog, eng = _setup(tmp_path, **gen_kw)
    if kind == "rollup":
        return clog, eng, lambda d: IncrementalRollup(eng, d, emit_changes=emit_changes)
    plog = generate_profile_changelog(
        GenConfig(num_events=4 * n_convs, num_conversations=n_convs, seed=5)
    )
    pclog = ChangeLog(str(tmp_path / "plog"))
    pclog.write_segments(plog, segment_rows=plog.num_rows)
    right = CDCEngine(str(tmp_path / "profile"), spec=CONV_PROFILE, num_partitions=8)
    right.replay(pclog)
    return clog, eng, lambda d: IncrementalJoin(eng, right, d)


@pytest.mark.usefixtures("ray_session")
def test_bootstrap_then_incremental_matches_recompute(tmp_path):
    clog, eng = _setup(tmp_path)
    epochs = clog.epochs(1)
    for ep in epochs[:3]:
        eng.apply_epoch(ep)
    view = IncrementalRollup(eng, str(tmp_path / "view"))
    s1 = view.advance()
    assert s1["touched_convs"] == -1  # bootstrap = full compute
    _assert_view_equals(view, eng)

    for ep in epochs[3:]:
        eng.apply_epoch(ep)
    s2 = view.advance()
    assert 0 < s2["touched_convs"] <= 80
    assert s2["watermark_lsn"] == eng.manifest.applied_lsn
    _assert_view_equals(view, eng)

    s3 = view.advance()  # nothing new: exact no-op
    assert s3["touched_convs"] == 0 and s3["rows_written"] == 0


@pytest.mark.usefixtures("ray_session")
def test_single_conv_touch_rewrites_one_partition_and_prunes(tmp_path):
    clog, eng = _setup(tmp_path)
    eng.replay(clog, segments_per_epoch=2)
    view = IncrementalRollup(eng, str(tmp_path / "view"))
    view.advance()
    before = dict(view._load_state()["files"])

    _manual_rows(
        eng, clog, [{"op": "U", "conv_id": "conv-000003", "turn_idx": 0, "role": "user", "text": "edited"}]
    )
    eng.replay(clog, segments_per_epoch=1)
    s = view.advance()
    assert s["touched_convs"] == 1 and s["touched_partitions"] == 1
    after = dict(view._load_state()["files"])
    changed = {p for p in set(before) | set(after) if before.get(p) != after.get(p)}
    assert len(changed) == 1  # every other partition carried forward by reference
    _assert_view_equals(view, eng)

    # directory holds ONLY the referenced files (superseded ones pruned)
    on_disk = {n for n in os.listdir(view.view_dir) if n.endswith(".parquet")}
    referenced = {os.path.basename(p) for p in after.values()}
    assert on_disk == referenced


@pytest.mark.usefixtures("ray_session")
def test_fully_deleted_conversation_leaves_the_view(tmp_path):
    clog, eng = _setup(tmp_path, num_events=3000, num_conversations=30, seed=5)
    eng.replay(clog, segments_per_epoch=2)
    view = IncrementalRollup(eng, str(tmp_path / "view"))
    view.advance()
    victim = view.read_arrow().column("conv_id")[0].as_py()
    snap = eng.snapshot_arrow()
    turns = snap.filter(pc.equal(snap.column("conv_id"), victim)).column("turn_idx").to_pylist()
    _manual_rows(
        eng, clog, [{"op": "D", "conv_id": victim, "turn_idx": t} for t in turns]
    )
    eng.replay(clog, segments_per_epoch=1)
    view.advance()
    got = view.read_arrow()
    assert victim not in got.column("conv_id").to_pylist()
    _assert_view_equals(view, eng)


@pytest.mark.usefixtures("ray_session")
def test_lag_past_compaction_horizon_raises_then_rebuild(tmp_path):
    log = generate_changelog(GenConfig(num_events=4000, num_conversations=40, seed=3))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4, compact_every=2)
    epochs = clog.epochs(1)
    eng.apply_epoch(epochs[0])
    view = IncrementalRollup(eng, str(tmp_path / "view"))
    view.advance()
    for ep in epochs[1:]:  # enough epochs that compaction folds the deltas
        eng.apply_epoch(ep)
    with pytest.raises(RuntimeError, match="compacted|retention"):
        view.advance()
    view.rebuild()
    _assert_view_equals(view, eng)


@pytest.mark.usefixtures("ray_session")
def test_salted_hot_conversation(tmp_path):
    log = generate_changelog(
        GenConfig(num_events=6000, num_conversations=40, seed=7, hot_key_frac=0.5, hot_max_turns=4000)
    )
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=750)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8, compact_every=100)
    eng.replay(clog, segments_per_epoch=2, auto_mitigate_skew=True)
    assert eng.salt_map  # the hot conv fans out across partitions
    view = IncrementalRollup(eng, str(tmp_path / "view"), emit_changes=True)
    view.advance()
    _assert_view_equals(view, eng)
    v1 = view.version

    # incremental touch of the SALTED conv: its view task must pull the
    # fanout partitions' files to see every turn
    _manual_rows(
        eng, clog, [{"op": "U", "conv_id": "conv-000000", "turn_idx": 1, "role": "user", "text": "hot-edit"}]
    )
    eng.replay(clog, segments_per_epoch=1)
    s = view.advance()
    assert s["touched_convs"] == 1
    _assert_view_equals(view, eng)

    # the view changefeed sees the salted conv ONCE, with the rollup
    # recomputed over the FULL fanout (not just the home partition)
    delta = view.changes(v1).to_pandas()
    hot = delta[delta["conv_id"] == "conv-000000"]
    assert len(hot) == 1 and hot["op"].iloc[0] == "U"
    exp = _expected(eng)
    assert (
        int(hot["n_turns"].iloc[0])
        == int(exp.loc[exp["conv_id"] == "conv-000000", "n_turns"].iloc[0])
        > 1
    )


@pytest.mark.usefixtures("ray_session")
def test_incremental_corpus_equals_full_assembly(tmp_path):
    """The corpus view (IncrementalCorpus) after bootstrap + one
    incremental advance equals a from-scratch assemble_conversations of
    the committed state — updates, deletes and turn ordering included."""
    import pyarrow.parquet as pq  # noqa: F401

    from etl_framework_ray.pipelines.incremental import IncrementalCorpus

    log = generate_changelog(
        GenConfig(num_events=6000, num_conversations=80, seed=17, out_of_order=True)
    )
    t = log
    half = t.num_rows // 2
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(t.slice(0, half), segment_rows=1500)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)
    eng.replay(clog)

    view = IncrementalCorpus(eng, str(tmp_path / "corpus"))
    s1 = view.advance()  # bootstrap (full)
    assert s1["touched_convs"] == -1

    clog.write_segments(t.slice(half), segment_rows=1500)
    eng.replay(clog)
    s2 = view.advance()  # incremental window
    assert 0 < s2["touched_convs"]

    def expected(eng) -> pd.DataFrame:
        snap = eng.snapshot_arrow().to_pandas()
        snap = snap.sort_values(["conv_id", "turn_idx"], kind="stable")
        line = snap["role"].fillna("") + ": " + snap["text"].fillna("")
        dialogue = line.groupby(snap["conv_id"], sort=True).agg("\n".join)
        n_turns = snap.groupby("conv_id", sort=True).size()
        return pd.DataFrame(
            {
                "conv_id": dialogue.index,
                "n_turns": n_turns.to_numpy().astype("int64"),
                "dialogue": dialogue.to_numpy(),
            }
        ).reset_index(drop=True)

    got = view.read_arrow().to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expected(eng))

    # idempotent: advancing with no new commits touches nothing
    s3 = view.advance()
    assert s3["touched_convs"] == 0 and s3["rows_written"] == 0


@pytest.mark.usefixtures("ray_session")
def test_corpus_kernel_combine_is_order_invariant():
    """CorpusKernel.combine restores turn order explicitly, so any
    partial/chunk arrival order yields the identical dialogue table."""
    import itertools

    import pyarrow as pa

    from etl_framework_ray.pipelines.incremental import CorpusKernel

    k = CorpusKernel()
    turns = [
        ("c1", 0, "user", "hello"),
        ("c1", 1, "assistant", "hi"),
        ("c1", 2, "user", "bye"),
        ("c2", 0, "system", "rules"),
        ("c2", 1, "user", "q"),
    ]

    def live(rows):
        return pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array([r[2] for r in rows], pa.string()),
                "text": pa.array([r[3] for r in rows], pa.large_string()),
            }
        )

    # split the turns into two chunks every possible way, both chunk orders
    baselines = None
    for split in range(1, len(turns)):
        for chunks in ([turns[:split], turns[split:]], [turns[split:], turns[:split]]):
            out = k.combine([k.partial(live(c)) for c in chunks if c]).to_pydict()
            if baselines is None:
                baselines = out
            assert out == baselines
    assert baselines["dialogue"][0] == "user: hello\nassistant: hi\nuser: bye"
    # single-pass shuffled-row chunk too
    import random

    rng = random.Random(5)
    shuffled = turns[:]
    rng.shuffle(shuffled)
    assert k.combine([k.partial(live(shuffled))]).to_pydict() == baselines


def _pandas_rollup(live: pa.Table) -> dict:
    """Reference semantics of the rollup kernel in pandas: a null role is
    not an assistant turn, a null text is 0 chars, MAX(ts) skips nulls."""
    df = pd.DataFrame(
        {
            "conv_id": live.column("conv_id").to_pandas(),
            "is_assistant": live.column("role").to_pandas().eq("assistant"),
            "chars": pc.utf8_length(
                pc.coalesce(live.column("text"), pa.scalar("", pa.large_string()))
            ).to_pandas(),
            "ts": live.column("ts").to_pandas(),
        }
    )
    g = df.groupby("conv_id").agg(
        n_turns=("conv_id", "size"),
        n_assistant_turns=("is_assistant", "sum"),
        total_chars=("chars", "sum"),
        last_ts=("ts", "max"),
    )
    return {
        c: [
            None if v is pd.NaT else v.to_pydatetime() if c == "last_ts" else v
            for v in g.reset_index()[c].tolist()
        ]
        for c in ["conv_id", "n_turns", "n_assistant_turns", "total_chars", "last_ts"]
    }


def test_rollup_kernel_matches_pandas_semantics():
    """The Arrow RollupKernel equals the pandas rollup on nulls, all-null
    timestamps, empty input and shuffled multi-chunk partials."""
    import random

    from etl_framework_ray.pipelines.incremental import VIEW_SCHEMA, RollupKernel

    k = RollupKernel()
    t0 = datetime.datetime(2024, 1, 1)
    rows = [
        ("c1", "user", "hello", t0),
        ("c1", "assistant", None, t0 + datetime.timedelta(seconds=5)),  # null text
        ("c1", None, "héllo wörld", t0 + datetime.timedelta(seconds=2)),  # null role
        ("c2", "assistant", "", None),  # c2: every ts null -> null last_ts
        ("c2", "assistant", "ab", None),
        ("c3", None, None, t0),  # c3: only a null role and a null text
    ] + [(f"c{4 + i % 5}", ["user", "assistant"][i % 2], "x" * i, t0) for i in range(20)]

    def live(rs):
        return pa.table(
            {
                "conv_id": pa.array([r[0] for r in rs], pa.string()),
                "role": pa.array([r[1] for r in rs], pa.string()),
                "text": pa.array([r[2] for r in rs], pa.large_string()),
                "ts": pa.array([r[3] for r in rs], pa.timestamp("us")),
            }
        )

    want = _pandas_rollup(live(rows))
    whole = k.combine([k.partial(live(rows))])
    assert whole.schema == VIEW_SCHEMA
    assert whole.sort_by("conv_id").to_pydict() == want
    got = dict(zip(want["conv_id"], zip(want["n_assistant_turns"], want["total_chars"], want["last_ts"])))
    assert got["c1"] == (1, 16, t0 + datetime.timedelta(seconds=5))
    assert got["c2"] == (2, 2, None)
    assert got["c3"] == (0, 0, t0)

    # empty partial list and empty chunks
    assert k.combine([]).schema == VIEW_SCHEMA and k.combine([]).num_rows == 0
    assert k.combine([k.partial(live(rows[:0]))]).num_rows == 0

    # shuffled rows split into several chunks, each partial multi-chunk,
    # partials combined in shuffled order
    rng = random.Random(7)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(shuffled)), 3))
        chunks = [shuffled[a:b] for a, b in zip([0] + cuts, cuts + [len(shuffled)])]
        partials = []
        for c in chunks:
            half = len(c) // 2
            multi = pa.concat_tables([live(c[:half]), live(c[half:])])
            assert multi.column("conv_id").num_chunks == 2
            partials.append(k.partial(multi))
        rng.shuffle(partials)
        assert k.combine(partials).sort_by("conv_id").to_pydict() == want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["rollup", "join"])
def test_advance_crash_orphans_are_pruned_next_commit(tmp_path, kind):
    """A part file left behind by a crash mid-advance (written but never
    referenced by a committed view manifest) is deleted by the next
    successful commit's prune — readers only ever see referenced files."""
    clog, eng, make = _view_setup(
        tmp_path, kind, num_events=2000, num_conversations=20, seed=13
    )
    eng.replay(clog, segments_per_epoch=2)
    view = make(str(tmp_path / "view"))
    view.advance()

    orphan = os.path.join(view.view_dir, "part-00099-v000099-deadbeef.parquet")
    pa_table = view.read_arrow()
    import pyarrow.parquet as pq

    pq.write_table(pa_table.slice(0, 1), orphan)  # crash residue

    _manual_rows(
        eng, clog, [{"op": "U", "conv_id": "conv-000001", "turn_idx": 0, "role": "user", "text": "x"}]
    )
    eng.replay(clog, segments_per_epoch=1)
    view.advance()
    assert not os.path.exists(orphan)
    rebuilt = make(str(tmp_path / "rebuilt"))
    rebuilt.rebuild()
    assert view.read_arrow().equals(rebuilt.read_arrow())
    if kind == "rollup":
        _assert_view_equals(view, eng)


@pytest.mark.usefixtures("ray_session")
def test_incremental_tool_usage_equals_full_rollup(tmp_path):
    """The tool-usage view (IncrementalToolUsage) after bootstrap + one
    incremental advance equals a from-scratch per-(conv, tool) count of
    the committed state — updates and deletes included. A multi-row-per-
    conversation view exercises the splice's hash filter (not row
    identity)."""
    from etl_framework_ray.pipelines.incremental import IncrementalToolUsage

    log = generate_changelog(
        GenConfig(num_events=6000, num_conversations=80, seed=23, delete_frac=0.08)
    )
    half = log.num_rows // 2
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, half), segment_rows=1500)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8)
    eng.replay(clog)

    view = IncrementalToolUsage(eng, str(tmp_path / "tools"))
    s1 = view.advance()
    assert s1["touched_convs"] == -1  # bootstrap

    clog.write_segments(log.slice(half), segment_rows=1500)
    eng.replay(clog)
    s2 = view.advance()
    assert 0 < s2["touched_convs"]

    snap = eng.snapshot_arrow().to_pandas()
    snap = snap[snap["tool"].notna()]
    want = (
        snap.groupby(["conv_id", "tool"], sort=True).size().rename("calls").reset_index()
    )
    got = (
        view.read_arrow()
        .to_pandas()
        .sort_values(["conv_id", "tool"])
        .reset_index(drop=True)
    )
    want["calls"] = want["calls"].astype("int64")
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))

    s3 = view.advance()
    assert s3["touched_convs"] == 0 and s3["rows_written"] == 0


# ---------------------------------------------------------------------------
# IncrementalDedup: exact-dedup index maintained over the changefeed
# ---------------------------------------------------------------------------


def _expected_labels(eng) -> pd.DataFrame:
    """Driver-side recompute: assemble dialogues from committed state, min
    conv_id per dialogue is canonical (same rendering as the oracle SQL)."""
    snap = eng.snapshot_arrow().to_pandas()
    snap["line"] = snap["role"].fillna("") + ": " + snap["text"].fillna("")
    d = (
        snap.sort_values(["conv_id", "turn_idx"])
        .groupby("conv_id", sort=True)["line"]
        .agg("\n".join)
        .reset_index(name="dialogue")
    )
    canon = d.groupby("dialogue")["conv_id"].transform("min")
    return pd.DataFrame(
        {
            "conv_id": d["conv_id"],
            "canonical_conv_id": canon,
            "is_dup": (d["conv_id"] != canon),
        }
    )


def _assert_labels_equal(view, eng) -> None:
    got = (
        view.labels()
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, _expected_labels(eng).reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_lifecycle(tmp_path):
    """Plant exact-duplicate conversations, then drive every label
    transition through advance(): dup appears, dup splits on edit, a new
    dup forms, and deleting the canonical copy promotes the survivor."""
    from etl_framework_ray.pipelines.incremental import IncrementalDedup

    clog = ChangeLog(str(tmp_path / "log"))
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8, compact_every=1_000_000)

    def seed_rows():
        rows = []
        for conv in ("conv-a", "conv-b", "conv-c"):
            for t in range(3):
                text = f"hello {t}" if conv != "conv-c" else f"other {t}"
                rows.append(
                    {"op": "I", "conv_id": conv, "turn_idx": t, "role": "user", "text": text}
                )
        return rows

    ts0 = datetime.datetime(2025, 1, 1)
    lsn = 0

    def append(rows):
        nonlocal lsn
        full = [
            {
                "lsn": (lsn := lsn + 1),
                "ts": ts0 + datetime.timedelta(seconds=lsn),
                "role": None,
                "text": None,
                "tool": None,
                **r,
            }
            for r in rows
        ]
        clog.write_segments(
            pa.Table.from_pylist(full, schema=CHANGELOG_SCHEMA), segment_rows=len(full)
        )
        eng.replay(clog, segments_per_epoch=100)

    append(seed_rows())
    view = IncrementalDedup(eng, str(tmp_path / "view"))
    view.advance()
    labels = {r["conv_id"]: r for r in view.labels().take_all()}
    assert labels["conv-a"] == {
        "conv_id": "conv-a", "canonical_conv_id": "conv-a", "is_dup": False,
    }
    assert labels["conv-b"]["is_dup"] and labels["conv-b"]["canonical_conv_id"] == "conv-a"
    assert not labels["conv-c"]["is_dup"]
    _assert_labels_equal(view, eng)

    # edit splits the dup pair: conv-b turn 1 diverges
    append([{"op": "U", "conv_id": "conv-b", "turn_idx": 1, "role": "user", "text": "edited"}])
    s = view.advance()
    assert s["touched_convs"] == 1  # only conv-b re-fingerprints
    labels = {r["conv_id"]: r for r in view.labels().take_all()}
    assert not labels["conv-b"]["is_dup"]
    _assert_labels_equal(view, eng)

    # a new dup forms: conv-c rewritten to equal conv-a
    append(
        [
            {"op": "U", "conv_id": "conv-c", "turn_idx": t, "role": "user", "text": f"hello {t}"}
            for t in range(3)
        ]
    )
    view.advance()
    labels = {r["conv_id"]: r for r in view.labels().take_all()}
    assert labels["conv-c"]["is_dup"] and labels["conv-c"]["canonical_conv_id"] == "conv-a"
    _assert_labels_equal(view, eng)

    # deleting the canonical copy promotes the survivor
    append([{"op": "D", "conv_id": "conv-a", "turn_idx": t} for t in range(3)])
    view.advance()
    labels = {r["conv_id"]: r for r in view.labels().take_all()}
    assert set(labels) == {"conv-b", "conv-c"}
    assert not labels["conv-c"]["is_dup"]  # canonical of its (now singleton) group
    assert labels["conv-c"]["canonical_conv_id"] == "conv-c"
    _assert_labels_equal(view, eng)


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_matches_full_rebuild(tmp_path):
    """Bootstrap + incremental advance over a generated log equals a
    from-scratch rebuild (index AND labels)."""
    from etl_framework_ray.pipelines.incremental import IncrementalDedup

    clog, eng = _setup(tmp_path, num_events=4000, num_conversations=40)
    epochs = clog.epochs(1)
    for ep in epochs[:2]:
        eng.apply_epoch(ep)
    view = IncrementalDedup(eng, str(tmp_path / "view"))
    view.advance()
    for ep in epochs[2:]:
        eng.apply_epoch(ep)
    s = view.advance()
    assert 0 < s["touched_convs"] <= 40
    fresh = IncrementalDedup(eng, str(tmp_path / "view2"))
    fresh.rebuild()
    pd.testing.assert_frame_equal(
        view.read_arrow().to_pandas(), fresh.read_arrow().to_pandas()
    )
    _assert_labels_equal(view, eng)


@pytest.mark.usefixtures("ray_session")
def test_incremental_minhash_near_dup_lifecycle(tmp_path):
    """Near-dup (MinHash) index over the changefeed: planted near-dup
    conversations cluster together, distinct ones don't, and an edit that
    destroys the similarity flips the label on the next advance."""
    from etl_framework_ray.pipelines.incremental import IncrementalMinHash

    clog = ChangeLog(str(tmp_path / "log"))
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8, compact_every=1_000_000)

    base_words = [f"word{i}" for i in range(40)]

    def turns(conv, mutate=()):
        words = list(base_words)
        for pos, repl in mutate:
            words[pos] = repl
        text = " ".join(words)
        return [
            {"op": "U", "conv_id": conv, "turn_idx": t, "role": "user", "text": text}
            for t in range(3)
        ]

    ts0 = datetime.datetime(2025, 1, 1)
    lsn = 0

    def append(rows):
        nonlocal lsn
        full = [
            {
                "lsn": (lsn := lsn + 1),
                "ts": ts0 + datetime.timedelta(seconds=lsn),
                "role": None,
                "text": None,
                "tool": None,
                **r,
            }
            for r in rows
        ]
        clog.write_segments(
            pa.Table.from_pylist(full, schema=CHANGELOG_SCHEMA), segment_rows=len(full)
        )
        eng.replay(clog, segments_per_epoch=100)

    # near-dup pair (1-word change), plus a genuinely distinct conversation
    append(
        turns("conv-a")
        + turns("conv-b", mutate=[(7, "changed")])
        + [
            {"op": "U", "conv_id": "conv-z", "turn_idx": t, "role": "user",
             "text": " ".join(f"other{i+t}" for i in range(40))}
            for t in range(3)
        ]
    )
    view = IncrementalMinHash(eng, str(tmp_path / "view"))
    view.advance()
    labels = {r["conv_id"]: r for r in view.labels().take_all()}
    assert labels["conv-a"]["cluster_id"] == labels["conv-b"]["cluster_id"]
    assert labels["conv-a"]["is_dup"] != labels["conv-b"]["is_dup"]  # one representative
    assert not labels["conv-z"]["is_dup"]
    assert labels["conv-z"]["cluster_id"] != labels["conv-a"]["cluster_id"]

    # destroy the similarity: conv-b rewritten — only it re-signs
    append(
        [
            {"op": "U", "conv_id": "conv-b", "turn_idx": t, "role": "user",
             "text": " ".join(f"fresh{i*3+t}" for i in range(40))}
            for t in range(3)
        ]
    )
    s = view.advance()
    assert s["touched_convs"] == 1
    labels = {r["conv_id"]: r for r in view.labels().take_all()}
    assert not labels["conv-b"]["is_dup"]
    assert labels["conv-b"]["cluster_id"] != labels["conv-a"]["cluster_id"]
    assert not labels["conv-a"]["is_dup"]

    # incremental view state equals a from-scratch rebuild
    fresh = IncrementalMinHash(eng, str(tmp_path / "view2"))
    fresh.rebuild()
    pd.testing.assert_frame_equal(
        view.read_arrow().to_pandas(), fresh.read_arrow().to_pandas()
    )


@pytest.mark.usefixtures("ray_session")
def test_advance_with_different_kernel_fails_loud(tmp_path):
    """A view directory remembers which kernel (class + config) built it:
    advancing with another kind, or the same kind under a different
    MinHash config, must refuse rather than splice incompatible rows."""
    from etl_framework_ray.pipelines.incremental import (
        IncrementalCorpus,
        IncrementalMinHash,
    )
    from etl_framework_ray.stages.dedup import MinHashConfig

    clog, eng = _setup(tmp_path, num_events=500, num_conversations=10)
    for ep in clog.epochs(10):
        eng.apply_epoch(ep)
    view = IncrementalMinHash(eng, str(tmp_path / "view"))
    view.advance()

    with pytest.raises(RuntimeError, match="kernel"):
        IncrementalCorpus(eng, str(tmp_path / "view")).advance()
    with pytest.raises(RuntimeError, match="kernel"):
        IncrementalMinHash(
            eng, str(tmp_path / "view"), cfg=MinHashConfig(num_perm=128, bands=32)
        ).advance()
    # the original kernel still advances (no-op here) and rebuild re-keys
    assert view.advance()["rows_written"] == 0
    other = IncrementalCorpus(eng, str(tmp_path / "view"))
    other.rebuild()
    assert other.advance()["rows_written"] == 0


@pytest.mark.usefixtures("ray_session")
def test_incremental_curation_funnel_lifecycle(tmp_path):
    """Curated-corpus view over the changefeed: the composed funnel
    (assemble -> PII-redact -> quality gate -> exact-dedup) maintained
    incrementally. Planted cases: quality rejects (too few turns, no
    assistant turn, too short), PII redacted in the kept text, a pair
    whose texts become IDENTICAL only after redaction dedups (min conv_id
    canonical), deleting the canonical promotes the survivor, and
    advance() always equals rebuild()."""
    from etl_framework_ray.pipelines.incremental import IncrementalCuration

    clog = ChangeLog(str(tmp_path / "log"))
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8, compact_every=1_000_000)

    ts0 = datetime.datetime(2025, 1, 1)
    lsn = 0

    def append(rows):
        nonlocal lsn
        full = [
            {
                "lsn": (lsn := lsn + 1),
                "ts": ts0 + datetime.timedelta(seconds=lsn),
                "role": None,
                "text": None,
                "tool": None,
                **r,
            }
            for r in rows
        ]
        clog.write_segments(
            pa.Table.from_pylist(full, schema=CHANGELOG_SCHEMA), segment_rows=len(full)
        )
        eng.replay(clog, segments_per_epoch=100)

    def dialogue(conv, texts, roles=None):
        roles = roles or ["user", "assistant"] * ((len(texts) + 1) // 2)
        return [
            {"op": "U", "conv_id": conv, "turn_idx": i, "role": roles[i], "text": t}
            for i, t in enumerate(texts)
        ]

    long = "a sufficiently long message body " * 3
    append(
        dialogue("conv-good", [long, long])
        + dialogue("conv-short", [long])  # 1 turn -> quality fail
        + dialogue("conv-norole", [long, long], roles=["system", "tool"])  # no user/assistant
        + dialogue("conv-tiny", ["hi", "yo"])  # too short -> quality fail
        + dialogue("conv-pii", ["mail me at alice@example.com " + long, long])
    )
    view = IncrementalCuration(eng, str(tmp_path / "view"), min_turns=2, min_chars=50)
    view.advance()
    corpus = {r["conv_id"]: r for r in view.corpus().take_all()}
    assert set(corpus) == {"conv-good", "conv-pii"}
    assert "<EMAIL>" in corpus["conv-pii"]["text"]
    assert "alice@example.com" not in corpus["conv-pii"]["text"]

    # window 2: two convs that differ ONLY in their PII become identical
    # after redaction -> exact dups post-redaction; min conv_id canonical
    append(
        dialogue("conv-dup-a", ["reach bob@corp.example " + long, long])
        + dialogue("conv-dup-b", ["reach carol@other.example " + long, long])
    )
    s = view.advance()
    assert s["touched_convs"] == 2
    stats = {}
    corpus = {r["conv_id"]: r for r in view.corpus(stats_out=stats).take_all()}
    assert stats["dup_convs"] == 1
    assert set(corpus) == {"conv-good", "conv-pii", "conv-dup-a"}

    # delete the canonical copy: the survivor is promoted on next advance
    append([{"op": "D", "conv_id": "conv-dup-a", "turn_idx": i} for i in range(2)])
    view.advance()
    corpus = {r["conv_id"]: r for r in view.corpus().take_all()}
    assert set(corpus) == {"conv-good", "conv-pii", "conv-dup-b"}

    # quality gate is edit-sensitive: conv-short grows a second (distinct)
    # turn and now passes — an edit to the SAME text as conv-good would
    # instead be swallowed by the dedup step, also by design
    append(dialogue("conv-short", [long, "a different closing answer " + long]))
    view.advance()
    corpus = {r["conv_id"]: r for r in view.corpus().take_all()}
    assert set(corpus) == {"conv-good", "conv-pii", "conv-dup-b", "conv-short"}

    # incremental result must equal a from-scratch rebuild
    fresh = IncrementalCuration(eng, str(tmp_path / "view2"), min_turns=2, min_chars=50)
    fresh.rebuild()
    pd.testing.assert_frame_equal(
        view.read_arrow().to_pandas(), fresh.read_arrow().to_pandas()
    )

    # kernel fingerprint covers the thresholds: a different config refuses
    with pytest.raises(RuntimeError, match="kernel"):
        IncrementalCuration(eng, str(tmp_path / "view"), min_turns=3, min_chars=50).advance()


@pytest.mark.usefixtures("ray_session")
def test_view_changefeed_composes_downstream(tmp_path):
    """Views are themselves CDC sources: with emit_changes=True every
    advance writes per-conversation REPLACE deltas (U rows for recomputed
    view rows, D rows for conversations that left). A consumer that
    applies changes(since) to a replica must stay byte-equal to read()
    without ever rescanning the view; continuity breaks (rebuild or a
    non-emitting advance) fail loud; prune_changes raises the floor."""
    from etl_framework_ray.pipelines.incremental import IncrementalRollup

    clog, eng = _setup(tmp_path, num_events=4000, num_conversations=40)
    epochs = clog.epochs(1)
    for ep in epochs[:3]:
        eng.apply_epoch(ep)
    view = IncrementalRollup(eng, str(tmp_path / "view"), emit_changes=True)
    view.advance()  # bootstrap = full run: no deltas, floor at v1
    assert view.version == 1
    assert view.changes(1).count() == 0
    with pytest.raises(RuntimeError, match="continuous since"):
        view.changes(0)

    replica = view.read_arrow().to_pandas()
    cursor = view.version

    def apply_delta(replica, delta: pd.DataFrame):
        if not len(delta):
            return replica
        # per-conversation replace: drop every replicated row of any conv
        # in the delta, then insert the U rows
        replica = replica[~replica["conv_id"].isin(set(delta["conv_id"]))]
        ins = delta[delta["op"] == "U"].drop(columns=["op", "version"])
        # D rows' null payloads upcast the delta frame to float; restore
        # the view dtypes on the inserted rows
        return pd.concat([replica, ins.astype(replica.dtypes)], ignore_index=True)

    # two incremental windows, applied delta-by-delta
    for ep in epochs[3:5]:
        eng.apply_epoch(ep)
        view.advance()
        delta = view.changes(cursor).to_pandas()
        assert set(delta["op"]) <= {"U", "D"}
        assert (delta["version"] > cursor).all()
        replica = apply_delta(replica, delta)
        cursor = view.version
        got = (
            replica.sort_values("conv_id").reset_index(drop=True)[replica.columns]
        )
        want = view.read_arrow().to_pandas()
        pd.testing.assert_frame_equal(got, want.reindex(columns=replica.columns))

    # D rows appear when a conversation leaves the view entirely (delete
    # its ACTUAL live turn indices — the generator's are sparse)
    victim = replica["conv_id"].iloc[0]
    snap = eng.snapshot_arrow().to_pandas()
    turns = snap.loc[snap["conv_id"] == victim, "turn_idx"].tolist()
    _manual_rows(
        eng, clog, [{"op": "D", "conv_id": victim, "turn_idx": int(t)} for t in turns]
    )
    eng.replay(clog, segments_per_epoch=1)
    view.advance()
    delta = view.changes(cursor).to_pandas()
    drow = delta[(delta["conv_id"] == victim) & (delta["op"] == "D")]
    assert len(drow) == 1 and pd.isna(drow["n_turns"].iloc[0])
    replica = apply_delta(replica, delta)
    cursor = view.version
    assert victim not in set(replica["conv_id"])
    pd.testing.assert_frame_equal(
        replica.sort_values("conv_id").reset_index(drop=True),
        view.read_arrow().to_pandas().reindex(columns=replica.columns),
    )

    # no-op advance (nothing new committed): version and continuity hold
    view.advance()
    assert view.version == cursor and view.changes(cursor).count() == 0

    # a window spanning SEVERAL advances: net=True collapses each
    # conversation to its latest version (edit then full-delete must net
    # to one D row, not a stale U + D pair), net=False keeps the stream
    victim2 = replica["conv_id"].iloc[0]
    _manual_rows(
        eng, clog,
        [{"op": "U", "conv_id": victim2, "turn_idx": 0, "role": "user", "text": "edit"}],
    )
    eng.replay(clog, segments_per_epoch=1)
    view.advance()
    snap = eng.snapshot_arrow().to_pandas()
    turns = snap.loc[snap["conv_id"] == victim2, "turn_idx"].tolist()
    _manual_rows(
        eng, clog, [{"op": "D", "conv_id": victim2, "turn_idx": int(t)} for t in turns]
    )
    eng.replay(clog, segments_per_epoch=1)
    view.advance()
    raw = view.changes(cursor, net=False).to_pandas()
    assert len(raw[raw["conv_id"] == victim2]) == 2  # U@v then D@v+1
    netted = view.changes(cursor).to_pandas()
    vrows = netted[netted["conv_id"] == victim2]
    assert list(vrows["op"]) == ["D"]
    replica = apply_delta(replica, netted)
    cursor = view.version
    pd.testing.assert_frame_equal(
        replica.sort_values("conv_id").reset_index(drop=True),
        view.read_arrow().to_pandas().reindex(columns=replica.columns),
    )

    # prune: consumer committed its cursor -> older files GCed, floor up
    assert view.prune_changes(cursor) > 0
    with pytest.raises(RuntimeError, match="continuous since"):
        view.changes(1)
    with pytest.raises(ValueError, match="ahead of the view"):
        view.prune_changes(cursor + 1)

    # a non-emitting advance over real changes breaks continuity loudly
    _manual_rows(
        eng, clog,
        [{"op": "U", "conv_id": replica["conv_id"].iloc[1], "turn_idx": 0,
          "role": "user", "text": "edited"}],
    )
    eng.replay(clog, segments_per_epoch=1)
    IncrementalRollup(eng, str(tmp_path / "view"), emit_changes=False).advance()
    with pytest.raises(RuntimeError, match="continuous since"):
        view.changes(cursor)

    # rebuild also resets the floor
    view.rebuild()
    with pytest.raises(RuntimeError, match="continuous since"):
        view.changes(view.version - 1)
    assert view.changes(view.version).count() == 0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["rollup", "join"])
def test_view_prune_grace_protects_lazy_readers(tmp_path, kind):
    """With prune_grace_s set, a superseded view file outlives the commit
    that replaced it (lazy read() datasets built before the advance still
    resolve); once past the grace a later commit removes it."""
    import time

    clog, eng, make = _view_setup(tmp_path, kind, num_events=3000, num_conversations=20)
    epochs = clog.epochs(1)
    eng.apply_epoch(epochs[0])
    view = make(str(tmp_path / "view"))
    view.prune_grace_s = 3600.0
    view.advance()
    old_files = sorted(view._load_state()["files"].values())
    reader = view.read()  # lazy: holds the v1 file list

    eng.apply_epoch(epochs[1])
    view.advance()  # supersedes every touched partition's file
    new_files = sorted(view._load_state()["files"].values())
    assert new_files != old_files
    # graced: the v1 files are still on disk and the lazy reader resolves
    assert all(os.path.exists(f) for f in old_files)
    assert reader.count() > 0  # the lazy v1 file list still resolves

    # age the superseded files past the grace: the next commit prunes them
    for f in old_files:
        if f not in new_files:
            os.utime(f, (time.time() - 7200, time.time() - 7200))
    eng.apply_epoch(epochs[2])
    view.advance()
    assert not any(os.path.exists(f) for f in old_files if f not in new_files)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["rollup", "join"])
def test_view_metrics_record_every_advance(tmp_path, kind):
    """Each committed run appends one lineage row (version, watermarks,
    touched counts, rows, wall seconds, rebuild flag, delta files) —
    the view analogue of the lake's per-epoch metrics. Only the rollup
    family emits a changefeed (delta files)."""
    clog, eng, make = _view_setup(
        tmp_path, kind, emit_changes=True, num_events=2000, num_conversations=20
    )
    epochs = clog.epochs(1)
    eng.apply_epoch(epochs[0])
    view = make(str(tmp_path / "view"))
    view.advance()  # bootstrap (full)
    eng.apply_epoch(epochs[1])
    view.advance()  # incremental, emits deltas
    view.advance()  # no-op at the head: no commit, no metrics row
    view.rebuild()

    m = view.metrics().to_pandas().sort_values("version").reset_index(drop=True)
    assert list(m["version"]) == [1, 2, 3]
    assert list(m["full"]) == [True, False, True]
    assert (m["delta_files"].iloc[1] > 0) == (kind == "rollup")
    assert m["delta_files"].iloc[2] == 0
    assert (m["seconds"] > 0).all()
    assert m["watermark_lsn"].iloc[1] == eng.manifest.applied_lsn
    assert list(m["watermarks"].iloc[1]) == [s.manifest.applied_lsn for s in view.sources]
    assert m["touched_convs"].iloc[1] > 0


@pytest.mark.usefixtures("ray_session")
def test_incremental_time_rollup_matches_recompute(tmp_path):
    """Tumbling-window IVM: the (conv, window) view and the derived
    global per-window report both equal a driver-side recompute from the
    committed snapshot, across bootstrap + trickle advance + delete."""
    from etl_framework_ray.pipelines.incremental import IncrementalTimeRollup

    clog, eng = _setup(tmp_path)
    epochs = clog.epochs(1)
    for ep in epochs[:3]:
        eng.apply_epoch(ep)
    view = IncrementalTimeRollup(eng, str(tmp_path / "view"), window_s=1800)
    view.advance()

    def expected_view() -> pd.DataFrame:
        snap = eng.snapshot_arrow().to_pandas()
        snap["window_start"] = snap["ts"].dt.floor("1800s")
        snap["chars"] = snap["text"].fillna("").str.len()
        return (
            snap.groupby(["conv_id", "window_start"], sort=True)
            .agg(n_turns=("chars", "size"), total_chars=("chars", "sum"))
            .reset_index()
            .astype({"n_turns": "int64", "total_chars": "int64"})
        )

    def got_view() -> pd.DataFrame:
        return (
            view.read_arrow()
            .to_pandas()
            .sort_values(["conv_id", "window_start"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(got_view(), expected_view())

    for ep in epochs[3:]:
        eng.apply_epoch(ep)
    s2 = view.advance()
    assert 0 < s2["touched_convs"]
    pd.testing.assert_frame_equal(got_view(), expected_view())

    # derived global report == recompute from the snapshot
    snap = eng.snapshot_arrow().to_pandas()
    snap["window_start"] = snap["ts"].dt.floor("1800s")
    snap["chars"] = snap["text"].fillna("").str.len()
    want = (
        snap.groupby("window_start", sort=True)
        .agg(
            n_turns=("chars", "size"),
            total_chars=("chars", "sum"),
            n_conversations=("conv_id", "nunique"),
        )
        .reset_index()
        .astype(
            {"n_turns": "int64", "total_chars": "int64", "n_conversations": "int64"}
        )
    )
    got = (
        view.windows(shuffle_buckets=4)
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)

    # config is part of the kernel fingerprint
    from etl_framework_ray.pipelines.incremental import IncrementalTimeRollup as V

    with pytest.raises(RuntimeError, match="kernel"):
        V(eng, str(tmp_path / "view"), window_s=3600).advance()
