"""Partial row images (op="P") — Debezium/Mongo-style patch updates.

A patch event carries only the changed payload columns (NULL = unchanged;
a patch can never set NULL). The apply resolves patches against the key's
LWW state at epoch-apply time (pipelines/cdc._fold_epoch_patches) and
writes ordinary FULL rows, so merge-on-read / changefeed / IVM stay
patch-free. Discards (late patch, patch on a deleted base, patch with no
base) are counted in the commit history — never silent.
"""

import pyarrow as pa
import pytest

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import (
    CHANGELOG_SCHEMA,
    GenConfig,
    generate_changelog,
    oracle_replay,
)

TS0 = 1_700_000_000_000_000


def _log_table(rows: list[dict]) -> pa.Table:
    full = [
        {
            "lsn": r["lsn"],
            "op": r["op"],
            "ts": TS0 + r["t"] * 1_000_000,
            "conv_id": r.get("conv", "conv-000001"),
            "turn_idx": r.get("turn", 0),
            "role": r.get("role"),
            "text": r.get("text"),
            "tool": r.get("tool"),
        }
        for r in rows
    ]
    return pa.Table.from_pylist(full, schema=CHANGELOG_SCHEMA)


def _replay_epochs(tmp_path, batches: list[list[dict]], **eng_kw):
    """Each batch becomes one segment == one epoch, applied in order."""
    clog = ChangeLog(str(tmp_path / "changelog"))
    for rows in batches:
        t = _log_table(rows)
        clog.write_segments(t, segment_rows=t.num_rows)
    eng = CDCEngine(
        str(tmp_path / "lake" / "transcripts"), num_partitions=4, **eng_kw
    )
    eng.replay(clog, segments_per_epoch=1)
    return eng


def _state(eng) -> dict:
    return {
        (r["conv_id"], r["turn_idx"]): r for r in eng.snapshot_arrow().to_pylist()
    }


@pytest.mark.usefixtures("ray_session")
def test_generated_patch_replay_matches_oracle(tmp_path):
    cfg = GenConfig(
        num_events=6000, seed=47, patch_frac=0.25, hot_key_frac=0.2, out_of_order=True
    )
    log_tbl = generate_changelog(cfg)
    assert log_tbl.filter(
        pa.compute.equal(log_tbl.column("op"), "P")
    ).num_rows > 500, "fixture must actually exercise patches"
    clog = ChangeLog(str(tmp_path / "changelog"))
    clog.write_segments(log_tbl, segment_rows=800)
    eng = CDCEngine(
        str(tmp_path / "lake" / "transcripts"),
        num_partitions=8,
        compact_every=2,  # patches must survive compaction folds too
    )
    eng.replay(clog, segments_per_epoch=2)

    oracle = oracle_replay(log_tbl)
    rows = eng.snapshot_arrow().to_pylist()
    assert len(rows) == len(oracle)
    for r in rows:
        exp = oracle[(r["conv_id"], r["turn_idx"])]
        for c in ("text", "role", "tool", "ts"):
            assert r[c] == exp[c], (r["conv_id"], r["turn_idx"], c)


@pytest.mark.usefixtures("ray_session")
def test_patch_lifecycle_across_epochs(tmp_path):
    eng = _replay_epochs(
        tmp_path,
        [
            # epoch 1: two full rows
            [
                dict(lsn=1, op="I", t=1, turn=0, role="user", text="a0", tool=None),
                dict(lsn=2, op="I", t=2, turn=1, role="user", text="b0", tool="search"),
            ],
            # epoch 2: patch turn 0's text (prior row is IN THE LAKE),
            # patch turn 1's tool, then delete turn 1
            [
                dict(lsn=3, op="P", t=3, turn=0, text="a1"),
                dict(lsn=4, op="P", t=4, turn=1, tool="python"),
                dict(lsn=5, op="D", t=5, turn=1),
            ],
            # epoch 3: patch the deleted turn 1 (discarded), patch a key
            # that never existed (discarded), multi-column patch on turn 0
            [
                dict(lsn=6, op="P", t=6, turn=1, text="zombie"),
                dict(lsn=7, op="P", t=7, turn=9, text="orphan"),
                dict(lsn=8, op="P", t=8, turn=0, role="assistant", text="a2"),
            ],
        ],
    )
    st = _state(eng)
    assert set(st) == {("conv-000001", 0)}
    row = st[("conv-000001", 0)]
    # column-wise merge: role from the lsn=8 patch, text from the latest
    # patch, tool untouched (NULL from the insert)
    assert row["role"] == "assistant"
    assert row["text"] == "a2"
    assert row["tool"] is None
    # resolved row is stamped with the LAST applied event's ts
    assert row["ts"].timestamp() * 1e6 == TS0 + 8 * 1_000_000
    discarded = sum(
        h.get("patches_discarded", 0) for h in eng.manifest.history
    )
    # zombie + orphan, plus the lsn=4 tool patch whose key was deleted
    # later in the SAME epoch (it never reached the resolved image) —
    # never silent
    assert discarded == 3


@pytest.mark.usefixtures("ray_session")
def test_full_image_shadows_earlier_patch_and_late_patch_drops(tmp_path):
    eng = _replay_epochs(
        tmp_path,
        [
            [dict(lsn=1, op="I", t=1, turn=0, role="user", text="v1", tool="search")],
            # patch then a full U with later ts: U replaces EVERYTHING,
            # including columns the patch set
            [
                dict(lsn=2, op="P", t=2, turn=0, tool="python"),
                dict(lsn=3, op="U", t=3, turn=0, role="user", text="v3", tool=None),
            ],
            # late patch: (ts, lsn) below the current winner → discarded
            [dict(lsn=4, op="P", t=2, turn=0, text="late")],
        ],
    )
    row = _state(eng)[("conv-000001", 0)]
    assert row["text"] == "v3"
    assert row["tool"] is None
    assert sum(h.get("patches_discarded", 0) for h in eng.manifest.history) == 2


@pytest.mark.usefixtures("ray_session")
def test_patch_only_epoch_resolves_against_lake_and_is_idempotent(tmp_path):
    batches = [
        [dict(lsn=1, op="I", t=1, turn=0, role="user", text="base", tool=None)],
        [dict(lsn=2, op="P", t=2, turn=0, text="patched")],
    ]
    eng = _replay_epochs(tmp_path, batches)
    row = _state(eng)[("conv-000001", 0)]
    assert row["text"] == "patched" and row["role"] == "user"
    v = eng.manifest.version
    # duplicate delivery of the whole log: watermark skips, state unchanged
    eng.replay(ChangeLog(str(tmp_path / "changelog")), segments_per_epoch=1)
    assert eng.manifest.version == v
    assert _state(eng)[("conv-000001", 0)]["text"] == "patched"


@pytest.mark.usefixtures("ray_session")
def test_patch_after_delete_then_reinsert(tmp_path):
    eng = _replay_epochs(
        tmp_path,
        [
            [dict(lsn=1, op="I", t=1, turn=0, role="user", text="v1", tool=None)],
            [
                dict(lsn=2, op="D", t=2, turn=0),
                dict(lsn=3, op="P", t=3, turn=0, text="ghost"),  # on deleted → drop
                dict(lsn=4, op="I", t=4, turn=0, role="system", text="v4", tool=None),
                dict(lsn=5, op="P", t=5, turn=0, tool="browser"),  # on re-insert → ok
            ],
        ],
    )
    row = _state(eng)[("conv-000001", 0)]
    assert row["text"] == "v4" and row["role"] == "system" and row["tool"] == "browser"
    assert sum(h.get("patches_discarded", 0) for h in eng.manifest.history) == 1


@pytest.mark.usefixtures("ray_session")
def test_patches_across_schema_evolution(tmp_path):
    """Patches interact with mid-replay column adds exactly like full
    images: a pre-evolution patch (no ``tool`` column in its segment)
    normalizes to tool=NULL = unchanged; a post-evolution patch can set
    the new column on a row whose base predates the evolution."""
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
    from etl_framework_ray.sources.generator import generate_changelog as gen

    log = gen(GenConfig(num_events=3000, num_conversations=60, seed=71, patch_frac=0.3))
    half = 1500
    early = log.slice(0, half).drop_columns(["tool"])
    late = log.slice(half)
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(early, segment_rows=750)
    clog.write_segments(late, segment_rows=750)
    eng = CDCEngine(str(tmp_path / "tbl"), spec=spec_v1, num_partitions=4)
    stats = eng.replay(clog, segments_per_epoch=1)
    assert any("add tool" in c for c in stats.schema_changes)

    # oracle over the log AS FED: early events carried no tool column
    early_as_fed = log.slice(0, half).set_column(
        log.schema.get_field_index("tool"), "tool", pa.nulls(half, pa.string())
    )
    fed_oracle = oracle_replay(pa.concat_tables([early_as_fed, late]))
    rows = eng.snapshot_arrow().to_pylist()
    assert len(rows) == len(fed_oracle)
    for r in rows:
        exp = fed_oracle[(r["conv_id"], r["turn_idx"])]
        for c in ("text", "role", "tool"):
            assert r[c] == exp[c], (r["conv_id"], r["turn_idx"], c)


@pytest.mark.usefixtures("ray_session")
def test_scd2_history_rejects_partial_images(tmp_path):
    from etl_framework_ray.pipelines.history import HistoryTable

    clog = ChangeLog(str(tmp_path / "changelog"))
    t = _log_table(
        [
            dict(lsn=1, op="I", t=1, turn=0, role="user", text="v1", tool=None),
            dict(lsn=2, op="P", t=2, turn=0, text="v2"),
        ]
    )
    clog.write_segments(t, segment_rows=t.num_rows)
    h = HistoryTable(str(tmp_path / "hist"), num_partitions=2)
    with pytest.raises(Exception, match="partial row images"):
        h.replay(clog, segments_per_epoch=1)
