"""DQ gate on the CDC apply path: declared rules evaluated inside the
map round — quarantine drops ERROR-failing rows pre-apply, error mode
aborts the epoch pre-commit, DELETE tombstones are exempt, WARN
failures are recorded but applied."""

import os

import pyarrow as pa
import pytest
import ray

from etl_framework_ray.functions.quality import DQError, read_failures
from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import CHANGELOG_SCHEMA
from etl_framework_ray.state.schema import ColumnSpec, QualityRule, TableSpec

SPEC = TableSpec(
    name="gated",
    columns=(
        ColumnSpec("conv_id", pa.string(), nullable=False),
        ColumnSpec("turn_idx", pa.int32(), nullable=False),
        ColumnSpec(
            "role",
            pa.string(),
            quality=QualityRule(criticality="error", allowed_values=("user", "assistant")),
        ),
        ColumnSpec(
            "text",
            pa.large_string(),
            quality=QualityRule(criticality="warn", min_value=None, max_value=None),
        ),
        ColumnSpec("tool", pa.string()),
        ColumnSpec("ts", pa.timestamp("us"), nullable=False),
    ),
    primary_key=("conv_id", "turn_idx"),
)


def _log(rows):
    """rows: (lsn, op, conv, turn, role, text)."""
    return pa.Table.from_arrays(
        [
            pa.array([r[0] for r in rows], pa.int64()),
            pa.array([r[1] for r in rows], pa.string()),
            pa.array([r[0] * 1_000_000 for r in rows], pa.timestamp("us")),
            pa.array([r[2] for r in rows], pa.string()),
            pa.array([r[3] for r in rows], pa.int32()),
            pa.array([r[4] for r in rows], pa.string()),
            pa.array([r[5] for r in rows], pa.large_string()),
            pa.array([None] * len(rows), pa.string()),
        ],
        schema=CHANGELOG_SCHEMA,
    )


ROWS = [
    (1, "I", "a", 0, "user", "ok"),
    (2, "I", "a", 1, "robot", "bad role"),  # fails the ERROR rule
    (3, "I", "b", 0, "assistant", "ok"),
    (4, "I", "b", 1, "user", "doomed"),
    (5, "D", "b", 1, None, None),  # tombstone: null payload must pass
]


@pytest.mark.usefixtures("ray_session")
def test_quarantine_drops_error_rows_and_exempts_deletes(tmp_path):
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(_log(ROWS), segment_rows=3)
    eng = CDCEngine(
        str(tmp_path / "tbl"),
        spec=SPEC,
        num_partitions=2,
        dq_mode="quarantine",
    )
    eng.replay(clog, segments_per_epoch=2)
    snap = eng.snapshot_arrow()
    keys = set(zip(snap.column("conv_id").to_pylist(), snap.column("turn_idx").to_pylist()))
    # (a,1) quarantined; (b,1) inserted then deleted — tombstone applied
    assert keys == {("a", 0), ("b", 0)}
    fails = read_failures(os.path.join(eng.table_dir, "_metrics", "dq_failures"))
    assert set(fails.column("rule_name").to_pylist()) == {"role_is_in_list"}
    assert fails.column("row_key").to_pylist() == ["a|1"]


@pytest.mark.usefixtures("ray_session")
def test_error_mode_aborts_pre_commit(tmp_path):
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(_log(ROWS), segment_rows=10)
    eng = CDCEngine(str(tmp_path / "tbl"), spec=SPEC, num_partitions=2, dq_mode="error")
    with pytest.raises(Exception) as ei:
        eng.replay(clog, segments_per_epoch=1)
    assert "ERROR-criticality" in str(ei.value)
    # 2PC: nothing committed, table empty, a clean retry applies cleanly
    assert eng.manifest.applied_lsn == 0
    assert eng.snapshot_arrow().num_rows == 0
    # the same log replays fine on a non-gated engine over the same dir
    eng2 = CDCEngine(str(tmp_path / "tbl"), spec=SPEC, num_partitions=2)
    eng2.replay(clog, segments_per_epoch=1)
    assert eng2.snapshot_arrow().num_rows == 3


@pytest.mark.usefixtures("ray_session")
def test_warn_rules_record_but_apply(tmp_path):
    spec = TableSpec(
        name="warned",
        columns=(
            ColumnSpec("conv_id", pa.string(), nullable=False),
            ColumnSpec("turn_idx", pa.int32(), nullable=False),
            ColumnSpec(
                "role",
                pa.string(),
                quality=QualityRule(criticality="warn", allowed_values=("user",)),
            ),
            ColumnSpec("text", pa.large_string()),
            ColumnSpec("tool", pa.string()),
            ColumnSpec("ts", pa.timestamp("us"), nullable=False),
        ),
        primary_key=("conv_id", "turn_idx"),
    )
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(_log(ROWS[:3]), segment_rows=10)
    eng = CDCEngine(str(tmp_path / "tbl"), spec=spec, num_partitions=2, dq_mode="quarantine")
    eng.replay(clog, segments_per_epoch=1)
    assert eng.snapshot_arrow().num_rows == 3  # warn failures still land
    fails = read_failures(os.path.join(eng.table_dir, "_metrics", "dq_failures"))
    assert fails.num_rows == 2  # 'robot' and 'assistant' both warn-fail
    assert set(fails.column("criticality").to_pylist()) == {"warn"}


def test_bad_dq_mode_rejected(tmp_path):
    with pytest.raises(ValueError, match="dq_mode"):
        CDCEngine(str(tmp_path / "tbl"), dq_mode="loud")
