"""DQ gate tests: WARN logs + write proceeds; ERROR aborts before write.

Reference semantics under test:
/root/reference/src/models/data_quality_evaluator.py:81-102 (warnings
logged first, errors raise) and FIXTURES.md F4c (new role value under a
WARN-level allowed-values rule does not block).
"""

import pyarrow as pa
import pytest

from etl_framework_ray.functions.quality import (
    CheckSpec,
    DQError,
    DQGate,
    apply_checks_and_split,
    build_checks,
    evaluate_batch_detail,
    read_audit,
    read_failures,
)
from etl_framework_ray.state.schema import TRANSCRIPTS, ColumnSpec, QualityRule, TableSpec


def _spec(crit="error"):
    return TableSpec(
        name="t",
        columns=(
            ColumnSpec("k", pa.int32(), nullable=False),
            ColumnSpec("price", pa.float64(), quality=QualityRule(criticality=crit, min_value=0)),
            ColumnSpec(
                "status",
                pa.string(),
                quality=QualityRule(criticality="warn", allowed_values=("a", "b")),
            ),
        ),
        primary_key=("k",),
    )


def _batch(prices, statuses):
    return pa.table(
        {
            "k": pa.array(range(len(prices)), pa.int32()),
            "price": pa.array(prices, pa.float64()),
            "status": pa.array(statuses, pa.string()),
        }
    )


def test_masks_vectorized():
    checks = build_checks(_spec())
    names = {c.name for c in checks}
    assert names == {"k_is_not_null", "price_is_in_range", "status_is_in_list"}
    batch = _batch([1.0, -2.0, None], ["a", "z", None])
    counts, _ = evaluate_batch_detail(batch, checks, ("k",), "t", {})
    # nulls don't fail range/list rules; -2 fails range; z fails list
    assert counts == {"price_is_in_range": 1, "status_is_in_list": 1}


def test_caller_rules_win_on_name_clash():
    override = CheckSpec("price_is_in_range", "price", "warn", lambda t: pa.array([False] * t.num_rows))
    checks = build_checks(_spec("error"), extra=[override])
    chk = next(c for c in checks if c.name == "price_is_in_range")
    assert chk.criticality == "warn"


@pytest.mark.usefixtures("ray_session")
def test_warn_logs_and_passes(tmp_path):
    import ray.data

    ds = ray.data.from_arrow(_batch([1.0, 2.0], ["a", "zzz"]))
    gate = DQGate(_spec(), str(tmp_path / "audit"))
    results = gate.check(ds)  # no exception: only the warn rule fails
    assert results["status_is_in_list"]["failed_rows"] == 1
    audit = read_audit(str(tmp_path / "audit"))
    assert audit.num_rows == 1
    assert audit.column("criticality").to_pylist() == ["warn"]


@pytest.mark.usefixtures("ray_session")
def test_error_aborts_and_still_logs(tmp_path):
    import ray.data

    ds = ray.data.from_arrow(_batch([-5.0, 2.0], ["a", "zzz"]))
    gate = DQGate(_spec(), str(tmp_path / "audit"))
    with pytest.raises(DQError, match="price_is_in_range"):
        gate.check(ds)
    # reference ordering: failures (warn AND error) appended before raise
    audit = read_audit(str(tmp_path / "audit"))
    assert set(audit.column("rule_name").to_pylist()) == {"price_is_in_range", "status_is_in_list"}


@pytest.mark.usefixtures("ray_session")
def test_f4c_new_role_value_warns_not_blocks(tmp_path):
    """F4c: a new role value fails TRANSCRIPTS' WARN-level allowed-values
    rule → logged, not blocked."""
    import ray.data

    batch = pa.table(
        {
            "conv_id": pa.array(["c1"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["critic"], pa.string()),  # not in allowed set
            "text": pa.array(["hi"], pa.large_string()),
            "tool": pa.array([None], pa.string()),
            "ts": pa.array([0], pa.timestamp("us")),
        }
    )
    gate = DQGate(TRANSCRIPTS, str(tmp_path / "audit"))
    results = gate.check(ray.data.from_arrow(batch))
    assert results["role_is_in_list"]["failed_rows"] == 1  # warned, no raise


@pytest.mark.usefixtures("ray_session")
def test_failure_rows_captured_with_pk(tmp_path):
    """Per-failing-row detail (rule, column, PK) lands in the forensic
    table — M7 parity with the reference's exploded failure structs."""
    import ray.data

    ds = ray.data.from_arrow(_batch([-5.0, 2.0, -1.0], ["a", "zzz", "b"]))
    gate = DQGate(_spec(), str(tmp_path / "audit"))
    with pytest.raises(DQError):
        gate.check(ds)
    det = read_failures(gate.failure_dir).to_pandas()
    price_fails = det[det.rule_name == "price_is_in_range"]
    assert sorted(price_fails.row_key) == ["0", "2"]  # PKs of the bad rows
    assert set(price_fails["column"]) == {"price"}
    warn_fails = det[det.rule_name == "status_is_in_list"]
    assert list(warn_fails.row_key) == ["1"]
    assert set(det.criticality) == {"error", "warn"}


@pytest.mark.usefixtures("ray_session")
def test_error_write_stages_nothing_visible_and_single_pass(tmp_path):
    """Fused gate: an ERROR overwrite (a) raises, (b) leaves ZERO rows
    visible, (c) populates the failure-row table, and (d) executes the
    source exactly ONCE (probed by an execution counter)."""
    import os

    import ray
    import ray.data

    from etl_framework_ray.pipelines.writer import LakeWriter

    @ray.remote(num_cpus=0)
    class ExecCounter:
        def __init__(self):
            self.n = 0

        def add(self, k):
            self.n += k

        def get(self):
            return self.n

    counter = ExecCounter.remote()
    src = pa.table(
        {
            "k": pa.array([1, 2, 3], pa.int32()),
            "price": pa.array([1.0, -9.0, 3.0], pa.float64()),  # -9 → ERROR
            "status": pa.array(["a", "a", "b"], pa.string()),
        }
    )

    def count_exec(batch):
        ray.get(counter.add.remote(batch.num_rows))
        return batch

    ds = ray.data.from_arrow(src).map_batches(count_exec, batch_format="pyarrow")
    w = LakeWriter(str(tmp_path / "tbl"), _spec(), num_partitions=2)
    with pytest.raises(DQError, match="price_is_in_range"):
        w.overwrite(ds)
    # nothing visible: manifest unchanged, snapshot empty
    assert w.engine.snapshot_arrow().num_rows == 0
    # failure detail populated with the failing row's PK
    det = read_failures(os.path.join(str(tmp_path / "tbl"), "_metrics", "dq_failures"))
    assert "2" in det.column("row_key").to_pylist()
    # single pass: the source executed exactly once
    assert ray.get(counter.get.remote()) == 3
    # a subsequent clean write succeeds and sees only its own rows
    good = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([7], pa.int32()),
                "price": pa.array([1.5], pa.float64()),
                "status": pa.array(["a"], pa.string()),
            }
        )
    )
    assert w.overwrite(good) == 1
    assert w.engine.snapshot_arrow().num_rows == 1


@pytest.mark.usefixtures("ray_session")
def test_apply_checks_and_split():
    """DQx apply_checks_and_split parity: good rows clean, quarantine rows
    carry an explodable _failures list<struct> column."""
    import ray.data

    from etl_framework_ray.functions.transforms import explode_struct_list

    ds = ray.data.from_arrow(_batch([-5.0, 2.0, 3.0], ["a", "zzz", "b"]))
    good, quarantine = apply_checks_and_split(ds, _spec())
    g = good.to_pandas()
    assert list(g.k) == [2]  # only the fully-clean row
    q = quarantine.to_pandas().sort_values("k")
    assert list(q.k) == [0, 1]
    q_tbl = pa.concat_tables(quarantine.iter_batches(batch_format="pyarrow"))
    exploded = explode_struct_list(q_tbl, "_failures", keep=["k"]).to_pandas()
    assert set(exploded["name"]) == {"price_is_in_range", "status_is_in_list"}
    assert set(exploded[exploded["name"] == "price_is_in_range"]["k"]) == {0}
