"""One commit path: every table version is copied, recorded and published
by ``manifest.commit_version``.

The structural guard keeps that decision in one function. The history
test drives every kind of commit the package makes and checks that each
version adds exactly one history row ``{op, version, epoch_id, ...}`` on
top of the rows before it, that ``describe()`` counts every commit after
creation, and that an engine's in-memory manifest is the one its store
published."""

import ast
import datetime as dt
import json

import pyarrow as pa
import pytest
import ray

from test_partition_reader import _calls

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.writer import LakeWriter
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog
from etl_framework_ray.state.manifest import ManifestStore
from etl_framework_ray.state.orchestrate import Orchestrator
from etl_framework_ray.state.schema import ColumnSpec, ForeignKey, TableSpec

#: the keys of an apply row before the row gained ``op`` (perfbench,
#: ``bench.py`` and the patch tests read them)
APPLY_KEYS = {
    "epoch_id",
    "events",
    "duration_s",
    "partitions_touched",
    "schema_changes",
    "patches_discarded",
}


def test_manifest_versions_have_one_commit_path():
    commits = {
        (rel, fn) for rel, fn, call in _calls("commit") if isinstance(call.func, ast.Attribute)
    }
    assert commits == {("state/manifest.py", "commit_version")}
    copies = {
        (rel, fn)
        for rel, fn, call in _calls("from_json")
        if isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "Manifest"
    }
    assert copies == {("state/manifest.py", "commit_version"), ("state/manifest.py", "load")}


def _committed(store: ManifestStore, since: int, *ops: str) -> int:
    """Each version after ``since`` adds exactly one history row — its
    ``op``, its own ``version`` and its watermark as ``epoch_id`` — to the
    rows of the version before it. Returns the current version."""
    cur = store.current_version()
    assert cur == since + len(ops)
    prev = store.load(since).history
    for v, op in enumerate(ops, since + 1):
        man = store.load(v)
        assert len(man.history) == len(prev) + 1, f"v{v} ({op}) added no history row"
        assert man.history[:-1] == prev, f"v{v} ({op}) rewrote earlier rows"
        row = man.history[-1]
        assert (row["op"], row["version"], row["epoch_id"]) == (op, v, man.applied_lsn)
        prev = man.history
    return cur


def _engine_committed(eng: CDCEngine, since: int, *ops: str) -> int:
    v = _committed(eng.store, since, *ops)
    assert eng.manifest.to_json() == eng.store.load().to_json()
    assert eng.describe()["commits"] == v - 1  # every commit after creation
    return v


@pytest.mark.usefixtures("ray_session")
def test_every_commit_adds_one_history_row(tmp_path):
    # create, then the constructor's retention change
    table = str(tmp_path / "tbl")
    eng = CDCEngine(table, num_partitions=4)
    assert eng.manifest.version == 1 and eng.manifest.history == []
    assert eng.describe()["commits"] == 0
    eng = CDCEngine(table, num_partitions=4, changefeed_retention_lsn=10**6)
    v = _engine_committed(eng, 1, "set_retention")

    # apply and compact (twice), salt, reshard
    log = generate_changelog(
        GenConfig(
            num_events=6000, num_conversations=30, seed=73, hot_key_frac=0.4, hot_max_turns=3000
        )
    )
    clog = ChangeLog(str(tmp_path / "log"))
    for half in (log.slice(0, 3000), log.slice(3000)):
        clog.write_segments(half, segment_rows=1500)
        eng.replay(clog, segments_per_epoch=1, vacuum=False)
        v = _engine_committed(eng, v, "apply", "apply")
        for row in eng.manifest.history[-2:]:
            assert APPLY_KEYS <= set(row)
        # the second compaction retires deltas into the registry the
        # first one started: the manifest it copied must stay as it was
        base = eng.manifest
        frozen = json.dumps(base.to_json())
        assert eng.compact() > 0
        assert json.dumps(base.to_json()) == frozen
        v = _engine_committed(eng, v, "compact")
    assert eng.manifest.properties["retained_deltas"]
    assert eng.mitigate_skew(factor=1.5, fanout=4, min_share=0.25)
    v = salted = _engine_committed(eng, v, "salt")
    eng.reshard(new_num_partitions=8)
    v = _engine_committed(eng, v, "reshard")

    # restore (rolls content back, history forward), purge, clone
    eng.restore(salted)
    v = _engine_committed(eng, v, "restore")
    assert eng.manifest.history[-1]["restored_version"] == salted
    assert eng.purge(["conv-000001"])["rows_removed"] > 0
    v = _engine_committed(eng, v, "purge")
    eng.clone(str(tmp_path / "clone"))
    clone = CDCEngine(str(tmp_path / "clone"), create_if_missing=False)
    assert clone.manifest.version == 1
    assert clone.manifest.history[:-1] == eng.manifest.history
    row = clone.manifest.history[-1]
    assert (row["op"], row["version"], row["epoch_id"]) == ("clone", 1, eng.manifest.applied_lsn)
    assert clone.describe()["commits"] == eng.describe()["commits"] + 1

    # writer surface: overwrite, append
    spec = TableSpec(
        name="evlog",
        columns=(
            ColumnSpec("event_id", pa.int64(), nullable=False),
            ColumnSpec("ts", pa.timestamp("us")),
        ),
    )
    w = LakeWriter(str(tmp_path / "evlog"), spec, num_partitions=2)
    ts = [dt.datetime(2026, 1, 1)] * 3
    w.overwrite(ray.data.from_arrow(pa.table({"event_id": [1, 2, 3], "ts": ts})))
    w.append(ray.data.from_arrow(pa.table({"event_id": [4, 5, 6], "ts": ts})))
    _engine_committed(w.engine, 1, "overwrite", "append")

    # orchestrator: create, FK sync, then align
    aisles = TableSpec(
        name="aisles",
        columns=(ColumnSpec("aisle_id", pa.int32(), nullable=False),),
        primary_key=("aisle_id",),
    )
    products = TableSpec(
        name="products",
        columns=(
            ColumnSpec("product_id", pa.int32(), nullable=False),
            ColumnSpec("aisle_id", pa.int32(), foreign_key=ForeignKey("aisles", "aisle_id")),
        ),
        primary_key=("product_id",),
    )
    lake = tmp_path / "catalog"
    Orchestrator(str(lake)).sync([aisles, products])
    assert ManifestStore(str(lake / "aisles")).load().history == []
    _committed(ManifestStore(str(lake / "products")), 1, "foreign_keys")
    wider = TableSpec(
        name="aisles",
        columns=(*aisles.columns, ColumnSpec("label", pa.string())),
        primary_key=("aisle_id",),
    )
    assert Orchestrator(str(lake)).sync([wider]).applied == ["align aisles"]
    _committed(ManifestStore(str(lake / "aisles")), 1, "align")
