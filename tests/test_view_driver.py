"""One maintained-view driver: the rollup family and the join view are
the one- and two-source cases of ``incremental.MaintainedView``, and the
replica keeps its directory through the same store helpers.

The structural guard keeps the view state machine from forking again:
one class owns state, commit, audit and the advance loop; an advance is
one round of partition tasks, each discovering its own touched keys
through one function; and every manifest swap (view or replica) goes
through one function. The salted-key test drives that discovery where
a key's rows and its view row live in different partitions."""

import ast

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from test_incremental import _assert_view_equals, _manual_rows
from test_partition_reader import PKG, _callers, _calls

from etl_framework_ray.functions.hashing import partition_ids, salted_partition_ids
from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.incremental import IncrementalRollup
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog

VIEW_MODULES = ("pipelines/incremental.py", "pipelines/replica.py")


def test_views_have_one_driver():
    tree = ast.parse((PKG / "pipelines" / "incremental.py").read_text())
    core = {"_run", "_commit_state", "_load_state", "fsck"}
    owners = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defined = core & {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if defined:
                owners[node.name] = defined
    assert owners == {"MaintainedView": core}

    # an advance is one round of tasks: the driver lists the changefeed
    # in one place, and touched discovery is one function run inside the
    # partition bodies, so the module's one remote function is the
    # partition task
    assert len(_calls("_run_partitions")) == 1
    assert {c for c in _callers("_changefeed_files") if c[0] in VIEW_MODULES} == {
        ("pipelines/incremental.py", "_run")
    }
    assert _callers("_partition_inputs") == {
        ("pipelines/incremental.py", "rebuild_partition"),
        ("pipelines/incremental.py", "join_partition"),
    }
    remote = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(d).startswith("ray.remote") for d in node.decorator_list)
    }
    assert remote == {"_view_partition_task"}

    # data files go through the lake's cdc._write_data_file; manifests
    # through _commit_dir
    replaces = {
        (rel, fn)
        for rel, fn, call in _calls("replace")
        if rel in VIEW_MODULES
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "os"
    }
    assert replaces == {("pipelines/incremental.py", "_commit_dir")}
    assert {c for c in _callers("_write_data_file") if c[0] in VIEW_MODULES} == {
        ("pipelines/incremental.py", "rebuild_partition"),
        ("pipelines/incremental.py", "join_partition"),
        ("pipelines/replica.py", "_splice_task"),
    }


@pytest.mark.usefixtures("ray_session")
def test_salted_key_touched_only_in_a_fanout_partition(tmp_path):
    """A salted conversation changed only in a fanout partition: the task
    of its HOME partition finds it in the fanout partition's changefeed
    and recomputes its view row, while the fanout partition, whose new
    delta holds only that other home's rows, keeps its old view file."""
    log = generate_changelog(
        GenConfig(
            num_events=6000, num_conversations=40, seed=7, hot_key_frac=0.5, hot_max_turns=4000
        )
    )
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=750)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=8, compact_every=100)
    eng.replay(clog, segments_per_epoch=2, auto_mitigate_skew=True)
    hot = "conv-000000"
    assert hot in eng.salt_map
    view = IncrementalRollup(eng, str(tmp_path / "view"))
    view.advance()

    home = int(partition_ids(pa.array([hot]), 8)[0])
    turns = eng.snapshot_arrow().filter(pc.field("conv_id") == hot)
    keys = turns.select(["conv_id", "turn_idx"])
    pids = salted_partition_ids(keys, eng.key_cols, 8, eng.salt_map)
    turn, fanout = next(
        (t, int(p)) for t, p in zip(keys.column("turn_idx").to_pylist(), pids) if p != home
    )
    before = view._load_state()["files"]
    assert str(fanout) in before  # the fanout pid homes view rows of its own

    _manual_rows(eng, clog, [{"op": "U", "conv_id": hot, "turn_idx": turn, "text": "edit"}])
    eng.replay(clog, segments_per_epoch=1)
    changed = {pid for pid, _f in eng._changefeed_files(view.watermark)}
    assert changed == {fanout}

    s = view.advance()
    assert (s["touched_convs"], s["touched_partitions"]) == (1, 1)
    _assert_view_equals(view, eng)
    after = view._load_state()["files"]
    assert after[str(fanout)] == before[str(fanout)]
    assert after[str(home)] != before[str(home)]
