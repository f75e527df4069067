"""One maintained-view driver: the rollup family and the join view are
the one- and two-source cases of ``incremental.MaintainedView``, and the
replica keeps its directory through the same store helpers.

The structural guard keeps the view state machine from forking again:
one class owns state, commit, audit and the advance loop; touched-key
discovery and the partition fan-out each have one call site; and every
manifest swap (view or replica) goes through one function."""

import ast

from test_partition_reader import PKG, _calls

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

    assert len(_calls("_run_partitions")) == 1
    touched = [
        (rel, fn)
        for rel, fn, call in _calls("remote")
        if isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "_touched_hashes_task"
    ]
    assert len(touched) == 1

    # data files go through _write_atomic; manifests through _commit_dir
    replaces = {
        (rel, fn)
        for rel, fn, call in _calls("replace")
        if rel in VIEW_MODULES
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "os"
    }
    assert replaces == {
        ("pipelines/incremental.py", "_write_atomic"),
        ("pipelines/incremental.py", "_commit_dir"),
    }
