"""One partition reader: every merge-on-read goes through
``cdc.partition_chunks``, one alignment loop (``_aligned_rounds``) and
one per-partition Dataset driver (``_partition_dataset``).

The structural guard keeps the reader from forking again; the 3-column
PK table drives the whole-partition branch of the dispatch (wider PKs
never stream) through every reader and checks each against its oracle.
The driver tests pin how ``_partition_dataset`` packs partitions onto
at most one Ray Data task per CPU and the block bound it declares.
"""

import ast
import datetime as dt
import pathlib
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

import etl_framework_ray
from etl_framework_ray.pipelines import cdc
from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.stages.lww import lww_reduce
from etl_framework_ray.state.schema import ColumnSpec, TableSpec, normalize_table

PKG = pathlib.Path(etl_framework_ray.__file__).parent


def _calls(name: str) -> list[tuple[str, str | None, ast.Call]]:
    """``(module path, innermost enclosing def, call node)`` of every call
    in the package whose callee is named ``name`` (bare or as an
    attribute)."""
    found: list[tuple[str, str | None, ast.Call]] = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()

        def visit(node, fn):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call):
                    f = child.func
                    callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if callee == name:
                        found.append((rel, fn, child))
                visit(child, fn)

        visit(ast.parse(path.read_text()), None)
    return found


def _callers(name: str) -> set[tuple[str, str | None]]:
    """``(module path, innermost enclosing def)`` of every call named ``name``."""
    return {(rel, fn) for rel, fn, _call in _calls(name)}


def _on_pq(call: ast.Call) -> bool:
    """True iff the call is ``pq.<attr>(...)``."""
    f = call.func
    return isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "pq"


def test_partition_read_has_one_implementation():
    reader = {("pipelines/cdc.py", "partition_chunks")}
    assert _callers("_is_cdc_sorted") == reader
    assert _callers("iter_merged_partition") == reader
    assert _callers("from_items") == {("pipelines/cdc.py", "_partition_dataset")}
    # one packer for the reduce, the reads and the view round
    assert _callers("_pack_partitions") == {
        ("pipelines/cdc.py", "apply_epoch"),
        ("pipelines/cdc.py", "_partition_dataset"),
        ("pipelines/incremental.py", "_run_partitions"),
    }


def test_keyed_reads_and_data_writes_have_one_implementation():
    """Point reads go through the keyed file probe (``cdc._read_keys``),
    never a dataset-API filter that decodes whole files, and every lake
    data file is written by ``cdc._write_data_file`` (bounded row
    groups); the DQ failure file is the one other parquet write. Every
    footer read in ``pipelines/cdc.py`` goes through the one footer cache
    (``cdc._footer``; a re-open passes the cached ``metadata=``), and the
    probe selects row groups only through ``zone.qualifying_row_groups``."""
    filtered = {
        (rel, fn)
        for rel, fn, call in _calls("read_table")
        if rel.startswith("pipelines/") and _on_pq(call)
        and any(k.arg == "filters" for k in call.keywords)
    }
    assert filtered == set()
    writes = {
        (rel, fn)
        for rel, fn, call in _calls("write_table")
        if rel == "pipelines/cdc.py" and _on_pq(call)
    }
    assert writes == {
        ("pipelines/cdc.py", "_write_data_file"),
        ("pipelines/cdc.py", "_dq_gate_changes"),
    }
    footer_reads = {
        (fn, any(k.arg == "metadata" for k in call.keywords))
        for name in ("ParquetFile", "read_schema", "read_metadata")
        for rel, fn, call in _calls(name)
        if rel == "pipelines/cdc.py"
    }
    assert footer_reads == {("_footer", False), ("_parquet", True)}
    # one row-group selector: the probe reaches a file only through the
    # scan path's reader, which selects groups by the cached footer stats
    assert _callers("qualifying_row_groups") == {
        ("pipelines/cdc.py", "_read_pruned"),
        ("pipelines/cdc.py", "_iter_file_chunks"),
    }
    assert _callers("read_row_groups") == {("pipelines/cdc.py", "_read_pruned")}
    probe = next(
        n
        for n in ast.walk(ast.parse((PKG / "pipelines" / "cdc.py").read_text()))
        if isinstance(n, ast.FunctionDef) and n.name == "_read_keys"
    )
    called = {
        c.func.id if isinstance(c.func, ast.Name) else c.func.attr
        for c in ast.walk(probe)
        if isinstance(c, ast.Call)
    }
    assert "_read_pruned" in called
    assert not called & {
        "_footer", "_parquet", "ParquetFile", "read_row_groups", "row_group",
        "group_stats", "file_can_match", "searchsorted", "read_table",
    }


def test_small_stack_reads_as_one_chunk(tmp_path):
    """A stack that fits one chunk (footer rows plus ``extra_sorted``)
    takes the whole-partition merge and yields one chunk; one row less
    of budget streams it. Both equal the whole-partition merge."""
    from test_streamed_merge import KEYS as KEYS2
    from test_streamed_merge import LAKE, _synth_partition

    files = _synth_partition(tmp_path)
    stack = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    extra = normalize_table(
        pa.table(
            {
                "conv_id": ["conv-0002"] * 30 + ["conv-0099"] * 5,
                "turn_idx": pa.array(list(range(30)) + list(range(5)), pa.int32()),
                "text": [f"new{i}" for i in range(35)],
                "ts": pa.array([10**13] * 35, pa.timestamp("us")),
                "_lsn": pa.array(range(10**6, 10**6 + 35), pa.int64()),
                "_deleted": [i % 7 == 0 for i in range(35)],
            }
        ),
        LAKE,
    )
    full = cdc.merge_partition_files(files, LAKE, KEYS2)
    for ex, want in (
        (None, full),
        (extra, lww_reduce(pa.concat_tables([full, extra]), KEYS2, ("ts", "_lsn"))),
    ):
        rows = stack + (ex.num_rows if ex is not None else 0)
        one = list(cdc.partition_chunks(files, LAKE, KEYS2, extra_sorted=ex, chunk_rows=rows))
        assert len(one) == 1 and one[0].equals(want)
        many = list(
            cdc.partition_chunks(files, LAKE, KEYS2, extra_sorted=ex, chunk_rows=rows - 1)
        )
        assert len(many) > 1 and pa.concat_tables(many).equals(want)


KEYS = ("conv_id", "turn_idx", "channel")
SPEC3 = TableSpec(
    name="threekey",
    columns=(
        ColumnSpec("conv_id", pa.string(), nullable=False),
        ColumnSpec("turn_idx", pa.int32(), nullable=False),
        ColumnSpec("channel", pa.string(), nullable=False),
        ColumnSpec("text", pa.string()),
        ColumnSpec("ts", pa.timestamp("us"), nullable=False),
    ),
    primary_key=KEYS,
)


def _three_key_log(n: int = 1200, seed: int = 7) -> pa.Table:
    """Hand-written I/U/D changelog over 30 × 4 × 2 composite keys; event
    time rises with the LSN, so every update changes the public row."""
    rng = random.Random(seed)
    live: set = set()
    rows = []
    t0 = dt.datetime(2024, 1, 1)
    for lsn in range(1, n + 1):
        key = (f"c{rng.randrange(30):03d}", rng.randrange(4), rng.choice(["web", "api"]))
        op = "I" if key not in live else ("D" if rng.random() < 0.3 else "U")
        (live.discard if op == "D" else live.add)(key)
        rows.append(
            {
                "lsn": lsn,
                "op": op,
                **dict(zip(KEYS, key)),
                "text": None if op == "D" else f"t{lsn}",
                "ts": t0 + dt.timedelta(seconds=lsn),
            }
        )
    schema = pa.schema(
        [
            pa.field("lsn", pa.int64(), nullable=False),
            pa.field("op", pa.string(), nullable=False),
            *(f.field for f in SPEC3.columns),
        ]
    )
    return pa.Table.from_pylist(rows, schema=schema)


def _by_key(rows: list[dict]) -> dict:
    return {tuple(r[k] for k in KEYS): r for r in rows}


@pytest.mark.usefixtures("ray_session")
def test_three_column_pk_readers_match_oracles(tmp_path):
    log = _three_key_log()
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=100)
    # ts rises with the LSN, so the last event per key is its LWW winner
    final = {k: r for k, r in _by_key(log.to_pylist()).items() if r["op"] != "D"}
    eng = CDCEngine(
        str(tmp_path / "t"),
        spec=SPEC3,
        num_partitions=4,
        compact_every=2,
        changefeed_retention_lsn=10**9,
    )
    eng.replay(clog, segments_per_epoch=1, vacuum=False)
    assert eng.key_cols == KEYS
    man = eng.manifest
    assert any(len(ps.files) > 1 for ps in man.partitions.values())
    mid = eng.store.load(6)

    # snapshot() == snapshot_arrow() == the replayed log
    exp = eng.snapshot_arrow().to_pylist()
    assert {k: r["text"] for k, r in _by_key(exp).items()} == {
        k: r["text"] for k, r in final.items()
    }
    assert _by_key(eng.snapshot().take_all()) == _by_key(exp)

    # changefeed(w) == read_changes(w), tombstones included
    w = int(mid.applied_lsn)
    feed = eng.changefeed(since_lsn=w).take_all()
    oracle = eng.read_changes(w).to_pylist()
    assert any(r["_deleted"] for r in oracle)
    assert len(feed) == len(oracle) and _by_key(feed) == _by_key(oracle)

    # diff(v) == compare of the two snapshot_arrow versions
    old = _by_key(eng.snapshot_arrow(version=mid.version).to_pylist())
    new = _by_key(exp)
    want = {k: ("I", r) for k, r in new.items() if k not in old}
    want.update({k: ("U", r) for k, r in new.items() if k in old and old[k] != r})
    want.update({k: ("D", None) for k in old if k not in new})
    got = eng.diff(mid.version).take_all()
    assert {"I", "U", "D"} <= {r["diff_op"] for r in got}
    assert len(got) == len(want)
    for r in got:
        op, row = want[tuple(r[k] for k in KEYS)]
        assert r["diff_op"] == op
        if op != "D":
            assert {c: r[c] for c in row} == row

    # a compacted stack reads the same as before compaction
    assert eng.compact() > 0
    assert all(len(ps.files) == 1 for ps in eng.manifest.partitions.values() if ps.files)
    assert eng.snapshot_arrow().to_pylist() == exp
    assert _by_key(eng.snapshot().take_all()) == _by_key(exp)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "sizes, want",
    [
        # fewer items than CPUs: one task each
        ((300, 100), [{0}, {1}]),
        # as many items as CPUs
        ((100, 900, 500, 300), [{0}, {1}, {2}, {3}]),
        # more items than CPUs, LPT by bytes (+1 each): 901, 701, 501 and
        # 301 open four tasks, 201 joins the 301, 101 joins the 501
        ((100, 900, 500, 300, 700, 200), [{0, 2}, {1}, {3, 5}, {4}]),
    ],
)
def test_reads_pack_partitions_onto_one_task_per_cpu(tmp_path, sizes, want):
    assert int(ray.cluster_resources()["CPU"]) == 4
    parts = []
    for pid, n in enumerate(sizes):
        path = tmp_path / f"f{pid}"
        path.write_bytes(b"x" * n)
        parts.append({"pid": pid, "files": [str(path)]})

    def per_part(item):
        task = ray.get_runtime_context().get_task_id()
        yield pa.table({"pid": [item["pid"]], "task": [task]})

    empty = pa.schema([("pid", pa.int64()), ("task", pa.string())]).empty_table()
    rows = cdc._partition_dataset(parts, per_part, empty).take_all()
    groups: dict[str, set] = {}
    for r in rows:
        groups.setdefault(r["task"], set()).add(r["pid"])
    assert len(rows) == len(sizes)
    assert sorted(groups.values(), key=min) == want


def _pid_log(eng: CDCEngine, n: int = 600) -> tuple[pa.Table, int]:
    """``_three_key_log`` plus a last run of deletes of every live key in
    partition 0, so that partition's stack reads as tombstones only.
    Returns the log and the LSN of its last event before the deletes."""
    log = _three_key_log(n)
    convs = sorted(set(log.column("conv_id").to_pylist()))
    doomed = set(eng._key_partitions(convs)[0])
    live = {k: r for k, r in _by_key(log.to_pylist()).items() if r["op"] != "D"}
    t_end = log.column("ts")[-1].as_py()
    dels = [
        {**r, "lsn": n + 1 + i, "op": "D", "text": None, "ts": t_end + dt.timedelta(seconds=1 + i)}
        for i, r in enumerate(r for k, r in sorted(live.items()) if k[0] in doomed)
    ]
    assert dels
    return pa.concat_tables([log, pa.Table.from_pylist(dels, schema=log.schema)]), n


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("num_partitions", [2, 4, 8])  # P < CPUs, P = CPUs, P > CPUs
def test_packed_reads_match_arrow(tmp_path, num_partitions):
    eng = CDCEngine(
        str(tmp_path / "t"),
        spec=SPEC3,
        num_partitions=num_partitions,
        compact_every=3,
        changefeed_retention_lsn=10**9,
    )
    log, n = _pid_log(eng)
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=100)
    eng.replay(clog, segments_per_epoch=1, vacuum=False)
    man = eng.manifest
    mid = eng.store.load(4)

    # partition 0 lists files whose rows are all tombstones: its item
    # yields nothing, the other partitions still read
    exp = eng.snapshot_arrow()
    doomed = set(eng._key_partitions(sorted(set(log.column("conv_id").to_pylist())))[0])
    assert man.partitions[0].files
    assert not doomed & set(exp.column("conv_id").to_pylist())
    refs = eng.snapshot().to_arrow_refs()
    blocks = [b for b in ray.get(refs) if b.num_rows]
    got = pa.concat_tables(blocks).to_pylist()
    assert len(got) == exp.num_rows and _by_key(got) == _by_key(exp.to_pylist())
    # each partition's rows keep their key order
    pid_of = {c: p for p, cs in eng._key_partitions(sorted({r["conv_id"] for r in got})).items() for c in cs}
    for pid in range(num_partitions):
        keys = [tuple(r[k] for k in KEYS) for r in got if pid_of[r["conv_id"]] == pid]
        assert keys == sorted(keys)

    # changefeed(w) == read_changes(w), tombstones included
    w = int(mid.applied_lsn)
    feed = eng.changefeed(since_lsn=w).take_all()
    oracle = eng.read_changes(w).to_pylist()
    assert len(feed) == len(oracle) and _by_key(feed) == _by_key(oracle)

    # diff(mid) == compare of the two snapshot_arrow versions
    old = _by_key(eng.snapshot_arrow(version=mid.version).to_pylist())
    new = _by_key(exp.to_pylist())
    want = {k: ("I", r) for k, r in new.items() if k not in old}
    want.update({k: ("U", r) for k, r in new.items() if k in old and old[k] != r})
    want.update({k: ("D", None) for k in old if k not in new})
    got = eng.diff(mid.version).take_all()
    assert len(got) == len(want)
    for r in got:
        op, row = want[tuple(r[k] for k in KEYS)]
        assert r["diff_op"] == op
        if op != "D":
            assert {c: r[c] for c in row} == row
    # a version against itself: every item yields nothing, schema kept
    same = eng.diff(man.version)
    assert same.count() == 0 and "diff_op" in same.schema().names


@pytest.mark.usefixtures("ray_session")
def test_read_block_bound_is_on_the_dataset_context(tmp_path):
    from ray.data import DataContext

    eng = CDCEngine(str(tmp_path / "t"), spec=SPEC3, num_partitions=4)
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(_three_key_log(200), segment_rows=100)
    eng.replay(clog)
    glob_ctx = DataContext.get_current()
    before = dict(vars(glob_ctx))
    ds = eng.snapshot()
    assert ds.count() == eng.snapshot_arrow().num_rows
    assert dict(vars(glob_ctx)) == before
    assert ds.context is not glob_ctx
    assert ds.context.target_max_block_size == cdc.READ_BLOCK_BYTES
    assert glob_ctx.target_max_block_size != cdc.READ_BLOCK_BYTES
    assert ds.context.op_resource_reservation_enabled is True


@pytest.mark.usefixtures("ray_session")
def test_view_reads_pack_files_onto_one_task_per_cpu(tmp_path, monkeypatch):
    """A maintained view's ``read()`` runs on ``_partition_dataset`` with
    one item per committed file: the files pack by bytes onto at most
    one task per CPU, and the rows equal ``read_arrow()``."""
    import os

    import numpy as np

    from etl_framework_ray.pipelines import incremental
    from etl_framework_ray.pipelines.incremental import IncrementalRollup
    from etl_framework_ray.sources.generator import GenConfig, generate_changelog

    assert int(ray.cluster_resources()["CPU"]) == 4
    log = generate_changelog(GenConfig(num_events=3_000, num_conversations=200, seed=41, delete_frac=0.05))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=1_000)
    eng = CDCEngine(str(tmp_path / "t"), num_partitions=6)
    eng.replay(clog, segments_per_epoch=1)
    view = IncrementalRollup(eng, str(tmp_path / "view"))
    view.advance()
    files = sorted(view._load_state()["files"].values())
    assert len(files) == 6

    exp = view.read_arrow().to_pylist()
    got = sorted(view.read().take_all(), key=lambda r: r["conv_id"])
    assert got == exp

    real = incremental._read_file

    def per_file(item):
        task = ray.get_runtime_context().get_task_id()
        for t in real(item):
            yield pa.table({"file": [item["files"][0]] * t.num_rows, "task": [task] * t.num_rows})

    monkeypatch.setattr(incremental, "_read_file", per_file)
    groups: dict[str, set] = {}
    for r in view.read().take_all():
        groups.setdefault(r["task"], set()).add(files.index(r["file"]))
    loads = np.array([1 + os.path.getsize(f) for f in files], dtype=np.int64)
    want = [set(g) for g in cdc._pack_partitions(loads, 4)]
    assert len(groups) == 4
    assert sorted(groups.values(), key=min) == sorted(want, key=min)
