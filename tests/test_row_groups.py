"""Bounded row groups and the keyed file probe.

Every lake data file — written by the CDC engine or staged by
``LakeWriter`` overwrite and append — carries row groups of at most
``cdc.ROW_GROUP_ROWS`` rows, and point reads (``lookup``, the patch fold's
``_read_prior_rows``, ``purge``) decode only the groups whose leading-key
footer range brackets a wanted key (``cdc._read_keys``). The first test
drives every write site; the second rewrites a table into 7-row groups so
each conversation straddles group boundaries and checks the probe against
the full merge-on-read.
"""

import ast
import datetime as dt
import glob
import inspect
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from etl_framework_ray.pipelines import cdc, writer
from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.pipelines.writer import LakeWriter
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog, oracle_replay
from etl_framework_ray.state.schema import ColumnSpec, TableSpec


def _data_files(table_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(table_dir, "data", "**", "*.parquet"), recursive=True))


def _kind(path: str) -> str:
    """Which write site produced a CDC data file, from its place in the
    layout."""
    name, parent = os.path.basename(path), os.path.dirname(path)
    for kind in ("append", "overwrite"):
        if f"{os.sep}{kind}-" in path:
            return f"{kind} staging"
    if "purge=v" in path:
        return "purge rewrite"
    if "salt=v" in path:
        return "migration"
    if name.startswith("sorted-"):
        return "optimize"
    if name.startswith("base-"):
        return "compacted base"
    if any(os.path.basename(p).startswith("base-") for p in glob.glob(f"{parent}/*.parquet")):
        return "retained delta"
    return "delta"


def _dictionary_eligible(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_boolean(t)


def _dictionary_columns(f: str) -> set[str]:
    """Columns with a dictionary-encoded chunk in any row group of ``f``."""
    md = pq.read_metadata(f)
    return {
        md.row_group(g).column(c).path_in_schema
        for g in range(md.num_row_groups)
        for c in range(md.num_columns)
        if "RLE_DICTIONARY" in md.row_group(g).column(c).encodings
    }


def _record(files: list[str], seen: dict, dict_cols: dict) -> None:
    """Record, per write site, the most rows any file holds and the most
    rows any row group holds, and check that only dictionary-eligible
    columns (``cdc.lake_parquet_args``) carry dictionary pages."""
    for f in files:
        md = pq.read_metadata(f)
        groups = [md.row_group(g).num_rows for g in range(md.num_row_groups)]
        rows, group = seen.get(_kind(f), (0, 0))
        seen[_kind(f)] = (max(rows, md.num_rows), max([group, *groups]))
        schema = pq.read_schema(f)
        encoded = _dictionary_columns(f)
        for name in encoded:
            assert _dictionary_eligible(schema.field(name).type), f"{_kind(f)}: {name} {f}"
        dict_cols.setdefault(_kind(f), set()).update(encoded)


@pytest.mark.usefixtures("ray_session")
def test_every_lake_data_file_bounds_its_row_groups(tmp_path):
    cap = cdc.ROW_GROUP_ROWS
    seen: dict = {}
    dict_cols: dict = {}
    # keyed table: 2 partitions, two 20k-event epochs (≈10k rows per
    # partition each), compaction on the second with retention on
    log = generate_changelog(
        GenConfig(num_events=40_000, num_conversations=3_000, seed=17, text_pad=8)
    )
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=10_000)
    table = str(tmp_path / "keyed")
    eng = CDCEngine(table, num_partitions=2, compact_every=1, changefeed_retention_lsn=10**9)
    eng.replay(clog, segments_per_epoch=2, vacuum=False)
    _record(_data_files(table), seen, dict_cols)
    eng.purge(["conv-000001", "conv-000002"])
    _record(_data_files(table), seen, dict_cols)
    eng.reshard(new_num_partitions=1)
    _record(_data_files(table), seen, dict_cols)

    # PK-less table: append staging and its sorted OPTIMIZE, ≈6k rows per
    # partition
    spec = TableSpec(
        name="evlog",
        columns=(
            ColumnSpec("event_id", pa.int64(), nullable=False),
            ColumnSpec("ts", pa.timestamp("us")),
        ),
    )
    w = LakeWriter(str(tmp_path / "append"), spec, num_partitions=2)
    base = dt.datetime(2026, 1, 1)
    n = 12_000
    w.append(
        ray.data.from_arrow(
            pa.table(
                {
                    "event_id": pa.array(range(n), pa.int64()),
                    "ts": pa.array(
                        [base + dt.timedelta(seconds=(i * 7919) % n) for i in range(n)],
                        pa.timestamp("us"),
                    ),
                }
            )
        )
    )
    w.engine.compact(sort_by=["ts"])
    _record(_data_files(str(tmp_path / "append")), seen, dict_cols)
    # one overwrite table of ≈6k rows per partition
    w = LakeWriter(str(tmp_path / "overwrite"), spec, num_partitions=2)
    w.overwrite(
        ray.data.from_arrow(
            pa.table(
                {
                    "event_id": pa.array(range(n), pa.int64()),
                    "ts": pa.array([base] * n, pa.timestamp("us")),
                }
            )
        )
    )
    _record(_data_files(str(tmp_path / "overwrite")), seen, dict_cols)

    kinds = {
        "delta",
        "compacted base",
        "retained delta",
        "purge rewrite",
        "migration",
        "optimize",
        "append staging",
        "overwrite staging",
    }
    assert set(seen) == kinds
    for kind, (rows, group) in seen.items():
        assert rows > cap, f"{kind}: no file larger than one group ({rows} rows)"
        assert group <= cap, f"{kind}: a row group holds {group} > {cap} rows"
    # the keyed table's short strings keep their dictionary pages; its
    # large_string text, ts and _lsn never get one (checked per file above)
    for kind in kinds - {"optimize", "append staging", "overwrite staging"}:
        assert {"conv_id", "role"} <= dict_cols[kind], kind


def _delete_conversation(log: pa.Table, conv: str) -> pa.Table:
    """Append one delete per turn of ``conv`` after the last event."""
    mine = log.filter(pc.equal(log.column("conv_id"), conv))
    turns = sorted(set(mine.column("turn_idx").to_pylist()))
    last_lsn = pc.max(log.column("lsn")).as_py()
    last_ts = pc.max(log.column("ts")).as_py()
    rows = [
        {"lsn": last_lsn + 1 + i, "op": "D", "ts": last_ts, "conv_id": conv, "turn_idx": t}
        for i, t in enumerate(turns)
    ]
    return pa.concat_tables([log, pa.Table.from_pylist(rows, schema=log.schema)])


@pytest.mark.usefixtures("ray_session")
def test_probe_reads_keys_that_span_row_groups(tmp_path, monkeypatch):
    convs = 60
    log = generate_changelog(
        GenConfig(num_events=3_000, num_conversations=convs, seed=13, delete_frac=0.1, text_pad=8)
    )
    log = _delete_conversation(log, "conv-000003")
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    table = str(tmp_path / "t")
    eng = CDCEngine(table, num_partitions=4)
    eng.replay(clog, segments_per_epoch=2)
    # same content in 7-row groups: manifest zone stats still hold, but
    # every conversation now straddles group boundaries
    for f in _data_files(table):
        pq.write_table(pq.read_table(f), f, row_group_size=7)
    man = eng.manifest
    snap = eng.snapshot_arrow()
    assert "conv-000003" not in set(snap.column("conv_id").to_pylist())

    decoded: list[int] = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *args, **kwargs):
        t = real(self, row_groups, *args, **kwargs)
        decoded.append(t.num_rows)
        return t

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    held = 0
    for i in range(convs + 10):  # the last 10 ids were never written
        key = f"conv-{i:06d}"
        got = eng.lookup([key])
        assert got.equals(snap.filter(pc.equal(snap.column("conv_id"), key))), key
        for pid in eng._key_partitions([key]):
            held += sum(pq.read_metadata(f).num_rows for f in man.partitions[pid].files)
    assert decoded and sum(decoded) < held
    monkeypatch.undo()

    # the patch fold's prior-state read: even turns of every other
    # conversation, plus a turn never written
    key_cols = eng.key_cols
    for pid, ps in man.partitions.items():
        merged = cdc.merge_partition_files(ps.files, man.schema, key_cols)
        want = merged.select(list(key_cols))
        every_other = sorted(set(want.column("conv_id").to_pylist()))[::2]
        picked = pc.is_in(want.column("conv_id"), value_set=pa.array(every_other))
        even = pc.equal(pc.bit_wise_and(want.column("turn_idx"), pa.scalar(1, pa.int32())), 0)
        absent = pa.table([[every_other[0]], [999]], schema=want.schema)
        keys_of = pa.concat_tables([want.filter(pc.and_(picked, even)), absent])
        got = cdc._read_prior_rows(ps.files, man.schema, key_cols, keys_of)
        codes = pc.unique(cdc._pair_codes(keys_of, key_cols))
        exp = merged.filter(pc.is_in(cdc._pair_codes(merged, key_cols), value_set=codes))
        assert exp.num_rows > 0
        assert got.equals(exp), pid


#: Parquet writes in the lake-writing modules that write no lake data file
_NOT_LAKE_DATA = {
    "_dq_gate_changes": "DQ failure detail rows under _metrics",
    "_stage_segment_task": "a changelog segment, not a table file",
}
_LAKE_WRITERS = {"_write_data_file", "_write_merged_stream", "_stage_files"}


def _is_parquet_write(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    f = node.func
    if f.attr == "write_parquet":
        return True
    return f.attr in ("write_table", "ParquetWriter") and isinstance(f.value, ast.Name) and f.value.id == "pq"


def _is_helper_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "lake_parquet_args"
    )


def test_every_lake_data_write_takes_the_one_helpers_args():
    found: dict[str, list[bool]] = {}
    for mod in (cdc, writer):
        tree = ast.parse(inspect.getsource(mod))
        fns = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for fn in fns:
            inner = {id(n) for g in ast.walk(fn) if g is not fn and isinstance(g, ast.FunctionDef) for n in ast.walk(g)}
            own = [n for n in ast.walk(fn) if id(n) not in inner]
            helper_vars = {
                t.id
                for n in own
                if isinstance(n, ast.Assign) and _is_helper_call(n.value)
                for t in n.targets
                if isinstance(t, ast.Name)
            }
            for call in filter(_is_parquet_write, own):
                takes = any(
                    kw.arg is None
                    and (_is_helper_call(kw.value) or (isinstance(kw.value, ast.Name) and kw.value.id in helper_vars))
                    for kw in call.keywords
                )
                found.setdefault(fn.name, []).append(takes)
    assert set(found) == _LAKE_WRITERS | set(_NOT_LAKE_DATA), sorted(found)
    for name in _LAKE_WRITERS:
        assert all(found[name]), f"{name} writes a lake data file without lake_parquet_args"


@pytest.mark.usefixtures("ray_session")
def test_dictionary_encoded_files_stack_with_plain_ones(tmp_path):
    """Files written with dictionary pages on every column (the encoding
    before ``lake_parquet_args``) stack with newer files: the mixed stack
    reads, looks up and compacts to the same rows."""
    log = generate_changelog(
        GenConfig(num_events=4_000, num_conversations=120, seed=23, delete_frac=0.05, text_pad=8)
    )
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    table = str(tmp_path / "t")
    eng = CDCEngine(table, num_partitions=4, compact_every=100)
    eng.replay(clog, segments_per_epoch=1)
    before = eng.snapshot_arrow()
    oracle = oracle_replay(log)
    assert before.num_rows == len(oracle)

    files = _data_files(table)
    assert len(files) > 8
    old = files[::2]
    for f in old:
        pq.write_table(pq.read_table(f), f, row_group_size=cdc.ROW_GROUP_ROWS)
        assert {"text", "ts", "_lsn"} <= _dictionary_columns(f)
    for f in files[1::2]:
        assert not {"text", "ts", "_lsn"} & _dictionary_columns(f)

    assert eng.snapshot_arrow().equals(before)
    assert sorted(eng.snapshot().take_all(), key=lambda r: (r["conv_id"], r["turn_idx"])) == before.to_pylist()
    keys = sorted(set(before.column("conv_id").to_pylist()))[::7]
    got = eng.lookup(keys)
    assert got.equals(before.filter(pc.is_in(before.column("conv_id"), value_set=pa.array(keys))))

    assert eng.compact() > 0
    assert eng.snapshot_arrow().equals(before)
    for ps in eng.manifest.partitions.values():
        for f in ps.files:
            assert not {"text", "ts", "_lsn"} & _dictionary_columns(f)
