"""Bounded row groups and the keyed file probe.

Every lake data file — written by the CDC engine or staged by
``LakeWriter`` overwrite and append — carries row groups of at most
``cdc.ROW_GROUP_ROWS`` rows, and point reads (``lookup``, the patch fold's
``_read_prior_rows``, ``purge``) decode only the groups whose leading-key
footer range brackets a wanted key (``cdc._read_keys``). The first test
drives every write site; the second rewrites a table into 7-row groups so
each conversation straddles group boundaries and checks the probe, cold
and with every footer cached, against the full merge-on-read. The footer
cache tests check that a cached footer never answers for a rewritten or
deleted file and that the cache stays within its bound.
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
    passes = []
    # cold (no cached footer), then warm (every footer cached): the same
    # rows, from the same decoded groups
    cdc._footers.clear()
    for _ in range(2):
        decoded.clear()
        results = []
        for i in range(convs + 10):  # the last 10 ids were never written
            key = f"conv-{i:06d}"
            got = eng.lookup([key])
            assert got.equals(snap.filter(pc.equal(snap.column("conv_id"), key))), key
            results.append(got)
            if not passes:
                for pid in eng._key_partitions([key]):
                    held += sum(pq.read_metadata(f).num_rows for f in man.partitions[pid].files)
        assert decoded and sum(decoded) < held
        passes.append((results, list(decoded)))
    (cold, cold_decoded), (warm, warm_decoded) = passes
    assert all(a.equals(b) for a, b in zip(cold, warm))
    assert cold_decoded == warm_decoded
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


def _keyed_file(path: str, ids: range) -> pa.Table:
    """Write a small lake-shaped file of ``conv_id``s through the one lake
    data-file writer; returns its rows."""
    t = pa.table(
        {
            "conv_id": [f"conv-{i:06d}" for i in ids],
            "_lsn": pa.array(range(len(ids)), pa.int64()),
            "_deleted": [False] * len(ids),
        }
    )
    cdc._write_data_file(t, path)
    return t


def test_footer_cache_reads_a_rewritten_file_fresh_and_a_deleted_one_fails(tmp_path):
    """A footer cached for a path never answers for a file since written
    there: ``_write_data_file`` replaces the file (a new inode), so the
    probe re-reads its footer. A deleted file fails loud, cached or not."""
    path = str(tmp_path / "delta-00000-00000001.parquet")
    old = _keyed_file(path, range(10, 14))
    lake = old.schema
    key = lambda i: f"conv-{i:06d}"  # noqa: E731
    assert cdc._read_keys(path, lake, "conv_id", [key(11)]).num_rows == 1
    first = cdc._footer(path)
    assert cdc._footer(path) is first  # warm
    size = os.path.getsize(path)
    new = _keyed_file(path, range(20, 24))
    assert os.path.getsize(path) == size  # the stat key still tells them apart
    assert cdc._footer(path) is not first
    assert cdc._read_keys(path, lake, "conv_id", [key(11)]).num_rows == 0
    got = cdc._read_keys(path, lake, "conv_id", [key(21), key(11)])
    assert got.equals(new.slice(1, 1))
    os.remove(path)
    with pytest.raises(FileNotFoundError):
        cdc._read_keys(path, lake, "conv_id", [key(21)])
    with pytest.raises(FileNotFoundError):
        cdc._footer(path)


@pytest.mark.usefixtures("ray_session")
def test_footer_cache_fails_loud_on_a_vacuumed_file(tmp_path):
    """A time-travel read whose files were vacuumed raises, even though
    the footers of those files were cached by an earlier read."""
    log = generate_changelog(GenConfig(num_events=1_200, num_conversations=40, seed=29, text_pad=8))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=300)
    eng = CDCEngine(str(tmp_path / "t"), num_partitions=2, compact_every=1)
    eng.replay(clog, segments_per_epoch=1, vacuum=False)
    first = eng.store.load(2)
    old = eng.snapshot_arrow(version=2)  # caches the old version's footers
    assert old.num_rows and set(first.data_files()) - set(eng.manifest.data_files())
    assert eng.vacuum() > 0
    with pytest.raises(FileNotFoundError):
        eng.snapshot_arrow(version=2)


def _held() -> int:
    return sum(f.nbytes for f in cdc._footers.values())


def test_footer_cache_holds_at_most_its_bound(tmp_path, monkeypatch):
    """The footer cache never charges more than ``FOOTER_CACHE_BYTES``
    and evicts the least recently used footer first."""
    assert 0 < cdc.FOOTER_CACHE_BYTES <= 64 << 20
    paths = [str(tmp_path / f"f{i}.parquet") for i in range(40)]
    for i, p in enumerate(paths):
        _keyed_file(p, range(i, i + 2))
    one = cdc._footer(paths[0], cache=False).nbytes
    assert one > 1000  # a charge in bytes, not a count
    bound = 10 * one + one // 2  # fits 10 footers of this size, not 11
    monkeypatch.setattr(cdc, "FOOTER_CACHE_BYTES", bound)
    cdc._footers.clear()
    kept = cdc._footer(paths[0])
    for i, p in enumerate(paths[1:], 1):
        cdc._footer(p)
        cdc._footer(paths[0])  # most recently used: never evicted
        assert _held() <= bound
        assert len(cdc._footers) == min(i + 1, 10)
    assert cdc._footer(paths[0]) is kept
    cached = {k[0] for k in cdc._footers}
    assert paths[1] not in cached and paths[-1] in cached


def test_footer_cache_bounds_bytes_of_many_group_footers(tmp_path, monkeypatch):
    """A footer's charge grows with its row groups, so a few many-group
    footers fill the bound that many small ones share; one charged more
    than the whole bound is read, probed correctly and never kept; a
    read with ``cache=False`` (``describe``) caches nothing."""
    small = [str(tmp_path / f"small{i}.parquet") for i in range(8)]
    for i, p in enumerate(small):
        _keyed_file(p, range(i, i + 2))
    t = pa.table(
        {
            "conv_id": [f"conv-{i:06d}" for i in range(600)],
            "_lsn": pa.array(range(600), pa.int64()),
            "_deleted": [False] * 600,
        }
    )
    big = [str(tmp_path / f"big{i}.parquet") for i in range(3)]
    for p in big:
        pq.write_table(t, p, row_group_size=2)  # 300 groups
    cdc._footers.clear()
    small_charge = cdc._footer(small[0], cache=False).nbytes
    big_charge = cdc._footer(big[0], cache=False).nbytes
    assert cdc._footers == {}
    assert big_charge > 50 * small_charge
    monkeypatch.setattr(cdc, "FOOTER_CACHE_BYTES", 2 * big_charge + 4 * small_charge)
    for p in small + big:
        cdc._footer(p)
        assert _held() <= cdc.FOOTER_CACHE_BYTES
    # the third big footer pushed out every small one and the first big
    assert {k[0] for k in cdc._footers} == set(big[1:])
    monkeypatch.setattr(cdc, "FOOTER_CACHE_BYTES", big_charge - 1)
    cdc._footers.clear()
    got = cdc._read_keys(big[0], t.schema, "conv_id", ["conv-000123", "conv-000599"])
    assert got.equals(t.take([123, 599]))
    assert cdc._footers == {}


def test_footer_cache_stays_bounded_under_threads(tmp_path, monkeypatch):
    """Threads sharing the footer cache (more threads than cores, a short
    switch interval) each get their own file's footer, and the cache never
    ends over its bound."""
    import sys
    import threading

    paths = [str(tmp_path / f"f{i}.parquet") for i in range(12)]
    for i, p in enumerate(paths):
        _keyed_file(p, range(i + 1))  # file i holds i + 1 rows
    bound = 4 * max(cdc._footer(p, cache=False).nbytes for p in paths)
    monkeypatch.setattr(cdc, "FOOTER_CACHE_BYTES", bound)
    cdc._footers.clear()
    wrong: list[str] = []

    def probe(seed: int) -> None:
        for j in range(300):
            i = (seed * 7 + j * 5) % len(paths)
            if cdc._footer(paths[i]).metadata.num_rows != i + 1:
                wrong.append(paths[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probe, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert 0 < _held() <= bound


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
