"""The replay's per-row kernels: integer-coded LWW, distinct-key hashing
and the map combiner's decision.

- ``lww_survivor_indices`` sorts string and binary keys as integer ranks
  of their dictionary; its survivors, in their order, must equal the
  string sort's (the reference below is that sort) and a brute-force
  per-key max over ``(ts, lsn)``.
- ``stable_hash_array`` hashes each distinct string once; its ids must be
  bit-identical to hashing every row, since every stored partition
  depends on them.
- ``_prep_segment_task`` runs the survivor pass only when the segment's
  distinct key tuples are at most ``cdc.COMBINER_KEEP_MAX`` of its rows.
"""

import datetime as dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etl_framework_ray.functions import hashing
from etl_framework_ray.pipelines import cdc
from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import (
    CHANGELOG_SCHEMA,
    GenConfig,
    generate_changelog,
    oracle_replay,
)
from etl_framework_ray.stages.lww import (
    distinct_key_count,
    last_per_key_mask,
    lww_reduce,
    lww_survivor_indices,
)

# ---------------------------------------------------------------------------
# integer-coded LWW
# ---------------------------------------------------------------------------

_WORDS = ["", "a", "ab", "b", "é", "éa", "ß", "日本", "z\x00", "Z"]
_KEY_TYPES = {
    "string": pa.string(),
    "large_string": pa.large_string(),
    "binary": pa.binary(),
    "int": pa.int32(),
    "timestamp": pa.timestamp("us"),
}


def _key_array(codes: list, kind: str) -> pa.Array:
    """Key values from small integer codes (None stays NULL)."""
    t = _KEY_TYPES[kind]
    if kind in ("string", "large_string"):
        return pa.array([None if c is None else _WORDS[c] for c in codes], t)
    if kind == "binary":
        return pa.array([None if c is None else _WORDS[c].encode() for c in codes], t)
    if kind == "timestamp":
        return pa.array([None if c is None else 1_000_000 * c for c in codes], pa.int64()).cast(t)
    return pa.array([None if c is None else c - 3 for c in codes], t)  # negatives too


def _string_sort_indices(tbl: pa.Table, key_cols, order_cols) -> np.ndarray:
    """The survivor pass as it sorted before integer codes: a sort on the
    key values themselves, then the boundary mask over the sorted keys."""
    narrow = tbl.select([*key_cols, *order_cols])
    idx = pc.sort_indices(narrow, sort_keys=[(c, "ascending") for c in (*key_cols, *order_cols)])
    mask = last_per_key_mask(narrow.select(list(key_cols)).take(idx), key_cols)
    return idx.to_numpy()[mask]


def _brute_force(rows: list[dict], key_cols, order_cols) -> list[tuple]:
    """Per-key max over the order columns, as sorted ``(key, order)``
    tuples; a row with a NULL key is its own group."""
    best: dict = {}
    alone = []
    for r in rows:
        k = tuple(r[c] for c in key_cols)
        o = tuple(r[c] for c in order_cols)
        if any(v is None for v in k):
            alone.append(k + o)
        elif k not in best or o > best[k]:
            best[k] = o
    return sorted([k + o for k, o in best.items()] + alone, key=repr)


_ROW = st.tuples(
    st.lists(st.one_of(st.none(), st.integers(0, len(_WORDS) - 1)), min_size=3, max_size=3),
    st.integers(0, 4),  # ts bucket: plenty of ties
    st.integers(0, 6),  # lsn: ties too, so (key, ts, lsn) repeats
)


@settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    rows=st.lists(_ROW, min_size=0, max_size=40),
    redeliver=st.lists(st.integers(0, 39), max_size=6),
    kinds=st.lists(st.sampled_from(sorted(_KEY_TYPES)), min_size=3, max_size=3),
    width=st.integers(1, 3),
    lsn_only=st.booleans(),
    nulls=st.booleans(),
)
def test_coded_lww_matches_string_sort_and_brute_force(rows, redeliver, kinds, width, lsn_only, nulls):
    # re-delivered identical (key, ts, lsn) rows
    rows = rows + [rows[i] for i in redeliver if i < len(rows)]
    if not nulls:
        rows = [([c if c is not None else 0 for c in keys], ts, lsn) for keys, ts, lsn in rows]
    key_cols = tuple(f"k{i}" for i in range(width))
    order_cols = ("lsn",) if lsn_only else ("ts", "lsn")
    cols = {k: _key_array([r[0][i] for r in rows], kinds[i]) for i, k in enumerate(key_cols)}
    cols["ts"] = pa.array([1_000 * r[1] for r in rows], pa.int64()).cast(pa.timestamp("us"))
    cols["lsn"] = pa.array([r[2] for r in rows], pa.int64())
    cols["payload"] = pa.array(range(len(rows)), pa.int64())
    tbl = pa.table(cols)

    got = lww_survivor_indices(tbl, key_cols, order_cols)
    assert np.array_equal(got, _string_sort_indices(tbl, key_cols, order_cols))
    reduced = lww_reduce(tbl, key_cols, order_cols)
    assert reduced.equals(tbl.take(pa.array(got, pa.int64())))
    want = _brute_force(tbl.to_pylist(), key_cols, order_cols)
    assert sorted((tuple(r[c] for c in (*key_cols, *order_cols)) for r in reduced.to_pylist()), key=repr) == want
    assert distinct_key_count(tbl, key_cols) == len(got)
    # a chunked table and a dictionary-typed key sort the same way
    chunked = pa.concat_tables([tbl.slice(0, len(rows) // 2), tbl.slice(len(rows) // 2)])
    assert np.array_equal(lww_survivor_indices(chunked, key_cols, order_cols), got)
    k0 = tbl.column(key_cols[0])
    if hashing.is_binary_like(k0.type):
        dict_tbl = tbl.set_column(0, key_cols[0], pc.dictionary_encode(k0.combine_chunks()))
        assert np.array_equal(lww_survivor_indices(dict_tbl, key_cols, order_cols), got)
        assert distinct_key_count(dict_tbl, key_cols) == len(got)


def test_coded_lww_orders_strings_bytewise():
    # non-ASCII sorts after ASCII by UTF-8 bytes, the empty string first
    tbl = pa.table(
        {
            "k": pa.array(["é", "", "z", "a", "é", ""]),
            "ts": pa.array([1, 1, 1, 1, 2, 0], pa.int64()),
            "lsn": pa.array(range(6), pa.int64()),
        }
    )
    out = lww_reduce(tbl, ("k",), ("ts", "lsn"))
    assert out.column("k").to_pylist() == ["", "a", "z", "é"]
    assert out.column("lsn").to_pylist() == [1, 3, 2, 4]


# ---------------------------------------------------------------------------
# routing ids: one hash per distinct key, bit-identical to one per row
# ---------------------------------------------------------------------------


def _per_row_hash(arr):
    """``stable_hash_array`` as it hashed every row."""
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        np_arr = arr.to_pandas().to_numpy()
    else:
        np_arr = arr
    if np_arr.dtype == object or np_arr.dtype.kind in ("U", "S"):
        return pd.util.hash_array(np_arr.astype(object), categorize=False)
    return pd.util.hash_array(np_arr, categorize=False)


@pytest.mark.parametrize(
    "arr",
    [
        pa.array(["conv-000001", "conv-000002", "conv-000001", "", "é", "日本"]),
        pa.array(["a", None, "b", None, "a"]),  # a NULL hashes as None did
        pa.array([None, None], pa.string()),
        pa.array([], pa.string()),
        pa.chunked_array([], pa.string()),
        pa.chunked_array([["x", "y"], [], ["y", None, "z"]]),
        pa.array(["q", "r", "q", None], pa.large_string()),
        pa.chunked_array([pa.array(["q", "r"], pa.large_string()), pa.array(["q"], pa.large_string())]),
        pa.array([b"\x00", b"a", b"", None, b"a"], pa.binary()),
        pa.array([b"x", b"x"], pa.large_binary()),
        pa.array([1, None, 3]),
        pa.array([-1, 2, 3], pa.int32()),
    ],
)
def test_distinct_hash_is_bit_identical(arr):
    got = hashing.stable_hash_array(arr)
    assert got.dtype == np.uint64
    assert np.array_equal(got, _per_row_hash(arr))
    # a dictionary array hashes as its decoded values (no NULLs here)
    if hashing.is_binary_like(arr.type) and not arr.null_count:
        enc = pc.dictionary_encode(arr)
        assert np.array_equal(hashing.stable_hash_array(enc), got)


@settings(max_examples=100, deadline=None, suppress_health_check=list(HealthCheck))
@given(values=st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=50))
def test_distinct_hash_matches_per_row_on_any_strings(values):
    for t in (pa.string(), pa.large_string()):
        arr = pa.array(values, t)
        assert np.array_equal(hashing.stable_hash_array(arr), _per_row_hash(arr))


def test_salted_ids_are_bit_identical(monkeypatch):
    rng = np.random.default_rng(5)
    conv = [f"conv-{i:06d}" for i in rng.integers(0, 40, 500)]
    batch = pa.table(
        {"conv_id": pa.array(conv), "turn_idx": pa.array(rng.integers(0, 16, 500), pa.int32())}
    )
    keys = ("conv_id", "turn_idx")
    salt = {"conv-000003": 4, "conv-000007": 2, "conv-999999": 8}
    got = {
        name: hashing.salted_partition_ids(b, keys, 16, salt)
        for name, b in (
            ("plain", batch),
            ("dict", batch.set_column(0, "conv_id", pc.dictionary_encode(batch.column(0).combine_chunks()))),
        )
    }
    unsalted = hashing.salted_partition_ids(batch, keys, 16)
    monkeypatch.setattr(hashing, "stable_hash_array", _per_row_hash)
    want = hashing.salted_partition_ids(batch, keys, 16, salt)
    assert np.array_equal(got["plain"], want)
    assert np.array_equal(got["dict"], want)
    assert np.array_equal(unsalted, hashing.salted_partition_ids(batch, keys, 16))
    # the salt fans the hot key out, the rest route as unsalted
    hot = np.array([c == "conv-000003" for c in conv])
    assert len(set(want[hot])) > 1
    assert np.array_equal(want[~np.isin(conv, list(salt))], unsalted[~np.isin(conv, list(salt))])


# ---------------------------------------------------------------------------
# the map combiner runs only when it pays
# ---------------------------------------------------------------------------


def _unique_log(n: int) -> pa.Table:
    """Every key once: the combiner would keep every row."""
    t0 = dt.datetime(2026, 1, 1)
    return pa.Table.from_pylist(
        [
            {
                "lsn": i + 1,
                "op": "I",
                "ts": t0 + dt.timedelta(seconds=i),
                "conv_id": f"conv-{i // 4:06d}",
                "turn_idx": i % 4,
                "role": "user",
                "text": f"t{i}",
                "tool": None,
            }
            for i in range(n)
        ],
        schema=CHANGELOG_SCHEMA,
    )


def _hot_log(n: int, patch_frac: float = 0.0) -> pa.Table:
    """Few keys, many events each: the combiner keeps a small share."""
    return generate_changelog(
        GenConfig(
            num_events=n,
            num_conversations=6,
            max_turns=3,
            seed=31,
            delete_frac=0.05,
            out_of_order=True,
            patch_frac=patch_frac,
        )
    )


def _prep(tmp_path, log: pa.Table, monkeypatch) -> tuple[pa.Table, list[int]]:
    """Run the map task in process, counting survivor passes."""
    calls: list[int] = []
    real = cdc.lww_survivor_indices

    def spy(tbl, *args, **kwargs):
        calls.append(tbl.num_rows)
        return real(tbl, *args, **kwargs)

    monkeypatch.setattr(cdc, "lww_survivor_indices", spy)
    path = str(tmp_path / "segment.parquet")
    pq.write_table(log, path)
    out, bounds = cdc._prep_segment_task._function(
        path, CHANGELOG_SCHEMA, ("conv_id", "turn_idx"), 4
    )
    monkeypatch.undo()
    assert bounds[0] == 0 and bounds[-1] == out.num_rows
    return out, calls


def _assert_replays_to_oracle(tmp_path, log: pa.Table) -> None:
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=max(1, log.num_rows // 2))
    eng = CDCEngine(str(tmp_path / "t"), num_partitions=4)
    eng.replay(clog, segments_per_epoch=1)
    snap = eng.snapshot_arrow().to_pylist()
    oracle = oracle_replay(log)
    assert len(snap) == len(oracle)
    for r in snap:
        want = oracle[(r["conv_id"], r["turn_idx"])]
        assert {c: r[c] for c in ("role", "text", "tool", "ts")} == want


@pytest.mark.usefixtures("ray_session")
def test_unique_segment_runs_no_survivor_pass(tmp_path, monkeypatch):
    log = _unique_log(400)
    out, calls = _prep(tmp_path, log, monkeypatch)
    assert calls == []
    assert out.num_rows == log.num_rows
    assert sorted(out.column("lsn").to_pylist()) == log.column("lsn").to_pylist()
    _assert_replays_to_oracle(tmp_path, log)


@pytest.mark.usefixtures("ray_session")
def test_hot_segment_still_combines(tmp_path, monkeypatch):
    log = _hot_log(600)
    out, calls = _prep(tmp_path, log, monkeypatch)
    assert calls == [log.num_rows]
    assert out.num_rows == distinct_key_count(log, ("conv_id", "turn_idx")) < log.num_rows
    _assert_replays_to_oracle(tmp_path, log)


@pytest.mark.usefixtures("ray_session")
def test_patch_keys_travel_unreduced(tmp_path, monkeypatch):
    log = _hot_log(600, patch_frac=0.05)
    ops = log.column("op").to_pylist()
    assert "P" in ops
    out, calls = _prep(tmp_path, log, monkeypatch)
    assert calls == [log.num_rows]
    codes = cdc._pair_codes(log, ("conv_id", "turn_idx"))
    patched = pc.unique(pc.filter(codes, pc.equal(log.column("op"), "P")))
    mine = pc.is_in(codes, value_set=patched)
    out_mine = pc.is_in(cdc._pair_codes(out, ("conv_id", "turn_idx")), value_set=patched)
    # every row of a patched key leaves the map; other keys still combine
    assert sorted(out.filter(out_mine).column("lsn").to_pylist()) == sorted(
        log.filter(mine).column("lsn").to_pylist()
    )
    assert out.num_rows < log.num_rows
    _assert_replays_to_oracle(tmp_path, log)
