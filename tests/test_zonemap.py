"""Zone-map stats: capture, merge, pruning and residual-mask kernels.

Pure-Arrow unit tests (no Ray session needed beyond the shared fixture's
side effects)."""

import datetime as dt

import pyarrow as pa
import pytest

from etl_framework_ray.state import zonemap as zm


def _t(**cols):
    return pa.table(cols)


def test_table_stats_families_and_nulls():
    t = pa.table(
        {
            "i": pa.array([3, 1, None, 7], pa.int64()),
            "f": pa.array([0.5, -2.0, 9.5, None]),
            "s": pa.array(["banana", "apple", None, "cherry"]),
            "ts": pa.array(
                [dt.datetime(2024, 1, 2), dt.datetime(2024, 1, 1), None, None],
                pa.timestamp("us"),
            ),
            "skip": pa.array([[1], [2], [3], [4]]),  # nested: unsupported
        }
    )
    st = zm.table_stats(t)
    assert st["i"] == {"f": "num", "min": 1.0, "max": 7.0, "open": False, "nulls": 1, "rows": 4}
    assert st["f"]["min"] == -2.0 and st["f"]["max"] == 9.5
    assert st["s"]["min"] == "apple" and st["s"]["max"] == "cherry"
    assert st["ts"]["min"] == pa.scalar(dt.datetime(2024, 1, 1)).cast(pa.timestamp("us")).value
    assert st["ts"]["nulls"] == 2
    assert "skip" not in st


def test_string_truncation_bounds_stay_valid():
    long_lo = "a" * 100
    long_hi = "z" * 100
    st = zm.table_stats(_t(s=pa.array([long_lo, long_hi])))["s"]
    # truncated lower bound is <= true min; bumped upper bound > true max
    assert st["min"] <= long_lo
    assert st["max"] > long_hi and not st["open"]
    # pruning decisions stay conservative-correct for values near bounds
    assert zm.file_can_match({"s": st}, [("s", "==", long_hi)])
    assert zm.file_can_match({"s": st}, [("s", ">=", long_lo)])
    assert not zm.file_can_match({"s": st}, [("s", "<", "a")])


def test_all_null_column_never_matches_comparisons():
    st = zm.table_stats(_t(x=pa.array([None, None], pa.int64())))
    assert not zm.file_can_match(st, [("x", "==", 1)])
    assert not zm.file_can_match(st, [("x", "not_null")])
    assert zm.file_can_match(st, [("x", "is_null")])


def test_range_pruning_ops():
    st = zm.table_stats(_t(x=pa.array([10, 20, 30])))
    fm = lambda cj: zm.file_can_match(st, cj)  # noqa: E731
    assert fm([("x", ">=", 30)]) and not fm([("x", ">", 30)])
    assert fm([("x", "<=", 10)]) and not fm([("x", "<", 10)])
    assert fm([("x", "==", 15)]) and not fm([("x", "==", 31)])
    assert fm([("x", "in", [1, 2, 25])]) and not fm([("x", "in", [1, 2, 99])])
    assert fm([("x", "!=", 20)])
    # conjunction: each conjunct can individually match but the file is
    # only kept when every conjunct could match
    assert not fm([("x", ">=", 5), ("x", "<", 10)])
    # single-value file and != prunes
    st1 = zm.table_stats(_t(x=pa.array([7, 7])))
    assert not zm.file_can_match(st1, [("x", "!=", 7)])


def test_unknown_column_or_missing_stats_never_prune():
    st = zm.table_stats(_t(x=pa.array([1])))
    assert zm.file_can_match(st, [("other", "==", 99)])
    assert zm.file_can_match(None, [("x", "==", 99)])
    # un-normalizable literal → conservative keep
    assert zm.file_can_match(st, [("x", "==", object())])


def test_merge_stats_accumulates_chunks():
    a = zm.table_stats(_t(x=pa.array([5, None]), s=pa.array(["m", "q"])))
    b = zm.table_stats(_t(x=pa.array([1, 9]), s=pa.array(["a", "z"])))
    m = zm.merge_stats(zm.merge_stats(None, a), b)
    assert m["x"]["min"] == 1.0 and m["x"]["max"] == 9.0 and m["x"]["nulls"] == 1
    assert m["x"]["rows"] == 4
    assert m["s"]["min"] == "a" and m["s"]["max"] == "z"


def test_partition_can_match_any_file():
    f1 = zm.table_stats(_t(x=pa.array([1, 2])))
    f2 = zm.table_stats(_t(x=pa.array([100, 200])))
    fs = {"a.parquet": f1, "b.parquet": f2}
    files = ["a.parquet", "b.parquet"]
    assert zm.partition_can_match(fs, files, [("x", ">=", 150)])
    assert not zm.partition_can_match(fs, files, [("x", ">", 200)])
    # a file without recorded stats keeps the partition readable
    assert zm.partition_can_match({"a.parquet": f1}, files, [("x", ">", 200)])


def test_predicate_mask_and_filter():
    t = pa.table({"x": [1, 2, None, 4], "s": ["a", "b", "c", None]})
    out = zm.filter_table(t, [("x", ">=", 2), ("s", "not_null")])
    assert out.column("x").to_pylist() == [2]
    out = zm.filter_table(t, [("x", "is_null")])
    assert out.num_rows == 1 and out.column("s").to_pylist() == ["c"]
    out = zm.filter_table(t, [("x", "in", [1, 4])])
    assert out.column("x").to_pylist() == [1, 4]
    assert zm.filter_table(t, []).num_rows == 4


def test_validate_predicate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        zm.validate_predicate([("x", "like", "a%")])
    with pytest.raises(ValueError):
        zm.validate_predicate([("x", "==")])
    zm.validate_predicate([("x", "is_null"), ("x", "<", 5)])


def test_split_key_conjuncts():
    cj = [("conv_id", "==", 5), ("ts", ">=", 0), ("turn_idx", "<", 3)]
    k, v = zm.split_key_conjuncts(cj, ("conv_id", "turn_idx"))
    assert [c[0] for c in k] == ["conv_id", "turn_idx"]
    assert [c[0] for c in v] == ["ts"]


def test_stats_json_round_trip():
    import json

    t = pa.table(
        {
            "x": pa.array([1, 2]),
            "ts": pa.array([dt.datetime(2024, 5, 1)], pa.timestamp("us")).take([0, 0]),
            "d": pa.array([dt.date(2024, 5, 1), dt.date(2024, 6, 1)]),
        }
    )
    st = zm.table_stats(t)
    st2 = json.loads(json.dumps(st))
    assert st2 == st
    assert zm.file_can_match(st2, [("ts", ">=", dt.datetime(2024, 4, 1))])
    assert not zm.file_can_match(st2, [("ts", ">", dt.datetime(2024, 5, 1))])
    assert zm.file_can_match(st2, [("d", "==", dt.date(2024, 5, 15))])
    assert not zm.file_can_match(st2, [("d", "<", dt.date(2024, 5, 1))])


# ---------------------------------------------------------------------------
# property: pruning is always conservative — a pruned read NEVER loses a
# matching row, whatever the data, split points and predicate
# ---------------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

_VALS = st.one_of(st.none(), st.integers(-5, 5))
_OPS = ["==", "!=", "<", "<=", ">", ">=", "in", "is_null", "not_null"]


def _conjunct(col):
    return st.sampled_from(_OPS).flatmap(
        lambda op: st.just((col, op))
        if op in ("is_null", "not_null")
        else (
            st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(
                lambda v: (col, op, v)
            )
            if op == "in"
            else st.integers(-6, 6).map(lambda v: (col, op, v))
        )
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(st.tuples(_VALS, st.text("abc", max_size=3)), min_size=0, max_size=40),
    splits=st.lists(st.integers(1, 10), min_size=1, max_size=5),
    conjuncts=st.lists(_conjunct("x"), min_size=1, max_size=3),
)
def test_pruning_never_loses_matching_rows(data, splits, conjuncts):
    t = pa.table(
        {
            "x": pa.array([d[0] for d in data], pa.int64()),
            "s": pa.array([d[1] for d in data]),
        }
    )
    expected = zm.filter_table(t, conjuncts)
    # arbitrary file split: stats per piece, then the file/partition tests
    pieces, off = [], 0
    for w in splits:
        if off >= t.num_rows:
            break
        pieces.append(t.slice(off, w))
        off += w
    if off < t.num_rows:
        pieces.append(t.slice(off))
    kept = [p for p in pieces if zm.file_can_match(zm.table_stats(p) or None, conjuncts)]
    got = (
        zm.filter_table(pa.concat_tables(kept), conjuncts)
        if kept
        else t.schema.empty_table()
    )
    # conservative: pruning by stats loses nothing the residual filter keeps
    assert got.num_rows == expected.num_rows
    assert got.equals(expected)  # order preserved (pieces are in order)
    # partition-level test agrees with the union of file-level tests
    stats = {str(i): zm.table_stats(p) for i, p in enumerate(pieces)}
    files = [str(i) for i in range(len(pieces))]
    assert zm.partition_can_match(stats, files, conjuncts) == (len(kept) > 0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.tuples(_VALS, st.text("abc", max_size=3)), min_size=0, max_size=40),
    splits=st.lists(st.integers(1, 10), min_size=1, max_size=5),
    conjuncts=st.lists(_conjunct("x"), min_size=1, max_size=3),
)
def test_row_group_pruning_matches_residual(tmp_path_factory, data, splits, conjuncts):
    """qualifying_row_groups over a real parquet footer is conservative
    for every generated table/row-group layout/predicate."""
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "x": pa.array([d[0] for d in data], pa.int64()),
            "s": pa.array([d[1] for d in data]),
        }
    )
    d = tmp_path_factory.mktemp("rg")
    p = str(d / "f.parquet")
    pq.write_table(t, p, row_group_size=max(splits[0], 1))
    pf = pq.ParquetFile(p)
    keep = zm.qualifying_row_groups(zm.Footer(pf.metadata, pf.schema_arrow), conjuncts)
    got = pf.read() if keep is None else (
        pf.read_row_groups(keep) if keep else t.schema.empty_table()
    )
    assert zm.filter_table(got, conjuncts).equals(zm.filter_table(t, conjuncts))


def test_int64_bounds_stay_exact_past_2_53():
    """float64 canonicalization would round 2^53+3 up and prune a file
    that holds a matching row; int bounds must stay exact."""
    big = 2**53 + 3
    t = pa.table({"x": pa.array([big], pa.int64())})
    s = zm.table_stats(t)
    assert s["x"]["min"] == big and isinstance(s["x"]["min"], int)
    # the row matches x < big+1; pruning must keep the file
    assert zm.file_can_match(s, [("x", "<", big + 1)])
    assert not zm.file_can_match(s, [("x", ">", big)])
    assert zm.filter_table(t, [("x", "<", big + 1)]).num_rows == 1


def test_in_predicate_sql_null_semantics():
    t = pa.table({"x": pa.array([1, None, 3], pa.int64())})
    # SQL: x IN (1, NULL) matches only x=1, never the NULL row
    got = zm.filter_table(t, [("x", "in", [1, None])])
    assert got.column("x").to_pylist() == [1]
    # x IN (NULL) / empty list matches nothing — and prunes everything
    assert zm.filter_table(t, [("x", "in", [None])]).num_rows == 0
    assert not zm.file_can_match(zm.table_stats(t), [("x", "in", [None])])
    # a scalar 'in' value fails validation loudly, not deep in a task
    with pytest.raises(ValueError, match="'in' needs a list"):
        zm.validate_predicate([("x", "in", 5)])
