"""Unit tests for the widening lattice, schema helpers, and stable hashing.
No Ray."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etl_framework_ray.functions.hashing import partition_ids, stable_hash_array
from etl_framework_ray.state.schema import (
    is_widening,
    merge_schemas,
    normalize_table,
    schema_from_b64,
    schema_to_b64,
    widen,
)


def test_widening_lattice():
    assert is_widening(pa.int16(), pa.int32())
    assert is_widening(pa.int32(), pa.int64())
    assert not is_widening(pa.int64(), pa.int32())
    assert is_widening(pa.float32(), pa.float64())
    # int→float only when lossless: float32 mantissa=24 bits, float64=53
    assert is_widening(pa.int16(), pa.float32())
    assert not is_widening(pa.int32(), pa.float32())
    assert is_widening(pa.int32(), pa.float64())
    assert not is_widening(pa.int64(), pa.float64())  # would corrupt large ints
    with pytest.raises(TypeError):
        widen(pa.int64(), pa.float64())
    assert is_widening(pa.string(), pa.large_string())
    assert not is_widening(pa.large_string(), pa.string())
    assert widen(pa.int16(), pa.int64()) == pa.int64()
    assert widen(pa.int64(), pa.int16()) == pa.int64()  # symmetric
    with pytest.raises(TypeError):
        widen(pa.string(), pa.int32())


def test_merge_schemas_appends_and_widens():
    a = pa.schema([pa.field("x", pa.int32()), pa.field("y", pa.string())])
    b = pa.schema([pa.field("x", pa.int64()), pa.field("z", pa.bool_())])
    merged, changes = merge_schemas(a, b)
    assert merged.names == ["x", "y", "z"]
    assert merged.field("x").type == pa.int64()
    assert merged.field("z").nullable
    assert len(changes) == 2


def test_normalize_table_roundtrip():
    target = pa.schema(
        [pa.field("a", pa.int64()), pa.field("b", pa.large_string()), pa.field("c", pa.float64())]
    )
    t = pa.table({"b": pa.array(["x", None], pa.string()), "a": pa.array([1, 2], pa.int32())})
    out = normalize_table(t, target)
    assert out.schema.equals(target)
    assert out.column("c").null_count == 2  # missing column → nulls
    assert out.column("a").type == pa.int64()


def _normalize_by_rebuild(tbl: pa.Table, schema: pa.Schema) -> pa.Table:
    """``normalize_table`` before its fast path: every call rebuilds."""
    cols = []
    for f in schema:
        if f.name in tbl.schema.names:
            col = tbl.column(f.name)
            cols.append(col if col.type.equals(f.type) else col.cast(f.type))
        else:
            cols.append(pa.nulls(tbl.num_rows, f.type))
    return pa.Table.from_arrays(cols, schema=schema)


#: (name, target type, a narrower type it widens from, values)
_NORMALIZE_FIELDS = (
    ("k", pa.int64(), pa.int32(), lambda i: i),
    ("s", pa.large_string(), pa.string(), lambda i: f"v{i}" if i % 3 else None),
    ("x", pa.float64(), pa.float32(), lambda i: i / 4),
)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.lists(st.sampled_from(["same", "same", "widened", "missing"]), min_size=3, max_size=3),
    field_meta=st.lists(st.booleans(), min_size=3, max_size=3),
    input_field_meta=st.lists(st.booleans(), min_size=3, max_size=3),
    schema_meta=st.sampled_from([None, {b"origin": b"lake"}, {b"origin": b"other"}]),
    input_schema_meta=st.sampled_from([None, {b"origin": b"lake"}, {b"origin": b"other"}]),
    rows=st.integers(0, 9),
    chunks=st.integers(1, 3),
)
# the schema already matches; then only field, then only schema metadata differs
@example(["same"] * 3, [True, False, True], [True, False, True], None, None, 5, 2)
@example(["same"] * 3, [True, False, True], [True, True, True], None, None, 5, 2)
@example(["same"] * 3, [False] * 3, [False] * 3, {b"origin": b"lake"}, None, 5, 2)
def test_normalize_table_fast_path_matches_rebuild(
    shape, field_meta, input_field_meta, schema_meta, input_schema_meta, rows, chunks
):
    """The fast path returns exactly what the rebuild returned, for
    matching, widened, missing-column and metadata-differing inputs, and
    returns the input itself when its schema already is the target."""
    meta = {b"comment": b"c"}
    target = pa.schema(
        [pa.field(n, t, metadata=meta if m else None) for (n, t, _w, _v), m in zip(_NORMALIZE_FIELDS, field_meta)],
        metadata=schema_meta,
    )
    fields, arrays = [], []
    for (name, typ, narrow, value), how, m in zip(_NORMALIZE_FIELDS, shape, input_field_meta):
        if how == "missing":
            continue
        t = typ if how == "same" else narrow
        fields.append(pa.field(name, t, metadata=meta if m else None))
        arrays.append(pa.chunked_array([pa.array([value(i) for i in range(rows)], t)] * chunks))
    tbl = pa.Table.from_arrays(arrays, schema=pa.schema(fields, metadata=input_schema_meta))
    got = normalize_table(tbl, target)
    want = _normalize_by_rebuild(tbl, target)
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.equals(want, check_metadata=True)
    if tbl.schema.equals(target, check_metadata=True):
        assert got is tbl


def test_schema_b64_roundtrip():
    s = pa.schema([pa.field("k", pa.int32(), nullable=False, metadata={b"comment": b"hi"})])
    assert schema_from_b64(schema_to_b64(s)).equals(s, check_metadata=True)


def test_stable_hash_deterministic_and_spread():
    vals = np.array([f"conv-{i:06d}" for i in range(1000)], dtype=object)
    h1 = stable_hash_array(vals)
    h2 = stable_hash_array(vals)
    assert (h1 == h2).all()  # deterministic (fixed siphash key)
    pid = partition_ids(pa.array(list(vals)), 16)
    counts = np.bincount(pid, minlength=16)
    assert counts.min() > 0 and counts.max() < 3 * counts.mean()  # reasonable spread
    # salt shifts assignments
    salted = partition_ids(pa.array(list(vals)), 16, salt=np.ones(1000, dtype=np.int64))
    assert (pid != salted).any()


def test_manifest_schema_decodes_once_and_sees_a_change_at_once():
    """``Manifest.schema`` decodes ``schema_b64`` once per string, and a
    schema change — through ``set_schema`` or a new ``schema_b64`` — is
    seen by the next access."""
    from etl_framework_ray.state.manifest import Manifest

    a = pa.schema([pa.field("k", pa.int32(), nullable=False)])
    b = pa.schema([pa.field("k", pa.int64(), nullable=False), pa.field("v", pa.string())])
    man = Manifest(table="t", version=1, num_partitions=1, schema_b64=schema_to_b64(a))
    first = man.schema
    assert first.equals(a) and man.schema is first
    man.set_schema(b)
    assert man.schema.equals(b)
    assert man.schema is man.schema
    man.schema_b64 = schema_to_b64(a)
    assert man.schema.equals(a)
    copy = Manifest.from_json(man.to_json())
    assert copy.schema.equals(a)
