"""Stable, vectorized hashing helpers, and THE key→partition rule.

Partition routing must be deterministic across processes and Ray workers
(``PYTHONHASHSEED`` makes builtin ``hash`` unusable). We use pandas'
SipHash-based ``hash_array`` (fixed default key → stable across
processes/machines) applied to numpy arrays — vectorized, no per-row Python.

Only this module knows where a row lives: ``hash(key0) % P``, or for a
leading key salted with fanout ``f``, ``(hash(key0) + s) % P`` with
``s = hash(key1) % f``. The manifest stores ``salt_map`` keys as JSON
strings (:func:`decode_salt_map`). Rows route through
:func:`salted_partition_ids`, keys fan out through :func:`key_partitions`
and views find a salted key's partitions through :func:`salted_key_homes`.

Identifier-hash precedent in the reference: BLAKE2b-truncated constraint
names (/root/reference/src/delta_engine/constraints/naming.py:32-61).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _hash_objects(np_arr: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(np_arr.astype(object), categorize=False)


def is_binary_like(t: pa.DataType) -> bool:
    """True for the string and binary types (both offset widths)."""
    return (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    )


#: the hash of a NULL string: ``to_pandas`` makes it ``None``
_NULL_HASH = _hash_objects(np.array([None], dtype=object))[0]


def _hash_distinct(arr: pa.Array) -> np.ndarray:
    """Hash each distinct value of a string/binary array (or of a
    dictionary array of them) once, then gather per row. A NULL row gets
    the hash of ``None``, the value a NULL string takes in the per-row
    path; a dictionary array hashes as its decoded values."""
    d = arr if pa.types.is_dictionary(arr.type) else pc.dictionary_encode(arr)
    h = np.append(_hash_objects(d.dictionary.to_numpy(zero_copy_only=False)), _NULL_HASH)
    idx = d.indices.fill_null(len(d.dictionary)) if d.indices.null_count else d.indices
    return h[idx.to_numpy(zero_copy_only=False)]


def stable_hash_array(arr: pa.Array | pa.ChunkedArray | np.ndarray) -> np.ndarray:
    """uint64 SipHash per element; deterministic across processes.

    String and binary arrays, and dictionary arrays of them, hash each
    distinct value once (:func:`_hash_distinct`): a key column repeats
    its values, and routing ids must stay bit-identical to hashing every
    row, since every stored partition depends on them."""
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        t = arr.type
        if is_binary_like(t) or (pa.types.is_dictionary(t) and is_binary_like(t.value_type)):
            chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
            return np.concatenate([np.empty(0, np.uint64), *map(_hash_distinct, chunks)])
        arr = arr.to_pandas().to_numpy()
    if arr.dtype == object or arr.dtype.kind in ("U", "S"):
        return _hash_objects(arr)
    return pd.util.hash_array(arr, categorize=False)


def partition_ids(
    key: pa.Array | pa.ChunkedArray, num_partitions: int, salt: np.ndarray | None = None
) -> np.ndarray:
    """Map a key column to int64 partition ids in [0, num_partitions).

    ``salt`` (optional int array, same length) is added before the modulo so
    hot keys can be fanned out across sub-partitions (skew handling,
    SURVEY.md §7.4).
    """
    h = stable_hash_array(key)
    if salt is not None:
        h = h + salt.astype(np.uint64)
    return (h % np.uint64(num_partitions)).astype(np.int64)


def route_columns(key_cols, column_names) -> tuple[str, ...]:
    """THE routing columns of a table: its primary key, or the first
    declared column of a PK-less table (an append-only audit log). Rows
    route by the first of them, salted by the second."""
    return tuple(key_cols) or (column_names[0],)


def coerce_keys(vals, key_type: pa.DataType) -> pa.Array:
    """Leading-key values as an array of the key column's type (the value
    type of a dictionary column). CLI / JSON callers and the manifest's
    ``salt_map`` pass numeric keys as strings."""
    if pa.types.is_dictionary(key_type):
        key_type = key_type.value_type
    vals = list(vals)
    try:
        return pa.array(vals, key_type)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        try:
            if pa.types.is_integer(key_type):
                vals = [int(v) for v in vals]
            elif pa.types.is_floating(key_type):
                vals = [float(v) for v in vals]
            return pa.array(vals, key_type)
        except ValueError as e:
            raise ValueError(f"key(s) {vals!r} not coercible to key type {key_type}") from e


def decode_salt_map(salt_map: dict, key_type: pa.DataType) -> dict:
    """The committed ``salt_map`` (JSON-string key → fanout) as ``{key
    value in the key column's type: fanout}``."""
    if not salt_map:
        return {}
    keys = coerce_keys(list(salt_map), key_type).to_pylist()
    return dict(zip(keys, map(int, salt_map.values())))


def encode_salt_map(entries: dict) -> dict:
    """The manifest form of decoded salt entries: JSON-string keys."""
    return {str(v): int(f) for v, f in entries.items()}


def _fanouts(key: pa.Array | pa.ChunkedArray, salt_map: dict) -> np.ndarray | None:
    """Per value of ``key``, its salt fanout (0 where unsalted), or None
    when no value is salted."""
    decoded = decode_salt_map(salt_map, key.type)
    if not decoded:
        return None
    vt = key.type.value_type if pa.types.is_dictionary(key.type) else key.type
    slot = pc.index_in(key, value_set=pa.array(list(decoded), vt)).fill_null(len(decoded))
    fan = np.append(np.fromiter(decoded.values(), np.uint64, len(decoded)), np.uint64(0))
    out = fan[np.asarray(slot)]
    return out if out.any() else None


def _fanout(hv: np.uint64, fanout, num_partitions: int) -> list[int]:
    """A salted key's partitions, ``(hash + s) % P`` for ``s < fanout``,
    home (``s = 0``) first."""
    P = np.uint64(num_partitions)
    return [int((hv + np.uint64(s)) % P) for s in range(min(int(fanout), num_partitions))]


def salted_partition_ids(
    batch: pa.Table,
    key_cols: tuple[str, ...],
    num_partitions: int,
    salt_map: dict | None = None,
) -> np.ndarray:
    """THE row router, with per-hot-key salting (SURVEY.md §7.4).

    Rows route by ``hash(key0) % P`` as usual, EXCEPT rows whose leading
    key value is salted in ``salt_map`` (value → fanout): those add a salt
    derived from the SECOND routing column — so one hot entity fans
    out over ``fanout`` partitions while every full PK still maps to
    exactly one partition (the invariant per-key LWW and merge-on-read
    depend on). Requires a composite PK; single-column-PK tables cannot
    skew past one live row per key and never need salting."""
    key0 = batch.column(key_cols[0])
    if not salt_map or len(key_cols) < 2:
        return partition_ids(key0, num_partitions)
    fan = _fanouts(key0, salt_map)
    if fan is None:
        return partition_ids(key0, num_partitions)
    hit = fan > 0
    salt = np.zeros(len(fan), dtype=np.uint64)
    salt[hit] = stable_hash_array(batch.column(key_cols[1]))[hit] % fan[hit]
    return partition_ids(key0, num_partitions, salt=salt)


def key_partitions(keys: pa.Array, num_partitions: int, salt_map: dict | None = None) -> dict:
    """THE key→partitions fanout for leading-key values: ``{pid: sorted
    key values}`` in pid order. A salted key is listed under every
    partition its rows may live on; any other key under its home."""
    h = stable_hash_array(keys)
    fan = _fanouts(keys, salt_map) if salt_map else None
    homes = (h % np.uint64(num_partitions)).tolist()
    per_pid: dict[int, set] = {}
    for i, v in enumerate(keys.to_pylist()):
        salted = fan is not None and fan[i]
        for pid in _fanout(h[i], fan[i], num_partitions) if salted else (homes[i],):
            per_pid.setdefault(pid, set()).add(v)
    return {pid: sorted(per_pid[pid]) for pid in sorted(per_pid)}


def salted_key_homes(salt_map: dict, key_type: pa.DataType, num_partitions: int) -> dict:
    """A salted key's partitions as a view sees them: its rows fan out
    over :func:`key_partitions`' pids while its VIEW row lives with its
    home ``hash % P``. Returns ``{home pid: [(key hash, fanout pids other
    than home)]}`` for every key in ``salt_map``."""
    decoded = decode_salt_map(salt_map, key_type)
    if not decoded:
        return {}
    out: dict[int, list[tuple[int, list[int]]]] = {}
    for hv, fanout in zip(stable_hash_array(pa.array(list(decoded), key_type)), decoded.values()):
        home, *others = _fanout(hv, fanout, num_partitions)
        out.setdefault(home, []).append((int(hv), sorted(others)))
    return out
