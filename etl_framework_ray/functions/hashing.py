"""Stable, vectorized hashing helpers.

Partition routing must be deterministic across processes and Ray workers
(``PYTHONHASHSEED`` makes builtin ``hash`` unusable). We use pandas'
SipHash-based ``hash_array`` (fixed default key → stable across
processes/machines) applied to numpy arrays — vectorized, no per-row Python.

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


def salted_partition_ids(
    batch: pa.Table,
    key_cols: tuple[str, ...],
    num_partitions: int,
    salt_map: dict | None = None,
) -> np.ndarray:
    """Partition routing with per-hot-key salting (SURVEY.md §7.4).

    Rows route by ``hash(key0) % P`` as usual, EXCEPT rows whose leading
    key value appears in ``salt_map`` (value → fanout): those add a salt
    derived from the SECOND primary-key column — so one hot entity fans
    out over ``fanout`` partitions while every full PK still maps to
    exactly one partition (the invariant per-key LWW and merge-on-read
    depend on). Requires a composite PK; single-column-PK tables cannot
    skew past one live row per key and never need salting."""
    key0 = batch.column(key_cols[0])
    if not salt_map or len(key_cols) < 2:
        return partition_ids(key0, num_partitions)
    k0 = key0.to_pandas().to_numpy()
    salt = np.zeros(len(k0), dtype=np.uint64)
    sub: np.ndarray | None = None
    for val, fanout in salt_map.items():
        # salt-map keys round-trip through manifest JSON as strings;
        # coerce back to the key column's dtype for non-string keys
        if k0.dtype.kind in "iuf" and isinstance(val, str):
            try:
                val = k0.dtype.type(val)
            except ValueError:
                continue
        mask = k0 == val
        if mask.any():
            if sub is None:
                sub = stable_hash_array(batch.column(key_cols[1]))
            salt[mask] = sub[mask] % np.uint64(int(fanout))
    if not salt.any():
        return partition_ids(key0, num_partitions)
    return partition_ids(key0, num_partitions, salt=salt)
