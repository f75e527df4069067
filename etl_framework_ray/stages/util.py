"""Stage-deployment helpers shared across operator modules."""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa


def in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Vectorized membership test against a SORTED array (the broadcast
    id-set pattern: ``ray.put`` one sorted int64 array once, probe with
    two ops per batch instead of Python-set lookups)."""
    if not len(sorted_arr):
        return np.zeros(len(values), dtype=bool)
    pos = np.clip(np.searchsorted(sorted_arr, values), 0, len(sorted_arr) - 1)
    return sorted_arr[pos] == values


class BatchCounts:
    """Streaming per-batch metric counts WITHOUT a per-batch actor RPC.

    A per-batch actor round-trip (``ray.get(counter.add.remote(...))``)
    would block every staging batch and serialize all writers through one
    actor. This sink instead appends one JSON line per batch to a
    per-worker-process file under ``dir_path`` — an
    open-append-close per BATCH (not per row), ~10 µs against millisecond
    batches, no cross-task serialization — and the driver sums the files
    after the pipeline's execution completes. (An earlier draft cached the
    handle per (dir, pid) in module state; every job creates a fresh sink
    dir, so reused Ray workers accumulated one leaked fd per job — the
    cache was an unbounded fd leak, not a win.)

    Delivery contract: at-least-once under task retry (a retried task
    re-appends its batches) — audit/monitoring counts, never correctness
    decisions. On a multi-node cluster
    ``dir_path`` must live on shared storage, the same assumption the DQ
    failure-detail writer already makes.
    """

    def __init__(self, dir_path: str):
        self.dir = dir_path
        os.makedirs(dir_path, exist_ok=True)

    def add(self, counts: dict) -> None:
        path = os.path.join(self.dir, f"counts-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(counts, separators=(",", ":")) + "\n")

    def collect(self) -> dict:
        out: dict = {}
        for path in glob.glob(os.path.join(self.dir, "counts-*.jsonl")):
            with open(path) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    for k, v in json.loads(line).items():
                        out[k] = out.get(k, 0) + v
        return out

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def null_safe_from_pandas(series, t: pa.DataType) -> pa.Array:
    """``pa.Array.from_pandas(series, type=t)`` that also accepts Arrow's
    ``null`` type (an all-NULL object column infers as ``null``;
    from_pandas raises NumPyConverter-not-implemented for it)."""
    if pa.types.is_null(t):
        return pa.nulls(len(series), t)
    return pa.Array.from_pandas(series, type=t)


def cached_stage(cls, *args, **kwargs):
    """Wrap a callable-class stage as a plain ``map_batches`` function with
    lazy once-per-worker construction.

    Decision rule (measured on this engine): an autoscaling actor pool
    costs ~2 s of spin-up per pipeline; use it only when the per-instance
    state is genuinely expensive (model weights, media codec contexts —
    e.g. ``multimodal.ImageDecoder``). Stages whose state is rebuilt in
    microseconds (hash params, stopword tables, compiled regexes) run as
    stateless TASKS with this wrapper — same once-per-worker init, no
    pool startup, and the streaming executor schedules them like any map.
    """
    inst = None

    def fn(batch: pa.Table) -> pa.Table:
        nonlocal inst
        if inst is None:
            inst = cls(*args, **kwargs)
        return inst(batch)

    return fn
