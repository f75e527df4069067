"""Downstream replica of a maintained view, applied from its changefeed.

``ReplicaTable`` is the RECEIVING end of view replication: the view emits
per-conversation REPLACE deltas (``emit_changes=True``), a
``ViewDeltaConsumer`` transports them as exactly-once version-range
windows, and this class applies each window into a durable
hash-partitioned parquet table — the "other cluster's" copy of the view,
kept fresh without ever reading the view itself.

Apply semantics mirror the delta contract: for every conversation in the
window, drop its existing replica rows, then insert the window's ``U``
rows (``D`` rows carry no payload and just drop). Application is
idempotent by version: a window whose end version is ≤ the replica's
committed version is a no-op, so crash/retry and duplicate delivery are
safe — the transport's exactly-once plus this guard give end-to-end
exactly-once application.

Scale shape: a window is O(touched conversations); rows route to
``hash(conv_id) % P`` (the engine's own ``partition_ids``), routed ONCE
via a stable sort + zero-copy slices, and ONE Ray task per touched
partition rewrites that partition's file — untouched partitions carry
forward by reference, exactly like the view's own splice. A seed window
("replace everything") runs the same per-partition task fan-out with no
carry-forward. The directory is the maintained view's own store
(``incremental._load_dir`` / ``_commit_dir`` / ``_audit_dir`` /
``_read_dir``): commit is an atomic manifest swap; superseded files and
crash-orphaned ``.tmp`` residue are pruned after it. ``num_partitions``
and the schema persist in the manifest — re-creating the replica with a
different partition count fails loud instead of mis-routing rows.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..functions.hashing import partition_ids
from ..state.schema import schema_from_b64, schema_to_b64
from .incremental import (
    _audit_dir,
    _commit_dir,
    _load_dir,
    _read_dir,
    _read_dir_arrow,
    _splice_results,
)

_MANIFEST = "_replica_manifest.json"


@ray.remote
def _splice_task(rows, pid: int, old_file: str | None, out: str) -> dict:
    """Rewrite ONE replica partition: drop every conversation present in
    the window's rows for this pid, insert its U rows, carry the rest of
    the old file forward (``old_file=None`` for seeds). Raw task (not a
    Dataset stage): the fan-out is O(touched partitions) driver-listed
    slices."""
    from .cdc import _single_threaded_arrow, _write_data_file

    _single_threaded_arrow()
    import pyarrow.compute as pc

    convs = pc.unique(rows.column("conv_id"))
    ins = rows.filter(pc.equal(rows.column("op"), "U")).drop_columns(["op", "version"])
    pieces = [ins]
    if old_file:
        old = pq.read_table(old_file)
        kept = old.filter(pc.invert(pc.is_in(old.column("conv_id"), value_set=convs)))
        if kept.num_rows:
            pieces.append(kept)
    t = pa.concat_tables(pieces, promote_options="permissive").sort_by("conv_id")
    _write_data_file(t, out)
    return {"pid": pid, "rows": t.num_rows, "path": out}


class ReplicaTable:
    """One instance per replica directory; durable state (manifest +
    partition files) lives in the directory. Single applier per replica,
    matching the view's single-writer contract."""

    def __init__(self, out_dir: str, num_partitions: int = 16):
        self.out_dir = out_dir
        self.num_partitions = int(num_partitions)
        os.makedirs(out_dir, exist_ok=True)
        state = self._load_state()
        if state is not None and int(state["num_partitions"]) != self.num_partitions:
            raise RuntimeError(
                f"replica at {out_dir!r} was built with "
                f"{state['num_partitions']} partitions; re-creating it with "
                f"{self.num_partitions} would mis-route every conversation — "
                "use the original count (it persists in the manifest)"
            )

    # -- durable state: the view's partition-directory store -------------
    def _load_state(self) -> dict | None:
        return _load_dir(self.out_dir, _MANIFEST)

    def _commit(self, state: dict) -> None:
        _commit_dir(self.out_dir, _MANIFEST, state, 0.0)

    @property
    def version(self) -> int:
        state = self._load_state()
        return int(state["version"]) if state else 0

    @staticmethod
    def _schema(state: dict | None) -> pa.Schema:
        return schema_from_b64(state["schema_b64"]) if state else pa.schema([])

    # -- routing -------------------------------------------------------
    def _route(self, table: pa.Table) -> list[tuple[int, pa.Table]]:
        """Route rows to their partitions ONCE: stable sort by pid, then
        zero-copy slices — no per-partition refilter of the whole table."""
        pids = partition_ids(table.column("conv_id"), self.num_partitions)
        order = np.argsort(pids, kind="stable")
        sorted_t = table.take(pa.array(order))
        sp = pids[order]
        uniq, starts = np.unique(sp, return_index=True)
        bounds = list(starts) + [len(sp)]
        return [
            (int(uniq[i]), sorted_t.slice(bounds[i], bounds[i + 1] - bounds[i]))
            for i in range(len(uniq))
        ]

    def _fan_out(
        self, parts: list[tuple[int, pa.Table]], old_files: dict[str, str], version: int
    ) -> list[dict]:
        refs = [
            _splice_task.remote(
                ray.put(part),  # O(rows in this pid's slice)
                pid,
                old_files.get(str(pid)),
                os.path.join(
                    self.out_dir,
                    f"part-{pid:05d}-v{version:06d}-{uuid.uuid4().hex[:8]}.parquet",
                ),
            )
            for pid, part in parts
        ]
        return ray.get(refs)

    @staticmethod
    def _as_delta(table: pa.Table, version: int) -> pa.Table:
        """Wrap a full-state table in the delta shape (all rows ``U``) so
        seeds and deltas run the same splice task."""
        return pa.table(
            {
                "op": pa.array(["U"] * table.num_rows, pa.string()),
                "version": pa.array([version] * table.num_rows, pa.int64()),
                **{c: table.column(c) for c in table.column_names},
            }
        )

    # -- public API ----------------------------------------------------
    def seed(self, table: pa.Table, version: int, schema: pa.Schema | None = None) -> dict:
        """Full resync from a seed window ('replace everything'): the
        view's complete state at ``version`` replaces the replica. An
        EMPTY seed (a never-advanced or fully-deleted view) is valid and
        resyncs to empty — pass ``schema`` to give the empty replica one
        (an empty window directory carries none)."""
        state = self._load_state()
        if state is not None and version <= int(state["version"]):
            return {"applied": False, "version": int(state["version"])}
        sch = table.schema if table.num_rows or table.schema.names else schema
        files: dict[str, str] = {}
        if table.num_rows:
            results = self._fan_out(self._route(self._as_delta(table, version)), {}, version)
            _splice_results(files, results)
        self._commit(
            {
                "version": int(version),
                "files": files,
                "num_partitions": self.num_partitions,
                "schema_b64": schema_to_b64(sch if sch is not None else pa.schema([])),
            }
        )
        return {"applied": True, "version": int(version), "rows": table.num_rows}

    def apply(self, delta: pa.Table, version: int) -> dict:
        """Apply one changefeed window (netted ``op``/``version`` rows up
        to ``version``). Idempotent: a window ending at or before the
        replica's committed version is a no-op."""
        state = self._load_state()
        if state is None:
            raise RuntimeError("replica has no seed; apply a seed window first")
        if version <= int(state["version"]):
            return {"applied": False, "version": int(state["version"])}
        files = dict(state["files"])
        new_state = dict(state, version=int(version))
        if delta.num_rows == 0:
            self._commit(new_state)
            return {"applied": True, "version": int(version), "rows": 0}

        results = self._fan_out(self._route(delta), files, version)
        touched_rows = _splice_results(files, results)
        # the payload schema can evolve with the window (view kernels are
        # stable, but keep the recorded schema current when rows exist)
        if touched_rows:
            new_state["schema_b64"] = schema_to_b64(
                pq.read_schema(next(iter(files.values()))) if files else pa.schema([])
            )
        new_state["files"] = files
        self._commit(new_state)
        return {
            "applied": True,
            "version": int(version),
            "rows": touched_rows,
            "touched_partitions": len(results),
        }

    def fsck(self) -> dict:
        """Consistency audit of the replica directory (same shape as
        :meth:`CDCEngine.fsck` / the view's): listed files exist with
        readable footers and their rows hash-route to their partition.
        Driver-side; replica manifests are small."""
        n, issues = _audit_dir(self.out_dir, self._load_state(), "conv_id", "")
        return {"ok": not issues, "files_checked": n, "issues": issues}

    def read(self) -> "ray.data.Dataset":
        state = self._load_state()
        return _read_dir(state, self._schema(state))

    def read_arrow(self) -> pa.Table:
        state = self._load_state()
        return _read_dir_arrow(state, self._schema(state), ["conv_id"])

    def follow(self, consumer) -> dict:
        """Drain a :class:`~.consumer.ViewDeltaConsumer`'s sink into the
        replica: apply every committed window past the replica's version
        in range order (seeds as full resync). The one-call transport →
        apply loop for a replica living beside the sink."""
        from .consumer import _WINDOW_RE

        windows = []
        for d in os.listdir(consumer.out_dir):
            m = _WINDOW_RE.match(d)
            if m and not m.group(4):  # committed dirs only, never .tmp residue
                windows.append((int(m.group(1)), int(m.group(2)), bool(m.group(3)), d))
        applied = 0
        for _lo, hi, is_seed, name in sorted(windows):
            if hi <= self.version and not (is_seed and self.version == 0):
                continue
            t = consumer.read_window(name)
            if is_seed:
                view = getattr(consumer, "view", None)
                r = self.seed(t, hi, schema=getattr(view, "schema", None))
            else:
                r = self.apply(t, hi)
            applied += 1 if r["applied"] else 0
        return {"windows_applied": applied, "version": self.version}
