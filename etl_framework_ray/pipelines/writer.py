"""Lake table writer: overwrite / append / MERGE — the reference writer API.

Port of ``DeltaWriter`` semantics (/root/reference/src/models/writer.py):

- ``overwrite`` — DQ gate first (ERROR aborts before any file lands,
  writer.py:31-36), project to the declared column order (writer.py:37),
  replace the whole table atomically (manifest swap instead of Delta ACID).
- ``merge`` — PK upsert: ``whenMatchedUpdateAll + whenNotMatchedInsertAll``
  (writer.py:42-67); errors if the spec declares no primary key
  (writer.py:48-51). Implemented by synthesizing a changelog segment from
  the source rows (op='U', next LSN range — newer LSN ⇒ "source wins")
  and running it through the CDC engine's exactly-once apply, so MERGE
  inherits partitioned execution, idempotent retries and lineage for free.
- ``append`` — audit-log append for PK-less tables
  (/root/reference/src/models/data_quality_evaluator.py:67-68): new delta
  files join the manifest; merge-on-read concatenates (no LWW).

All tables written here share the CDC lake layout, so ``CDCEngine.snapshot``
reads any of them.
"""

from __future__ import annotations

import glob
import os
import re

#: staged segment file (group 1 = lo LSN) or its in-flight ``.tmp-<pid>``;
#: {12,} because '{:012d}' is a minimum width — LSNs past 10^12 grow digits
_SEG_FILE_RE = re.compile(r"^segment-(\d{12,})-\d{12,}\.parquet(\..+)?$")

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..context import RunContext
from ..functions.hashing import route_columns, salted_partition_ids
from ..functions.quality import DQGate
from ..sources.changelog import Epoch, Segment
from ..state.manifest import Manifest, PartitionState
from ..state.schema import DELETED_COL, LSN_COL, TableSpec
from ..state import zonemap as zone
from .cdc import CDCEngine, _single_threaded_arrow, lake_parquet_args


@ray.remote
def _block_len_task(block) -> int:
    return len(block) if not hasattr(block, "num_rows") else block.num_rows


@ray.remote
def _distinct_keys_task(block, key_cols: list) -> pa.Table:
    """Distinct key tuples of one source block — O(block) work, O(distinct
    keys) output; the driver only ever sees the deduped union."""
    import pandas as pd

    _single_threaded_arrow()
    t = pa.Table.from_pandas(block, preserve_index=False) if isinstance(block, pd.DataFrame) else block
    df = t.select(key_cols).to_pandas().drop_duplicates()
    return pa.Table.from_pandas(df.reset_index(drop=True), preserve_index=False)


@ray.remote
def _stage_segment_task(
    block,
    lo: int,
    op: str,
    names: list[str],
    dtypes: dict,
    ts_stamp,
    key_ts,
    checks,
    key_cols: tuple,
    table_name: str,
    rc: dict,
    failure_dir: str,
    run_id: str,
    seg_dir: str,
) -> dict:
    """Stage ONE source block as a changelog segment file: run the DQ
    checks over the block, normalize onto the declared columns, stamp the
    block's dense LSN sub-range ``[lo, lo+rows)`` and write the segment
    atomically. Returns the segment meta + per-rule failure counts (the
    driver aggregates counts and renders the gate verdict BEFORE any
    staged file joins an epoch)."""
    import pandas as pd

    from ..functions.quality import _write_failure_file, evaluate_batch_detail

    _single_threaded_arrow()
    t = pa.Table.from_pandas(block, preserve_index=False) if isinstance(block, pd.DataFrame) else block
    n = t.num_rows
    counts: dict[str, int] = {}
    if n and checks:
        counts, detail = evaluate_batch_detail(t, checks, key_cols, table_name, rc)
        if detail.num_rows:
            _write_failure_file(failure_dir, run_id, detail)
    if n == 0:
        return {"path": None, "lo": lo, "hi": lo - 1, "rows": 0, "counts": counts}
    cols = {
        "lsn": pa.array(range(lo, lo + n), pa.int64()),
        "op": pa.array([op] * n, pa.string()),
    }
    for name in names:
        if name in t.column_names:
            cols[name] = t.column(name)
        elif name == "ts":
            if key_ts is not None and key_ts.num_rows:
                # tombstone stamping: per key, max(now, lake's max observed
                # event ts for the key) — the tombstone must win (ts,lsn)
                # LWW against EVERYTHING committed for its key, including
                # future-dated events wall-clock "now" would lose to. Ties
                # go to the tombstone (its LSN is above the watermark).
                import numpy as np

                kc = list(key_cols)
                m = t.select(kc).to_pandas().merge(key_ts.to_pandas(), on=kc, how="left")
                stamped = np.maximum(
                    m["ts"].fillna(pd.Timestamp(ts_stamp)).to_numpy(),
                    np.datetime64(ts_stamp),
                )
                cols[name] = pa.array(stamped).cast(dtypes[name])
            else:
                cols[name] = pa.array([ts_stamp] * n, dtypes[name])
        else:
            cols[name] = pa.nulls(n, dtypes[name])
    hi = lo + n - 1
    path = os.path.join(seg_dir, f"segment-{lo:012d}-{hi:012d}.parquet")
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(pa.table(cols), tmp)
    os.replace(tmp, path)
    return {"path": path, "lo": lo, "hi": hi, "rows": n, "counts": counts}


def _add_staged(man: Manifest, staged: dict[int, list[tuple[str, dict]]]) -> None:
    """Add staged ``(path, zone stats)`` files to ``man``'s partitions."""
    for pid, files in staged.items():
        st = man.partitions.setdefault(pid, PartitionState())
        for f, zstats in files:
            st.files.append(f)
            if zstats:
                st.file_stats[f] = zstats


class LakeWriter:
    def __init__(
        self,
        table_dir: str,
        spec: TableSpec,
        num_partitions: int = 16,
        run_context: RunContext | None = None,
    ):
        self.spec = spec
        self.engine = CDCEngine(
            table_dir, spec, num_partitions=num_partitions, run_context=run_context
        )
        self.run_context = self.engine.run_context

    @classmethod
    def from_engine(cls, engine: CDCEngine) -> "LakeWriter":
        """Wrap an EXISTING engine/table (shares its manifest state) —
        lets the writer surface (merge/delete/append) operate on a table
        a CDC replay owns without re-opening it."""
        w = cls.__new__(cls)
        w.spec = engine.spec
        w.engine = engine
        w.run_context = engine.run_context
        return w

    # ------------------------------------------------------------------
    def read(
        self,
        columns: list[str] | None = None,
        predicate: list | None = None,
        prune_stats: dict | None = None,
    ) -> "ray.data.Dataset":
        """Committed table as a Dataset in declared column order (S2).
        ``predicate``/``columns`` push down to the manifest zone maps —
        on a PK-less append table every conjunct skips FILES, the classic
        time-range-over-audit-log case (see CDCEngine.snapshot)."""
        return self.engine.snapshot(
            columns=columns, predicate=predicate, prune_stats=prune_stats
        )

    def optimize(
        self,
        sort_by: list[str] | None = None,
        target_file_rows: int | None = None,
        cluster: str = "sort",
    ) -> int:
        """Coalesce small files (OPTIMIZE). With ``sort_by`` on a PK-less
        append table, each partition is rewritten clustered by those
        columns and split into ``target_file_rows``-bounded files whose
        tight zone-map ranges make range predicates skip whole files —
        run it after many small appends to an audit/time-series table.
        ``cluster="zorder"`` interleaves ≥2 columns (Morton order) so
        predicates on ANY clustered column skip files, not just the first.
        Returns partitions rewritten."""
        return self.engine.compact(
            sort_by=sort_by, target_file_rows=target_file_rows, cluster=cluster
        )

    def _make_gate(self) -> DQGate:
        audit_dir = os.path.join(self.engine.table_dir, "_metrics", "dq")
        return DQGate(self.spec, audit_dir, self.run_context)

    # ------------------------------------------------------------------
    def overwrite(self, ds: "ray.data.Dataset") -> int:
        """Gate + project + replace the table in ONE source pass: DQ
        evaluation is fused into the staging map (``DQGate.wrap_stage``)
        and ``finalize`` raises BEFORE the manifest commit — the 2PC keeps
        the staged files invisible, so ERROR-before-visibility matches the
        reference's pre-pass gate (writer.py:31-40) at half the cost.
        Returns rows written."""
        staged, rows = self._stage_files(ds, "overwrite", 0)

        def replace_all(new_man: Manifest) -> None:
            new_man.partitions = {}
            _add_staged(new_man, staged)

        # overwrite is serializable fail-loud: a CommitConflict means
        # another writer changed the table since we read it — re-running
        # re-derives the source against the fresh state (auto-rebasing
        # would silently clobber the concurrent commit). Staged files stay
        # unreferenced; the graced vacuum spares a concurrent writer's
        # in-flight staging.
        new_man = self.engine._commit("overwrite", replace_all, rows=rows)
        self.engine.store.vacuum(new_man, grace_s=600.0)
        return rows

    def _stage_files(
        self, ds: "ray.data.Dataset", kind: str, lsn: int
    ) -> tuple[dict[int, list[tuple[str, dict]]], int]:
        """Stage ``ds`` for an overwrite or append: project onto the
        declared columns, stamp ``lsn``, route each row like the CDC map
        does (``hashing.salted_partition_ids`` over the table's routing
        columns and committed salt map) and write hive
        ``pid=`` Parquet files (``cdc.lake_parquet_args``)
        under a fresh ``data/<kind>-<uuid>`` directory, with the DQ gate
        fused into the same pass — ``finalize`` raises BEFORE any commit,
        so a failed gate leaves the files invisible. Returns, per
        partition, ``(path, rows, zone stats)`` of each staged file (zone
        maps from the footers the staging tasks wrote: a metadata-only
        read, since ``Dataset.write_parquet`` cannot hand task-side stats
        back), plus the total rows."""
        import uuid

        man = self.engine.manifest
        names = self.spec.column_names
        num_partitions = man.num_partitions
        route_cols = route_columns(self.spec.primary_key, names)[:2]
        salt_map = self.engine.salt_map

        def stage(batch: pa.Table) -> pa.Table:
            batch = batch.select(names)  # declared order (writer.py:37)
            n = batch.num_rows
            batch = batch.append_column(LSN_COL, pa.array([lsn] * n, pa.int64()))
            batch = batch.append_column(DELETED_COL, pa.array([False] * n, pa.bool_()))
            pid = salted_partition_ids(batch, route_cols, num_partitions, salt_map)
            return batch.append_column("pid", pa.array(pid, pa.int64()))

        gate = self._make_gate()
        fused, handle = gate.wrap_stage(stage)
        # unique per CALL: a version-keyed (or reused) name would collide
        # with — and the old rmtree hygiene could DELETE — live committed
        # files of a concurrent writer or of this writer's previous call;
        # aborted attempts are unreferenced and reclaimed by graced vacuum
        out_dir = os.path.join(self.engine.table_dir, "data", f"{kind}-{uuid.uuid4().hex[:12]}")
        try:
            ds.map_batches(fused, batch_format="pyarrow").write_parquet(
                out_dir, partition_cols=["pid"], **lake_parquet_args(man.schema)
            )
        except BaseException:
            gate.abort(handle)  # failed write must not leak the count sink
            raise
        gate.finalize(handle)  # DQError propagates pre-commit; staged files stay invisible

        staged: dict[int, list[tuple[str, dict]]] = {}
        rows = 0
        for f in sorted(glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True)):
            pid = int(f.split("pid=")[1].split(os.sep)[0])
            rows += pq.read_metadata(f).num_rows
            staged.setdefault(pid, []).append((f, zone.stats_from_parquet_meta(f, names)))
        return staged, rows

    # ------------------------------------------------------------------
    def _stage_changelog(self, ds: "ray.data.Dataset", op: str) -> Epoch | None:
        """Stage source rows as changelog segment files — DISTRIBUTED: the
        source executes into object-store blocks, each block gets a dense
        deterministic LSN sub-range (running offset over the block row
        counts, so duplicate source keys still resolve by block order),
        and one Ray task per block runs the DQ checks and writes its own
        segment file. Nothing but per-block row counts and failure COUNTS
        touch the driver, so a 100× merge source is bounded by worker
        memory, not driver memory, and gating runs in parallel.

        The gate verdict renders after staging but BEFORE the epoch exists:
        on ERROR every staged file is deleted and ``DQError`` raises, so a
        failed write leaves nothing behind and nothing visible (the files
        were never in any epoch or manifest)."""
        import time as _time

        from ..functions.quality import build_checks

        man = self.engine.manifest
        start = man.applied_lsn + 1
        names = self.spec.column_names
        seg_dir = os.path.join(self.engine.table_dir, "_writer_log")
        os.makedirs(seg_dir, exist_ok=True)
        # failed-attempt hygiene: a staging task that died at ray.get (or a
        # driver crash before the gate) leaves siblings' FINAL-named
        # segments and .tmp files behind. Applied segments always satisfy
        # hi ≤ applied_lsn, so any lo above the watermark (and any .tmp)
        # is residue from an attempt that never became an epoch — and a
        # rerun's blocks may split differently, so overlapping-range
        # garbage must go before new files land
        for f in glob.glob(os.path.join(seg_dir, "segment-*")):
            m = _SEG_FILE_RE.match(os.path.basename(f))
            if m and (m.group(2) or int(m.group(1)) > man.applied_lsn):
                os.remove(f)

        schema = ds.schema()
        schema_names = set(schema.names) if schema is not None else set()
        if op == "D":
            # deletes carry only the key (+ optional event time): payload
            # columns are nulled, a missing ts is stamped once with the
            # delete time so the tombstone wins (ts,lsn) LWW "now"
            required = list(self.spec.primary_key)
        elif op == "P":
            # partial images carry the key + ANY subset of payload columns
            # (absent = unchanged); an unknown column is a typo that would
            # otherwise silently mean "unchanged" — fail loud
            required = list(self.spec.primary_key)
            unknown = sorted(schema_names - set(names))
            if unknown:
                raise ValueError(
                    f"patch source has columns {unknown} not declared on "
                    f"table {self.spec.name!r}"
                )
            payload = [
                n
                for n in schema_names
                if n not in self.spec.primary_key and n != "ts"
            ]
            if not payload:
                raise ValueError(
                    "patch source sets no payload column — nothing to update"
                )
        else:
            required = names
        missing = [n for n in required if n not in schema_names]
        if missing:
            raise ValueError(
                f"source is missing declared columns {missing} of table {self.spec.name!r}"
            )
        ts_stamp = None
        if "ts" in names and "ts" not in schema_names:
            # only reachable for op='D'/'P' (full-image ops require every
            # declared column, enforced above): one wall-clock stamp for
            # the whole write, raised per key to the lake max below
            import datetime

            ts_stamp = datetime.datetime.now(datetime.timezone.utc).replace(tzinfo=None)
        gate = self._make_gate()
        # tombstones have no payload to validate — gating them against
        # payload rules would spuriously trip NOT NULL checks. Patches are
        # gated exactly on the columns they SET (absent columns are
        # "unchanged" — their rules judged the value that set them).
        checks = build_checks(self.spec) if op != "D" else []
        if op == "P":
            checks = [c for c in checks if c.column in schema_names]
        key_cols = tuple(self.spec.primary_key) or (names[0],)
        rc = self.run_context.as_dict()
        t0 = _time.perf_counter()

        # execute the source into the object store; dense LSN sub-ranges
        # from the per-block row counts (footer metadata — no data read)
        blocks: list[tuple] = []  # (ref, num_rows)
        for bundle in ds.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                nr = meta.num_rows
                if nr is None:  # metadata-less block: count remotely
                    nr = ray.get(_block_len_task.remote(ref))
                blocks.append((ref, int(nr)))
        dtypes = {n: self.spec.column(n).dtype for n in names}
        key_ts_ref = None
        if op in ("D", "P") and ts_stamp is not None:
            # ts-less DELETE on a ts-ordered table: a tombstone stamped with
            # wall-clock "now" silently loses LWW to a lake row whose event
            # time is ahead of this writer's clock (skew / future-dated
            # events). Stamp per key with max(now, lake max ts for the key)
            # instead — one pruned, broadcast-filtered snapshot scan, cost
            # O(lake keys-scan) + O(delete keys) driver state. Callers that
            # pass ts explicitly skip this scan entirely.
            key_ts_ref = self._lake_key_max_ts(blocks, key_cols)
        refs, ranges, offset = [], [], 0
        for ref, nr in blocks:
            if nr == 0:
                continue
            refs.append(
                _stage_segment_task.remote(
                    ref, start + offset, op, names, dtypes, ts_stamp, key_ts_ref,
                    checks, key_cols, self.spec.name, rc, gate.failure_dir,
                    self.run_context.run_id, seg_dir,
                )
            )
            ranges.append((start + offset, start + offset + nr - 1))
            offset += nr
        if offset == 0:
            return None  # empty source → nothing to merge
        try:
            metas = ray.get(refs)
        except BaseException:
            # one task died (worker OOM, disk error) after siblings already
            # staged final-named files. Cancel stragglers FIRST and wait for
            # them to settle — a zombie task finishing after the cleanup
            # loop would re-create an orphan (or clobber a retry's
            # same-named segment with stale data) — then remove the
            # deterministic names so nothing outlives the failed attempt.
            for r in refs:
                ray.cancel(r, force=True)  # no-op for already-finished tasks
            ray.wait(refs, num_returns=len(refs), timeout=30)
            for lo_, hi_ in ranges:
                p = os.path.join(seg_dir, f"segment-{lo_:012d}-{hi_:012d}.parquet")
                if os.path.exists(p):
                    os.remove(p)
            raise
        agg: dict[str, int] = {}
        for m in metas:
            for k, v in m["counts"].items():
                agg[k] = agg.get(k, 0) + v
        if checks:
            try:
                # audit + ERROR verdict before any file joins an epoch
                gate._report(agg, offset, _time.perf_counter() - t0, checks)
            except Exception:
                for m in metas:  # ERROR stages nothing: remove the files
                    if m["path"] and os.path.exists(m["path"]):
                        os.remove(m["path"])
                raise
        return Epoch(
            tuple(Segment(m["path"], m["lo"], m["hi"]) for m in metas if m["path"])
        )

    def _lake_key_max_ts(self, blocks: list, key_cols: tuple) -> "ray.ObjectRef | None":
        """Max observed lake ``ts`` per delete key — the tombstone stamp
        floor. Distinct keys come from the staged source blocks (remote
        dedup, the driver sees only the union — O(delete keys)); the lake
        side is ONE column-pruned merge-on-read scan of (pk, ts), filtered
        per batch against the broadcast key set, emitting per-batch
        partial maxima (≤ O(delete keys) each; a key lives in exactly one
        partition, so the collected total is O(delete keys)). Returns a
        ``ray.put`` ref of the (key_cols…, ts) Arrow table, or None when
        neither side has rows."""
        import pandas as pd

        kc = list(key_cols)
        key_parts = ray.get(
            [_distinct_keys_task.remote(ref, kc) for ref, nr in blocks if nr]
        )
        key_parts = [k for k in key_parts if k.num_rows]
        if not key_parts:
            return None
        keys_df = pa.concat_tables(key_parts).to_pandas().drop_duplicates()
        if not len(keys_df):
            return None
        keys_ref = ray.put(pa.Table.from_pandas(keys_df.reset_index(drop=True), preserve_index=False))
        ts_t = self.spec.column("ts").dtype
        spec_types = {c: self.spec.column(c).dtype for c in kc}

        def _typed(g: "pd.DataFrame") -> pa.Table:
            # every partial emits the identical spec-typed schema (pandas
            # merges can silently promote key dtypes otherwise)
            arrs = {
                c: (pa.array(g[c]).cast(spec_types[c]) if len(g) else pa.array([], spec_types[c]))
                for c in kc
            }
            arrs["ts"] = pa.array(g["ts"]).cast(ts_t) if len(g) else pa.array([], ts_t)
            return pa.table(arrs)

        def partial_max(batch: pa.Table) -> pa.Table:
            import pandas as _pd

            kt = ray.get(keys_ref)
            df = batch.to_pandas().merge(kt.to_pandas(), on=kc, how="inner")
            g = (
                df.groupby(kc, sort=False)["ts"].max().reset_index()
                if len(df)
                else df.head(0)[[*kc, "ts"]]
            )
            return _typed(g)

        # a table created before the ts column existed (ts arrives via
        # schema evolution in this very epoch) has no committed event times
        # to outrank — "now" is a safe stamp. Every OTHER scan failure must
        # propagate: a delete that silently falls back to wall-clock
        # stamping on a transient read error reintroduces the
        # future-dated-row resurrection this scan exists to prevent.
        lake_cols = set(self.engine._public_schema().names)
        if "ts" not in lake_cols or not set(kc) <= lake_cols:
            return None
        # partition pushdown: the delete keys hash-route to a known pid
        # subset (the engine's key router, salt fanout included) — a
        # trickle delete must scan O(touched partitions), not the table
        pids = self.engine._key_partitions(keys_df[kc[0]].drop_duplicates().tolist())
        snap = self.engine.snapshot(pids=list(pids), columns=[*kc, "ts"])
        parts = snap.map_batches(partial_max, batch_format="pyarrow").take_all()
        if not parts:
            return None
        pdf = pd.DataFrame(parts)
        merged = pdf.groupby(kc, sort=False)["ts"].max().reset_index()
        return ray.put(_typed(merged))

    def merge(self, ds: "ray.data.Dataset") -> dict:
        """PK upsert of ``ds`` into the table.

        Match resolution is the engine's LWW order: for tables WITHOUT an
        event-time ``ts`` column the staged rows carry the newest LSN, so
        the source unconditionally wins (reference
        ``whenMatchedUpdateAll`` semantics, /root/reference/src/models/writer.py:52-63).
        For ``ts``-bearing tables event-time dominates — ``(ts, lsn)`` LWW
        — so a source row whose ``ts`` is OLDER than the lake row's does
        not overwrite it. That is deliberate: one consistent order governs
        merge-on-read, late-redelivery discard, and permutation
        convergence; callers wanting unconditional source-wins on a
        ``ts`` table should stamp ``ts`` with the merge time."""
        if not self.spec.primary_key:
            # parity: /root/reference/src/models/writer.py:48-51
            raise ValueError(
                f"MERGE requires a primary key on table {self.spec.name!r}"
            )
        epoch = self._stage_changelog(ds, op="U")  # gate runs inline (one pass)
        if epoch is None:
            return {}  # empty source is a no-op merge
        info = self.engine.apply_epoch(epoch)
        return info or {}

    def patch(self, ds: "ray.data.Dataset") -> dict:
        """Partial-column UPDATE by primary key: source rows carry the PK
        plus ANY subset of declared payload columns — absent columns stay
        unchanged (staged as op='P' partial images, resolved by the
        engine's patch fold against each key's prior LWW state). A patch
        to an absent or deleted key is discarded and counted in the
        commit history, never applied as a phantom insert. A missing
        ``ts`` stamps per key ``max(now, lake max ts)`` — the delete
        rule — so "patch it now" wins LWW even against future-dated
        committed rows. NULL values in a provided column also mean
        "unchanged" (a patch can never set NULL — use :meth:`merge`);
        unknown source columns fail loud (a typo'd name would otherwise
        silently mean "unchanged"). DQ rules gate exactly the columns the
        patch sets. Extends the reference writer surface — its MERGE has
        only whole-row update semantics."""
        if not self.spec.primary_key:
            raise ValueError(
                f"PATCH requires a primary key on table {self.spec.name!r}"
            )
        epoch = self._stage_changelog(ds, op="P")
        if epoch is None:
            return {}
        return self.engine.apply_epoch(epoch) or {}

    def delete(self, ds: "ray.data.Dataset") -> dict:
        """Delete by primary key: stages ``op='D'`` tombstone events for
        the source rows' keys and applies them through the CDC engine —
        merge-on-read hides the keys, late redelivery of older events
        cannot resurrect them, and tombstone-TTL GC applies. The source
        needs only the PK columns (an optional ``ts`` column sets the
        delete's event time; otherwise each tombstone is stamped
        ``max(now, lake max ts for its key)`` so it wins LWW even against
        future-dated committed rows — see ``_lake_key_max_ts``). Extends
        the reference writer surface — its MERGE has no delete clause —
        with the engine's native tombstone path."""
        if not self.spec.primary_key:
            raise ValueError(
                f"DELETE requires a primary key on table {self.spec.name!r}"
            )
        epoch = self._stage_changelog(ds, op="D")
        if epoch is None:
            return {}
        return self.engine.apply_epoch(epoch) or {}

    def delete_where(self, predicate: list | None) -> dict:
        """Predicate DELETE — SQL ``DELETE FROM t WHERE <conjunction>``
        as self-sourced change capture: one zone-map-pruned snapshot scan
        (``predicate`` is the same ``(col, op, value)`` conjunct list as
        :meth:`CDCEngine.snapshot`; ``None`` deletes every row) finds the
        matching CURRENT rows, and their keys feed :meth:`delete` — so the
        operation is an ordinary exactly-once epoch commit that the
        changefeed, IVM views, SCD2 history and consumers all observe as
        plain tombstones. Nothing bespoke downstream.

        Determinism: each tombstone is stamped with the matched row's OWN
        ``ts`` (the key's current LWW maximum by construction), never the
        wall clock — the delete wins via its fresh LSN on the (ts, lsn)
        tie, a later higher-``ts`` event can still legitimately re-insert
        the key, and a re-run against the same table state stages
        byte-identical tombstones. Concurrency inherits the engine's
        serializable fail-loud commit: a commit racing between the scan
        and the apply raises ``CommitConflict`` rather than deleting from
        a stale match set."""
        if not self.spec.primary_key:
            raise ValueError(
                f"DELETE WHERE requires a primary key on table {self.spec.name!r}"
            )
        cols = list(self.spec.primary_key)
        if "ts" in self.spec.column_names:
            cols.append("ts")
        return self.delete(self.engine.snapshot(columns=cols, predicate=predicate))

    def update_where(
        self,
        predicate: list | None,
        assignments: dict,
        read_columns: list | None = None,
    ) -> dict:
        """Predicate UPDATE — SQL ``UPDATE t SET c = v, ... WHERE
        <conjunction>`` as self-sourced change capture: the zone-map-pruned
        snapshot scan finds the matching current rows, each becomes an
        op='P' PARTIAL image carrying the PK plus ONLY the assigned
        columns (via :meth:`patch`), so unassigned columns never leave the
        lake and downstream (changefeed, IVM, consumers) sees ordinary
        full-row updates after the fold.

        ``assignments``: column -> constant, or callable
        ``(pa.Table) -> array-like`` evaluated per matched batch (the
        batch carries the PK, ``ts``, every assigned column's current
        value, and ``read_columns`` extras — so ``{"value": lambda b:
        pc.multiply(b.column("value"), 2)}`` expresses ``SET value =
        value * 2``). PK and ``ts`` are not assignable (keys are
        immutable; event time belongs to the source). An assignment may
        never produce NULL — patch semantics reserve NULL for
        "unchanged" — so a NULL result fails loud instead of silently
        not updating. Rows keep their own ``ts`` (see
        :meth:`delete_where`); the fresh LSN orders the update last."""
        if not self.spec.primary_key:
            raise ValueError(
                f"UPDATE WHERE requires a primary key on table {self.spec.name!r}"
            )
        if not assignments:
            raise ValueError("UPDATE WHERE needs at least one assignment")
        names = self.spec.column_names
        pk = list(self.spec.primary_key)
        for c in assignments:
            if c not in names:
                raise ValueError(
                    f"assignment target {c!r} is not a declared column of "
                    f"table {self.spec.name!r}"
                )
            if c in pk or c == "ts":
                raise ValueError(
                    f"assignment target {c!r} is not updatable (primary-key "
                    "columns are immutable; ts is the source's event time)"
                )
        for c, v in assignments.items():
            if not callable(v) and v is None:
                raise ValueError(
                    f"assignment {c!r} = NULL: a patch cannot set NULL "
                    "(NULL means 'unchanged') — use merge() with full rows"
                )
        unknown = sorted(set(read_columns or []) - set(names))
        if unknown:
            raise ValueError(f"read_columns {unknown} not declared on the table")
        cols = list(
            dict.fromkeys(
                pk
                + (["ts"] if "ts" in names else [])
                + sorted(assignments)
                + sorted(read_columns or [])
            )
        )
        dtypes = {c: self.spec.column(c).dtype for c in assignments}
        keep = pk + (["ts"] if "ts" in names else [])
        assign = dict(assignments)  # capture a stable copy for the tasks

        def build_patch(batch: pa.Table) -> pa.Table:
            out = {c: batch.column(c) for c in keep}
            if batch.num_rows == 0:  # callables need not handle empty blocks
                out.update({c: pa.array([], type=dtypes[c]) for c in sorted(assign)})
                return pa.table(out)
            for c in sorted(assign):
                v = assign[c]
                if callable(v):
                    arr = v(batch)
                    if isinstance(arr, pa.ChunkedArray):
                        arr = arr.combine_chunks()
                    if not isinstance(arr, pa.Array):
                        arr = pa.array(arr)
                    arr = arr.cast(dtypes[c])
                    if len(arr) != batch.num_rows:
                        raise ValueError(
                            f"assignment {c!r} returned {len(arr)} values "
                            f"for {batch.num_rows} rows"
                        )
                else:
                    arr = pa.array([v] * batch.num_rows).cast(dtypes[c])
                if arr.null_count:
                    raise ValueError(
                        f"assignment {c!r} produced NULL for {arr.null_count} "
                        "row(s) — a patch cannot set NULL (NULL means "
                        "'unchanged'); use merge() with full rows"
                    )
                out[c] = arr
            return pa.table(out)

        matched = self.engine.snapshot(columns=cols, predicate=predicate)
        return self.patch(matched.map_batches(build_patch, batch_format="pyarrow"))

    def append(self, ds: "ray.data.Dataset") -> int:
        """Append rows (PK-less audit-table semantics): new delta files join
        the manifest; no LWW on read. DQ gate fused into the staging pass
        (see :meth:`overwrite`).

        Multi-writer safe: appends are logically commutative (disjoint new
        files), so a :class:`~..state.manifest.CommitConflict` rebases on
        the fresh manifest and retries the commit — the staged files are
        written once, only the pointer swap repeats."""
        from ..state.manifest import CommitConflict

        man = self.engine.manifest
        num_partitions = man.num_partitions
        staged_schema_b64 = man.schema_b64  # shape the staged files assume
        staged_salt_map = self.engine.salt_map  # the placement they were routed by
        staged, rows = self._stage_files(ds, "append", man.applied_lsn + 1)

        for _attempt in range(10):
            man = self.engine.manifest
            try:
                self.engine._commit("append", lambda m: _add_staged(m, staged), rows=rows)
            except CommitConflict:
                latest = self.engine.store.load()
                if latest is None or latest.version <= man.version:
                    raise  # not a concurrent advance — a real protocol error
                # appends only commute with commits that keep the table's
                # SHAPE: the staged pid= files were hash-routed with
                # num_partitions and the salt map, and projected onto the
                # schema captured at staging time. A concurrent reshard,
                # salting or schema change invalidates that routing —
                # retrying would silently file rows into wrong partitions
                # (breaking partition-pruned reads and future merges), so
                # fail loud and direct the caller to restage
                # (IncrementalRollup.advance's guard).
                if latest.num_partitions != num_partitions:
                    raise CommitConflict(
                        f"append to {self.spec.name!r} raced a reshard "
                        f"({num_partitions} → {latest.num_partitions} partitions); "
                        "staged files were routed with the stale partition count — "
                        "re-run the append against the fresh table"
                    ) from None
                if latest.properties.get("salt_map", {}) != staged_salt_map:
                    raise CommitConflict(
                        f"append to {self.spec.name!r} raced a salt-map change; "
                        "staged rows of a newly salted key sit at its home "
                        "partition — re-run the append against the fresh table"
                    ) from None
                if latest.schema_b64 != staged_schema_b64:
                    raise CommitConflict(
                        f"append to {self.spec.name!r} raced a schema change; "
                        "staged files carry the stale schema — re-run the append"
                    ) from None
                self.engine.manifest = latest
                continue
            return rows
        raise CommitConflict(
            f"append to {self.spec.name!r} lost the commit race 10 times in a row"
        )
