"""The CDC apply pipeline: changelog epoch → hash exchange by conv_id →
per-partition LWW merge-on-read deltas → exactly-once commit.

Ray-first realization of the reference's MERGE upsert
(/root/reference/src/models/writer.py:42-67) at binlog scale:

1. **Map round** — one task per changelog segment: zero-copy Arrow read,
   normalize to the (possibly evolved) epoch schema, vectorized LWW
   *combiner* (drops superseded events before any exchange — the
   partial-aggregation pattern, and the salting story for hot
   conversations: each key collapses to ≤1 row per segment), sort by
   ``siphash(conv_id) % P`` and return TWO objects: the pid-sorted table
   and its ``bounds`` array (rows ``[bounds[p], bounds[p+1])`` belong to
   partition ``p``). An epoch holds 2 × segments object refs at any P.
2. **Reduce round** — the driver fetches the tiny bounds, skips the
   partitions no segment touched, and packs the touched ones by row load
   (largest first onto the least-loaded task) into at most
   4 × cluster-CPU tasks. Per partition, a task slices its rows out of
   every segment table without copying, LWW-reduces on
   ``(conv_id, turn_idx)`` by ``(ts, _lsn)``, and writes ONE file: a
   *delta* (just this epoch's reduced changes — apply never touches
   existing data) or, past ``compact_every`` live files, a *base* that
   folds the partition's stack (LSM merge-on-read; write volume
   O(changes) + O(table)/compact_every). Tombstones stay in lake files so
   late re-delivery of an older event cannot resurrect a deleted key.
   Retries are idempotent: deterministic content + path, atomic replace.
3. **Commit** — the driver collects the tiny per-partition meta rows,
   writes lineage metrics, and atomically publishes one new manifest
   version. Readers only see manifest-listed files, so a kill at ANY
   point either replays a not-yet-visible epoch or skips a committed one —
   exactly-once.

Snapshot reads are per-partition merge-on-read (base+deltas → LWW →
drop tombstones), key-sorted within partitions (stable turn ordering is
partition-local by design). A live-state read drops the tombstones from
the LWW survivor indices, so the merged rows are gathered once
(``partition_chunks(..., live=True)``), and every lake file is
LZ4-compressed (:func:`lake_parquet_args`), so a full scan pays less to
decode each file.

Scale notes (100 TB): ``num_partitions`` bounds the merge unit — size it
so one partition's live data fits a worker (4096+ partitions for a 100 TB
table); an epoch only writes partitions it touches, and compaction
amortizes the full rewrite across ``compact_every`` epochs.
"""

from __future__ import annotations

import dataclasses
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..context import DEFAULT_NUM_PARTITIONS, RunContext
from ..functions.hashing import (
    coerce_keys,
    decode_salt_map,
    encode_salt_map,
    is_binary_like,
    key_partitions,
    route_columns,
    salted_partition_ids,
)
from ..sources.changelog import ChangeLog, Epoch
from ..stages.lww import (
    distinct_key_count,
    last_per_key_mask,
    lww_reduce,
    lww_survivor_indices,
)
from ..state.manifest import (
    CommitConflict,
    Manifest,
    ManifestStore,
    PartitionState,
    commit_version,
    create_table,
)
from ..state.planner import plan_evolution
from ..state import zonemap as zone
from ..state.schema import (
    DELETED_COL,
    LSN_COL,
    TRANSCRIPTS,
    TableSpec,
    merge_schemas,
    normalize_table,
)
from . import metrics as metrics_mod

def _single_threaded_arrow() -> None:
    """Pin Arrow's intra-kernel thread pool to 1 inside Ray workers.

    Ray schedules one task per CPU; pyarrow kernels (sort_indices, take,
    parquet encode) otherwise fan out onto Arrow's global pool sized to ALL
    cores, so N concurrent tasks × N Arrow threads oversubscribe the node
    quadratically — measured 3× slowdown at 32 CPUs. Idempotent, per
    worker process."""
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        try:
            # keep jemalloc pages resident per worker: the default (decay 0)
            # returns every large allocation to the OS immediately, so each
            # task re-faults its whole working set — measurable contention
            # when many memory-heavy tasks start together
            pa.jemalloc_set_decay_ms(-1)
        except (NotImplementedError, OSError):  # non-jemalloc builds
            pass


def _zone_cols(lake_sch: pa.Schema) -> list[str]:
    """Columns tracked by zone-map stats: the public (payload + ts)
    columns — bookkeeping columns prune by file NAMING (epoch ranges),
    not stats. Unsupported types are dropped by the stats kernel."""
    return [n for n in lake_sch.names if n not in (LSN_COL, DELETED_COL)]

#: changelog envelope columns that are not row payload
_ENVELOPE = ("lsn", "op")

#: most rows in one parquet row group of a lake data file. Point reads
#: (lookup, patch fold, purge) decode whole groups, so this bounds the
#: rows a key probe decodes per group; much smaller groups slow full-file
#: reads (1024 rows measured +58%), so keep it at 2048 or above.
ROW_GROUP_ROWS = 4096

#: most bytes of parquet footers :func:`_footer` keeps per process (LRU;
#: the driver and every Ray worker process each hold one cache). A footer
#: is charged ``zone.Footer.nbytes``, an upper bound of what it holds
#: resident (13 × its serialized size), so the cache's resident memory
#: stays under this bound. A serve-table lake file (3-8 row groups,
#: 3.7-7.5 KB serialized) is charged 48-97 KB, so a 16-partition table
#: of 4-file stacks fits in ~4 MB. A footer charged more than the bound
#: (a file of ~1600 or more row groups) is never kept: each read of its
#: file parses it again. The cache pays only while the footers of the
#: files a process reads over and over fit under this bound.
FOOTER_CACHE_BYTES = 16 << 20

#: the map combiner runs only when it keeps at most this share of a
#: segment's rows (its distinct key tuples, counted before any sort);
#: above it the survivor pass costs its sort and barely shrinks the
#: exchange, and the per-partition reduce performs the dedup anyway
COMBINER_KEEP_MAX = 0.9


def lake_parquet_args(schema: pa.Schema) -> dict:
    """THE Parquet arguments of every lake data-file write
    (:func:`_write_data_file`, :func:`_write_merged_stream` and
    ``LakeWriter._stage_files``): row groups of at most
    :data:`ROW_GROUP_ROWS` rows, and dictionary pages only where they pay.
    ``string``, ``binary`` and ``bool`` columns (ids, roles, tool names,
    flags) repeat, so they are dictionary-encoded; ``large_string`` /
    ``large_binary`` payload, integer and timestamp columns (text,
    ``ts``, ``_lsn``) are nearly unique, so they are written plain — a
    dictionary built for them outgrows its page limit and is thrown away
    after costing its build. Readers decode either encoding, so files
    written before this rule stack, read and compact with newer ones.

    Every column chunk is LZ4-compressed (Parquet ``LZ4_RAW``), not
    Snappy: LZ4 decodes faster for a few percent more bytes. On a 1-core
    host, one thread, a 30.9k-row base file of the perfbench serve table
    decoded in 3.5-3.7 ms against 5.2-7.4 ms and one 4096-row group in
    0.70 ms against 0.98-1.37 ms; the table took 5.1% more bytes, and a
    table whose ``text`` is random base64 took 0.05% more.
    Parquet records the codec per column chunk, so Snappy files written
    before this rule stack, read and compact beside LZ4 ones."""
    return {
        "compression": "lz4",
        "row_group_size": ROW_GROUP_ROWS,
        "use_dictionary": [
            f.name
            for f in schema
            if pa.types.is_string(f.type)
            or pa.types.is_binary(f.type)
            or pa.types.is_boolean(f.type)
        ],
    }

#: CDC data-file naming — THE single pattern (stack checks, changefeed
#: listing, retention, purge routing and fsck all match against it).
#: Groups: kind (delta|base), pid, epoch, migration source suffix.
_CDC_FILE_RE = re.compile(r"^(delta|base)-(\d+)-(\d+)(-from\d+)?\.parquet$")

#: CDCEngine(changefeed_retention_lsn=INHERIT) — use the horizon persisted
#: in the table manifest (the default). The horizon is TABLE config, not
#: per-process config: a maintenance engine (CLI replay/compact/vacuum)
#: that omits the argument must not silently disable retention and destroy
#: the retained-deltas registry. Pass an explicit ``None`` to disable.
INHERIT = "__inherit__"


@dataclass
class ReplayStats:
    epochs_applied: int = 0
    epochs_skipped: int = 0
    events: int = 0
    seconds: float = 0.0
    schema_changes: list[str] = field(default_factory=list)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


def _changes_to_lake_rows(changes: pa.Table, lake_sch: pa.Schema) -> pa.Table:
    """Changelog rows → lake-row form: payload + ts + _lsn + _deleted."""
    cols = []
    for f in lake_sch:
        if f.name == LSN_COL:
            cols.append(changes.column("lsn").cast(pa.int64()))
        elif f.name == DELETED_COL:
            cols.append(pc.equal(changes.column("op"), "D"))
        else:
            cols.append(changes.column(f.name).cast(f.type))
    return pa.Table.from_arrays(cols, schema=lake_sch)


def _lww_order(schema: pa.Schema, lsn_col: str) -> tuple[str, ...]:
    """LWW order columns: event-time ``ts`` (when the table has one) broken
    by log position; pure-LSN order for tables without an event-time
    column (e.g. metadata/SLO tables keyed on natural keys)."""
    return ("ts", lsn_col) if "ts" in schema.names else (lsn_col,)


def pruned_lake_schema(
    lake_sch: pa.Schema, key_cols: tuple[str, ...], columns: list[str]
) -> pa.Schema:
    """Lake schema restricted to what a column-projected merge-on-read
    still needs: the primary key, the LWW order columns, the tombstone
    flag, and the REQUESTED payload columns — everything else (at 100 TB,
    usually the wide ``text`` column) never leaves the parquet files."""
    need = (
        set(key_cols)
        | set(_lww_order(lake_sch, LSN_COL))
        | {LSN_COL, DELETED_COL}
        | set(columns)
    )
    return pa.schema([f for f in lake_sch if f.name in need])


_footers: OrderedDict[tuple, zone.Footer] = OrderedDict()
_footers_lock = threading.Lock()


def _footer(path: str, cache: bool = True) -> zone.Footer:
    """THE footer read of a lake data file or changelog segment: its
    ``FileMetaData``, Arrow schema and per-row-group zone stats
    (``zone.Footer``), from a process-local LRU cache of at most
    :data:`FOOTER_CACHE_BYTES`, shared by the driver's lookups or by
    every task a Ray worker process runs. Both kinds of file are immutable
    once written, so an entry is keyed by ``(path, st_ino, st_mtime_ns,
    st_size)``: a file replaced at the same path (every lake write is
    tmp + ``os.replace``, a new inode) misses and is read fresh, and a
    vacuumed or deleted file fails loud at the ``stat``. ``cache=False``
    reads a footer that is not cached without caching it, for a caller
    that reads each file once (``describe``, epoch planning), so it
    evicts no footer that repeat reads need."""
    st = os.stat(path)
    key = (path, st.st_ino, st.st_mtime_ns, st.st_size)
    with _footers_lock:
        ft = _footers.get(key)
        if ft is not None:
            if cache:
                _footers.move_to_end(key)
            return ft
    with pq.ParquetFile(path) as pf:
        ft = zone.Footer(pf.metadata, pf.schema_arrow)
    if cache and ft.nbytes <= FOOTER_CACHE_BYTES:
        with _footers_lock:
            _footers[key] = ft
            held = sum(f.nbytes for f in _footers.values())
            while held > FOOTER_CACHE_BYTES:
                held -= _footers.popitem(last=False)[1].nbytes
    return ft


def _parquet(path: str, ft: zone.Footer) -> pq.ParquetFile:
    """A lake data file's reader, opened on its cached footer."""
    return pq.ParquetFile(path, metadata=ft.metadata)


def _read_pruned(path: str, lake_sch: pa.Schema, conjuncts=None) -> pa.Table:
    """One lake data file, normalized to ``lake_sch``, decoding only the
    row groups whose footer stats could satisfy ``conjuncts``
    (``zone.qualifying_row_groups`` over the cached :func:`_footer`;
    PK-only under merge-on-read). Selected row groups (a key probe's one
    or two) decode on the calling thread: on one core a 4096-row group
    decoded in 0.97 ms so, 1.59 ms with Arrow's threads (not measured on
    more cores). A whole-file read keeps Arrow's default; inside Ray
    tasks Arrow runs on one thread anyway (:func:`_single_threaded_arrow`)."""
    ft = _footer(path)
    have = set(ft.schema_arrow.names)
    cols = [n for n in lake_sch.names if n in have]
    keep = zone.qualifying_row_groups(ft, conjuncts) if conjuncts else None
    if keep == []:
        t = ft.schema_arrow.empty_table().select(cols)
    elif keep is None:
        t = _parquet(path, ft).read(columns=cols)
    else:
        t = _parquet(path, ft).read_row_groups(keep, columns=cols, use_threads=False)
    return normalize_table(t, lake_sch)


def _merge_take(t: pa.Table, key_cols: tuple[str, ...], live: bool) -> pa.Table:
    """THE one gather of a merge-on-read: the LWW survivors of ``t`` (all
    of a PK-less table's rows), and with ``live`` only those that are not
    tombstones — dropped from the survivor indices (``lww_reduce``'s
    ``drop``), so a live read copies its wide columns once, not in the
    reduce and again in a ``filter``."""
    if not key_cols:
        return t.filter(pc.invert(t.column(DELETED_COL))) if live else t
    return lww_reduce(
        t, key_cols, _lww_order(t.schema, LSN_COL), drop=DELETED_COL if live else None
    )


def merge_partition_files(
    files: list,
    lake_sch: pa.Schema,
    key_cols: tuple[str, ...],
    conjuncts=None,
    extra: pa.Table | None = None,
    live: bool = False,
) -> pa.Table:
    """Merge-on-read of one partition: concat its base+delta files (oldest
    first) and ``extra`` (in-memory rows folded in last, e.g. an epoch's
    changes), LWW-reduce on the key in ONE pass.
    Output is key-sorted and carries the bookkeeping columns; tombstones
    are kept unless ``live``, which drops them inside the reduce's one
    gather (:func:`_merge_take`). ``conjuncts`` skip row groups by footer
    stats (PK-only under merge — see _iter_file_chunks)."""
    tables = [_read_pruned(f, lake_sch, conjuncts) for f in files]
    if extra is not None and extra.num_rows:
        tables.append(normalize_table(extra, lake_sch))
    if not tables:
        return lake_sch.empty_table()
    t = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
    return _merge_take(t, key_cols, live)


def _diff_tables(
    w0: pa.Table,
    w1: pa.Table,
    lake_sch: pa.Schema,
    key_cols: tuple[str, ...],
    public: list[str],
    out_schema: pa.Schema,
) -> pa.Table:
    """I/U/D compare of two key-aligned LWW states (tombstones included).
    The join runs on NARROW columns only; I/U payload is gathered once
    from the newer side."""
    import numpy as np

    narrow = [*key_cols, *(["ts"] if "ts" in lake_sch.names else []), LSN_COL, DELETED_COL]
    n0 = w0.select(narrow).to_pandas()
    n0["_i0"] = np.arange(len(n0))
    n1 = w1.select(narrow).to_pandas()
    n1["_i1"] = np.arange(len(n1))
    m = n0.merge(n1, on=list(key_cols), how="outer", suffixes=("_0", "_1"))
    # eq(False) is NaN-safe: an absent side is never "live"
    live0 = m["_i0"].notna() & m[f"{DELETED_COL}_0"].eq(False)
    live1 = m["_i1"].notna() & m[f"{DELETED_COL}_1"].eq(False)
    changed = m[f"{LSN_COL}_0"] != m[f"{LSN_COL}_1"]
    if "ts" in lake_sch.names:
        changed |= m["ts_0"] != m["ts_1"]
    ins = live1 & ~live0
    upd = live1 & live0 & changed
    dele = live0 & ~live1
    pieces: list[pa.Table] = []
    for mask, tag in ((ins, "I"), (upd, "U")):
        idx = m.loc[mask, "_i1"].to_numpy(dtype=np.int64)
        if len(idx):
            rows = w1.select(public).take(pa.array(np.sort(idx)))
            pieces.append(rows.add_column(0, "diff_op", pa.array([tag] * len(idx))))
    if dele.any():
        kd = m.loc[dele, list(key_cols)].sort_values(list(key_cols))
        cols: dict = {"diff_op": pa.array(["D"] * len(kd))}
        for name in public:
            if name in key_cols:
                cols[name] = pa.Array.from_pandas(kd[name], type=lake_sch.field(name).type)
            else:
                cols[name] = pa.nulls(len(kd), lake_sch.field(name).type)
        pieces.append(pa.table(cols, schema=out_schema))
    return pa.concat_tables(pieces) if pieces else out_schema.empty_table()


def _diff_partition_chunks(
    files0: list[str],
    files1: list[str],
    lake_sch: pa.Schema,
    key_cols: tuple[str, ...],
    public: list[str],
    out_schema: pa.Schema,
    chunk_rows: int = 65536,
):
    """STREAMING two-version diff of one partition: walk both stacks'
    :func:`partition_chunks` streams in lockstep (:func:`_aligned_rounds`)
    and compare each round's key-complete slices. Peak memory
    O(chunk × files per side), same bound as the snapshot merge — a diff
    never holds a partition."""
    empty = lake_sch.empty_table()
    sides = [
        partition_chunks(files0, lake_sch, key_cols, chunk_rows=chunk_rows),
        partition_chunks(files1, lake_sch, key_cols, chunk_rows=chunk_rows),
    ]
    for w0, w1 in _aligned_rounds(sides, key_cols):
        chunk = _diff_tables(
            empty if w0 is None else w0,
            empty if w1 is None else w1,
            lake_sch, key_cols, public, out_schema,
        )
        if chunk.num_rows:
            yield chunk


def _has_patches(t: pa.Table) -> bool:
    """True iff the change batch carries any PARTIAL row image (op="P")."""
    return bool(pc.any(pc.equal(t.column("op"), "P")).as_py())


def _pair_codes(t: pa.Table, key_cols: tuple[str, ...]) -> pa.ChunkedArray | pa.Array:
    """String codes for composite-key membership tests (equal key tuples →
    equal codes; keys are NULL-rejected upstream so the join is total)."""
    parts = [t.column(k).cast(pa.string()) for k in key_cols]
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "\x1f")


def _write_data_file(t: pa.Table, path: str) -> None:
    """THE lake data-file write, with :func:`lake_parquet_args`: staged
    to a pid-unique tmp and atomically renamed — a retry rewrites the
    same deterministic content to the same path."""
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(t, tmp, **lake_parquet_args(t.schema))
    os.replace(tmp, path)


def _read_keys(path: str, lake_sch: pa.Schema, key0: str, vals: list) -> pa.Table:
    """THE keyed file probe: rows of one lake data file whose leading key
    is in ``vals``, normalized to ``lake_sch``. Row groups are selected by
    the scan path's own selector (:func:`_read_pruned` with one ``in``
    conjunct, judged on the cached footer's per-group stats), so a warm
    probe reads no footer and decodes, single-threaded, only the groups
    whose key range holds a wanted key; an ``is_in`` residual drops the
    rest."""
    if not vals:
        return lake_sch.empty_table()
    t = _read_pruned(path, lake_sch, [(key0, "in", vals)])
    key = t.column(key0)
    return t.filter(pc.is_in(key, value_set=pa.array(vals, key.type)))


def _read_prior_rows(
    files: list[str],
    lake_sch: pa.Schema,
    key_cols: tuple[str, ...],
    keys_of: pa.Table,
) -> pa.Table:
    """Per-key LWW winners (INCLUDING tombstones) from a partition's file
    stack, restricted to the keys present in ``keys_of`` — the prior-state
    lookup the patch fold resolves against. Each file is read through the
    keyed probe :func:`_read_keys`, so it decodes only the row groups
    whose leading-key range holds a patched key."""
    if not files:
        return lake_sch.empty_table()
    k0 = key_cols[0]
    vals = pc.unique(keys_of.column(k0)).to_pylist()
    tables = []
    for f in files:
        t = _read_keys(f, lake_sch, k0, vals)
        if t.num_rows:
            tables.append(t)
    if not tables:
        return lake_sch.empty_table()
    t = pa.concat_tables(tables)
    want = pc.unique(_pair_codes(keys_of, key_cols))
    t = t.filter(pc.is_in(_pair_codes(t, key_cols), value_set=want))
    return lww_reduce(t, key_cols, _lww_order(lake_sch, LSN_COL))


def _fold_epoch_patches(
    changes: pa.Table,
    key_cols: tuple[str, ...],
    existing: list[str],
    lake_sch: pa.Schema,
) -> tuple[pa.Table, int]:
    """Patch-aware epoch fold: change rows (op ∈ I/U/D/P) → lake rows.

    PARTIAL row images (op="P") carry only the changed payload columns;
    NULL means "unchanged" (a patch can never set NULL — emit a full U
    for that). Resolution semantics — equivalent to folding the key's
    known events in (ts, lsn) order:

    - the key's events fold against its current LWW state (``existing``
      merge-on-read stack, tombstones included);
    - the BASE is the greatest-(ts,lsn) full image (I/U/D or the prior
      lake row); patches ordered after the base apply column-wise,
      later patch winning per column;
    - patches that do not reach the resolved image — at-or-below the
      base (late or shadowed by a later full image), on a deleted base,
      or with no base at all — are DISCARDED (returned count, never
      silent);
    - the resolved row is a FULL image stamped with the last applied
      event's (ts, lsn), so downstream merge-on-read/changefeed/IVM see
      ordinary rows and need no patch logic.

    Cross-epoch caveat (documented semantics, same as the engine's
    late-event rule): a full image arriving in a LATER epoch with
    (ts, lsn) BELOW an already-resolved patch loses LWW at read time —
    patches are resolved once, not retro-rebased. Keys without patches
    take the plain vectorized LWW path. The patch keys fold columnar, in
    Arrow and numpy: one stable sort of their events and prior rows by
    (key, ts, lsn, source), where the source breaks a tie in favour of
    the epoch's event (a re-delivered prior row applies again); the base
    per key is a segmented max over the full images' sorted positions,
    and each payload column takes its value from the key's last kept row
    where it is non-NULL (a segmented max over valid positions).
    """
    import numpy as np

    chg_schema = changes.schema
    order_cols = _lww_order(chg_schema, "lsn")
    codes = _pair_codes(changes, key_cols)
    patch_keys = pc.unique(pc.filter(codes, pc.equal(changes.column("op"), "P")))
    member = pc.is_in(codes, value_set=patch_keys)
    plain = changes.filter(pc.invert(member))
    patch = changes.filter(member)

    plain_rows = _changes_to_lake_rows(lww_reduce(plain, key_cols, order_cols), lake_sch)

    prior = _read_prior_rows(existing, lake_sch, key_cols, patch)
    pr_cols = []
    for f in chg_schema:
        if f.name == "lsn":
            pr_cols.append(prior.column(LSN_COL).cast(pa.int64()))
        elif f.name == "op":
            pr_cols.append(
                pc.if_else(prior.column(DELETED_COL), pa.scalar("D"), pa.scalar("U"))
            )
        elif f.name in prior.schema.names:
            pr_cols.append(prior.column(f.name).cast(f.type))
        else:
            pr_cols.append(pa.nulls(prior.num_rows, f.type))
    prior_chg = pa.Table.from_arrays(pr_cols, schema=chg_schema)

    # the epoch's events first, the prior lake rows after: on equal
    # (key, ts, lsn) the _src sort key alone puts the event last
    ev = pa.concat_tables([patch, prior_chg])
    src = np.repeat(np.array([1, 0], np.int8), [patch.num_rows, prior.num_rows])
    sort_cols = [*key_cols, *order_cols, "_src"]
    order = pc.sort_indices(
        ev.select(sort_cols[:-1]).append_column("_src", pa.array(src)),
        sort_keys=[(c, "ascending") for c in sort_cols],
    ).to_numpy()
    n = len(order)
    idx = np.arange(n)
    is_last = last_per_key_mask(ev.select(list(key_cols)).take(order), key_cols)
    ends = np.flatnonzero(is_last)
    starts = np.flatnonzero(np.concatenate([[True], is_last[:-1]])) if n else ends
    sizes = ends - starts + 1

    def sorted_mask(arr) -> np.ndarray:
        return arr.to_numpy(zero_copy_only=False)[order]

    is_p = sorted_mask(pc.equal(ev.column("op"), "P"))
    is_d = sorted_mask(pc.equal(ev.column("op"), "D"))
    # per key: the last full image (the base), -1 when there is none
    base = np.maximum.reduceat(np.where(is_p, -1, idx), starts)
    has_base = base >= 0
    base_del = has_base & is_d[np.maximum(base, 0)]
    # keep the base and every patch after it; a deleted base keeps no patch
    row_base = np.repeat(base, sizes)
    keep = (row_base >= 0) & (idx >= row_base) & ~(np.repeat(base_del, sizes) & is_p)
    n_discarded = int((is_p & ~keep).sum())
    last = np.where(base_del, base, ends)
    # the resolved row equals the prior one when no epoch event applies
    emit = has_base & (src[order[last]] == 1)
    rows = last[emit]

    cols = []
    for f in chg_schema:
        col = ev.column(f.name)
        if f.name in ("lsn", "op", *key_cols, *order_cols):
            pos = rows
        else:
            valid = np.where(sorted_mask(col.is_valid()) & keep, idx, -1)
            pos = np.maximum.reduceat(valid, starts)[emit]
            pos = np.where(pos >= 0, pos, rows)  # NULL in every kept row
        col = col.take(pa.array(order[pos]))
        if f.name == "op":  # a resolved patch is a full update
            col = pc.if_else(pc.equal(col, "P"), pa.scalar("U"), col)
        cols.append(col)
    folded = pa.Table.from_arrays(cols, schema=chg_schema)
    out = pa.concat_tables([plain_rows, _changes_to_lake_rows(folded, lake_sch)])
    out = out.sort_by([(k, "ascending") for k in key_cols])  # delta files are key-sorted
    return out, n_discarded


def _is_cdc_sorted(files: list[str]) -> bool:
    """True iff every file was written by the CDC apply/compact/salt paths
    (key-sorted, unique keys) — the precondition for the streamed k-way
    merge. Writer overwrite/append staging files are unsorted → full merge."""
    return all(_CDC_FILE_RE.match(os.path.basename(f)) for f in files)


def _iter_file_chunks(f, lake_sch: pa.Schema, chunk_rows: int, conjuncts=None):
    # prune at the read: only the target schema's columns leave the file —
    # with a pruned lake schema (column-projected snapshot) the payload
    # columns a consumer didn't ask for are never decoded. ``conjuncts``
    # (PK-only under merge-on-read — zonemap.qualifying_row_groups doc)
    # additionally skip row groups by footer stats: base files are
    # PK-SORTED, so their groups carry tight disjoint key ranges and a
    # key predicate decodes only the matching slice of each file
    ft = _footer(f)
    have = set(ft.schema_arrow.names)
    cols = [n for n in lake_sch.names if n in have]
    keep = zone.qualifying_row_groups(ft, conjuncts) if conjuncts else None
    if keep == []:
        return
    pf = _parquet(f, ft)
    for rb in pf.iter_batches(batch_size=chunk_rows, columns=cols, row_groups=keep):
        yield normalize_table(pa.Table.from_batches([rb]), lake_sch)


def _iter_table_chunks(t: pa.Table, chunk_rows: int):
    for off in range(0, t.num_rows, chunk_rows):
        yield t.slice(off, chunk_rows)


def _np_col(t: pa.Table, name: str):
    return t.column(name).to_pandas().to_numpy()


def _aligned_rounds(sources: list, key_cols: tuple[str, ...]):
    """Lockstep walk of key-sorted, unique-key chunk streams. Each round
    cuts every stream's buffer at the pivot — the lexicographic min of the
    buffers' LAST keys — and yields one slice per stream, ``None`` where a
    stream has no rows at or below the pivot. Every key ≤ the pivot is
    complete in every stream (later chunks of a sorted unique-key stream
    are strictly greater), so each round is exact on its own and no key
    spans two rounds.

    The pivot compares the first two key columns (1- and 2-column PKs);
    a wider PK is only ever walked as one chunk per stream (the
    whole-partition branch of :func:`partition_chunks`), where cutting at
    the leading column alone is exact."""
    import numpy as np

    two = len(key_cols) == 2
    width = 2 if two else 1
    bufs: list[pa.Table | None] = [None] * len(sources)

    def refill(i: int) -> None:
        while bufs[i] is None:
            nxt = next(sources[i], None)
            if nxt is None:
                return
            bufs[i] = nxt if nxt.num_rows else None

    for i in range(len(sources)):
        refill(i)
    while any(b is not None for b in bufs):
        last = [
            tuple(b.column(k)[b.num_rows - 1].as_py() for k in key_cols[:width])
            for b in bufs
            if b is not None
        ]
        pivot = min(last)
        out: list[pa.Table | None] = []
        for i, b in enumerate(bufs):
            if b is None:
                out.append(None)
                continue
            a0 = _np_col(b, key_cols[0])
            if two:
                j0 = int(np.searchsorted(a0, pivot[0], "left"))
                hi = int(np.searchsorted(a0, pivot[0], "right"))
                a1 = _np_col(b.slice(j0, hi - j0), key_cols[1])
                cut = j0 + int(np.searchsorted(a1, pivot[1], "right"))
            else:
                cut = int(np.searchsorted(a0, pivot[0], "right"))
            if not cut:
                out.append(None)
                continue
            out.append(b.slice(0, cut))
            bufs[i] = b.slice(cut) if cut < b.num_rows else None
            refill(i)
        yield out


def iter_merged_partition(
    files: list[str],
    lake_sch: pa.Schema,
    key_cols: tuple[str, ...],
    extra_sorted: pa.Table | None = None,
    chunk_rows: int = 65536,
    conjuncts=None,
    live: bool = False,
):
    """STREAMING merge-on-read of one partition: k-way chunk merge over the
    key-sorted base/delta files (plus an optional in-memory key-sorted
    table, e.g. an epoch's reduced changes), yielding key-sorted,
    LWW-reduced, key-COMPLETE chunks — no key ever spans two yields.
    With ``live``, tombstones leave in each round's one gather, and a
    round left empty is not yielded.

    Peak memory is O(chunk_rows × open files) instead of O(partition), so
    partitions can be sized well past worker heap (the 100-TB sizing knob
    in the module docstring). Relies on engine-written files having
    strictly-increasing unique keys (every file is an ``lww_reduce``
    output); supports 1- and 2-column PKs — :func:`partition_chunks`
    sends wider PKs and writer-staged (unsorted) files to the
    whole-partition merge. Each :func:`_aligned_rounds` round is
    concatenated and LWW-reduced (:func:`_merge_take`)."""
    sources = [_iter_file_chunks(f, lake_sch, chunk_rows, conjuncts) for f in files]
    if extra_sorted is not None and extra_sorted.num_rows:
        sources.append(_iter_table_chunks(normalize_table(extra_sorted, lake_sch), chunk_rows))
    for slices in _aligned_rounds(sources, key_cols):
        parts = [s for s in slices if s is not None]
        merged = _merge_take(
            parts[0] if len(parts) == 1 else pa.concat_tables(parts), key_cols, live
        )
        if merged.num_rows:
            yield merged


def partition_chunks(
    files: list[str],
    lake_sch: pa.Schema,
    key_cols: tuple[str, ...],
    extra_sorted: pa.Table | None = None,
    conjuncts=None,
    chunk_rows: int = 65536,
    live: bool = False,
):
    """THE merge-on-read of one partition's file stack (oldest first),
    plus an optional key-sorted in-memory table folded in last (an
    epoch's reduced changes at compaction). Yields non-empty, key-sorted,
    key-complete, LWW-reduced chunks with their bookkeeping columns.
    Every partition read — snapshot, changefeed, diff, compaction and
    view rebuilds — goes through here.

    Tombstones are yielded unless ``live``: a live-state read (snapshot,
    the skew scan, views, history, publish) drops them from the
    LWW survivor indices before the merge's one gather
    (:func:`_merge_take`), on every path below; compaction, changefeed
    and diff keep them.

    A stack whose footer row count, plus ``extra_sorted``'s rows, is at
    most ``chunk_rows`` takes the whole-partition
    :func:`merge_partition_files` and yields one chunk: it holds no more
    than one streamed chunk would, and skips the per-round alignment
    cost. ``extra_sorted`` joins that merge's concat, so the stack and
    the changes are sorted and gathered once, by one LWW pass. Above
    that, engine-written stacks (``_is_cdc_sorted``) of a ≤2-column PK
    stream through :func:`iter_merged_partition`, so peak memory is
    O(min(stack, chunk × files)); writer-staged (unsorted) files and
    wider PKs always take the whole-partition merge. Footers come from
    the :func:`_footer` cache. ``conjuncts`` skip row groups by footer stats
    (PK conjuncts under merge, any conjunct on a PK-less table)."""
    files = list(files)
    rows = sum(_footer(f).metadata.num_rows for f in files)
    if extra_sorted is not None:
        rows += extra_sorted.num_rows
    if rows > chunk_rows and key_cols and len(key_cols) <= 2 and _is_cdc_sorted(files):
        yield from iter_merged_partition(
            files, lake_sch, key_cols, extra_sorted, chunk_rows, conjuncts, live
        )
        return
    t = merge_partition_files(files, lake_sch, key_cols, conjuncts, extra_sorted, live)
    if t.num_rows:
        yield t


#: largest output block of a partition read (beside ``chunk_rows``, the
#: rows a merged chunk holds), declared on the read's own Dataset
#: context: Ray Data slices any output block past 1.5× it, so it holds
#: whatever a chunk weighs. Ray Data prices a running task with no output
#: yet at two blocks of this size (its streaming-generator buffer).
#: Budget: Ray Data's object-store share is half the store (500 MB of
#: 1 GB); half of that is reserved evenly over the plan's operators, with
#: half of each reservation kept for the operator's outputs, and the rest
#: is shared. For a read plus one consumer operator the read's task
#: budget is ~62 MB reserved + ~125 MB shared: one 268 MB task at the
#: 128 MiB default (the tasks ran one at a time), two 67 MB tasks at
#: 32 MiB (one per CPU of a 2-CPU node).
READ_BLOCK_BYTES = 32 << 20


def _item_bytes(item: dict) -> int:
    """Bytes of the files a read or view item lists: every path inside its
    list values, nested lists and tuples included (a view item lists a
    stack per source and each salted key's fanout files). A file that is
    gone weighs 0 here and fails loud in its task."""
    total = 0
    todo = [v for v in item.values() if isinstance(v, list)]
    while todo:
        v = todo.pop()
        if isinstance(v, (list, tuple)):
            todo.extend(v)
        elif isinstance(v, str):
            try:
                total += os.path.getsize(v)
            except OSError:
                pass
    return total


def _partition_dataset(parts: list[dict], per_part, empty: pa.Table) -> "ray.data.Dataset":
    """The per-partition read driver: runs ``per_part(item)`` (a generator
    of Arrow tables) for every partition item inside Ray Data tasks, so
    nothing lands on the driver. Empty outputs are dropped; a read with no
    partitions, or whose partitions yield nothing, still carries
    ``empty``'s schema.

    The items are packed onto ``min(len(parts), cluster CPUs)`` tasks by
    :func:`_pack_partitions` (the reduce's packer), loaded by the bytes of
    the files each item lists, so every pool slot is busy: one short task
    per partition left Ray Data admitting about one task at a time. A
    task streams its items one after the other, so its memory stays one
    partition's chunk stream, and each partition's rows keep their key
    order (Ray Data never promised an order across blocks). The Dataset's
    own context declares :data:`READ_BLOCK_BYTES`, so Ray Data's memory
    backpressure (left on) budgets one task per CPU; the global
    ``DataContext`` is not touched."""
    import numpy as np

    if not parts:
        return ray.data.from_arrow(empty)
    # +1: an item that lists no bytes still gets a task
    loads = np.array([1 + _item_bytes(item) for item in parts], dtype=np.int64)
    groups = _pack_partitions(loads, int(ray.cluster_resources().get("CPU", 1)))

    def resolve(batch: pa.Table):
        _single_threaded_arrow()
        yielded = False
        for i in batch.column("group")[0].as_py():
            for t in per_part(parts[i]):
                if t.num_rows:
                    yielded = True
                    yield t
        if not yielded:
            yield empty

    ds = ray.data.from_items([{"group": g} for g in groups]).map_batches(
        resolve, batch_format="pyarrow", batch_size=1
    )
    ds.context.target_max_block_size = READ_BLOCK_BYTES
    return ds


def _write_merged_stream(
    tmp_path: str,
    files: list[str],
    lake_sch: pa.Schema,
    key_cols: tuple[str, ...],
    extra_sorted: pa.Table | None = None,
    epoch_id: int = 0,
    ttl: int | None = None,
) -> tuple[int, int, dict]:
    """Stream the partition merge (:func:`partition_chunks`) to
    ``tmp_path`` with :func:`lake_parquet_args` — each merged chunk
    written as row groups of at most ``ROW_GROUP_ROWS`` rows, so
    compaction peak memory is O(chunk × files), not O(partition).
    Applies the tombstone-TTL filter chunk-locally. Returns
    ``(rows_written, tombstones, zone_stats)`` — zone-map column stats
    accumulated chunk-wise over exactly what was written."""
    writer = None
    rows = tomb = 0
    zcols = _zone_cols(lake_sch)
    args = lake_parquet_args(lake_sch)
    row_group_size = args.pop("row_group_size")
    stats: dict | None = None
    try:
        for chunk in partition_chunks(files, lake_sch, key_cols, extra_sorted):
            if ttl is not None:
                # GC tombstones older than the out-of-orderness horizon: an
                # event that could resurrect the key can no longer arrive
                expired = pc.and_(
                    chunk.column(DELETED_COL), pc.less(chunk.column(LSN_COL), epoch_id - ttl)
                )
                chunk = chunk.filter(pc.invert(expired))
            if writer is None:
                writer = pq.ParquetWriter(tmp_path, chunk.schema, **args)
            writer.write_table(chunk, row_group_size=row_group_size)
            rows += chunk.num_rows
            tomb += pc.sum(chunk.column(DELETED_COL)).as_py() or 0
            stats = zone.merge_stats(stats, zone.table_stats(chunk, zcols))
        if writer is None:  # empty partition still needs a valid file
            writer = pq.ParquetWriter(tmp_path, lake_sch, **args)
    finally:
        if writer is not None:
            writer.close()
    return rows, tomb, stats or {}


def _reject_null_keys(t: pa.Table, key_cols, what: str) -> None:
    """Null keys would silently co-group in the hash partitioner and the
    LWW boundary mask treats NaN codes as distinct — refuse the feed
    instead of committing PK-violating rows."""
    for k in key_cols:
        nc = t.column(k).null_count
        if nc:
            raise ValueError(f"{what} has {nc} NULL values in key column {k!r}")


def _dq_gate_changes(
    t: pa.Table,
    checks: list,
    mode: str,
    failure_dir: str,
    table_name: str,
    key_cols: tuple,
    tag: str,
    rc: dict,
) -> pa.Table:
    """Declared-rule DQ gate on an epoch's change rows, fused into the
    map round (the reference gates its bronze ingest the same way —
    /root/reference/src/models/data_quality_evaluator.py:88-102).
    DELETE tombstones are exempt: they carry key + op + ts only, so
    payload rules must not judge their null row images. Per-failing-row
    detail lands under ``_metrics/dq_failures`` (``quality.read_failures``
    is the audit surface). ``mode``: rows failing an ERROR rule are
    dropped pre-apply (``"quarantine"``) or abort the epoch pre-commit
    (``"error"`` — the 2PC keeps the table untouched); WARN failures are
    recorded and applied either way."""
    from ..functions.quality import FAILURE_SCHEMA, DQError, _row_keys

    not_del = pc.fill_null(pc.invert(pc.equal(t.column("op"), "D")), False)
    err_mask = None
    detail: list[pa.Table] = []
    keys = None
    for chk in checks:
        m = pc.and_(pc.fill_null(chk.fail_mask(t), False), not_del)
        n = pc.sum(m).as_py() or 0
        if not n:
            continue
        if keys is None:
            keys = _row_keys(t, key_cols)
        failed = pc.filter(keys, m)
        failed = failed.combine_chunks() if isinstance(failed, pa.ChunkedArray) else failed
        detail.append(
            pa.table(
                {
                    "table_name": pa.array([table_name] * n, pa.string()),
                    "rule_name": pa.array([chk.name] * n, pa.string()),
                    "column": pa.array([chk.column] * n, pa.string()),
                    "criticality": pa.array([chk.criticality] * n, pa.string()),
                    "row_key": failed,
                    "job_id": pa.array([rc.get("job_id")] * n, pa.string()),
                    "run_id": pa.array([rc.get("run_id")] * n, pa.string()),
                    "date": pa.array([rc.get("date")] * n, pa.string()),
                },
                schema=FAILURE_SCHEMA,
            )
        )
        if chk.criticality == "error":
            err_mask = m if err_mask is None else pc.or_(err_mask, m)
    if detail:
        os.makedirs(failure_dir, exist_ok=True)
        # 'failures-' prefix: quality.read_failures is the read surface
        out = os.path.join(failure_dir, f"failures-{tag}.parquet")
        tmp = f"{out}.tmp-{os.getpid()}"
        pq.write_table(pa.concat_tables(detail), tmp)
        os.replace(tmp, out)  # deterministic per tag: retry-idempotent
    if err_mask is not None:
        n_bad = pc.sum(err_mask).as_py() or 0
        if mode == "error":
            raise DQError(
                f"{n_bad} change rows failed ERROR-criticality rules in {tag} "
                f"(detail under {failure_dir})"
            )
        t = t.filter(pc.invert(err_mask))
    return t


@ray.remote(num_returns=2)
def _prep_segment_task(
    path: str,
    chg_schema: pa.Schema,
    key_cols: tuple,
    num_partitions: int,
    salt_map: dict | None = None,
    dq: tuple | None = None,
    transform=None,
):
    """Read one changelog segment, LWW-combine (adaptively), and sort it
    by hash partition of the leading key. Returns two objects: the
    pid-sorted table and its ``bounds`` (``num_partitions + 1`` row
    offsets; partition ``p`` owns rows ``[bounds[p], bounds[p+1])``).

    The wide ``text`` column is gathered exactly ONCE: survivor selection
    runs on narrow key/order columns only, the hash-partition order is
    composed with the survivor indices, and a single fused ``take``
    produces the pid-grouped table (two separate gathers measured ~2×
    this stage's wall at 8-way concurrency — gathers of wide strings are
    the memory-bandwidth hot spot).

    The combiner runs only when it pays: the leading key is
    dictionary-encoded once, :func:`distinct_key_count` counts the
    segment's distinct key tuples exactly from those codes (no sort), and
    the survivor pass (:func:`lww_survivor_indices`, sorting the same
    codes) runs only when that count is at most :data:`COMBINER_KEEP_MAX`
    of the rows (hot logs). Otherwise rows route in arrival order and the
    per-partition reduce performs the dedup. The decision is per segment
    and stateless. Routing hashes the encoded key's dictionary, so each
    distinct key is hashed once (ids bit-identical to hashing every row).
    """
    import numpy as np

    _single_threaded_arrow()
    t = _parquet(path, _footer(path, cache=False)).read()
    if transform is not None:
        # map-side event transform (see CDCEngine.event_transform): runs on
        # the RAW segment rows, before schema normalization, so derived
        # columns it adds participate in evolution like source columns
        t = transform(t)
    t = normalize_table(t, chg_schema)
    _reject_null_keys(t, key_cols, f"changelog segment {os.path.basename(path)!r}")
    if dq is not None:
        mode, checks, failure_dir, table_name, rc, epoch_id = dq
        t = _dq_gate_changes(
            t,
            checks,
            mode,
            failure_dir,
            table_name,
            key_cols,
            f"epoch-{epoch_id:012d}-{os.path.basename(path).rsplit('.', 1)[0]}",
            rc,
        )

    # the leading key, dictionary-encoded ONCE: its indices count the
    # distinct key tuples, its ranked dictionary codes the combiner's
    # sort, and routing hashes each distinct value once
    n = t.num_rows
    order_cols = _lww_order(chg_schema, "lsn")
    narrow = t.select([*key_cols, *order_cols])
    k0 = narrow.column(0).combine_chunks()
    if is_binary_like(k0.type):
        narrow = narrow.set_column(0, key_cols[0], pc.dictionary_encode(k0))
    surv = None
    if distinct_key_count(narrow, key_cols) <= COMBINER_KEEP_MAX * n:
        surv = lww_survivor_indices(narrow, key_cols, order_cols)
        if _has_patches(t):
            # partial images (op="P") make the per-key fold non-associative
            # across segments (another segment's patch may interleave
            # between this segment's base and patches) — so PATCH KEYS
            # route all their rows unreduced while every other key still
            # combines (a trickle of patches must not disable the hot-key
            # combiner for a whole 500k-row segment); the per-partition
            # reduce performs the exact patch-aware fold
            codes = _pair_codes(t, key_cols)
            member = pc.is_in(
                codes, value_set=pc.unique(pc.filter(codes, pc.equal(t.column("op"), "P")))
            ).to_numpy(zero_copy_only=False)
            surv = np.union1d(surv[~member[surv]].astype(np.int64), np.flatnonzero(member))
        if len(surv) > COMBINER_KEEP_MAX * n:
            surv = None
    rows = np.arange(n, dtype=np.int64) if surv is None else surv

    # partition on the FIRST primary-key column only: all turns of a
    # conversation (all rows of an entity) co-locate, which is what makes
    # per-key LWW and stable ordering partition-local (SURVEY.md §4.2).
    # Keys flagged in the manifest's salt_map fan out by the second key
    # column (full PK still single-partition — skew mitigation, §7.4).
    keys_t = narrow.select(list(key_cols[:2]))
    if surv is not None:
        keys_t = keys_t.take(pa.array(surv))
    pid_surv = salted_partition_ids(keys_t, key_cols, num_partitions, salt_map)
    order = np.argsort(pid_surv, kind="stable")
    t = t.take(pa.array(rows[order]))  # the single wide gather
    bounds = np.searchsorted(pid_surv[order], np.arange(num_partitions + 1))
    return t, bounds


def _pack_partitions(loads, max_tasks: int) -> list[list[int]]:
    """THE task packer: group the indices with ``loads[i] > 0`` into at
    most ``max_tasks`` tasks, largest load first onto the least-loaded
    task, so work is sized by measured load, not by partition count
    (FP-Hadoop, VLDB 2015). The reduce packs touched partitions by rows;
    :func:`_partition_dataset` packs read items by file bytes.
    Deterministic: equal loads go in index order; each group is sorted."""
    import heapq

    import numpy as np

    touched = np.flatnonzero(loads)
    touched = touched[np.argsort(-loads[touched], kind="stable")]
    groups: list[list[int]] = [[] for _ in range(min(len(touched), max_tasks))]
    heap = [(0, i) for i in range(len(groups))]
    for pid in touched.tolist():
        load, i = heapq.heappop(heap)
        groups[i].append(pid)
        heapq.heappush(heap, (load + int(loads[pid]), i))
    return [sorted(g) for g in groups]


@ray.remote
def _apply_pid_task(ctx: dict, key_cols: tuple, pids: list[int], bounds, *tables: pa.Table):
    """Reduce task for a load-packed group of partitions. ``tables`` are
    the epoch's map outputs (one pid-sorted table per segment) and
    ``bounds`` their stacked row offsets (segments × (P + 1)); each pid's
    rows are zero-copy slices of every table. Returns one meta per pid.

    The tables travel whole: Ray keeps one copy of an object per node, so
    a reducer on another node pulls each segment table once per node, not
    once per reducer."""
    _single_threaded_arrow()
    metas = []
    for pid in pids:
        parts = [
            t.slice(int(lo), int(hi - lo))
            for t, lo, hi in zip(tables, bounds[:, pid], bounds[:, pid + 1])
            if hi > lo
        ]
        metas.append(_apply_partition(ctx, pid, key_cols, parts))
    return metas


def _apply_partition(ctx: dict, pid: int, key_cols: tuple, parts: list[pa.Table]) -> dict:
    """One partition's reduce: concat its non-empty pieces, LWW-reduce (or
    patch-fold), write the delta (or compacted base) file. Deterministic
    staged file names keep retries idempotent."""
    changes = pa.concat_tables(parts)
    lake_sch = ctx["lake_schema"]
    existing = ctx["part_files"].get(pid, [])
    patches_discarded = 0
    if _has_patches(changes):
        changes, patches_discarded = _fold_epoch_patches(
            changes, key_cols, existing, lake_sch
        )
    else:
        changes = lww_reduce(changes, key_cols, _lww_order(changes.schema, "lsn"))
        changes = _changes_to_lake_rows(changes, lake_sch)
    n_events = sum(p.num_rows for p in parts)
    compacting = len(existing) + 1 > ctx["compact_every"]
    mode = "base" if compacting else "delta"
    out_dir = os.path.join(
        ctx["table_dir"], "data", f"part={pid:05d}", f"epoch={ctx['epoch_id']:012d}"
    )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{mode}-{pid:05d}-{ctx['epoch_id']:012d}.parquet")
    retained_path = None
    if compacting:
        # compaction: STREAM base+deltas+changes into one base file —
        # write volume amortizes to changes + table/compact_every per
        # epoch (LSM merge-on-read), peak memory O(chunk × files)
        tmp = f"{path}.tmp-{os.getpid()}"
        rows, tombstones, zstats = _write_merged_stream(
            tmp,
            existing,
            lake_sch,
            key_cols,
            extra_sorted=changes,
            epoch_id=ctx["epoch_id"],
            ttl=ctx.get("tombstone_ttl_lsn"),
        )
        os.replace(tmp, path)  # idempotent under retry: deterministic content+path
        if ctx.get("retain_changefeed"):
            # the epoch's changes fold straight into the base, so also
            # persist them as a retained changefeed delta
            retained_path = os.path.join(
                out_dir, f"delta-{pid:05d}-{ctx['epoch_id']:012d}.parquet"
            )
            _write_data_file(changes, retained_path)
    else:
        # delta write: the epoch's reduced changes only — apply never
        # touches existing data outside compaction epochs
        _write_data_file(changes, path)
        rows = changes.num_rows
        tombstones = pc.sum(changes.column(DELETED_COL)).as_py() or 0
        zstats = zone.table_stats(changes, _zone_cols(lake_sch))
    return {
        "pid": pid,
        "path": path,
        "mode": mode,
        "rows_live": rows - tombstones,
        "tombstones": tombstones,
        "bytes": os.path.getsize(path),
        "events": n_events,
        "retained_path": retained_path,
        "zone_stats": zstats,
        "patches_discarded": patches_discarded,
    }


@ray.remote
def _copy_files_task(srcs: list[str], dsts: list[str]) -> int:
    """Deep-clone worker: copy one partition's data files into the clone's
    layout (tmp + atomic rename — a killed clone leaves no half-file that
    a retry would mistake for done). Returns the file count."""
    import shutil

    for s, d in zip(srcs, dsts):
        os.makedirs(os.path.dirname(d), exist_ok=True)
        tmp = f"{d}.tmp-{os.getpid()}"
        shutil.copyfile(s, tmp)
        os.replace(tmp, d)
    return len(srcs)


@ray.remote
def _purge_pid_task(
    table_dir: str,
    pid: int,
    files: list[tuple[str, str]],
    key0: str,
    vals: list,
    lake_sch: pa.Schema,
    new_version: int,
) -> list[dict]:
    """Rewrite one partition's files with every row of the purged keys
    physically removed (tombstones included — the key VALUE itself must
    not survive). ``files`` is ``(path, kind)`` with kind ``"live"``
    (manifest-listed) or ``"retained"`` (changefeed-retention registry).

    Returns one dict per file that actually contained a purged key:
    ``{"old", "new" (None = every row purged → drop the file), "kind",
    "live_removed", "rows", "zstats"}``. Files without a match are not
    reported — they stay in the manifest by path identity, untouched.
    Idempotent: deterministic output path + atomic replace."""
    _single_threaded_arrow()
    key_set = pa.array(sorted(vals), lake_sch.field(key0).type)
    zcols = _zone_cols(lake_sch)
    out: list[dict] = []
    out_dir = os.path.join(
        table_dir, "data", f"part={pid:05d}", f"purge=v{new_version:08d}"
    )
    for path, kind in files:
        # the probe is only a gate: a file holding no purged key is never
        # decoded whole
        if not _read_keys(path, lake_sch, key0, vals).num_rows:
            continue
        t = _read_pruned(path, lake_sch)
        mask = pc.is_in(t.column(key0), value_set=key_set)
        dropped = t.filter(mask)
        kept = t.filter(pc.invert(mask))
        live_removed = int(
            dropped.num_rows - (pc.sum(dropped.column(DELETED_COL)).as_py() or 0)
        )
        if kept.num_rows == 0:
            out.append(
                {
                    "old": path,
                    "new": None,
                    "kind": kind,
                    "live_removed": live_removed,
                    "rows": 0,
                    "zstats": None,
                }
            )
            continue
        os.makedirs(out_dir, exist_ok=True)
        new_path = os.path.join(out_dir, os.path.basename(path))
        _write_data_file(kept, new_path)
        out.append(
            {
                "old": path,
                "new": new_path,
                "kind": kind,
                "live_removed": live_removed,
                "rows": int(
                    kept.num_rows - (pc.sum(kept.column(DELETED_COL)).as_py() or 0)
                ),
                "zstats": zone.table_stats(kept, zcols),
            }
        )
    return out


@ray.remote
def _hot_keys_task(
    files: list, lake_sch: pa.Schema, key_cols: tuple, min_share: float
) -> list:
    """Attribute a hot partition's volume to leading-key values: returns
    the key0 values holding ≥ min_share of the partition's live rows."""
    _single_threaded_arrow()
    live = merge_partition_files(list(files), lake_sch, key_cols, live=True)
    if live.num_rows == 0:
        return []
    vc = live.column(key_cols[0]).to_pandas().value_counts()
    share = vc / live.num_rows
    return [v for v, s in share.items() if s >= min_share]


@ray.remote
def _resalt_partition_task(
    table_dir: str,
    pid: int,
    files: list,
    lake_sch: pa.Schema,
    key_cols: tuple,
    full_salt: dict,
    num_partitions: int,
    version: int,
    epoch_id: int,
) -> dict:
    """Migrate a partition's rows for newly salted keys to their salted
    partitions. The source is rewritten (compacted, minus moved rows);
    each target receives one staged file (named ``base-`` so the
    changefeed conservatively treats the migration like a compaction).
    Only staged files are written here — visibility comes from the
    driver's single manifest commit (2PC)."""
    _single_threaded_arrow()
    merged = merge_partition_files(list(files), lake_sch, key_cols)
    route_cols = route_columns(key_cols, lake_sch.names)
    keys_t = merged.select(list(route_cols[:2]))
    # full_salt (old + new) — rows previously salted INTO this partition
    # must keep their existing homes, only the new keys move
    pid_new = salted_partition_ids(keys_t, route_cols, num_partitions, full_salt)
    out_dir = os.path.join(table_dir, "data", f"part={pid:05d}", f"salt=v{version:08d}")

    import numpy as np

    def write_part(t: pa.Table, target: int) -> tuple[str, int, dict]:
        d = os.path.join(table_dir, "data", f"part={target:05d}", f"salt=v{version:08d}")
        os.makedirs(d, exist_ok=True)
        # 'base' prefix: read_changes must not replay migrated (old) rows
        # as fresh changes — consumers behind this point re-sync, exactly
        # the compaction-horizon contract. '-fromNNN' disambiguates two
        # sources migrating into the same target in one pass.
        path = os.path.join(d, f"base-{target:05d}-{epoch_id:012d}-from{pid:05d}.parquet")
        _write_data_file(t, path)
        live = t.num_rows - (pc.sum(t.column(DELETED_COL)).as_py() or 0)
        return path, live, zone.table_stats(t, _zone_cols(lake_sch))

    kept_mask = pid_new == pid
    moved: dict[int, tuple[str, int, dict]] = {}
    for target in np.unique(pid_new[~kept_mask]):
        sub = merged.filter(pa.array(pid_new == target))
        path, live, zstats = write_part(sub, int(target))
        moved[int(target)] = (path, live, zstats)
    kept = merged.filter(pa.array(kept_mask))
    if kept.num_rows:
        kept_path, _live, kept_stats = write_part(kept, pid)
    else:
        kept_path, kept_stats = None, {}
    return {
        "pid": pid,
        "kept_path": kept_path,
        "kept_stats": kept_stats,
        "moved": moved,
    }


def _require_data_files(man: Manifest, what: str) -> None:
    """Fail loud when ``vacuum`` already reclaimed a data file ``man``
    references — vacuum ends time travel, and with it restore, clone and
    diff, to superseded versions."""
    missing = [f for f in man.data_files() if not os.path.exists(f)]
    if missing:
        raise ValueError(
            f"cannot {what}: {len(missing)} data files were vacuumed "
            f"(first: {os.path.basename(missing[0])!r})"
        )


def _reset_changefeed(man: Manifest) -> None:
    """Start changefeed coverage afresh at ``man``'s watermark (restore,
    clone): the retained-deltas registry and its activation stamp belong
    to another timeline or table, so consumers behind the watermark get
    the loud re-seed error, never a silent gap."""
    man.properties.pop("retained_deltas", None)
    man.properties.pop("retention_since_lsn", None)
    man.properties["changefeed_floor"] = max(
        int(man.properties.get("changefeed_floor", 0)), man.applied_lsn
    )


class CDCEngine:
    """Replays a changelog into a committed Parquet lake table.

    One instance per logical table; safe to re-create after a crash — all
    durable state lives in the table directory (manifest + data files).
    """

    def __init__(
        self,
        table_dir: str,
        spec: TableSpec = TRANSCRIPTS,
        num_partitions: int = DEFAULT_NUM_PARTITIONS,
        run_context: RunContext | None = None,
        compact_every: int = 4,
        tombstone_ttl_lsn: int | None = None,
        create_if_missing: bool = True,
        changefeed_retention_lsn: int | None | str = INHERIT,
        dq_mode: str | None = None,
        event_transform=None,
        commit_backend=None,
    ):
        self.table_dir = table_dir
        self.spec = spec
        #: optional map-side event transform applied to every raw segment
        #: table before schema normalization / LWW (a picklable callable
        #: ``pa.Table -> pa.Table`` with a ``transform_schema(pa.Schema)
        #: -> pa.Schema`` method so epoch evolution planning sees the
        #: POST-transform payload). Powers derived-at-ingest columns —
        #: pipelines/history.py's SCD2 envelope is the flagship user.
        if event_transform is not None and not hasattr(event_transform, "transform_schema"):
            raise TypeError(
                "event_transform must expose transform_schema(schema) -> schema "
                "(evolution planning runs on the post-transform shape)"
            )
        self.event_transform = event_transform
        if dq_mode not in (None, "quarantine", "error"):
            raise ValueError(f"dq_mode must be None, 'quarantine' or 'error', got {dq_mode!r}")
        #: opt-in DQ gate on the CDC apply path: evaluate the spec's
        #: declared rules (ColumnSpec.quality + NOT NULL) inside the map
        #: round — 'quarantine' drops ERROR-failing rows pre-apply,
        #: 'error' aborts the epoch pre-commit (see _dq_gate_changes)
        self.dq_mode = dq_mode
        #: a partition compacts when it would exceed this many live files
        #: (merge-on-read depth / write-amplification trade-off)
        self.compact_every = compact_every
        #: tombstone GC horizon: at compaction, delete-markers whose _lsn is
        #: more than this many LSNs behind the epoch watermark are dropped.
        #: A tombstone only matters while an OLDER event for its key can
        #: still arrive (bounded out-of-orderness of the log); None keeps
        #: tombstones forever (always safe, grows with total deletes — at
        #: 10^10 events set this to the source's re-delivery horizon).
        self.tombstone_ttl_lsn = tombstone_ttl_lsn
        #: commit_backend: storage primitives for the MANIFEST LOG —
        #: None = POSIX (local/NFS); state/backend.py's CAS flavor is the
        #: object-store deployment (data files need no atomicity anywhere)
        self.store = ManifestStore(table_dir, backend=commit_backend)
        self.run_context = run_context or RunContext()
        man = self.store.load()
        if man is None:
            if not create_if_missing:
                # read-only callers (CLI snapshot/changes/vacuum) must not
                # conjure an empty table out of a mistyped path
                raise FileNotFoundError(
                    f"no table manifest under {table_dir!r} (create_if_missing=False)"
                )
            # create-if-missing (reference CreateExecutor semantics,
            # /root/reference/src/delta_engine/execute/create_executor.py:26-57)
            props = dict(spec.properties)
            if changefeed_retention_lsn not in (INHERIT, None):
                props["changefeed_retention_lsn"] = int(changefeed_retention_lsn)
            man = create_table(self.store, spec, num_partitions, props)
        self.manifest = man
        # changefeed retention horizon: when set, delta files folded by a
        # compaction (or salt migration) are RETAINED in the manifest for
        # this many LSNs past their retirement instead of being vacuumed,
        # so ``read_changes`` keeps serving consumers that lag past a
        # compaction cycle. The horizon is persisted in the manifest and
        # inherited by default, so a maintenance engine that omits the
        # argument cannot destroy the registry; pass None to DISABLE
        # (drops the registry at the next fold — coverage break is loud).
        stored = man.properties.get("changefeed_retention_lsn")
        # equality, not identity: config plumbed through JSON delivers an
        # equal-but-not-interned "__inherit__" string (the create path
        # above already compares by equality)
        if changefeed_retention_lsn == INHERIT:
            self.changefeed_retention_lsn = stored
        else:
            self.changefeed_retention_lsn = changefeed_retention_lsn
            if stored != changefeed_retention_lsn:

                def set_retention(new_man: Manifest) -> None:
                    if changefeed_retention_lsn is None:
                        new_man.properties.pop("changefeed_retention_lsn", None)
                    else:
                        new_man.properties["changefeed_retention_lsn"] = int(
                            changefeed_retention_lsn
                        )

                self._commit(
                    "set_retention",
                    set_retention,
                    changefeed_retention_lsn=changefeed_retention_lsn,
                )

    def _commit(
        self,
        op: str,
        change=None,
        *,
        folded: bool | None = None,
        base: Manifest | None = None,
        **row,
    ) -> Manifest:
        """Commit the version after ``base`` (default: this engine's
        manifest) through :func:`commit_version`, with the run context on
        its history row, and make it this engine's manifest. ``folded`` is
        set by the commits that replace partition stacks (True when one
        folded deltas into a new base): the one place the changefeed
        retention registry is pruned and its coverage re-checked."""

        def edit(new_man: Manifest) -> None:
            if change is not None:
                change(new_man)
            if folded is not None:
                self._prune_retained(new_man)
                self._invalidate_retention_coverage(new_man, folded=folded)

        self.manifest = commit_version(
            self.store,
            self.manifest if base is None else base,
            op,
            edit,
            **row,
            **self.run_context.as_dict(),
        )
        return self.manifest

    # ------------------------------------------------------------------
    @property
    def key_cols(self) -> tuple[str, ...]:
        return tuple(self.manifest.primary_key)

    @property
    def salt_map(self) -> dict:
        """Hot-key fanout map (leading-key value → fanout), committed in
        the manifest so routing stays consistent across epochs/restarts."""
        return self.manifest.properties.get("salt_map", {})

    # -- changefeed retention ------------------------------------------
    def _retire_deltas(self, new_man: Manifest, old_files: list[str]) -> None:
        """Move superseded DELTA files into the manifest's retained-deltas
        registry (changefeed retention) instead of letting vacuum take
        them. Base files need no retention — the feed never reads them."""
        if self.changefeed_retention_lsn is None:
            return
        entries = list(new_man.properties.get("retained_deltas", []))
        new_man.properties["retained_deltas"] = entries  # never the base's list
        for f in old_files:
            m = _CDC_FILE_RE.match(os.path.basename(f))
            if m and m.group(1) == "delta":
                # retired_lsn = the retiring commit's watermark: retention is
                # promised "past retirement", not past creation — a delta
                # created at epoch E but folded much later stays readable
                # for the full window after the fold
                entries.append(
                    {
                        "path": f,
                        "epoch_id": int(m.group(3)),
                        "retired_lsn": int(new_man.applied_lsn),
                    }
                )

    def _prune_retained(self, new_man: Manifest) -> None:
        """Drop retained deltas past the retention horizon and advance the
        changefeed floor (the oldest since_lsn still reconstructible).
        Also stamps ``retention_since_lsn`` on the FIRST retention-enabled
        commit: folds from BEFORE that watermark were never retained, so
        ``read_changes`` must still raise for them rather than silently
        skipping their base files."""
        if self.changefeed_retention_lsn is None:
            return
        if "retention_since_lsn" not in new_man.properties:
            # everything already folded up to the PREVIOUS watermark is
            # unrecoverable; coverage starts with this commit's folds
            prev_lsn = self.manifest.applied_lsn
            new_man.properties["retention_since_lsn"] = prev_lsn
        entries = new_man.properties.get("retained_deltas", [])
        if not entries:
            return
        cutoff = new_man.applied_lsn - self.changefeed_retention_lsn
        floor = int(new_man.properties.get("changefeed_floor", 0))
        keep = []
        for e in entries:
            # prune on RETIREMENT lsn (see _retire_deltas); legacy entries
            # without the stamp fall back to creation epoch
            if int(e.get("retired_lsn", e["epoch_id"])) <= cutoff:
                floor = max(floor, int(e["epoch_id"]))
            else:
                keep.append(e)
        new_man.properties["retained_deltas"] = keep
        new_man.properties["changefeed_floor"] = floor

    def _invalidate_retention_coverage(self, new_man: Manifest, folded: bool) -> None:
        """A FOLD committed while retention is OFF breaks changefeed
        coverage for every earlier watermark (its deltas were never
        retained). Clear the activation stamp so a later re-enable
        re-stamps at its own watermark — consumers behind the off-window
        get the loud replay-from-snapshot error, never a silent gap.

        Retention OFF also drops the retained-deltas registry (advancing
        the floor past the dropped entries) — otherwise ``_prune_retained``
        never runs again and vacuum treats the retained files as live
        forever, an unbounded leak for tables that toggle retention off.
        A later re-enable sees the raised floor and fails loud."""
        if self.changefeed_retention_lsn is not None:
            return
        if folded:
            new_man.properties.pop("retention_since_lsn", None)
        entries = new_man.properties.pop("retained_deltas", None)
        if entries:
            floor = int(new_man.properties.get("changefeed_floor", 0))
            new_man.properties["changefeed_floor"] = max(
                [floor] + [int(e["epoch_id"]) for e in entries]
            )

    def _public_schema(self, lake: pa.Schema | None = None) -> pa.Schema:
        """``lake`` (default: the committed schema) minus bookkeeping columns."""
        lake = self.manifest.schema if lake is None else lake
        return pa.schema([f for f in lake if f.name not in (LSN_COL, DELETED_COL)])

    def _resolve_manifest(self, version: int | None, as_of_ts: float | None) -> Manifest:
        """The manifest a read targets: the committed one, an explicit
        ``version``, or the newest version committed at or before
        ``as_of_ts`` (mutually exclusive with ``version``)."""
        if as_of_ts is not None:
            if version is not None:
                raise ValueError("pass version or as_of_ts, not both")
            version = self.store.version_at(as_of_ts)
            if version is None:
                raise ValueError(
                    f"no version of {self.table_dir!r} was committed at or "
                    f"before ts={as_of_ts}"
                )
        return self.manifest if version is None else self.store.load(version)

    def _epoch_schemas(
        self, epoch: Epoch, public_schema: pa.Schema | None = None
    ) -> tuple[pa.Schema, pa.Schema, list[str]]:
        """Resolve schema evolution for this epoch.

        Returns ``(changelog_schema, new_lake_schema, changes)`` where
        changelog_schema = envelope + evolved payload columns.
        ``public_schema`` overrides the manifest's current public schema —
        the epoch driver plans epoch N+1 against the schema epoch N will
        commit (evolution is schema-deterministic, independent of data).
        """
        # an engine plans each segment once, so its footer is read
        # without caching it, and evicts no lake footer a lookup reuses
        schemas = [_footer(p, cache=False).schema_arrow for p in epoch.paths]
        incoming = schemas[0]
        for s in schemas[1:]:
            incoming, _ = merge_schemas(incoming, s)  # widening-aware unify
        if self.event_transform is not None:
            incoming = self.event_transform.transform_schema(incoming)
        payload = pa.schema([f for f in incoming if f.name not in _ENVELOPE])
        new_public, changes = plan_evolution(
            public_schema if public_schema is not None else self._public_schema(),
            payload,
            primary_key=self.key_cols,
        )
        new_lake = pa.schema(
            list(new_public)
            + [pa.field(LSN_COL, pa.int64(), nullable=False), pa.field(DELETED_COL, pa.bool_(), nullable=False)]
        )
        chg_schema = pa.schema(
            [incoming.field("lsn"), incoming.field("op")] + list(new_public)
        )
        return chg_schema, new_lake, changes

    def _dq_args(self, epoch_id: int) -> tuple | None:
        """Gate config shipped to the map tasks, or None when the gate is
        off or the spec declares no rules."""
        if self.dq_mode is None:
            return None
        from ..functions.quality import build_checks

        checks = build_checks(self.spec)
        if not checks:
            return None
        failure_dir = os.path.join(self.table_dir, "_metrics", "dq_failures")
        return (
            self.dq_mode,
            checks,
            failure_dir,
            self.spec.name,
            self.run_context.as_dict(),
            epoch_id,
        )

    def _submit_prep(self, epoch: Epoch, chg_schema: pa.Schema) -> list:
        """Submit the map round for an epoch: one ``(table, bounds)`` ref
        pair per segment. Prep tasks are pure — they read immutable
        segments and never touch the manifest, so the epoch driver may
        launch them before the previous epoch commits."""
        num_partitions = self.manifest.num_partitions
        salt_map = self.salt_map
        dq = self._dq_args(epoch.epoch_id)
        return [
            _prep_segment_task.remote(
                p, chg_schema, self.key_cols, num_partitions, salt_map, dq,
                self.event_transform,
            )
            for p in epoch.paths
        ]

    def apply_epoch(self, epoch: Epoch, _precomputed: tuple | None = None) -> dict | None:
        """Apply one epoch exactly once. Returns commit info, or ``None`` if
        the epoch is already committed (resume / duplicate delivery).

        ``_precomputed`` (the epoch driver): ``(schemas_triple, prep_refs)``
        produced by ``_epoch_schemas``/``_submit_prep`` for THIS epoch."""
        man = self.manifest
        if not self.key_cols:
            # parity with the reference's merge guard (writer.py:48-51):
            # CDC apply IS a keyed MERGE; PK-less tables are append-only
            raise ValueError(
                f"CDC apply requires a primary key on table {man.table!r}"
            )
        if epoch.epoch_id <= man.applied_lsn:
            return None
        t0 = time.perf_counter()

        if _precomputed is not None:
            (chg_schema, new_lake, schema_changes), pre_prep = _precomputed
        else:
            chg_schema, new_lake, schema_changes = self._epoch_schemas(epoch)
            pre_prep = None
        key_cols = self.key_cols

        ctx_ref = ray.put(
            {
                "table_dir": self.table_dir,
                "lake_schema": new_lake,
                "epoch_id": epoch.epoch_id,
                "compact_every": self.compact_every,
                "tombstone_ttl_lsn": self.tombstone_ttl_lsn,
                "retain_changefeed": self.changefeed_retention_lsn is not None,
                "part_files": {pid: ps.files for pid, ps in man.partitions.items()},
            }
        )

        import numpy as np

        prep_refs = pre_prep if pre_prep is not None else self._submit_prep(epoch, chg_schema)
        tables = [table for table, _ in prep_refs]
        # every reduce task waits on every map task of its epoch anyway, so
        # fetching the tiny bounds first adds no barrier
        bounds = np.stack(ray.get([b for _, b in prep_refs]))  # segments × (P + 1)
        groups = _pack_partitions(
            (bounds[:, 1:] - bounds[:, :-1]).sum(axis=0),
            4 * int(ray.cluster_resources().get("CPU", 1)),
        )
        bounds_ref = ray.put(bounds)
        apply_refs = [
            _apply_pid_task.remote(ctx_ref, key_cols, pids, bounds_ref, *tables)
            for pids in groups
        ]
        metas = sorted(
            (m for group in ray.get(apply_refs) for m in group), key=lambda m: m["pid"]
        )

        # raw change-event count for throughput accounting. Segment names
        # carry their LSN range; ranges are dense for engine-written logs
        # (generator, writer staging), so no footer read is needed —
        # metrics-only accounting, not a correctness input.
        events_raw = sum(s.max_lsn - s.min_lsn + 1 for s in epoch.segments)
        dur = time.perf_counter() - t0
        rc = self.run_context.as_dict()
        metrics_rows = [
            {
                "epoch_id": epoch.epoch_id,
                "partition": m["pid"],
                "events_applied": m["events"],
                "rows_live": m["rows_live"],
                "tombstones": m["tombstones"],
                "bytes_written": m["bytes"],
                "applied_lsn": epoch.epoch_id,
                "duration_s": dur,
                **rc,
            }
            for m in metas
        ]
        metrics_mod.write_epoch_metrics(self.table_dir, epoch.epoch_id, metrics_rows)

        def place(new_man: Manifest) -> None:
            new_man.applied_lsn = epoch.epoch_id
            if schema_changes:
                new_man.set_schema(new_lake)
                new_man.schema_version += 1
            for m in metas:
                pid = int(m["pid"])
                prev = new_man.partitions.get(pid)
                zstats = m["zone_stats"]
                if m["mode"] == "base" or prev is None:
                    if prev is not None:
                        self._retire_deltas(new_man, prev.files)
                    if m.get("retained_path"):
                        new_man.properties["retained_deltas"] = [
                            *new_man.properties.get("retained_deltas", []),
                            {
                                "path": m["retained_path"],
                                "epoch_id": epoch.epoch_id,
                                "retired_lsn": epoch.epoch_id,
                            },
                        ]
                    files = [m["path"]]  # compaction replaces the whole stack
                    fstats = {m["path"]: zstats} if zstats else {}
                else:
                    files = [*prev.files, m["path"]]  # delta appends (oldest first)
                    fstats = prev.pruned_stats()
                    if zstats:
                        fstats[m["path"]] = zstats
                new_man.partitions[pid] = PartitionState(
                    files=files, applied_lsn=epoch.epoch_id, file_stats=fstats
                )

        try:
            new_man = self._commit(
                "apply",
                place,
                folded=any(m["mode"] == "base" for m in metas),
                events=events_raw,
                partitions_touched=len(metas),
                schema_changes=schema_changes,
                duration_s=round(dur, 4),
                patches_discarded=sum(int(m.get("patches_discarded") or 0) for m in metas),
            )
        except CommitConflict:
            # another applier committed concurrently. If ITS commit covers
            # this epoch, this was duplicate delivery by a racing tailer —
            # rebase and no-op (staged files are byte-identical: immutable
            # segments + deterministic kernels + deterministic names, so
            # the clobber during staging was harmless). A conflict from a
            # commit that does NOT cover the epoch (e.g. a writer-surface
            # append) is a real single-applier violation — re-raise.
            latest = self.store.load()
            if latest is not None and latest.applied_lsn >= epoch.epoch_id:
                self.manifest = latest
                return None
            raise
        return new_man.history[-1]

    def replay(
        self,
        changelog: ChangeLog,
        segments_per_epoch: int = 4,
        vacuum: bool = True,
        pipelined: bool = True,
        auto_mitigate_skew: bool = False,
    ) -> ReplayStats:
        """Apply all not-yet-committed epochs; resumes from the manifest
        watermark (FIXTURES.md F6). One poll of :meth:`tail`: a single
        listing, drained with epoch N+1's map round overlapping epoch N's
        reduce+commit."""
        return self.tail(
            changelog, poll_s=0, max_polls=1,
            segments_per_epoch=segments_per_epoch, vacuum=vacuum,
            pipelined=pipelined, auto_mitigate_skew=auto_mitigate_skew,
        )

    # ------------------------------------------------------------------
    def tail(
        self,
        changelog: ChangeLog,
        poll_s: float = 2.0,
        max_polls: int | None = None,
        idle_stop_polls: int | None = None,
        views: list | None = None,
        *,
        segments_per_epoch: int = 4,
        vacuum: bool = True,
        pipelined: bool = True,
        auto_mitigate_skew: bool = False,
    ) -> ReplayStats:
        """FOLLOW the changelog: poll for segments past the manifest
        watermark and apply them — the engine's only epoch driver
        (:meth:`replay` is one poll of it). Commits are serialized through
        :meth:`apply_epoch`, so a killed tailer resumes from the last
        committed epoch.

        One prefetch window survives poll boundaries: while epoch N
        applies, the log is re-listed and epoch N+1's map round submitted,
        planned against the schema N will commit (prep tasks are pure and
        evolution is schema-deterministic). Epoch boundaries depend on
        what was visible at prefetch time; exactly-once is by watermark.

        A poll is one listing: at the loop top, or the in-flight re-list
        that found fresh segments. ``max_polls`` bounds both, so a
        sustained producer cannot keep a bounded call alive (the loop
        drains what it listed); ``idle_stop_polls`` stops after that many
        consecutive empty polls. Pass neither to follow forever.

        At each poll boundary after applied epochs (before a fresh listing
        and at drain) the ``views`` ``advance()`` — so a view never lags
        more than one poll, the changefeed-horizon contract — and then
        ``vacuum=True`` removes unreferenced data files. A view advance
        failure propagates; the lake epochs are already committed.

        ``auto_mitigate_skew=True`` runs :meth:`mitigate_skew` on each
        committed epoch; a successful mitigation re-submits the
        prefetched map round (routed with the old salt map).
        ``pipelined`` accepts only ``True``. ``seconds`` in the returned
        stats is the call's wall time, idle polls included."""
        if not pipelined:
            raise ValueError("pipelined=False is gone: the epoch driver always prefetches")
        stats = ReplayStats()
        t0 = time.perf_counter()
        polls = idle = 0
        applied_since_boundary = 0
        public = self._public_schema()
        queue: list = []  # listed-but-not-prepped epochs
        pending: tuple | None = None  # (epoch, schemas, prep) in flight
        listed_through = self.manifest.applied_lsn  # newest lsn we've listed

        def poll_boundary() -> None:
            nonlocal applied_since_boundary
            if applied_since_boundary:
                for v in views or ():
                    v.advance()
                if vacuum:
                    self.store.vacuum(self.manifest)
            applied_since_boundary = 0

        while True:
            if pending is None and not queue:
                queue = changelog.epochs(segments_per_epoch, after_lsn=listed_through)
                polls += 1
                if not queue:
                    poll_boundary()
                    idle += 1
                    if max_polls is not None and polls >= max_polls:
                        break
                    if idle_stop_polls is not None and idle >= idle_stop_polls:
                        break
                    if poll_s > 0:
                        time.sleep(poll_s)
                    continue
                idle = 0
                # segments list by min LSN, so with overlapping ranges the
                # last epoch need not hold the newest LSN
                listed_through = max([listed_through] + [e.epoch_id for e in queue])
                if max_polls is not None and polls >= max_polls:
                    # honor the bound but finish what this poll listed
                    max_polls = polls
            if pending is None:
                ep = queue.pop(0)
                schemas = self._epoch_schemas(ep, public)
                prep = self._submit_prep(ep, schemas[0])
            else:
                ep, schemas, prep = pending
                pending = None
            next_public = self._public_schema(schemas[1])
            # prefetch the NEXT epoch while this one applies; a dry queue
            # re-lists the log, which is a poll (bounded by max_polls, and
            # a poll boundary first) so mid-apply arrivals overlap too
            if not queue and (max_polls is None or polls < max_polls):
                fresh = changelog.epochs(segments_per_epoch, after_lsn=listed_through)
                if fresh:
                    poll_boundary()
                    queue = fresh
                    listed_through = max([listed_through] + [e.epoch_id for e in queue])
                    polls += 1
                    idle = 0
            if queue:
                nxt = queue.pop(0)
                nschemas = self._epoch_schemas(nxt, next_public)
                pending = (nxt, nschemas, self._submit_prep(nxt, nschemas[0]))
            info = self.apply_epoch(ep, _precomputed=(schemas, prep))
            public = next_public
            if info is None:
                stats.epochs_skipped += 1
            else:
                applied_since_boundary += 1
                stats.epochs_applied += 1
                stats.events += info["events"]
                stats.schema_changes.extend(info["schema_changes"])
                if auto_mitigate_skew and self.mitigate_skew(epoch_id=ep.epoch_id):
                    if pending is not None:
                        nxt, nschemas, _stale = pending
                        pending = (nxt, nschemas, self._submit_prep(nxt, nschemas[0]))
            if pending is None and not queue:
                poll_boundary()
                if max_polls is not None and polls >= max_polls:
                    break
        stats.seconds = time.perf_counter() - t0
        return stats

    def snapshot(
        self,
        pids: list[int] | None = None,
        columns: list[str] | None = None,
        predicate: list | None = None,
        prune_stats: dict | None = None,
        version: int | None = None,
        as_of_ts: float | None = None,
    ) -> "ray.data.Dataset":
        """Committed live rows as a streaming Dataset.

        ``version`` / ``as_of_ts`` time-travel the STREAMING reader to an
        older committed manifest (same semantics as ``snapshot_arrow``:
        every commit leaves its manifest snapshot; valid until vacuum
        removes the superseded data files) — at 100 TB this path, not the
        driver-side Arrow read, is how time travel is actually consumed.
        The projected schema is the RESOLVED version's (a snapshot taken
        before a schema evolution has the old columns).

        Merge-on-read: each hash partition is resolved inside a task —
        its manifest-listed base+delta files are read, LWW-reduced,
        stripped of tombstones and projected to public columns. Partitions
        are packed onto at most one task per CPU (:func:`_partition_dataset`),
        and a task resolves its partitions one at a time. Rows are
        key-sorted WITHIN a partition (stable turn ordering is
        partition-local; ``publish_snapshot`` preserves it per partition
        directory); no order holds across partitions.

        ``pids`` prunes the read to the given hash partitions — the
        partition-pushdown path for consumers that know the routing
        (incremental view maintenance, key-range scans): at 100 TB a
        reader interested in one entity class touches its partitions'
        files only, never the table.

        ``columns`` prunes the read to the given payload columns (output
        order follows the argument): only the PK, LWW-order and tombstone
        columns plus the requested payload are decoded from parquet — a
        consumer reading 2 of 6 columns never pulls the wide ``text``
        bytes through the merge.

        ``predicate`` — conjunction of ``(column, op, value)`` triples
        (``state/zonemap``) pushed down FOUR ways before the residual
        row filter runs inside the merge tasks:

        1. partition skip via manifest zone maps (always merge-safe:
           a merged row is a version of some file's row);
        2. per-file skip on PRIMARY-KEY conjuncts (LWW survivorship is
           per key, so a file whose key range excludes a key cannot
           affect it); PK-less append tables file-skip on ANY conjunct
           (concat, not merge);
        3. per-ROW-GROUP skip inside each opened file via footer stats
           (same conjunct-safety rule as 2) — base files are PK-sorted,
           so a key predicate decodes only the matching slice of the
           base even on a hash-spread table where tiers 1-2 can't bite;
        4. residual ``filter`` on each merged chunk — applied before
           the public projection, so predicate columns need not be in
           ``columns``.

        ``prune_stats`` (optional dict) receives the skip counters:
        ``partitions_total/read``, ``files_total/read``."""
        man = self._resolve_manifest(version, as_of_ts)
        full_public = self._public_schema(man.schema)
        public = full_public
        if columns is not None:
            bad = [c for c in columns if c not in public.names]
            if bad:
                raise ValueError(
                    f"unknown or internal columns {bad}; available: {public.names}"
                )
            public = pa.schema([public.field(c) for c in columns])
        predicate = list(predicate or [])
        if predicate:
            zone.validate_predicate(predicate)
            bad = [c[0] for c in predicate if c[0] not in full_public.names]
            if bad:
                raise ValueError(
                    f"predicate on unknown or internal columns {bad}; "
                    f"available: {full_public.names}"
                )
        key_cols = tuple(man.primary_key)
        # PK conjuncts may prune FILES under merge-on-read; on a PK-less
        # (append-only, concat) table every conjunct is file-safe
        file_cj, _ = (
            zone.split_key_conjuncts(predicate, key_cols) if key_cols else (predicate, [])
        )
        want = None if pids is None else set(pids)
        counters = {"partitions_total": 0, "partitions_read": 0,
                    "files_total": 0, "files_read": 0}
        parts = []
        for pid in sorted(man.partitions):
            ps = man.partitions[pid]
            if not ps.files or (want is not None and pid not in want):
                continue
            counters["partitions_total"] += 1
            counters["files_total"] += len(ps.files)
            fstats = ps.pruned_stats()
            if predicate and not zone.partition_can_match(fstats, ps.files, predicate):
                continue
            files = ps.files
            if file_cj:
                files = [f for f in files if zone.file_can_match(fstats.get(f), file_cj)]
                if not files:
                    continue
            counters["partitions_read"] += 1
            counters["files_read"] += len(files)
            parts.append({"pid": pid, "files": files})
        if prune_stats is not None:
            prune_stats.update(counters)
        lake = man.schema
        if columns is not None:
            # predicate columns must survive the projected merge even when
            # the caller's output columns don't include them
            pred_cols = [c[0] for c in predicate if c[0] not in columns]
            lake = pruned_lake_schema(lake, key_cols, columns + pred_cols)

        def post(t: pa.Table) -> pa.Table:
            if predicate:
                t = zone.filter_table(t, predicate)
            return t.select(public.names)

        def per_part(item: dict):
            # file_cj (PK conjuncts; ANY conjunct on PK-less) also skips
            # row groups INSIDE each file via footer stats — base files are
            # PK-sorted, so a key predicate decodes only the matching slice
            for chunk in partition_chunks(
                item["files"], lake, key_cols, conjuncts=file_cj, live=True
            ):
                yield post(chunk)

        return _partition_dataset(parts, per_part, public.empty_table())

    def column_bounds(self, column: str) -> tuple | None:
        """Global (min, max) of a public column from the manifest zone
        maps alone — no file opens, O(live files) driver work. The
        metadata answer to "what's the table's time watermark" /
        "what key range does it span". Returns None when any live file
        lacks stats for the column (pre-upgrade files, untracked type)
        or when no live rows carry a value — a conservative caller falls
        back to a scan. Bounds may be slightly WIDER than the live data
        (tombstoned rows count, truncated string maxima are bumped):
        correct for pruning decisions, not an exact aggregate."""
        man = self.manifest
        lo = hi = None
        unbounded_hi = False
        for ps in man.partitions.values():
            stats = ps.pruned_stats()
            for f in ps.files:
                s = stats.get(f, {}).get(column)
                if s is None:
                    return None  # a file we know nothing about
                if s["min"] is None:
                    continue  # all-null file for this column
                lo = s["min"] if lo is None else min(lo, s["min"])
                if s["open"] or s["max"] is None:
                    unbounded_hi = True
                else:
                    hi = s["max"] if hi is None else max(hi, s["max"])
        if lo is None:
            return None
        return (lo, None if unbounded_hi else hi)

    def compact(
        self,
        pids: list[int] | None = None,
        sort_by: list[str] | None = None,
        target_file_rows: int | None = None,
        cluster: str = "sort",
    ) -> int:
        """Maintenance compaction (the OPTIMIZE analogue): fold every
        multi-file partition's base+delta stack into one base file,
        regardless of the automatic threshold. One Ray task per partition;
        commits a single new manifest version. Returns partitions folded.

        ``sort_by`` — clustering for PK-LESS (append-only) tables: each
        partition is rewritten sorted by these columns and split into
        files of at most ``target_file_rows`` rows (default: one file),
        so consecutive files carry tight, non-overlapping zone-map ranges
        and a range predicate on the cluster column skips whole files
        (``state/zonemap``: append tables file-skip on ANY conjunct).
        This is the OPTIMIZE-with-clustering pass an append-heavy audit
        table needs after many small commits. Refused on keyed tables —
        their base files must stay PK-sorted for the streamed k-way LWW
        merge; re-clustering them would break merge-on-read.

        ``cluster`` — the layout within a clustering pass: ``"sort"``
        (default) is lexicographic on ``sort_by`` (tight ranges on the
        FIRST column — right when predicates hit one leading column);
        ``"zorder"`` interleaves the columns' rank bits (Morton order, ≥2
        columns) so every file's zone ranges are narrow on ALL the
        clustered columns and selective predicates on ANY of them skip
        files (see :func:`~..state.zonemap.zorder_permutation`).

        Note: folding ends the changefeed availability for watermarks older
        than the current applied LSN (read_changes documents the horizon)."""
        man = self.manifest
        if cluster not in ("sort", "zorder"):
            raise ValueError(f"cluster must be 'sort' or 'zorder', got {cluster!r}")
        if cluster == "zorder" and (not sort_by or len(sort_by) < 2):
            raise ValueError("cluster='zorder' needs sort_by with at least 2 columns")
        if sort_by:
            if self.key_cols:
                raise ValueError(
                    "sort_by clustering is only for PK-less (append-only) tables: "
                    "a keyed table's base files must stay PK-sorted for the "
                    "streamed LWW merge"
                )
            bad = [c for c in sort_by if c not in man.schema.names]
            if bad:
                raise ValueError(f"sort_by columns {bad} not in schema {man.schema.names}")
        min_files = 0 if sort_by else 1  # re-cluster even single-file partitions
        targets = [
            pid
            for pid in sorted(man.partitions)
            if (pids is None or pid in pids) and len(man.partitions[pid].files) > min_files
        ]
        if not targets:
            return 0
        lake = man.schema
        key_cols = self.key_cols
        table_dir = self.table_dir
        epoch_id = man.applied_lsn
        ttl = self.tombstone_ttl_lsn
        zcols = _zone_cols(lake)
        # output dir is salted with the TARGET manifest version: applied_lsn
        # does not advance on append-table commits, so two maintenance
        # compactions at the same watermark would otherwise os.replace the
        # previous run's LIVE committed files in place (corrupting time
        # travel, and the committed table itself on a crash mid-fold). The
        # version always advances per commit; a crashed attempt's orphans
        # are unreferenced and safely overwritten by its own retry.
        new_version = man.version + 1

        @ray.remote
        def fold(pid: int, files: list[str]) -> dict:
            _single_threaded_arrow()
            out_dir = os.path.join(
                table_dir,
                "data",
                f"part={pid:05d}",
                f"epoch={epoch_id:012d}",
                f"fold=v{new_version:08d}",
            )
            os.makedirs(out_dir, exist_ok=True)
            if sort_by:
                # cluster pass: concat (PK-less), order, split into bounded
                # files — each slice zero-copies the ordered table
                t = merge_partition_files(files, lake, key_cols)
                if cluster == "zorder":
                    from ..state.zonemap import zorder_permutation

                    t = t.take(zorder_permutation(t, sort_by))  # ONE wide gather
                else:
                    t = t.sort_by([(c, "ascending") for c in sort_by])
                per = int(target_file_rows or max(t.num_rows, 1))
                out = []
                for i in range(max(1, -(-t.num_rows // per))):
                    sub = t.slice(i * per, per)
                    path = os.path.join(
                        out_dir, f"sorted-{pid:05d}-{epoch_id:012d}-c{i:04d}.parquet"
                    )
                    _write_data_file(sub, path)
                    out.append((path, zone.table_stats(sub, zcols)))
                return {"pid": pid, "files": out}
            path = os.path.join(out_dir, f"base-{pid:05d}-{epoch_id:012d}.parquet")
            tmp = f"{path}.tmp-{os.getpid()}"
            _rows, _tombstones, zstats = _write_merged_stream(
                tmp, files, lake, key_cols, epoch_id=epoch_id, ttl=ttl
            )
            os.replace(tmp, path)
            return {"pid": pid, "files": [(path, zstats)]}

        metas = ray.get([fold.remote(pid, man.partitions[pid].files) for pid in targets])

        def place(new_man: Manifest) -> None:
            for m in metas:
                self._retire_deltas(new_man, new_man.partitions[m["pid"]].files)
                new_man.partitions[m["pid"]] = PartitionState(
                    files=[p for p, _ in m["files"]],
                    applied_lsn=epoch_id,
                    file_stats={p: z for p, z in m["files"] if z},
                )

        self._commit(
            "compact",
            place,
            folded=True,
            partitions=len(metas),
            **({"sort_by": list(sort_by), "cluster": cluster} if sort_by else {}),
        )
        return len(metas)

    def _migrate(
        self, man: Manifest, new_man: Manifest, pids: list[int], salt_map: dict, num_partitions: int
    ) -> int:
        """Move the rows of partitions ``pids`` of ``man`` to their homes
        under ``salt_map`` and ``num_partitions`` (one staged
        ``_resalt_partition_task`` per partition) and place the staged
        files into ``new_man``. Returns the live rows moved.

        TWO PHASES: every source's stack is replaced by its kept file
        first (its old files retire; a source left with no rows drops
        out), THEN moved files append to their targets. A source can
        itself be another migration's TARGET (two hot partitions salting
        into each other); interleaving replace/append would drop the
        earlier append."""
        metas = ray.get(
            [
                _resalt_partition_task.remote(
                    self.table_dir,
                    pid,
                    man.partitions[pid].files,
                    man.schema,
                    self.key_cols,
                    salt_map,
                    num_partitions,
                    new_man.version,
                    man.applied_lsn,
                )
                for pid in pids
            ]
        )
        for m in metas:
            src, kept = int(m["pid"]), m["kept_path"]
            self._retire_deltas(new_man, man.partitions[src].files)
            new_man.partitions.pop(src, None)
            if kept:
                new_man.partitions[src] = PartitionState(
                    files=[kept],
                    applied_lsn=man.applied_lsn,
                    file_stats={kept: m["kept_stats"]} if m.get("kept_stats") else {},
                )
        rows_moved = 0
        for m in metas:
            for tpid, (path, live, zstats) in m["moved"].items():
                st = new_man.partitions.setdefault(int(tpid), PartitionState())
                st.files.append(path)
                st.applied_lsn = man.applied_lsn
                rows_moved += int(live)
                if zstats:
                    st.file_stats[path] = zstats
        return rows_moved

    def mitigate_skew(
        self,
        factor: float = 4.0,
        fanout: int | None = None,
        min_share: float = 0.25,
        epoch_id: int | None = None,
    ) -> dict:
        """Detect → salt → migrate: the response half of ``detect_skew``
        (SURVEY.md §4.2/§7.4 — salting is a north-star requirement, not
        just a metric).

        1. Partitions whose latest-epoch ``events_applied`` exceeds
           ``factor`` × median are inspected for dominant leading-key
           values (≥ ``min_share`` of the partition's live rows).
        2. Each new hot key is added to the manifest's ``salt_map`` with
           ``fanout`` sub-partitions — future epochs route its rows by
           ``hash(key0) + hash(key1) % fanout`` (full PK still
           single-partition, so per-key LWW is untouched).
        3. One task per affected partition migrates the key's EXISTING
           rows to their salted homes (tombstones included), staged files
           + one atomic manifest commit. Changefeed consumers behind the
           migration must re-sync (moved files read as ``base``), same as
           after a compaction.

        Single-column-PK tables return {} (≤1 live row per key — no
        residual skew to split). Returns the newly salted keys."""
        if len(self.key_cols) < 2:
            return {}
        man = self.manifest
        num_partitions = man.num_partitions
        fanout = fanout or min(8, num_partitions)
        if fanout < 2 or num_partitions < 2:
            return {}
        hot = metrics_mod.detect_skew(self.table_dir, factor, epoch_id=epoch_id)
        affected = [
            h["partition"]
            for h in hot
            if man.partitions.get(h["partition"]) and man.partitions[h["partition"]].files
        ]
        if not affected:
            return {}
        lake = man.schema
        key_cols = self.key_cols
        known = decode_salt_map(self.salt_map, lake.field(key_cols[0]).type)

        cand = ray.get(
            [
                _hot_keys_task.remote(man.partitions[pid].files, lake, key_cols, min_share)
                for pid in affected
            ]
        )
        new_keys = encode_salt_map(
            {v: fanout for vals in cand for v in vals if v not in known}
        )
        if not new_keys:
            return {}

        salt_map = encode_salt_map(known) | new_keys

        def salt(new_man: Manifest) -> None:
            new_man.properties["salt_map"] = salt_map
            self._migrate(man, new_man, affected, salt_map, num_partitions)

        self._commit(
            "salt",
            salt,
            folded=True,
            keys=sorted(new_keys),
            fanout=fanout,
            partitions_migrated=len(affected),
        )
        return new_keys

    def reshard(self, new_num_partitions: int) -> dict:
        """Change the table's hash-partition count in ONE atomic commit —
        the explicit repartitioning operation for a cluster-size change
        (grow the cluster 4× → widen the merge/commit unit to match; the
        north rule's "partitioning handled explicitly" at the lifecycle
        level, not just per-epoch).

        One migration task per non-empty OLD partition (the same staged
        two-phase machinery as salt migration, ``_resalt_partition_task``):
        merge the partition's file stack, route every row by
        ``hash(key) % NEW_P`` (salt fanout preserved — a salted key's
        sub-partitions re-home under the new modulus), write one staged
        ``base-…-fromNNN`` file per target. Visibility is the single
        manifest swap; a crash before commit leaves only unreferenced
        staged files (vacuumed later). Subsequent epochs route with the
        committed manifest's partition count automatically.

        Consumer contract: migrated rows read as ``base`` — changefeed
        consumers behind this point must re-sync (the compaction-horizon
        rule), and IVM views detect the partition-count change and demand
        a ``rebuild()``. Task memory is O(old partition), same as
        compaction. Returns a summary dict."""
        man = self.manifest
        old_p = int(man.num_partitions)
        new_p = int(new_num_partitions)
        if new_p < 1:
            raise ValueError(f"new_num_partitions must be >= 1, got {new_p}")
        if new_p == old_p:
            return {"num_partitions": old_p, "partitions_migrated": 0}
        salt_map = self.salt_map
        if salt_map and max(int(v) for v in salt_map.values()) > new_p:
            raise ValueError(
                "salt fanout exceeds the new partition count; unsalt or pick "
                f"new_num_partitions >= {max(int(v) for v in salt_map.values())}"
            )
        affected = [pid for pid in sorted(man.partitions) if man.partitions[pid].files]
        rows_moved = 0

        def rehome(new_man: Manifest) -> None:
            nonlocal rows_moved
            new_man.num_partitions = new_p
            # the partition map is rebuilt from scratch at the new modulus
            new_man.partitions = {}
            rows_moved = self._migrate(man, new_man, affected, salt_map, new_p)

        self._commit(
            "reshard",
            rehome,
            folded=bool(affected),
            from_partitions=old_p,
            to_partitions=new_p,
            partitions_migrated=len(affected),
        )
        return {
            "num_partitions": new_p,
            "partitions_migrated": len(affected),
            "rows_moved": rows_moved,
        }

    def vacuum(self, grace_s: float = 0.0) -> int:
        """Delete data files not referenced by the CURRENT manifest (ends
        time travel to superseded versions). ``grace_s`` spares younger
        unreferenced files — pass a few minutes when other writers may be
        staging concurrently (see ``ManifestStore.vacuum``)."""
        return self.store.vacuum(self.manifest, grace_s=grace_s)

    def purge(self, keys: list, vacuum_grace_s: float = 0.0) -> dict:
        """Right-to-be-forgotten HARD delete by leading primary-key
        value(s): physically remove every row of the given keys —
        current versions, superseded versions and tombstones alike —
        from the table directory. Unlike a CDC delete event (which
        writes a tombstone that *records the key* forever), after a
        purge the key value itself no longer exists in any file the
        table owns.

        Mechanics: keys route to partitions exactly like :meth:`lookup`
        (salt fanout included); one Ray task per touched partition
        rewrites ONLY the files whose zone maps / content actually
        contain a purged key (basename preserved — epoch lineage and the
        merge-on-read stack order survive; a file whose every row is
        purged is dropped from the manifest), covering both the live
        stack and the changefeed retention registry. Purged keys leave
        the salt map (keeping the VALUE there would defeat the purge).
        One OCC manifest commit publishes the result, then an immediate
        :meth:`vacuum` erases every superseded file — this is the point,
        not a side effect: without it, pre-purge versions would still
        hold the data. Consequences, by design:

        - time travel / RESTORE to pre-purge versions fails loud
          (vacuum's documented contract);
        - downstream consumers and maintained views that already read
          the key hold copies this table cannot reach — IVM views must
          be ``rebuild()``-ed, exported changefeed windows re-created;
        - shallow clones referencing this table's files break (their
          ``fsck`` pinpoints it) — deep-clone before purging if needed;
        - the history row records COUNTS only, never the key values.

        ``vacuum_grace_s`` > 0 spares young unreferenced files when
        concurrent writers may be staging (their grace rule) — the purge
        of committed data is still immediate.

        Returns counts: rows/files touched, plus ``vacuumed``."""
        if not self.key_cols:
            raise ValueError("purge requires a primary-keyed table")
        if not keys:
            return {"rows_removed": 0, "files_rewritten": 0, "vacuumed": 0}
        man = self.manifest
        lake = man.schema
        key0 = self.key_cols[0]
        vals = coerce_keys(keys, lake.field(key0).type).to_pylist()
        per_pid = self._key_partitions(keys)
        # retained changefeed deltas live outside partitions[].files but
        # still carry the rows — route them by the pid in their basename
        retained_by_pid: dict[int, list[str]] = {}
        for e in man.properties.get("retained_deltas", []) or []:
            m = _CDC_FILE_RE.match(os.path.basename(e["path"]))
            if m:
                retained_by_pid.setdefault(int(m.group(2)), []).append(e["path"])
        new_version = man.version + 1
        task = _purge_pid_task
        futs = []
        for pid, pid_vals in per_pid.items():
            pfiles: list[tuple[str, str]] = []
            ps = man.partitions.get(pid)
            flt = [(key0, "in", pid_vals)]
            if ps is not None:
                fstats = ps.pruned_stats()
                pfiles += [
                    (f, "live")
                    for f in ps.files
                    if zone.file_can_match(fstats.get(f), flt)
                ]
            pfiles += [(f, "retained") for f in retained_by_pid.get(pid, [])]
            if pfiles:
                futs.append(
                    task.remote(
                        self.table_dir,
                        pid,
                        pfiles,
                        key0,
                        pid_vals,
                        lake,
                        new_version,
                    )
                )
        results = [r for rs in ray.get(futs) for r in rs]
        if not results:
            # keys absent from the current stack — nothing to commit, but
            # superseded versions may still hold them: vacuum regardless
            return {
                "rows_removed": 0,
                "files_rewritten": 0,
                "files_dropped": 0,
                "partitions_touched": 0,
                "vacuumed": self.store.vacuum(man, grace_s=vacuum_grace_s),
            }
        live_repl = {r["old"]: r for r in results if r["kind"] == "live"}
        ret_repl = {r["old"]: r for r in results if r["kind"] == "retained"}
        pids_touched = set()
        rows_removed = sum(r["live_removed"] for r in live_repl.values())
        files_rewritten = sum(1 for r in results if r["new"] is not None)

        def rewrite(new_man: Manifest) -> None:
            for pid, ps in new_man.partitions.items():
                if not any(f in live_repl for f in ps.files):
                    continue
                pids_touched.add(pid)
                new_files: list[str] = []
                for f in ps.files:
                    r = live_repl.get(f)
                    if r is None:
                        new_files.append(f)
                        continue
                    ps.file_stats.pop(f, None)
                    if r["new"] is not None:
                        new_files.append(r["new"])
                        if r["zstats"]:
                            ps.file_stats[r["new"]] = r["zstats"]
                ps.files = new_files
            if ret_repl:
                kept_entries = []
                for e in new_man.properties.get("retained_deltas", []):
                    r = ret_repl.get(e["path"])
                    if r is None:
                        kept_entries.append(e)
                    elif r["new"] is not None:
                        kept_entries.append({**e, "path": r["new"]})
                    # fully-purged retained delta: nothing left to serve
                new_man.properties["retained_deltas"] = kept_entries
            salted = decode_salt_map(new_man.properties.get("salt_map", {}), lake.field(key0).type)
            kept = {v: f for v, f in salted.items() if v not in vals}
            if len(kept) != len(salted):
                if kept:
                    new_man.properties["salt_map"] = encode_salt_map(kept)
                else:
                    new_man.properties.pop("salt_map", None)

        new_man = self._commit(
            "purge",
            rewrite,
            keys=len(vals),  # counts only — never the values
            rows_removed=rows_removed,
            files_rewritten=files_rewritten,
            files_dropped=len(results) - files_rewritten,
        )
        return {
            "version": new_man.version,
            "rows_removed": rows_removed,
            "files_rewritten": files_rewritten,
            "files_dropped": len(results) - files_rewritten,
            "retained_rewritten": len(ret_repl),
            "partitions_touched": len(pids_touched),
            "vacuumed": self.store.vacuum(new_man, grace_s=vacuum_grace_s),
        }

    def describe(self) -> dict:
        """Operational table summary from the MANIFEST alone (plus file
        ``stat`` + parquet FOOTER reads — never row data, safe on a live
        table): identity,
        version/watermark, partition/file/byte totals, merge-on-read
        depth (files per partition — the compaction health signal),
        retention state, salt map, and the last commit. The ops
        counterpart of :meth:`fsck` (which verifies; this reports)."""
        man = self.manifest
        n_files = 0
        n_bytes = 0
        rows_physical = 0
        depth_max = 0
        missing = 0
        for part in man.partitions.values():
            n_files += len(part.files)
            depth_max = max(depth_max, len(part.files))
            for f in part.files:
                try:
                    n_bytes += os.path.getsize(f)
                    # footer metadata only — physical rows INCLUDE
                    # superseded versions + tombstones in the delta stack
                    # (exact LIVE rows require the merge: snapshot().count())
                    rows_physical += _footer(f, cache=False).metadata.num_rows
                except OSError:
                    missing += 1
        retained = man.properties.get("retained_deltas", []) or []
        return {
            "table": man.table,
            "table_dir": self.table_dir,
            "version": man.version,
            "schema_version": man.schema_version,
            "applied_lsn": man.applied_lsn,
            "num_partitions": man.num_partitions,
            "partitions_populated": len(man.partitions),
            "primary_key": list(man.primary_key),
            "columns": list(man.schema.names),
            "rows_physical": rows_physical,
            "data_files": n_files,
            "data_bytes": n_bytes,
            "files_missing": missing,  # nonzero → run fsck
            "max_files_per_partition": depth_max,  # merge-on-read depth
            "compact_every": self.compact_every,
            "retained_deltas": len(retained),
            "changefeed_floor": int(man.properties.get("changefeed_floor", 0)),
            "changefeed_retention_lsn": man.properties.get("changefeed_retention_lsn"),
            "salted_keys": len(self.salt_map),
            "commits": len(man.history),
            "last_commit": (man.history[-1] if man.history else None),
        }

    # -- table lifecycle: RESTORE / CLONE -------------------------------
    def restore(self, version: int) -> dict:
        """RESTORE the table to an earlier manifest version as a NEW
        commit (Delta-style rollback: history is preserved, the rollback
        itself is versioned and OCC-safe, readers flip atomically).

        Semantics and contracts:

        - the restored state is exactly ``snapshot(version=version)``;
          ``applied_lsn`` rolls BACK, so a subsequent ``replay`` of the
          same changelog re-applies the undone epochs (rebuilding the
          timeline — which also means time travel into the ABANDONED
          timeline is only sound until the next write, as re-applied
          epochs deterministically overwrite the abandoned staged files);
        - fails loud if vacuum already reclaimed any file the target
          version references (vacuum ends time travel — and therefore
          restore — to superseded versions);
        - the changefeed retention registry is DROPPED and the floor
          raised to the restored watermark: coverage across a timeline
          rollback would be a lie, so lagging consumers get the loud
          re-seed error, never silently inconsistent deltas. Maintained
          views (IVM) ahead of the restored watermark refuse to advance
          (their continuity guard) — ``rebuild()`` recovers them.
        """
        man = self.manifest
        if version >= man.version:
            raise ValueError(
                f"restore target {version} is not an earlier version "
                f"(current {man.version})"
            )
        old = self.store.load(version)
        if old is None:
            raise ValueError(f"version {version} not found for {man.table!r}")
        _require_data_files(old, f"restore to version {version}")
        # retention horizon is table config — keep the CURRENT setting,
        # not the historical one (same rule as the ctor's INHERIT)
        cur_ret = man.properties.get("changefeed_retention_lsn")

        def roll_back(new_man: Manifest) -> None:
            _reset_changefeed(new_man)
            if cur_ret is None:
                new_man.properties.pop("changefeed_retention_lsn", None)
            else:
                new_man.properties["changefeed_retention_lsn"] = cur_ret

        # the content of ``old`` as the version after the head — lineage
        # continues from the CURRENT head: a restore is an event in this
        # table's history, not a history rewrite
        new_man = self._commit(
            "restore",
            roll_back,
            base=dataclasses.replace(old, version=man.version, history=man.history),
            restored_version=version,
            from_lsn=man.applied_lsn,
            to_lsn=old.applied_lsn,
        )
        return {
            "version": new_man.version,
            "restored_version": version,
            "applied_lsn": new_man.applied_lsn,
        }

    def clone(
        self,
        dst_dir: str,
        version: int | None = None,
        shallow: bool = False,
        commit_backend=None,
    ) -> dict:
        """CLONE this table (at ``version``, default current) into a new
        independent table at ``dst_dir`` — Delta-style CREATE TABLE CLONE.

        - **deep** (default): data files copy into the clone's own layout,
          one Ray task per partition — the clone shares nothing with the
          source. Cost O(live bytes), embarrassingly parallel.
        - **shallow**: the clone's manifest references the SOURCE's files
          in place (zero copy, O(1)). Hazard — same as Delta shallow
          clones: a later ``vacuum``/``compact`` on the SOURCE retires
          files the clone still lists; ``fsck()`` on the clone detects
          the breakage. Use for short-lived dev branches only.

        Either way the clone is a full CDC table: writes (replay, merge,
        compaction) land under ITS directory (copy-on-write), so the
        source is never mutated through a clone. The changefeed retention
        registry is not cloned (floor = cloned watermark: changefeed
        coverage starts at the clone point). Returns the clone's commit
        info; fails loud if ``dst_dir`` already holds a table.

        ``commit_backend``: manifest-log backend for the CLONE (defaults
        to the SOURCE engine's backend, so a CAS-backed table clones onto
        the same commit primitives; pass explicitly to cross stores).
        """
        src_man = self._resolve_manifest(version, None)
        if src_man is None:
            raise ValueError(f"version {version} not found for {self.manifest.table!r}")
        _require_data_files(src_man, f"clone version {src_man.version}")
        dst_store = ManifestStore(
            dst_dir,
            backend=commit_backend if commit_backend is not None else self.store.backend,
        )
        if dst_store.load() is not None:
            raise ValueError(f"{dst_dir!r} already holds a table — refusing to clone over it")

        src_root = os.path.abspath(self.table_dir)
        files_copied = 0
        remap: dict[int, list[str]] = {}
        if not shallow:
            copy_refs = []
            for pid, part in src_man.partitions.items():
                dsts = []
                for f in part.files:
                    rel = os.path.relpath(os.path.abspath(f), src_root)
                    if rel.startswith(".."):
                        # foreign path (e.g. cloning a shallow clone) —
                        # flatten into the clone's own data dir
                        rel = os.path.join(
                            "data", f"part={pid:05d}", os.path.basename(f)
                        )
                    dsts.append(os.path.join(dst_dir, rel))
                remap[pid] = dsts
                copy_refs.append(_copy_files_task.remote(list(part.files), dsts))
            files_copied = sum(ray.get(copy_refs))

        def relocate(new_man: Manifest) -> None:
            for pid, dsts in remap.items():
                part = new_man.partitions[pid]
                part.file_stats = {
                    new: part.file_stats[old]
                    for old, new in zip(part.files, dsts)
                    if old in part.file_stats
                }
                part.files = dsts
            _reset_changefeed(new_man)

        # version 1 of the clone's own log, carrying the source's history
        new_man = commit_version(
            dst_store,
            dataclasses.replace(src_man, version=0),
            "clone",
            relocate,
            src_table_dir=src_root,
            src_version=src_man.version,
            shallow=shallow,
            **self.run_context.as_dict(),
        )
        return {
            "dst": dst_dir,
            "src_version": src_man.version,
            "shallow": shallow,
            "files_copied": files_copied,
            "applied_lsn": new_man.applied_lsn,
        }

    def diff(
        self, from_version: int, to_version: int | None = None
    ) -> "ray.data.Dataset":
        """Row-level DIFF between two committed versions (Delta's
        ``table_changes`` by version): a streaming Dataset of every key
        whose LWW state differs, tagged ``diff_op`` —

        - ``"I"``: live in ``to`` but not in ``from`` (new row payload);
        - ``"U"``: live in both with a different winning ``(ts, lsn)``
          (new row payload);
        - ``"D"``: live in ``from`` but deleted/absent in ``to`` (key
          columns only, payload NULL).

        Unlike :meth:`changefeed` this needs no retained deltas — it
        compares the two manifests' merge-on-read stacks directly, per
        partition inside packed read tasks (nothing lands on the driver,
        :func:`_partition_dataset`), so it works
        across any gap as long as ``vacuum`` has not reclaimed the older
        version's files (fails loud if it has). Both versions must share
        the partition layout (no reshard/salt change in between — fail
        loud; diff across a reshard would need a full re-exchange).
        Output schema: key columns + ``diff_op`` + public payload + ts.
        """
        man1 = self._resolve_manifest(to_version, None)
        man0 = self.store.load(from_version)
        if man0 is None or man1 is None:
            raise ValueError(
                f"version not found (from={from_version}, to={to_version})"
            )
        if man0.num_partitions != man1.num_partitions or (
            man0.properties.get("salt_map", {}) != man1.properties.get("salt_map", {})
        ):
            raise ValueError(
                "diff across a reshard or salt-map change is not supported — "
                "keys moved between partitions; use snapshot-level compare"
            )
        _require_data_files(man0, f"diff from version {from_version}")
        lake = man1.schema  # diff is reported in the NEWER schema
        key_cols = self.key_cols
        public = self._public_schema(lake).names
        out_schema = pa.schema(
            [pa.field("diff_op", pa.string())]
            + [lake.field(n) for n in public]
        )
        pids = sorted(set(man0.partitions) | set(man1.partitions))
        parts = [
            {
                "pid": pid,
                "files0": (man0.partitions.get(pid).files if pid in man0.partitions else []),
                "files1": (man1.partitions.get(pid).files if pid in man1.partitions else []),
            }
            for pid in pids
        ]

        def per_part(item: dict):
            return _diff_partition_chunks(
                item["files0"], item["files1"], lake, key_cols, public, out_schema
            )

        return _partition_dataset(parts, per_part, out_schema.empty_table())

    def fsck(self) -> dict:
        """Consistency audit of the committed table — fsck for the lake.

        One Ray task per partition verifies the manifest's claims against
        the files: every listed file exists with a readable footer, file
        names carry this partition's id and epoch LSNs at or below the
        watermarks, and every row routes to the partition holding it —
        its exact partition under the committed salt map, not just one
        of its key's fanout partitions. Files with zone-map
        stats in the manifest get a containment audit: the recorded
        bounds must CONTAIN the file's actual values (too-tight bounds
        are the failure that makes predicate pushdown silently drop
        rows), and the recorded row/null counts must match exactly.
        Driver-side checks cover the manifest itself: schema decodes,
        partition ids are in range, per-partition watermarks never
        exceed the table watermark.

        Returns ``{"ok": bool, "partitions_checked": n, "files_checked":
        n, "issues": [str, ...]}``; read-only, safe on a live table (a
        concurrent commit can only surface as a transient missing-file
        issue — rerun to confirm). Cost is one column-pruned scan of the
        (at most two) routing columns, parallel across partitions."""
        man = self.manifest
        issues: list[str] = []
        try:
            man.schema  # decodes schema_b64
        except Exception as e:
            issues.append(f"manifest schema undecodable: {e}")
        route_cols = route_columns(self.key_cols, man.schema.names)[:2]
        n_files = 0
        refs = []
        # the retention registry's files serve lagging consumers — a
        # missing one passes silently today and crashes a poll later
        for e_ in man.properties.get("retained_deltas", []) or []:
            n_files += 1
            if not os.path.exists(e_["path"]):
                issues.append(f"retained delta missing: {os.path.basename(e_['path'])}")
        for pid, part in man.partitions.items():
            if not (0 <= int(pid) < int(man.num_partitions)):
                issues.append(f"partition id {pid} out of range 0..{man.num_partitions - 1}")
            n_files += len(part.files)
            stale = set(part.file_stats) - set(part.files)
            if stale:
                issues.append(
                    f"pid {pid}: zone stats for retired files "
                    f"{sorted(os.path.basename(s) for s in stale)[:3]}"
                )
            refs.append(
                _fsck_partition_task.remote(
                    int(pid),
                    list(part.files),
                    int(part.applied_lsn),
                    int(man.applied_lsn),
                    int(man.num_partitions),
                    self.salt_map,
                    route_cols,
                    part.pruned_stats(),
                )
            )
        for r in ray.get(refs):
            issues.extend(r)
        return {
            "ok": not issues,
            "partitions_checked": len(man.partitions),
            "files_checked": n_files,
            "issues": issues,
        }

    def _changefeed_files(
        self, since_lsn: int, up_to_lsn: int | None = None
    ) -> list[tuple[int, str]]:
        """Validate the watermark and list the qualifying delta files as
        ``(pid, path)`` pairs (pid parsed from the engine's file naming) —
        shared by :meth:`changefeed` and :meth:`read_changes`. Raises the
        retention-floor / compaction-horizon errors; never reads data.
        ``up_to_lsn`` bounds the window's upper end (epochs committed
        after a consumer read its head are excluded, so the window
        matches the range its name claims even under a concurrent
        committer)."""
        man = self.manifest
        retention_on = self.changefeed_retention_lsn is not None
        floor = int(man.properties.get("changefeed_floor", 0))
        if retention_on and since_lsn < floor:
            raise RuntimeError(
                f"changes since {since_lsn} are past the retention floor "
                f"({floor}); replay from a snapshot"
            )
        delta_files: list[tuple[int, str]] = []
        for pid in sorted(man.partitions):
            for f in man.partitions[pid].files:
                m = _CDC_FILE_RE.match(os.path.basename(f))
                if m is None:
                    # overwrite/append writer files carry no epoch lineage
                    raise RuntimeError(
                        f"table contains non-CDC file {os.path.basename(f)!r}; "
                        "the changefeed is only defined for CDC-applied tables"
                    )
                mode, epoch_id = m.group(1), int(m.group(3))
                if epoch_id <= since_lsn:
                    continue
                # NOTE: the up_to bound is applied to DELTA files only,
                # BELOW the base handling — a base newer than the bound
                # still means changes inside (since, up_to] were folded
                # into it, and skipping it here would silently drop them
                # from the window instead of raising the horizon error
                if mode == "base":
                    retention_since = man.properties.get("retention_since_lsn")
                    if (
                        retention_on
                        and retention_since is not None
                        and since_lsn >= int(retention_since)
                    ):
                        # this base's content above since_lsn was folded
                        # AFTER retention activated → fully covered by
                        # retained + live deltas (floor check passed)
                        continue
                    raise RuntimeError(
                        f"changes since {since_lsn} were compacted into "
                        f"{os.path.basename(f)}; replay from a snapshot or "
                        "poll within the compaction horizon"
                    )
                if up_to_lsn is not None and epoch_id > up_to_lsn:
                    continue
                delta_files.append((pid, f))
        if retention_on:
            for e in man.properties.get("retained_deltas", []):
                if up_to_lsn is not None and int(e["epoch_id"]) > up_to_lsn:
                    continue
                if int(e["epoch_id"]) > since_lsn:
                    m = _CDC_FILE_RE.match(os.path.basename(e["path"]))
                    delta_files.append((int(m.group(2)) if m else -1, e["path"]))
        return delta_files

    def changefeed_since_ts(self, ts: float) -> "ray.data.Dataset":
        """Changefeed of everything committed AFTER the given wall-clock
        time: resolves the newest version committed at or before ``ts``
        (the same commit stamps as timestamp time travel) and streams the
        changes past that version's LSN watermark — "what changed since I
        looked on Tuesday" without the consumer tracking LSNs. A ``ts``
        older than the first commit yields the feed from LSN 0 (subject
        to the same retention-floor errors as :meth:`changefeed`)."""
        v = self.store.version_at(ts)
        wm = 0 if v is None else int(self.store.load(v).applied_lsn)
        return self.changefeed(since_lsn=wm)

    def changefeed(
        self, since_lsn: int, up_to_lsn: int | None = None
    ) -> "ray.data.Dataset":
        """Changefeed for downstream consumers as a STREAMING Dataset: the
        net row-level changes committed after ``since_lsn`` (delta files
        with epoch > watermark), LWW-reduced per key, tombstones INCLUDED
        (``_deleted`` marks downstream deletes).

        Each partition's qualifying delta stack is merged inside a packed
        read task (:func:`_partition_dataset`; the same streamed k-way
        chunk merge as :meth:`snapshot`, peak memory O(chunk × files)), so
        a consumer lagging N epochs on a
        100-TB table never lands O(changes) on the driver. Keys are unique
        within a partition's output; a key whose partition changed inside
        the window (salt migration) can surface once per routing era —
        consumers applying the feed's own (ts, lsn) LWW contract converge
        identically, and the Arrow convenience wrapper
        (:meth:`read_changes`) resolves it with a final reduce.

        Retention: with ``changefeed_retention_lsn`` set, delta files
        folded by compactions/salt migrations stay readable from the
        manifest's retained-deltas registry for that many LSNs past their
        retirement, so consumers may lag past compaction cycles; polling
        BEHIND the retention floor raises. Without retention (default),
        the horizon is the compaction cadence — a folded base newer than
        ``since_lsn`` raises immediately."""
        lake = self.manifest.schema
        by_pid: dict[int, list[str]] = {}
        for pid, f in self._changefeed_files(since_lsn, up_to_lsn):
            by_pid.setdefault(pid, []).append(f)
        parts = [{"pid": pid, "files": by_pid[pid]} for pid in sorted(by_pid)]
        key_cols = self.key_cols
        return _partition_dataset(
            parts, lambda item: partition_chunks(item["files"], lake, key_cols), lake.empty_table()
        )

    def read_changes(self, since_lsn: int) -> pa.Table:
        """Driver-side Arrow convenience form of :meth:`changefeed` for
        small windows/tables (tests, oracles, the CLI) — same validation
        and content, plus a final global LWW-reduce for one canonical row
        per key even across salt-migration routing eras."""
        lake = self.manifest.schema
        delta_files = [f for _pid, f in self._changefeed_files(since_lsn)]
        if not delta_files:
            return lake.empty_table()
        t = pa.concat_tables([_read_pruned(f, lake) for f in delta_files])
        return lww_reduce(t, self.key_cols, _lww_order(lake, LSN_COL))

    def _key_partitions(self, keys: list) -> dict[int, list]:
        """``{pid: sorted key values}`` of leading-PK values (CLI / JSON
        callers pass strings) under the committed salt map
        (:func:`hashing.key_partitions`). Serves :meth:`lookup`,
        :meth:`purge` and the writer's delete scan."""
        man = self.manifest
        arr = coerce_keys(keys, man.schema.field(self.key_cols[0]).type)
        return key_partitions(arr, man.num_partitions, self.salt_map)

    def lookup(self, keys: list) -> pa.Table:
        """Point read by LEADING primary-key value(s) — the CDC lake's
        key-value GET. Touches ONLY the partitions the keys hash to (salt
        fanout included), skips files whose manifest zone map excludes
        every key, and reads the rest through the keyed probe
        :func:`_read_keys`, which decodes only the row groups whose footer
        key range holds a key. Footers and their per-group stats come from
        the process-local :func:`_footer` cache, so a repeat lookup on a
        file pays a ``stat`` and an O(row groups per file) stats check
        before the decode, not a footer parse. Every lake data file has
        row groups of at most ``ROW_GROUP_ROWS`` rows, so a lookup decodes
        O(row groups containing the key) × ``ROW_GROUP_ROWS`` rows per
        file. The merged result is LWW-reduced, tombstones dropped, public
        columns, PK-sorted.

        Driver-side by contract: point results are small (a handful of
        entities); for bulk key-range scans use
        ``snapshot(pids=...)`` + a filter stage instead."""
        man = self.manifest
        lake = man.schema
        public = self._public_schema(lake)
        if not self.key_cols:
            raise ValueError("lookup requires a primary-keyed table")
        key0 = self.key_cols[0]
        if not keys:
            return public.empty_table()
        parts = []
        for pid, vals in self._key_partitions(keys).items():
            if pid not in man.partitions:
                continue
            ps = man.partitions[pid]
            fstats = ps.pruned_stats()
            flt = [(key0, "in", vals)]
            for f in ps.files:
                # manifest zone maps first (no file open at all), then the
                # keyed probe decodes only the row groups bracketing a key
                if not zone.file_can_match(fstats.get(f), flt):
                    continue
                t = _read_keys(f, lake, key0, vals)
                if t.num_rows:
                    parts.append(t)
        if not parts:
            return public.empty_table()
        t = _merge_take(pa.concat_tables(parts), self.key_cols, live=True).select(public.names)
        return t.sort_by([(k, "ascending") for k in self.key_cols])

    def snapshot_arrow(
        self,
        version: int | None = None,
        as_of_ts: float | None = None,
        predicate: list | None = None,
    ) -> pa.Table:
        """Driver-side committed state (no Ray) — for tests/oracles on small
        tables. Sorted by primary key (stable turn ordering).

        ``version`` time-travels to an older committed manifest (every
        commit leaves its manifest snapshot on disk; valid until ``vacuum``
        removes the superseded data files — standard lakehouse semantics).
        ``as_of_ts`` (unix seconds) resolves the newest version committed
        at or before that wall-clock time (``VERSION AS OF TIMESTAMP``);
        mutually exclusive with ``version``."""
        man = self._resolve_manifest(version, as_of_ts)
        lake = man.schema
        public = self._public_schema(lake)
        if predicate:
            zone.validate_predicate(predicate)
            bad = [c[0] for c in predicate if c[0] not in public.names]
            if bad:
                raise ValueError(
                    f"predicate on unknown or internal columns {bad}; "
                    f"available: {public.names}"
                )
        # row-group-level pushdown, same safety rule as snapshot(): PK
        # conjuncts under merge, any conjunct on a PK-less concat table
        file_cj = (
            zone.split_key_conjuncts(predicate or [], self.key_cols)[0]
            if self.key_cols
            else list(predicate or [])
        )
        parts = []
        for pid in sorted(man.partitions):
            ps = man.partitions[pid]
            files = ps.files
            if not files:
                continue
            if predicate and not zone.partition_can_match(
                ps.pruned_stats(), files, predicate
            ):
                continue
            t = merge_partition_files(files, lake, self.key_cols, conjuncts=file_cj, live=True)
            if predicate:
                t = zone.filter_table(t, predicate)
            parts.append(t.select(public.names))
        if not parts:
            return public.empty_table()
        t = pa.concat_tables(parts)
        if not self.key_cols:
            return t  # PK-less table: no ordering contract
        return t.sort_by([(k, "ascending") for k in self.key_cols])


@ray.remote
def _fsck_partition_task(
    pid: int,
    files: list,
    part_lsn: int,
    table_lsn: int,
    num_partitions: int,
    salt_map: dict,
    route_cols: tuple,
    file_stats: dict | None = None,
) -> list:
    """Audit ONE partition's manifest-listed files: existence, readable
    footer, row-level partition routing (every row must route to this
    pid under the committed salt map, :func:`salted_partition_ids` over
    ``route_cols``), per-file epoch LSNs at or below the watermarks, and
    zone-map stats containment (see :meth:`CDCEngine.fsck`). Returns a
    list of issue strings."""
    _single_threaded_arrow()
    key0 = route_cols[0]
    issues: list[str] = []
    for f in files:
        base = os.path.basename(f)
        if not os.path.exists(f):
            issues.append(f"pid {pid}: missing file {base}")
            continue
        try:
            # select: a direct reader skips a column the file lacks
            cols = list(route_cols)
            t = _parquet(f, _footer(f)).read(columns=cols).select(cols)
        except Exception as e:  # unreadable footer/corruption, absent column
            issues.append(f"pid {pid}: unreadable {base}: {e}")
            continue
        issues.extend(_fsck_zone_stats(pid, f, (file_stats or {}).get(f)))
        m = _CDC_FILE_RE.match(base)
        if m:
            epoch_id = int(m.group(3))
            if epoch_id > table_lsn:
                issues.append(
                    f"pid {pid}: {base} epoch {epoch_id} above table watermark {table_lsn}"
                )
            if int(m.group(2)) != pid:
                issues.append(f"pid {pid}: {base} names partition {m.group(2)}")
        bad = (salted_partition_ids(t, route_cols, num_partitions, salt_map) != pid).nonzero()[0]
        if len(bad):  # one example per file is enough
            v = t.column(key0)[int(bad[0])].as_py()
            issues.append(f"pid {pid}: row {key0}={v!r} routed to wrong partition")
    if part_lsn > table_lsn:
        issues.append(f"pid {pid}: partition watermark {part_lsn} above table {table_lsn}")
    return issues


def _fsck_zone_stats(pid: int, path: str, recorded: dict | None) -> list:
    """Containment audit of one file's manifest zone-map stats: recorded
    bounds must contain the file's recomputed bounds (equal
    canonicalization on both sides, so ``recorded_min <= actual_min`` and
    ``actual_max <= recorded_max`` is exact, not heuristic), and row/null
    counts must match. Reads tracked columns ONE at a time to bound
    memory. Files without stats pass (written before the upgrade)."""
    if not recorded:
        return []
    issues: list[str] = []
    base = os.path.basename(path)
    for col, s in recorded.items():
        try:
            keys = {"f", "min", "max", "open", "nulls", "rows"}
            if not keys <= set(s):
                issues.append(f"pid {pid}: {base} zone stats for {col!r} malformed")
                continue
            try:
                t = _parquet(path, _footer(path)).read(columns=[col]).select([col])
            except (KeyError, pa.ArrowInvalid, OSError):
                issues.append(f"pid {pid}: {base} zone stats for absent column {col!r}")
                continue
            actual = zone.table_stats(t, [col]).get(col)
            if actual is None:  # untrackable type cannot have honest stats
                issues.append(f"pid {pid}: {base} zone stats for untracked type {col!r}")
                continue
            if s["rows"] != actual["rows"] or s["nulls"] != actual["nulls"]:
                issues.append(
                    f"pid {pid}: {base} zone stats {col!r} counts "
                    f"{s['rows']}/{s['nulls']} != actual {actual['rows']}/{actual['nulls']}"
                )
            if actual["min"] is not None:
                if s["min"] is None or s["min"] > actual["min"]:
                    issues.append(f"pid {pid}: {base} zone stats {col!r} min too tight")
                if not s["open"] and (
                    s["max"] is None
                    or (actual["max"] is not None and s["max"] < actual["max"])
                    or (actual["max"] is None and actual["open"])
                ):
                    issues.append(f"pid {pid}: {base} zone stats {col!r} max too tight")
        except Exception as e:  # audit must report, never crash
            issues.append(f"pid {pid}: {base} zone stats {col!r} audit error: {e}")
    return issues
