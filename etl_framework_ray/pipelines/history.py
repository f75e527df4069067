"""SCD Type-2 history table — the full version timeline of a CDC feed.

Where :class:`~.cdc.CDCEngine` keeps only each key's LATEST version
(LWW), a :class:`HistoryTable` keeps EVERY version as an interval row:

    (pk..., payload..., change_op, valid_from_ts, valid_from_lsn,
     valid_to_ts, valid_to_lsn, is_current)

the classic slowly-changing-dimension type-2 shape (Kimball), consumed
straight from the raw changelog — NOT from the engine's changefeed,
which LWW-coalesces each epoch per key (cdc.py apply path) and would
lose intra-epoch intermediate versions.

Design (what makes this incremental AND late-data-correct at scale):
the stored table is just the deduplicated raw event log — one row per
change event, identity ``(pk..., valid_from_lsn)`` — maintained by the
ordinary CDC apply machinery (direct hash exchange, merge-on-read
deltas, threshold compaction, exactly-once epoch commits, OCC). The
interval columns ``valid_to_*`` / ``is_current`` are NOT stored: they
are derived at READ time by one vectorized lead pass per partition
(all versions of a key co-locate by the leading-key hash, so the pass
is partition-local and shuffle-free). Storing raw events instead of
closed intervals is what keeps maintenance O(epoch): a late (out of
ts-order) event is a plain append that lands in the right place at the
next read's sort, where a stored-interval design would need a
read-modify-write retro-split of its neighbours. Duplicate deliveries
collapse via LWW on the event identity itself.

The reference has no history analogue (its MERGE keeps latest only —
/root/reference/src/delta_engine/merge_into.py semantics); this module
is part of the engine's CDC-completeness extension, like the binlog
source and the IVM views.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..context import DEFAULT_NUM_PARTITIONS
from ..state.schema import ColumnSpec, TableSpec, TRANSCRIPTS
from ..stages.lww import last_per_key_mask
from .cdc import (
    CDCEngine,
    _iter_table_chunks,
    _partition_dataset,
    merge_partition_files,
)

#: derived-at-ingest envelope columns (appended by the event transform)
CHANGE_OP_COL = "change_op"
VALID_FROM_LSN_COL = "valid_from_lsn"
#: read-time derived interval columns (never stored)
DERIVED_COLS = ("valid_from_ts", "valid_to_ts", "valid_to_lsn", "is_current")


def history_spec(base: TableSpec) -> TableSpec:
    """The history table's spec: base payload + the SCD2 envelope, keyed
    by (base PK, valid_from_lsn) — one row PER CHANGE EVENT."""
    for reserved in (CHANGE_OP_COL, VALID_FROM_LSN_COL, *DERIVED_COLS):
        if reserved in base.column_names:
            raise ValueError(
                f"base table {base.name!r} already has a column named "
                f"{reserved!r} (reserved by the history envelope)"
            )
    if "ts" not in base.column_names:
        raise ValueError(
            f"history tracking needs an event-time 'ts' column; "
            f"{base.name!r} has none"
        )
    cols = list(base.columns) + [
        ColumnSpec(CHANGE_OP_COL, pa.string(), nullable=False,
                   comment="original changelog op (I/U/D)"),
        ColumnSpec(VALID_FROM_LSN_COL, pa.int64(), nullable=False,
                   comment="log position that produced this version"),
    ]
    return TableSpec(
        name=f"{base.name}_history",
        columns=tuple(cols),
        primary_key=tuple(base.primary_key) + (VALID_FROM_LSN_COL,),
        comment=f"SCD2 version history of {base.name}",
        properties=dict(base.properties),
    )


class HistoryEventTransform:
    """Map-side transform (CDCEngine.event_transform): every raw change
    event becomes an INSERT of its own history row. The original op is
    preserved as ``change_op`` payload; ``op`` is rewritten to 'I' so the
    LWW apply retains delete events as visible rows (a D is a version of
    the timeline, not a tombstone of it)."""

    def transform_schema(self, incoming: pa.Schema) -> pa.Schema:
        fields = list(incoming)
        names = set(incoming.names)
        if CHANGE_OP_COL not in names:
            fields.append(pa.field(CHANGE_OP_COL, pa.string()))
        if VALID_FROM_LSN_COL not in names:
            fields.append(pa.field(VALID_FROM_LSN_COL, pa.int64()))
        return pa.schema(fields)

    def __call__(self, t: pa.Table) -> pa.Table:
        op = t.column("op")
        if pc.any(pc.equal(op, "P")).as_py():
            # a partial image is not a version of the row — resolving it
            # needs the key's prior state, which the history timeline
            # derives at READ time; fail loud rather than record a
            # mostly-NULL phantom version (resolve patches upstream, e.g.
            # via the lake engine's patch fold)
            raise ValueError(
                "SCD2 history does not support partial row images (op='P')"
            )
        t = t.append_column(CHANGE_OP_COL, op)
        t = t.append_column(
            VALID_FROM_LSN_COL, pc.cast(t.column("lsn"), pa.int64())
        )
        i = t.schema.get_field_index("op")
        all_i = pa.nulls(t.num_rows, pa.string()).fill_null("I")
        return t.set_column(i, "op", all_i)


def _history_intervals(
    t: pa.Table, base_key: tuple[str, ...]
) -> pa.Table:
    """One partition's stored events → SCD2 interval rows. ``t`` must hold
    ALL events of every key it contains (partition-complete). Sorts by
    (key..., ts, valid_from_lsn), then one shifted-array pass derives the
    interval close and currency — no per-row Python."""
    order = (*base_key, "ts", VALID_FROM_LSN_COL)
    t = t.take(pc.sort_indices(t.select(list(order)),
                               sort_keys=[(c, "ascending") for c in order]))
    last = last_per_key_mask(t.select(list(base_key)), base_key)
    ts_np = t.column("ts").to_numpy(zero_copy_only=False)
    lsn_np = t.column(VALID_FROM_LSN_COL).to_numpy(zero_copy_only=False)
    vto_ts = np.roll(ts_np, -1)
    vto_lsn = np.roll(lsn_np, -1)
    is_cur = last & np.asarray(
        pc.not_equal(t.column(CHANGE_OP_COL), "D").to_numpy(zero_copy_only=False)
    )
    i = t.schema.get_field_index("ts")
    t = t.set_column(i, "valid_from_ts", t.column("ts"))
    t = t.append_column("valid_to_ts", pa.array(vto_ts, pa.timestamp("us"), mask=last))
    t = t.append_column("valid_to_lsn", pa.array(vto_lsn, pa.int64(), mask=last))
    t = t.append_column("is_current", pa.array(is_cur))
    return t


class HistoryTable:
    """SCD Type-2 history over a changelog, applied exactly-once.

    Thin composition over :class:`CDCEngine`: replay/tail/OCC/compaction
    /vacuum/fsck come from the engine unchanged; this class contributes
    the event transform and the read-time interval derivation.

    ``read()``      — full version history with valid_from/valid_to/
                      is_current (optionally as of an event time).
    ``snapshot_asof(ts)`` — the base table's live rows as of EVENT time
                      ``ts`` (a pa.Timestamp/np.datetime64/int epoch-us):
                      per key, the last version whose interval covers
                      ``ts``, excluding keys whose covering event is a
                      delete. O(partitions) interval filter, no replay —
                      complements CDCEngine.snapshot_arrow(as_of_ts=...),
                      which travels by COMMIT wall-clock.
    """

    def __init__(
        self,
        table_dir: str,
        base_spec: TableSpec = TRANSCRIPTS,
        num_partitions: int = DEFAULT_NUM_PARTITIONS,
        **engine_kw,
    ):
        self.base_spec = base_spec
        self.spec = history_spec(base_spec)
        self.engine = CDCEngine(
            table_dir,
            spec=self.spec,
            num_partitions=num_partitions,
            event_transform=HistoryEventTransform(),
            **engine_kw,
        )

    # -- feed application: delegate to the engine ----------------------
    def replay(self, changelog, **kw):
        return self.engine.replay(changelog, **kw)

    def tail(self, changelog, **kw):
        return self.engine.tail(changelog, **kw)

    def fsck(self) -> dict:
        return self.engine.fsck()

    @property
    def base_key(self) -> tuple[str, ...]:
        return tuple(self.base_spec.primary_key)

    # -- reads ----------------------------------------------------------
    def _output_names(self) -> list[str]:
        names = [
            "valid_from_ts" if c == "ts" else c
            for c in self.spec.column_names
        ]
        return names + ["valid_to_ts", "valid_to_lsn", "is_current"]

    def read(
        self,
        as_of_ts=None,
        current_only: bool = False,
        chunk_rows: int = 65_536,
        _post=None,
        _post_names: list[str] | None = None,
    ) -> "ray.data.Dataset":
        """The interval-form history as a streaming Dataset — one merge +
        lead pass per hash partition, inside the packed read tasks of
        ``cdc._partition_dataset`` (versions of a key co-locate, so the
        pass never shuffles). ``as_of_ts`` keeps only the versions
        visible at that event time; ``current_only`` keeps open non-delete
        versions (the live table, in history clothing).

        ``_post`` (internal): a per-PARTITION kernel applied to the
        filtered interval table while the whole partition is still one
        table (before chunking) — consumers needing key-complete blocks
        (snapshot_asof) hook here rather than map_batches over chunked
        output, where a key's versions may straddle block boundaries."""
        eng = self.engine
        man = eng.manifest
        lake = man.schema
        key_cols = eng.key_cols
        base_key = self.base_key
        out_names = _post_names if _post is not None else self._output_names()
        asof = None if as_of_ts is None else _as_ts_scalar(as_of_ts)

        parts = [
            {"pid": pid, "files": ps.files}
            for pid, ps in sorted(man.partitions.items())
            if ps.files
        ]

        def per_part(item: dict):
            t = merge_partition_files(item["files"], lake, key_cols, live=True)
            if t.num_rows:
                t = _history_intervals(t, base_key)
                t = _interval_filter(t, asof, current_only)
                t = _post(t) if _post is not None else t.select(out_names)
            return _iter_table_chunks(t, chunk_rows)

        return _partition_dataset(parts, per_part, _empty_out(lake, out_names))

    def read_arrow(self, **kw) -> pa.Table:
        """Driver-side history (tests/oracles on small tables), sorted by
        (key..., valid_from_ts, valid_from_lsn)."""
        t = _concat_ds(self.read(**kw))
        order = [*self.base_key, "valid_from_ts", VALID_FROM_LSN_COL]
        return t.take(pc.sort_indices(t.select(order),
                                      sort_keys=[(c, "ascending") for c in order]))

    def snapshot_asof(self, ts) -> "ray.data.Dataset":
        """Live rows of the BASE table as of event time ``ts`` — the
        interval read projected back to the base schema (``ts`` column =
        the covering version's event time)."""
        base_names = list(self.base_spec.column_names)
        base_key = self.base_key

        def latest(t: pa.Table) -> pa.Table:
            # runs per PARTITION (read()'s _post hook — key-complete):
            # versions visible at ts are interval-filtered already; per
            # key the COVERING one is the last by (ts, lsn) — rows are
            # still key+ts+lsn sorted from the lead pass (filter
            # preserves order). A covering delete removes the key.
            keep = last_per_key_mask(t.select(list(base_key)), base_key)
            keep &= np.asarray(
                pc.not_equal(t.column(CHANGE_OP_COL), "D")
                .to_numpy(zero_copy_only=False)
            )
            t = t.filter(pa.array(keep))
            i = t.schema.get_field_index("valid_from_ts")
            t = t.set_column(i, "ts", t.column("valid_from_ts"))
            return t.select(base_names)

        return self.read(as_of_ts=ts, _post=latest, _post_names=base_names)


def _as_ts_scalar(ts) -> pa.Scalar:
    return pa.scalar(ts, pa.timestamp("us")) if not isinstance(ts, pa.Scalar) else ts


def _interval_filter(t: pa.Table, asof, current_only: bool) -> pa.Table:
    if asof is not None:
        vis = pc.and_(
            pc.less_equal(t.column("valid_from_ts"), asof),
            pc.or_kleene(
                pc.is_null(t.column("valid_to_ts")),
                pc.greater(t.column("valid_to_ts"), asof),
            ),
        )
        t = t.filter(vis.fill_null(False))
    if current_only:
        t = t.filter(t.column("is_current"))
    return t


def _empty_out(lake: pa.Schema, out_names: list[str]) -> pa.Table:
    fields = []
    for n in out_names:
        if n == "valid_from_ts":
            fields.append(pa.field("valid_from_ts", pa.timestamp("us")))
        elif n == "valid_to_ts":
            fields.append(pa.field("valid_to_ts", pa.timestamp("us")))
        elif n == "valid_to_lsn":
            fields.append(pa.field("valid_to_lsn", pa.int64()))
        elif n == "is_current":
            fields.append(pa.field("is_current", pa.bool_()))
        else:
            fields.append(pa.field(n, lake.field(n).type))
    return pa.schema(fields).empty_table()


def _concat_ds(ds) -> pa.Table:
    import pyarrow as pa

    batches = [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not batches:
        return next(iter(ds.iter_batches(batch_format="pyarrow")))
    return pa.concat_tables([pa.table(b) if not isinstance(b, pa.Table) else b
                             for b in batches], promote_options="permissive")
