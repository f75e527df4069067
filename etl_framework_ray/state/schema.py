"""Declarative table specs + Arrow schema-merge registry.

Port of the reference's declarative data model — ``Column``/``Table``
dataclasses (/root/reference/src/delta_engine/models.py:15-39,
/root/reference/src/models/column.py:54-69) — onto ``pyarrow``. Schema
*evolution* is diff-based (desired vs observed → add/widen actions), matching
the reference's planner semantics
(/root/reference/src/delta_engine/compile/planner.py:108-134) with the safety
rule that columns may only be *added* nullable
(/root/reference/src/delta_engine/validation/rules.py:90-106) and PK columns
must be NOT NULL (rules.py:228-261).
"""

from __future__ import annotations

import base64
import functools
from dataclasses import dataclass, field

import pyarrow as pa

# ---------------------------------------------------------------------------
# Column / table specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QualityRule:
    """Per-column data-quality rule.

    Mirrors the reference's ``QualityRule`` (criticality, allowed_values,
    min/max — /root/reference/src/models/column.py:44-51). ``criticality`` is
    ``"warn"`` (log failures, keep writing) or ``"error"`` (abort the write),
    per /root/reference/src/enums.py:47-60.
    """

    criticality: str = "error"  # "warn" | "error"
    allowed_values: tuple | None = None
    min_value: float | int | None = None
    max_value: float | int | None = None

    def __post_init__(self) -> None:
        if self.criticality not in ("warn", "error"):
            raise ValueError(f"criticality must be warn|error, got {self.criticality!r}")


@dataclass(frozen=True)
class ForeignKey:
    """Informational FK reference (``table.column``) — metadata-only, not
    enforced on the data path, matching the reference's Unity Catalog
    constraints (/root/reference/src/models/column.py:14-41; SURVEY.md
    §1.1 notes UC constraints are informational)."""

    table: str
    column: str


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    dtype: pa.DataType
    nullable: bool = True
    comment: str = ""
    quality: QualityRule | None = None
    foreign_key: ForeignKey | None = None

    @property
    def field(self) -> pa.Field:
        meta = {b"comment": self.comment.encode()} if self.comment else None
        return pa.field(self.name, self.dtype, nullable=self.nullable, metadata=meta)


@dataclass(frozen=True)
class TableSpec:
    """Logical table: identity + ordered columns + composite primary key.

    Mirrors /root/reference/src/delta_engine/models.py:25-39 (identity,
    columns, comment, table_properties, primary_key).
    """

    name: str
    columns: tuple[ColumnSpec, ...]
    primary_key: tuple[str, ...] = ()
    comment: str = ""
    properties: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        lowered = [n.lower() for n in names]
        if len(set(lowered)) != len(lowered):
            raise ValueError(f"duplicate column names (case-insensitive) in {self.name}")
        for k in self.primary_key:
            if k not in names:
                raise ValueError(f"primary key column {k!r} not in columns of {self.name}")
            col = self.columns[names.index(k)]
            if col.nullable:
                # PK columns must be NOT NULL (reference rules.py:228-261).
                raise ValueError(f"primary key column {k!r} must not be nullable")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def foreign_keys(self) -> dict[str, "ForeignKey"]:
        """column name → FK reference (informational)."""
        return {c.name: c.foreign_key for c in self.columns if c.foreign_key is not None}

    @property
    def schema(self) -> pa.Schema:
        return pa.schema([c.field for c in self.columns])

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Type widening lattice
# ---------------------------------------------------------------------------

_INT_ORDER = [pa.int8(), pa.int16(), pa.int32(), pa.int64()]
_FLOAT_ORDER = [pa.float32(), pa.float64()]


def is_widening(src: pa.DataType, dst: pa.DataType) -> bool:
    """True if ``src`` values can be losslessly represented as ``dst``."""
    if src.equals(dst):
        return True
    if src in _INT_ORDER and dst in _INT_ORDER:
        return _INT_ORDER.index(src) < _INT_ORDER.index(dst)
    if src in _FLOAT_ORDER and dst in _FLOAT_ORDER:
        return _FLOAT_ORDER.index(src) < _FLOAT_ORDER.index(dst)
    if src in _INT_ORDER and dst in _FLOAT_ORDER:
        # only LOSSLESS int→float pairs widen: float32 has a 24-bit
        # mantissa (int8/int16 fit), float64 a 53-bit one (up to int32).
        # int64→float would silently corrupt large integers, so it is NOT
        # a widening — widen()/plan_evolution raise instead.
        max_int_bits = 24 if dst.equals(pa.float32()) else 53
        return src.bit_width <= max_int_bits
    if pa.types.is_string(src) and pa.types.is_large_string(dst):
        return True
    return False


def widen(a: pa.DataType, b: pa.DataType) -> pa.DataType:
    """Smallest common type of ``a`` and ``b`` under the widening lattice."""
    if a.equals(b):
        return a
    if is_widening(a, b):
        return b
    if is_widening(b, a):
        return a
    raise TypeError(f"no widening between {a} and {b}")


def merge_schemas(current: pa.Schema, incoming: pa.Schema) -> tuple[pa.Schema, list[str]]:
    """Merge an incoming batch schema into the current table schema.

    Returns ``(merged, changes)`` where changes is a human-readable list of
    evolution steps (added columns, widened types). Incoming columns missing
    from ``current`` are appended *nullable* (safe-evolution rule). Narrowing
    raises.
    """
    changes: list[str] = []
    fields: list[pa.Field] = []
    cur_names = set(current.names)
    for f in current:
        if f.name in incoming.names:
            inc = incoming.field(f.name)
            merged_t = widen(f.type, inc.type)
            if not merged_t.equals(f.type):
                changes.append(f"widen {f.name}: {f.type} -> {merged_t}")
            fields.append(pa.field(f.name, merged_t, nullable=f.nullable, metadata=f.metadata))
        else:
            fields.append(f)
    for f in incoming:
        if f.name not in cur_names:
            # added columns are always nullable on existing tables
            fields.append(pa.field(f.name, f.type, nullable=True))
            changes.append(f"add {f.name}: {f.type} (nullable)")
    return pa.schema(fields), changes


def normalize_table(tbl: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project/cast a table to ``schema``: add missing columns as nulls, cast
    widened types, order columns. Used when reading pre-evolution files and
    when normalizing changelog batches to the current epoch schema. A
    table already in ``schema`` (field and schema metadata included) is
    returned as is."""
    if tbl.schema.equals(schema, check_metadata=True):
        return tbl
    cols = []
    n = tbl.num_rows
    for f in schema:
        if f.name in tbl.schema.names:
            col = tbl.column(f.name)
            if not col.type.equals(f.type):
                col = col.cast(f.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def schema_to_b64(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


@functools.lru_cache(maxsize=64)
def schema_from_b64(s: str) -> pa.Schema:
    """Decode :func:`schema_to_b64` output, memoized on the string
    (``pa.Schema`` is immutable): a manifest's schema is read on every
    lookup and scan but changes only on schema evolution."""
    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(s)))


# ---------------------------------------------------------------------------
# The engine's lake table (input_hint shape, FIXTURES.md F1)
# ---------------------------------------------------------------------------

#: Internal bookkeeping columns stored in lake files but projected out of the
#: published snapshot: the last applied change's LSN and the tombstone flag.
#: Tombstones stay in lake files so late/duplicate re-delivery of an *older*
#: event for a deleted key is discarded by the LWW merge instead of
#: resurrecting the row.
LSN_COL = "_lsn"
DELETED_COL = "_deleted"

TRANSCRIPTS = TableSpec(
    name="transcripts",
    columns=(
        ColumnSpec("conv_id", pa.string(), nullable=False, comment="conversation id"),
        ColumnSpec("turn_idx", pa.int32(), nullable=False, comment="0-based turn number"),
        ColumnSpec(
            "role",
            pa.string(),
            comment="speaker role",
            quality=QualityRule(
                criticality="warn",
                allowed_values=("user", "assistant", "system", "tool"),
            ),
        ),
        ColumnSpec("text", pa.large_string(), comment="turn text"),
        ColumnSpec("tool", pa.string(), comment="tool name or null"),
        ColumnSpec("ts", pa.timestamp("us"), nullable=False, comment="event time of latest applied change"),
    ),
    primary_key=("conv_id", "turn_idx"),
    comment="multi-turn conversation/agent transcripts (one row per turn)",
)


CONV_PROFILE = TableSpec(
    name="conv_profile",
    columns=(
        ColumnSpec("conv_id", pa.string(), nullable=False, comment="conversation id"),
        ColumnSpec("channel", pa.string(), comment="acquisition channel"),
        ColumnSpec("priority", pa.int32(), comment="triage priority"),
        ColumnSpec("ts", pa.timestamp("us"), nullable=False, comment="event time of latest applied change"),
    ),
    primary_key=("conv_id",),
    comment="per-conversation profile/dimension (one row per conversation; "
    "routes by conv_id, so it is co-partitioned with transcripts at equal "
    "partition counts — the contract IncrementalJoin relies on)",
)


def lake_schema(spec: TableSpec) -> pa.Schema:
    """Physical lake-file schema = public schema + internal LWW bookkeeping."""
    return pa.schema(
        list(spec.schema)
        + [pa.field(LSN_COL, pa.int64(), nullable=False), pa.field(DELETED_COL, pa.bool_(), nullable=False)]
    )
