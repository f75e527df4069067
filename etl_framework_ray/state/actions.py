"""Immutable change-plan IR (actions).

Port of the reference's action dataclasses —
ColumnAdd/ColumnDrop/ColumnNullabilityChange/CreateTable/AlignTable/TablePlan
(/root/reference/src/delta_engine/actions.py:29-147) — plus ``TypeWiden``,
which the Ray engine needs for changelog type evolution (int16→int32,
string→large_string) and the reference (Delta/UC) does not support.
Executors mutate the table manifest instead of issuing SQL DDL.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa


@dataclass(frozen=True)
class Action:
    pass


@dataclass(frozen=True)
class ColumnAdd(Action):
    name: str
    dtype: pa.DataType
    nullable: bool = True
    comment: str = ""


@dataclass(frozen=True)
class ColumnDrop(Action):
    name: str


@dataclass(frozen=True)
class ColumnNullabilityChange(Action):
    name: str
    nullable: bool


@dataclass(frozen=True)
class TypeWiden(Action):
    name: str
    src: pa.DataType
    dst: pa.DataType


@dataclass(frozen=True)
class SetTableComment(Action):
    comment: str


@dataclass(frozen=True)
class SetColumnComments(Action):
    """column name → comment (align step 7 in the reference order)."""

    comments: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SetTableProperties(Action):
    properties: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class PrimaryKeyAdd(Action):
    columns: tuple[str, ...]


@dataclass(frozen=True)
class PrimaryKeyDrop(Action):
    pass


@dataclass(frozen=True)
class CreateTable(Action):
    table: str
    schema_names: tuple[str, ...]


@dataclass(frozen=True)
class AlignTable(Action):
    """Ordered alignment of an existing table. Executed in the reference's
    fixed order: drop PK → add cols → drop cols → widen → nullability →
    add PK → comments → properties
    (/root/reference/src/delta_engine/execute/align_executor.py:28-83)."""

    table: str
    pk_drop: PrimaryKeyDrop | None = None
    adds: tuple[ColumnAdd, ...] = ()
    drops: tuple[ColumnDrop, ...] = ()
    widens: tuple[TypeWiden, ...] = ()
    nullability: tuple[ColumnNullabilityChange, ...] = ()
    pk_add: PrimaryKeyAdd | None = None
    comment: SetTableComment | None = None
    column_comments: "SetColumnComments | None" = None
    properties: SetTableProperties | None = None

    @property
    def is_noop(self) -> bool:
        return not (
            self.pk_drop
            or self.adds
            or self.drops
            or self.widens
            or self.nullability
            or self.pk_add
            or self.comment
            or self.column_comments
            or self.properties
        )


@dataclass(frozen=True)
class TablePlan:
    table: str
    create: CreateTable | None = None
    align: AlignTable | None = None

    @property
    def is_noop(self) -> bool:
        return self.create is None and (self.align is None or self.align.is_noop)

