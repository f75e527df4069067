"""Schema-sync orchestration: snapshot → plan → validate → execute.

Port of the reference's v2 delta_engine orchestration
(/root/reference/src/delta_engine/orchestrate/orchestrator.py:51-91) onto
the manifest-backed lake:

- ``CatalogReader.snapshot`` builds the observed state from table manifests
  (instead of Unity Catalog information_schema —
  /root/reference/src/delta_engine/state/catalog_reader.py:34-72);
- ``Planner`` (state/planner.py) diffs desired ``TableSpec``s into
  immutable ``TablePlan`` actions;
- ``Validator`` runs fail-fast safety rules, injectable for extension
  (/root/reference/src/delta_engine/validation/validator.py:29-56);
- ``ActionRunner`` executes creates then aligns deterministically
  (/root/reference/src/delta_engine/execute/action_runner.py:24-44),
  mutating manifests in the fixed align order: drop PK → add cols → drop
  cols → widen → nullability → add PK → comment → properties
  (/root/reference/src/delta_engine/execute/align_executor.py:28-83).

Column drops are metadata-only: data files keep the bytes; readers project
through the manifest schema so dropped columns vanish on read and added
columns surface as nulls (Arrow-side analogue of Delta column mapping).

All pieces are dependency-injected (reader/planner/validator/runner) so
tests can swap fakes — the reference's DI surface (orchestrator.py:30-47).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import pyarrow as pa

from ..state.manifest import Manifest, ManifestStore, commit_version, create_table
from ..state.schema import TableSpec, widen
from .actions import AlignTable, TablePlan
from .planner import ValidationError, plan_table, validate_model, validate_plan

_INTERNAL_COLS = ("_lsn", "_deleted")


@dataclass(frozen=True)
class TableState:
    """Observed state of one table (public schema, i.e. minus internal
    bookkeeping columns)."""

    name: str
    schema: pa.Schema
    primary_key: tuple[str, ...] = ()
    properties: dict = field(default_factory=dict)
    comment: str = ""


class CatalogReader:
    """Observed catalog state from the lake's table manifests."""

    def __init__(self, lake_root: str):
        self.lake_root = lake_root

    def table_dir(self, name: str) -> str:
        return os.path.join(self.lake_root, name)

    def snapshot(self, names: Sequence[str]) -> dict[str, TableState | None]:
        out: dict[str, TableState | None] = {}
        for name in names:
            man = ManifestStore(self.table_dir(name)).load()
            if man is None:
                out[name] = None
                continue
            public = pa.schema([f for f in man.schema if f.name not in _INTERNAL_COLS])
            out[name] = TableState(
                name=name,
                schema=public,
                primary_key=tuple(man.primary_key),
                properties=dict(man.properties),
            )
        return out


class Validator:
    """Fail-fast rule runner with injectable rules (reference
    validator.py:29-56). A rule is ``fn(spec, plan) -> str | None`` — a
    non-None return is a failure message."""

    def __init__(
        self,
        model_rules: Sequence[Callable] | None = None,
        plan_rules: Sequence[Callable] | None = None,
    ):
        self.model_rules = list(model_rules) if model_rules is not None else [
            lambda spec, plan: self._wrap(validate_model, spec)
        ]
        self.plan_rules = list(plan_rules) if plan_rules is not None else [
            lambda spec, plan: self._wrap(validate_plan, plan, spec.primary_key)
        ]

    @staticmethod
    def _wrap(fn, *args):
        try:
            fn(*args)
            return None
        except ValidationError as e:
            return str(e)

    def validate(self, spec: TableSpec, plan: TablePlan) -> None:
        for rule in [*self.model_rules, *self.plan_rules]:
            msg = rule(spec, plan)
            if msg:
                raise ValidationError(msg)


class ActionRunner:
    """Executes table plans against manifests: creates first, then aligns
    (reference action_runner.py:24-44)."""

    def __init__(self, lake_root: str):
        self.lake_root = lake_root

    def apply(self, specs_by_name: dict[str, TableSpec], plans: Sequence[TablePlan]) -> list[str]:
        applied: list[str] = []
        for plan in plans:  # creates
            if plan.create is not None:
                self._create(specs_by_name[plan.table])
                applied.append(f"create {plan.table}")
        for plan in plans:  # aligns
            if plan.align is not None and not plan.align.is_noop:
                self._align(specs_by_name[plan.table], plan.align)
                applied.append(f"align {plan.table}")
        return applied

    def _store(self, name: str) -> ManifestStore:
        return ManifestStore(os.path.join(self.lake_root, name))

    def _create(self, spec: TableSpec) -> None:
        store = self._store(spec.name)
        if store.load() is not None:
            return  # idempotent create-if-missing (create_executor.py:26-57)
        create_table(store, spec, 16, dict(spec.properties))

    def _align(self, spec: TableSpec, align: AlignTable) -> None:
        store = self._store(spec.name)
        commit_version(store, store.load(), "align", lambda man: self._aligned(man, align))

    @staticmethod
    def _aligned(man: Manifest, align: AlignTable) -> None:
        fields = {f.name: f for f in man.schema}
        order = [f.name for f in man.schema]

        if align.pk_drop is not None:
            man.primary_key = []
        for add in align.adds:  # add cols (nullable enforced by validator)
            fields[add.name] = pa.field(add.name, add.dtype, nullable=True)
            order.insert(len(order) - len(_INTERNAL_COLS), add.name)  # before internals
        for drop in align.drops:  # metadata-only drop
            fields.pop(drop.name, None)
            order.remove(drop.name)
        for w in align.widens:
            f = fields[w.name]
            fields[w.name] = pa.field(f.name, widen(f.type, w.dst), nullable=f.nullable, metadata=f.metadata)
        for nc in align.nullability:
            f = fields[nc.name]
            fields[nc.name] = pa.field(f.name, f.type, nullable=nc.nullable, metadata=f.metadata)
        if align.pk_add is not None:
            man.primary_key = list(align.pk_add.columns)
        if align.column_comments is not None:
            for name, comment in align.column_comments.comments:
                f = fields[name]
                meta = dict(f.metadata or {})
                meta[b"comment"] = comment.encode()
                fields[name] = pa.field(f.name, f.type, nullable=f.nullable, metadata=meta)
        if align.comment is not None:
            man.properties["comment"] = align.comment.comment
        if align.properties is not None:
            man.properties.update(dict(align.properties.properties))

        man.set_schema(pa.schema([fields[n] for n in order]))
        man.schema_version += 1


@dataclass
class SyncResult:
    plans: list[TablePlan]
    applied: list[str]


class Orchestrator:
    """snapshot → plan → validate → execute (orchestrator.py:51-91).
    Reader/planner/validator/runner are injectable for tests."""

    def __init__(
        self,
        lake_root: str,
        reader: CatalogReader | None = None,
        plan_fn: Callable = plan_table,
        validator: Validator | None = None,
        runner: ActionRunner | None = None,
    ):
        self.lake_root = lake_root
        self.reader = reader or CatalogReader(lake_root)
        self.plan_fn = plan_fn
        self.validator = validator or Validator()
        self.runner = runner or ActionRunner(lake_root)

    def sync(self, specs: Sequence[TableSpec]) -> SyncResult:
        observed = self.reader.snapshot([s.name for s in specs])
        plans: list[TablePlan] = []
        for spec in specs:
            obs = observed[spec.name]
            plan = self.plan_fn(
                spec,
                obs.schema if obs else None,
                observed_pk=obs.primary_key if obs else (),
            )
            self.validator.validate(spec, plan)
            plans.append(plan)
        applied = self.runner.apply({s.name: s for s in specs}, plans)
        applied += self._ensure_foreign_keys(specs, set(observed))
        return SyncResult(plans=plans, applied=applied)

    def _ensure_foreign_keys(self, specs: Sequence[TableSpec], known: set[str]) -> list[str]:
        """Sync informational FK metadata into manifests after tables exist
        (reference ensure-FKs pass, /root/reference/src/ddl/utils.py:71-117:
        introspect → diff → add; failures collected into one error,
        utils.py:120-133). Metadata-only — never enforced on data."""
        from ..functions.naming import constraint_name

        known = known | {s.name for s in specs}
        errors: list[str] = []
        applied: list[str] = []
        for spec in specs:
            fks = spec.foreign_keys
            desired = {
                col: {
                    "references": f"{fk.table}.{fk.column}",
                    "name": constraint_name("fk", spec.name, (col,)),
                }
                for col, fk in fks.items()
            }
            bad = [col for col, fk in fks.items() if fk.table not in known]
            if bad:
                errors.extend(
                    f"{spec.name}.{col}: FK target table {fks[col].table!r} unknown" for col in bad
                )
                continue  # collect and keep processing other tables
            store = ManifestStore(os.path.join(self.lake_root, spec.name))
            man = store.load()
            if man is None:
                continue
            if man.properties.get("foreign_keys", {}) != desired:
                commit_version(
                    store, man, "foreign_keys", lambda m: m.properties.update(foreign_keys=desired)
                )
                applied.append(f"fks {spec.name}")
        if errors:
            raise RuntimeError("; ".join(errors))
        return applied


def discover_specs(module) -> list[TableSpec]:
    """Collect module-level ``TableSpec`` instances from a package —
    the reference's pkgutil discovery (/root/reference/src/ddl/utils.py:14-34)."""
    import importlib
    import pkgutil

    specs: list[TableSpec] = []
    seen: set[str] = set()

    def scan(mod) -> None:
        for v in vars(mod).values():
            if isinstance(v, TableSpec) and v.name not in seen:
                seen.add(v.name)
                specs.append(v)

    scan(module)
    if hasattr(module, "__path__"):
        for info in pkgutil.walk_packages(module.__path__, module.__name__ + "."):
            scan(importlib.import_module(info.name))
    return specs


__all__ = [
    "ActionRunner",
    "CatalogReader",
    "Orchestrator",
    "SyncResult",
    "TableState",
    "Validator",
    "discover_specs",
]
