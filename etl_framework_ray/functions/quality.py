"""Data-quality rules → Arrow predicates; warn/error write gates.

Port of the reference's DQ semantics
(/root/reference/src/models/data_quality_evaluator.py:81-102 and rule
builders /root/reference/src/models/data_quality_table.py:51-108):

- per-column rules auto-derived from the spec: ``allowed_values`` →
  ``pc.is_in``, ``min/max`` → range predicates, NOT NULL → ``pc.is_null``
  (M10 in SURVEY.md §2.2);
- a dataset-level ``is_unique`` rule over the primary key (A4);
- WARN failures are logged to the audit table and the write proceeds;
- any ERROR failure logs then raises ``DQError``, aborting the write
  BEFORE any data lands (evaluator ordering: warnings first, then errors
  raise — data_quality_evaluator.py:88-102).

Rule builders are extensible through a registry decorator, mirroring
``@DQDeltaTable.register_builder``
(/root/reference/src/models/data_quality_table.py:24-48): caller-supplied
rules win over generated rules with the same (column, name).
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..context import RunContext
from ..state.schema import QualityRule, TableSpec


class DQError(Exception):
    """Raised when ERROR-criticality rows are present; aborts the write
    (reference ``DQError``, data_quality_evaluator.py:22-25)."""


@dataclass(frozen=True)
class CheckSpec:
    """One executable check: name + criticality + vectorized failure mask."""

    name: str
    column: str
    criticality: str  # warn | error
    #: batch -> boolean array, True where the row FAILS the rule
    fail_mask: Callable[[pa.Table], pa.ChunkedArray | pa.Array]


#: builder registry: spec -> list[CheckSpec]
_BUILDERS: list[Callable[[TableSpec], list[CheckSpec]]] = []


def register_builder(fn: Callable[[TableSpec], list[CheckSpec]]):
    _BUILDERS.append(fn)
    return fn


def _not_null_mask(col: str):
    return lambda t: pc.is_null(t.column(col))


def _allowed_values_mask(col: str, values: tuple):
    vs = pa.array(list(values))
    return lambda t: pc.and_kleene(
        pc.invert(pc.is_in(t.column(col), value_set=vs)), pc.is_valid(t.column(col))
    )


def _range_mask(col: str, lo, hi):
    def mask(t: pa.Table):
        c = t.column(col)
        bad = pa.array([False] * t.num_rows) if t.num_rows else pa.array([], pa.bool_())
        if lo is not None:
            bad = pc.or_kleene(bad, pc.less(c, lo))
        if hi is not None:
            bad = pc.or_kleene(bad, pc.greater(c, hi))
        return pc.and_kleene(bad, pc.is_valid(c))

    return mask


@register_builder
def column_rule_builder(spec: TableSpec) -> list[CheckSpec]:
    """Auto-derive checks from column metadata (data_quality_table.py:61-108)."""
    checks: list[CheckSpec] = []
    for c in spec.columns:
        if not c.nullable:
            checks.append(CheckSpec(f"{c.name}_is_not_null", c.name, "error", _not_null_mask(c.name)))
        r: QualityRule | None = c.quality
        if r is None:
            continue
        if r.allowed_values is not None:
            checks.append(
                CheckSpec(
                    f"{c.name}_is_in_list", c.name, r.criticality, _allowed_values_mask(c.name, r.allowed_values)
                )
            )
        if r.min_value is not None or r.max_value is not None:
            checks.append(
                CheckSpec(
                    f"{c.name}_is_in_range", c.name, r.criticality, _range_mask(c.name, r.min_value, r.max_value)
                )
            )
    return checks


def build_checks(spec: TableSpec, extra: list[CheckSpec] | None = None) -> list[CheckSpec]:
    """All generated checks; ``extra`` (caller-supplied) wins on name clash."""
    out: dict[tuple[str, str], CheckSpec] = {}
    for b in _BUILDERS:
        for c in b(spec):
            out[(c.column, c.name)] = c
    for c in extra or []:
        out[(c.column, c.name)] = c
    return list(out.values())


AUDIT_SCHEMA = pa.schema(
    [
        pa.field("table_name", pa.string()),
        pa.field("rule_name", pa.string()),
        pa.field("column", pa.string()),
        pa.field("criticality", pa.string()),
        pa.field("failed_rows", pa.int64()),
        pa.field("checked_rows", pa.int64()),
        pa.field("job_id", pa.string()),
        pa.field("run_id", pa.string()),
        pa.field("date", pa.string()),
        pa.field("run_time", pa.float64()),
    ]
)

#: per-(failing row, failed rule) detail — the reference explodes the
#: quarantine frame's failure structs into one row per failure
#: (data_quality_evaluator.py:53-68); we additionally keep the failing
#: row's primary key so a blocked write is debuggable down to the row
FAILURE_SCHEMA = pa.schema(
    [
        pa.field("table_name", pa.string()),
        pa.field("rule_name", pa.string()),
        pa.field("column", pa.string()),
        pa.field("criticality", pa.string()),
        pa.field("row_key", pa.string()),
        pa.field("job_id", pa.string()),
        pa.field("run_id", pa.string()),
        pa.field("date", pa.string()),
    ]
)


def _row_keys(batch: pa.Table, key_cols: tuple[str, ...]) -> pa.Array:
    """Vectorized string key per row: PK values joined with '|' (first
    declared column for PK-less tables)."""
    parts = [
        pc.cast(batch.column(c), pa.string()) for c in key_cols if c in batch.column_names
    ]
    if not parts:
        return pa.nulls(batch.num_rows, pa.string())
    if len(parts) == 1:
        return pc.fill_null(parts[0], "∅")
    return pc.binary_join_element_wise(*[pc.fill_null(p, "∅") for p in parts], "|")


def evaluate_batch_detail(
    batch: pa.Table,
    checks: list[CheckSpec],
    key_cols: tuple[str, ...],
    table_name: str,
    rc: dict,
) -> tuple[dict[str, int], pa.Table]:
    """One vectorized pass: per-rule failure counts AND the per-failing-row
    detail rows (rule, column, criticality, row key)."""
    counts: dict[str, int] = {}
    keys = None
    detail: list[pa.Table] = []
    for chk in checks:
        mask = chk.fail_mask(batch)
        n = pc.sum(mask).as_py() or 0
        if not n:
            continue
        counts[chk.name] = n
        if keys is None:
            keys = _row_keys(batch, key_cols)
        failed_keys = pc.filter(keys, pc.fill_null(mask, False))
        m = len(failed_keys)
        detail.append(
            pa.table(
                {
                    "table_name": pa.array([table_name] * m, pa.string()),
                    "rule_name": pa.array([chk.name] * m, pa.string()),
                    "column": pa.array([chk.column] * m, pa.string()),
                    "criticality": pa.array([chk.criticality] * m, pa.string()),
                    "row_key": failed_keys.combine_chunks()
                    if isinstance(failed_keys, pa.ChunkedArray)
                    else failed_keys,
                    "job_id": pa.array([rc.get("job_id")] * m, pa.string()),
                    "run_id": pa.array([rc.get("run_id")] * m, pa.string()),
                    "date": pa.array([rc.get("date")] * m, pa.string()),
                }
            )
        )
    detail_tbl = (
        pa.concat_tables(detail) if detail else FAILURE_SCHEMA.empty_table()
    )
    return counts, detail_tbl


def apply_checks_and_split(
    ds, spec: TableSpec, extra: list[CheckSpec] | None = None
):
    """Split a Dataset into (good, quarantine) by the spec's rules — the
    analogue of DQx ``apply_checks_and_split``
    (/root/reference/src/models/data_quality_evaluator.py:49-51).

    Quarantine rows (those failing ANY rule) carry a ``_failures``
    ``list<struct<name, column, criticality>>`` column, exploitable with
    ``transforms.explode_struct_list`` (M7). Both halves stream — one
    shared upstream, two filtered consumers."""
    import numpy as np

    checks = build_checks(spec, extra)

    failure_t = pa.struct(
        [("name", pa.string()), ("column", pa.string()), ("criticality", pa.string())]
    )

    def annotate(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        fails: list[list[dict]] = [[] for _ in range(n)]
        for chk in checks:
            mask = pc.fill_null(chk.fail_mask(batch), False).to_numpy(zero_copy_only=False)
            for i in np.nonzero(mask)[0]:
                fails[i].append(
                    {"name": chk.name, "column": chk.column, "criticality": chk.criticality}
                )
        return batch.append_column(
            "_failures", pa.array([f or None for f in fails], pa.list_(failure_t))
        )

    annotated = ds.map_batches(annotate, batch_format="pyarrow")
    good = annotated.map_batches(
        lambda b: b.filter(pc.is_null(b.column("_failures"))).drop_columns(["_failures"]),
        batch_format="pyarrow",
    )
    quarantine = annotated.map_batches(
        lambda b: b.filter(pc.is_valid(b.column("_failures"))), batch_format="pyarrow"
    )
    return good, quarantine


def _write_failure_file(failure_dir: str, run_id: str, detail: pa.Table) -> None:
    os.makedirs(failure_dir, exist_ok=True)
    path = os.path.join(failure_dir, f"failures-{run_id}-{uuid.uuid4().hex[:8]}.parquet")
    pq.write_table(detail, path)


class DQGate:
    """Gate a Dataset around a write.

    Two modes:

    - ``check(ds)`` — standalone pre-pass: count failures per rule,
      capture per-failing-row detail, append audit rows, raise
      ``DQError`` if any ERROR rule failed (reference ordering:
      warnings logged first, then errors raise —
      /root/reference/src/models/data_quality_evaluator.py:88-102).
    - ``wrap_stage(stage_fn)`` + ``finalize(handle)`` — FUSED single-pass
      gate: evaluation rides inside the write's own staging
      ``map_batches`` (counts via a zero-CPU actor, failure detail
      written by the workers), and ``finalize`` audits/raises AFTER the
      staged write but BEFORE the manifest commit. The 2PC keeps staged
      files invisible, so ERROR-before-visibility semantics hold at half
      the cost of the pre-pass. A Ray task retried after partial
      completion re-reports its batches, so counts AND detail rows can
      over-count under worker failure — audit/monitoring data, not a
      transactional ledger (the pass/fail VERDICT stays correct: retries
      can only re-observe failures that exist).
    """

    def __init__(
        self,
        spec: TableSpec,
        audit_dir: str,
        run_context: RunContext | None = None,
        failure_dir: str | None = None,
    ):
        self.spec = spec
        self.audit_dir = audit_dir
        self.failure_dir = failure_dir or os.path.join(
            os.path.dirname(audit_dir.rstrip(os.sep)), "dq_failures"
        )
        self.ctx = run_context or RunContext()

    def _key_cols(self) -> tuple[str, ...]:
        return tuple(self.spec.primary_key) or (self.spec.column_names[0],)

    # -- fused single-pass API -----------------------------------------
    def wrap_stage(self, stage_fn, extra: list[CheckSpec] | None = None):
        """Returns ``(fn, handle)``: ``fn`` evaluates checks on each batch
        (detail + counts) and then applies ``stage_fn``; pass ``handle``
        to :meth:`finalize` after the staged write."""
        checks = build_checks(self.spec, extra)
        if not checks:
            return stage_fn, None
        import uuid

        from ..stages.util import BatchCounts

        # file-backed count sink: no per-batch actor round-trip (a
        # blocking ray.get per staging batch, serialized through one actor)
        counter = BatchCounts(
            os.path.join(os.path.dirname(self.failure_dir), "_dq_counts", uuid.uuid4().hex)
        )
        key_cols = self._key_cols()
        table, rc, fdir = self.spec.name, self.ctx.as_dict(), self.failure_dir
        run_id = self.ctx.run_id

        def fn(batch: pa.Table) -> pa.Table:
            counts, detail = evaluate_batch_detail(batch, checks, key_cols, table, rc)
            if detail.num_rows:
                _write_failure_file(fdir, run_id, detail)
            counter.add({**counts, "__rows__": batch.num_rows})
            return stage_fn(batch)

        return fn, (counter, checks, time.perf_counter())

    def abort(self, handle) -> None:
        """Failure-path hygiene: drop the count sink when the staged write
        raised before :meth:`finalize` could run — otherwise every failed
        write leaks a ``_dq_counts/<uuid>`` dir inside the table's metrics
        tree."""
        if handle is not None:
            handle[0].cleanup()

    def finalize(self, handle) -> dict[str, dict]:
        """Audit the fused counts; raise ``DQError`` on ERROR failures.
        MUST run before the manifest commit (and after the staged write's
        execution has completed — task completion implies the workers'
        count lines are on disk)."""
        if handle is None:
            return {}
        counter, checks, t0 = handle
        counts = counter.collect()
        counter.cleanup()
        total_rows = int(counts.pop("__rows__", 0))
        return self._report(counts, total_rows, time.perf_counter() - t0, checks)

    # -- standalone pre-pass API ---------------------------------------
    def check(self, ds, extra: list[CheckSpec] | None = None) -> dict[str, dict]:
        checks = build_checks(self.spec, extra)
        if not checks:
            return {}
        t0 = time.perf_counter()
        key_cols = self._key_cols()
        table, rc, fdir = self.spec.name, self.ctx.as_dict(), self.failure_dir
        run_id = self.ctx.run_id

        def count_failures(batch: pa.Table) -> pa.Table:
            counts, detail = evaluate_batch_detail(batch, checks, key_cols, table, rc)
            if detail.num_rows:
                _write_failure_file(fdir, run_id, detail)
            return pa.Table.from_pylist(
                [
                    {"rule_name": k, "failed_rows": v, "checked_rows": batch.num_rows}
                    for k, v in counts.items()
                ]
                + ([{"rule_name": "_rows", "failed_rows": 0, "checked_rows": batch.num_rows}]),
                schema=pa.schema(
                    [
                        pa.field("rule_name", pa.string()),
                        pa.field("failed_rows", pa.int64()),
                        pa.field("checked_rows", pa.int64()),
                    ]
                ),
            )

        partials = ds.map_batches(count_failures, batch_format="pyarrow").to_pandas()
        run_time = time.perf_counter() - t0
        if partials.empty:  # empty source: nothing to check, nothing to log
            return {}
        total_rows = int(partials[partials.rule_name == "_rows"].checked_rows.sum())
        agg = (
            partials[partials.rule_name != "_rows"].groupby("rule_name").failed_rows.sum().to_dict()
        )
        return self._report(agg, total_rows, run_time, checks)

    # -- shared reporting ----------------------------------------------
    def _report(
        self, agg: dict[str, int], total_rows: int, run_time: float, checks: list[CheckSpec]
    ) -> dict[str, dict]:
        by_name = {c.name: c for c in checks}
        results: dict[str, dict] = {}
        audit_rows = []
        rc = self.ctx.as_dict()
        for name, failed in sorted(agg.items()):
            chk = by_name[name]
            results[name] = {
                "criticality": chk.criticality,
                "failed_rows": int(failed),
                "checked_rows": total_rows,
            }
            audit_rows.append(
                {
                    "table_name": self.spec.name,
                    "rule_name": name,
                    "column": chk.column,
                    "criticality": chk.criticality,
                    "failed_rows": int(failed),
                    "checked_rows": total_rows,
                    "run_time": run_time,
                    **rc,
                }
            )
        # warnings logged first, then errors raise (reference ordering)
        if audit_rows:
            self._append_audit(audit_rows)
        errors = {k: v for k, v in results.items() if v["criticality"] == "error" and v["failed_rows"]}
        if errors:
            raise DQError(f"DQ errors on {self.spec.name}: {errors}")
        return results

    def _append_audit(self, rows: list[dict]) -> None:
        os.makedirs(self.audit_dir, exist_ok=True)
        path = os.path.join(self.audit_dir, f"checks-{self.ctx.run_id}-{uuid.uuid4().hex[:8]}.parquet")
        pq.write_table(pa.Table.from_pylist(rows, schema=AUDIT_SCHEMA), path)


def read_audit(audit_dir: str) -> pa.Table:
    import glob

    paths = sorted(glob.glob(os.path.join(audit_dir, "checks-*.parquet")))
    if not paths:
        return AUDIT_SCHEMA.empty_table()
    return pa.concat_tables([pq.read_table(p) for p in paths])


def read_failures(failure_dir: str) -> pa.Table:
    """Per-failing-row detail appended by gates (forensic table)."""
    import glob

    paths = sorted(glob.glob(os.path.join(failure_dir, "failures-*.parquet")))
    if not paths:
        return FAILURE_SCHEMA.empty_table()
    return pa.concat_tables([pq.read_table(p) for p in paths])
