"""Publish / gold layer: committed snapshot + derived rollups + invariants.

Generalizes the reference's gold stage — star-schema joins, projections,
DQ-gated overwrite writes (/root/reference/src/gold/product_dimension.py:62-93,
order_fact.py:75-88) — over the CDC lake table:

- ``publish_snapshot``: DQ-gated, partition-directory Parquet export of the
  committed live rows (resumable output layout: one directory per hash
  partition, written atomically).
- ``conversation_rollup``: per-conversation aggregate via a vectorized
  per-batch partial aggregation followed by a small ``groupby().aggregate``
  over the partials (pre-aggregate pattern — SURVEY.md §4.2 shuffle note).
- ``attach_role_group``: broadcast-join a tiny dimension (``ray.put`` once,
  dict lookup per batch) — the J1 pattern from SURVEY.md §2.4.
- ``pk_violations``: the A4 PK-uniqueness invariant
  (/root/reference/src/models/data_quality_table.py:51-58).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..context import RunContext
from ..functions.quality import DQGate
from ..state.schema import TableSpec

#: tiny role dimension (gold-join example; analogous to the reference's
#: aisle/department dims, /root/reference/src/gold/product_dimension.py:62-74)
ROLE_DIM = {
    "user": "human",
    "assistant": "model",
    "system": "control",
    "tool": "control",
}


def publish_snapshot(
    engine,
    out_dir: str,
    gate_spec: TableSpec | None = None,
    run_context: RunContext | None = None,
) -> int:
    """Write the committed snapshot as partition-directory Parquet —
    RESUMABLY: one directory per hash partition, each finished atomically
    (tmp file + rename, then a ``_SUCCESS`` marker), so a rerun after a
    crash skips completed partitions and only exports the missing ones.
    Runs the DQ gate first when ``gate_spec`` carries rules — errors abort
    before any file is written. Returns the number of partitions exported
    this run (0 on a fully-complete rerun).

    Partitions are read by the engine's one read driver
    (``cdc._partition_dataset``, load-packed tasks) and merged by
    ``cdc.partition_chunks``; each merged chunk streams into the
    partition's one parquet writer, so a task holds one chunk stream, not
    a whole partition."""
    if gate_spec is not None:
        gate = DQGate(gate_spec, os.path.join(engine.table_dir, "_metrics", "dq"), run_context)
        gate.check(engine.snapshot())

    from .cdc import _partition_dataset, partition_chunks

    man = engine.manifest
    lake = man.schema
    key_cols = engine.key_cols
    public = pa.schema([f for f in lake if f.name not in ("_lsn", "_deleted")])
    todo = []
    for pid in sorted(man.partitions):
        files = man.partitions[pid].files
        part_dir = os.path.join(out_dir, f"part={pid:05d}")
        if files and not os.path.exists(os.path.join(part_dir, "_SUCCESS")):
            todo.append({"pid": pid, "files": files, "part_dir": part_dir})
    if not todo:
        return 0
    done = pa.schema([pa.field("pid", pa.int64())])

    def export_partition(item: dict):
        os.makedirs(item["part_dir"], exist_ok=True)
        path = os.path.join(item["part_dir"], "data.parquet")
        tmp = f"{path}.tmp-{os.getpid()}"
        with pq.ParquetWriter(tmp, public) as writer:
            for chunk in partition_chunks(item["files"], lake, key_cols, live=True):
                writer.write_table(chunk.select(public.names))
        os.replace(tmp, path)
        with open(os.path.join(item["part_dir"], "_SUCCESS"), "w") as f:
            f.write("ok")
        yield pa.table({"pid": [item["pid"]]}, schema=done)

    _partition_dataset(todo, export_partition, done.empty_table()).count()
    return len(todo)


def conversation_rollup(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-conversation stats: turns, assistant turns, chars, last ts.

    Partial-aggregates inside ``map_batches`` (one row per conv per block,
    the maintained view's kernel) so the groupby shuffles partials, not
    turns.
    """
    from ray.data.aggregate import Max, Sum

    from .incremental import RollupKernel

    return (
        ds.map_batches(RollupKernel.partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("n_assistant_turns", alias_name="n_assistant_turns"),
            Sum("total_chars", alias_name="total_chars"),
            Max("last_ts", alias_name="last_ts"),
        )
    )


def attach_role_group(ds: "ray.data.Dataset", dim: dict[str, str] | None = None) -> "ray.data.Dataset":
    """Broadcast-join the role dimension: ``ray.put`` the dict once, map it
    per batch with a vectorized pandas lookup — no shuffle."""
    ref = ray.put(dim or ROLE_DIM)

    def join(batch: pa.Table) -> pa.Table:
        lookup = ray.get(ref)
        roles = batch.column("role").to_pandas()
        grp = roles.map(lookup).astype(object).where(roles.notna(), None)
        return batch.append_column("role_group", pa.array(np.asarray(grp, dtype=object), pa.string()))

    return ds.map_batches(join, batch_format="pyarrow")


def pk_violations(ds: "ray.data.Dataset", key_cols: tuple[str, ...]) -> int:
    """Number of duplicated primary-key tuples (must be 0 post-apply)."""
    from ray.data.aggregate import Count

    counts = ds.groupby(list(key_cols)).aggregate(Count(alias_name="n"))
    dup = counts.filter(expr="n > 1")
    return dup.count()


def _route_turns(batch: pa.Table) -> pa.Table:
    """Shared projection stage for the turn-level publish operators:
    (conv_id, turn_idx, role, text) as plain utf8 — the direct exchange
    routes on ``conv_id`` itself (round 4; previously a ``_cb`` coarse
    column + sort exchange). ONE copy of this projection exists so
    assemble / windows / the IVM corpus kernel can never drift apart
    formats the shared string_agg oracle checks."""
    return pa.table(
        {
            "conv_id": batch.column("conv_id").cast(pa.string()),
            "turn_idx": batch.column("turn_idx"),
            "role": batch.column("role").cast(pa.string()),
            "text": batch.column("text").cast(pa.string()),
        }
    )


def render_turn_lines(role: pd.Series, text: pd.Series) -> pd.Series:
    """THE ``role: text`` line format — the single definition the
    string_agg oracles (assemble / windows / incremental corpus) assert
    against; change it here and the SQL changes with it or three
    surfaces fail together, loudly."""
    return role.fillna("") + ": " + text.fillna("")


def join_dialogues(turns: pd.DataFrame) -> pa.Table:
    """Fold ordered turn rows (``conv_id, turn_idx, line``) into one
    dialogue document per conversation (``conv_id, n_turns, dialogue``) —
    the combine half of conversation assembly, shared with the IVM
    corpus kernel."""
    g = turns.sort_values(["conv_id", "turn_idx"], kind="stable")
    keys = g["conv_id"]
    dialogue = g["line"].groupby(keys, sort=True).agg("\n".join)
    n_turns = keys.groupby(keys, sort=True).size()
    return pa.table(
        {
            "conv_id": pa.array(dialogue.index.to_numpy(dtype=object), pa.string()),
            "n_turns": pa.array(n_turns.to_numpy(dtype=np.int64), pa.int64()),
            "dialogue": pa.array(dialogue.to_numpy(dtype=object), pa.string()),
        }
    )


def assemble_conversations(
    ds: "ray.data.Dataset", shuffle_buckets: int | None = None
) -> "ray.data.Dataset":
    """Render each conversation as ONE training document: turns ordered by
    ``turn_idx``, formatted ``role: text`` and joined with newlines — the
    transcripts→SFT-corpus step of an LLM-data pipeline, run over the CDC
    lake's committed snapshot.

    Conversations co-locate by ``hash(conv_id)`` on the DIRECT exchange
    (:func:`~..stages.joins._direct_grouped_apply`; round 4 retired the
    ``groupby("_cb").map_groups`` sort exchange) and one kernel dispatch
    handles ALL of a bucket's conversations — one UDF dispatch per
    bucket, not per conversation, at millions of conversations. Inside
    the kernel everything is one pandas sort + groupby-agg; per-turn work
    is vectorized string concat. Output: ``conv_id, n_turns, dialogue`` —
    SQL-oracle-expressible as
    ``string_agg(role || ': ' || text, chr(10) ORDER BY turn_idx)``."""
    from ..stages.joins import _direct_grouped_apply

    def assemble(group: pd.DataFrame) -> pa.Table:
        turns = pd.DataFrame(
            {
                "conv_id": group["conv_id"],
                "turn_idx": group["turn_idx"],
                "line": render_turn_lines(group["role"], group["text"]),
            }
        )
        return join_dialogues(turns)

    return _direct_grouped_apply(
        ds.map_batches(_route_turns, batch_format="pyarrow"),
        "conv_id",
        assemble,
        shuffle_buckets,
    )


def conversation_windows(
    ds: "ray.data.Dataset", k: int = 4, shuffle_buckets: int | None = None
) -> "ray.data.Dataset":
    """Rolling dialogue-context construction: for EVERY turn, the
    ``role: text`` lines of the last ``k`` turns (older first, newline
    joined) — the chat-training-example shape "response with its recent
    history". One row per turn: ``conv_id, turn_idx, context``.

    Same direct exchange as :func:`assemble_conversations`; inside
    the bucket kernel the rolling join is ``k-1`` vectorized
    ``GroupBy.shift`` passes (prepend the i-turns-back line where it
    exists), never a per-row loop. SQL-oracle-expressible as
    ``string_agg(...) OVER (PARTITION BY conv_id ORDER BY turn_idx ROWS
    BETWEEN k-1 PRECEDING AND CURRENT ROW)``."""
    from ..stages.joins import _direct_grouped_apply

    if k < 1:
        raise ValueError("k must be >= 1")
    # preserve the lake's turn_idx type exactly (schema evolution can make
    # it any integral type; a pandas dtype ladder would silently widen)
    turn_t = ds.schema().base_schema.field("turn_idx").type

    def window(group: pd.DataFrame) -> pa.Table:
        g = group.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        line = render_turn_lines(g["role"], g["text"])
        ctx = line.copy()
        grouped = line.groupby(g["conv_id"], sort=False)
        for i in range(1, k):
            back = grouped.shift(i)
            has = back.notna()
            ctx = ctx.where(~has, back.fillna("") + "\n" + ctx)
        return pa.table(
            {
                "conv_id": pa.Array.from_pandas(g["conv_id"], type=pa.string()),
                "turn_idx": pa.Array.from_pandas(g["turn_idx"], type=turn_t),
                "context": pa.Array.from_pandas(ctx, type=pa.string()),
            }
        )

    return _direct_grouped_apply(
        ds.map_batches(_route_turns, batch_format="pyarrow"),
        "conv_id",
        window,
        shuffle_buckets,
    )


def tool_usage(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-tool usage analytics over the transcript lake: total tool
    calls and distinct conversations using each tool (agent-telemetry
    rollup of the ``tool`` column; null = no tool call on that turn).

    Two pre-aggregated exchanges of tiny data: per-batch (tool, conv)
    call counts shuffle O(tools × convs-per-block) partials, the
    (tool, conv) grain collapses distinct-conversation counting into a
    row count — no distinct-shuffle of raw turns anywhere."""
    from ray.data.aggregate import Sum

    def pair_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "tool": batch.column("tool").to_pandas(),
                "conv_id": batch.column("conv_id").to_pandas(),
            }
        )
        df = df[df["tool"].notna()]
        g = df.groupby(["tool", "conv_id"], sort=False).size().rename("calls").reset_index()
        return pa.table(
            {
                "tool": pa.Array.from_pandas(g["tool"], type=pa.string()),
                "conv_id": pa.Array.from_pandas(g["conv_id"], type=pa.string()),
                "calls": pa.Array.from_pandas(g["calls"], type=pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["tool", "conv_id"])
        .aggregate(Sum("calls", alias_name="calls"))
    )

    def tool_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "tool": batch.column("tool").to_pandas(),
                "calls": batch.column("calls").to_pandas(),
            }
        )
        g = df.groupby("tool", sort=False).agg(
            n_calls=("calls", "sum"), n_convs=("calls", "size")
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    return (
        pairs.map_batches(tool_partial, batch_format="pyarrow")
        .groupby("tool")
        .aggregate(Sum("n_calls", alias_name="n_calls"), Sum("n_convs", alias_name="n_convs"))
    )
