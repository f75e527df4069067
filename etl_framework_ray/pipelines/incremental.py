"""Incremental materialized-view maintenance over the CDC changefeed.

``IncrementalRollup`` keeps the gold ``conversation_rollup`` aggregate
(publish.py) continuously up to date WITHOUT recomputing the whole table:
each ``advance()`` call lists the delta files committed since the view's
watermark by hash partition, derives each partition's TOUCHED
conversations inside that partition's task, recomputes the rollup for
exactly those conversations from the lake's merge-on-read state, and
splices the fresh rows into the view's partition files — untouched
partitions carry forward by reference, untouched conversations inside a
touched partition carry forward from the previous view file.

Every view here is one :class:`MaintainedView` — a single driver for any
number of co-partitioned source engines. The rollup family is its
one-source case and ``IncrementalJoin`` its two-source case: they share
one implementation of state, advance, commit, reads, audit and metrics,
and differ only in the per-partition body, its context, the view
fingerprint and the sort key. ``replica.ReplicaTable`` keeps its
directory through the same load / commit-and-prune / audit / read
helpers.

Why group-level recompute rather than differential deltas: the rollup's
``last_ts = MAX(ts)`` is NOT an invertible aggregate (and updates/deletes
would need before-images the changefeed deliberately does not carry), so
the textbook IVM strategy for this aggregate class is "recompute the
affected groups only" — cost O(changed conversations' turns), not
O(corpus). This is the same trade the reference's gold tables make by
re-projecting silver state (/root/reference/src/gold/order_fact.py:75-88),
made incremental by the CDC lineage.

Scale shape (100-TB audit):
- An advance is ONE round of Ray tasks: the driver lists the new
  changefeed files per partition (footer-free: names only) and starts one
  task per partition that has any. Each task derives its touched
  conversations itself — the unique conversation-id hashes of its
  changefeed files that are homed in its partition — so no touched set
  is gathered or broadcast, and a task that finds none keeps the old
  file and counts as untouched.
- Recompute inside that task: merge-on-read (one chunk for a small
  stack, a streamed k-way merge above that; peak memory O(chunk x
  files)), a vectorized partial rollup per chunk, one combine per task.
  No shuffle anywhere — the view is partitioned by the same
  ``hash(conv_id) % P`` as the lake, so every group's turns are already
  co-located (salted hot keys pull their fanout partitions' changefeed
  and files into the one task that owns the group).
- Commit is a versioned manifest swap (tmp+rename); superseded and
  crash-orphaned view files are pruned AFTER the commit, so readers of the
  previous version never race a delete within ``advance()`` itself.

Collision note: touched-set membership tests use 64-bit SipHash values.
A collision can only mark an UNTOUCHED conversation as touched — it gets
recomputed to the same value it already had (wasted work, never a wrong
result).
"""

from __future__ import annotations

import json
import os
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.hashing import partition_ids, salted_key_homes, stable_hash_array
from ..stages.util import in_sorted

#: public schema of the maintained view (matches publish.conversation_rollup
#: and the cdc_rollup oracle SQL column-for-column)
VIEW_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("n_turns", pa.int64()),
        pa.field("n_assistant_turns", pa.int64()),
        pa.field("total_chars", pa.int64()),
        pa.field("last_ts", pa.timestamp("us")),
    ]
)

_MANIFEST = "_view_manifest.json"
_CHANGES_DIR = "_changes"
_METRICS = "_view_metrics.jsonl"


def _prune_view_dir(dirpath: str, live: set[str], grace_s: float) -> None:
    """Remove superseded view versions and crash orphans from one view
    directory, graced so lazy readers of the PREVIOUS version finish
    their file lists (``prune_grace_s`` doc on the view classes);
    survivors go on a later commit's pass."""
    cutoff = time.time() - grace_s
    for name in os.listdir(dirpath):
        # superseded parquet AND crash-orphaned .tmp residue (a task
        # killed between write and rename)
        if name in live or not (name.endswith(".parquet") or ".parquet.tmp-" in name):
            continue
        full = os.path.join(dirpath, name)
        try:
            if os.path.getmtime(full) <= cutoff:
                os.remove(full)
        except FileNotFoundError:
            pass  # another committer's prune won the race


# -- the versioned partition directory: a maintained view and a replica
# (replica.py) keep their state the same way — a JSON manifest listing one
# parquet file per non-empty hash partition, swapped atomically per commit


def _load_dir(dirpath: str, manifest: str) -> dict | None:
    """The committed state of a partition directory, None before its
    first commit."""
    path = os.path.join(dirpath, manifest)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def _commit_dir(dirpath: str, manifest: str, state: dict, grace_s: float) -> None:
    """Commit ``state`` as a versioned manifest swap (tmp + rename), then
    prune the partition files it no longer lists. The prune runs AFTER
    the swap, so readers of the previous version never race a delete."""
    path = os.path.join(dirpath, manifest)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.replace(tmp, path)
    _prune_view_dir(dirpath, {os.path.basename(p) for p in state["files"].values()}, grace_s)


def _audit_dir(
    dirpath: str, state: dict | None, key_col: str, label: str
) -> tuple[int, list[str]]:
    """Audit a partition directory's files: a missing manifest with data
    files present is a finding; every listed file exists with a readable
    footer and its rows hash-route (``key_col``) to its partition.
    ``label`` ("view " or "") names the files in the issue strings.
    Returns ``(files checked, issues)``."""
    if state is None:
        orphans = [f for f in os.listdir(dirpath) if f.endswith(".parquet")]
        if not orphans:
            return 0, []
        return 0, [f"no {label}manifest but {len(orphans)} data file(s) present"]
    issues: list[str] = []
    P = int(state["num_partitions"])
    for pid_s, f in sorted(state["files"].items()):
        if not os.path.exists(f):
            issues.append(f"pid {pid_s}: missing {label}file {os.path.basename(f)}")
            continue
        try:
            t = pq.read_table(f, columns=[key_col])
        except Exception as e:
            issues.append(f"pid {pid_s}: unreadable {os.path.basename(f)}: {e}")
            continue
        if t.num_rows and (partition_ids(t.column(key_col), P) != int(pid_s)).any():
            issues.append(f"pid {pid_s}: row routed to wrong {label}partition")
    return len(state["files"]), issues


def _read_file(item: dict):
    yield pq.read_table(item["files"][0])


def _read_dir(state: dict | None, schema: pa.Schema) -> "ray.data.Dataset":
    """A partition directory's committed files as a lazy Dataset, read
    through ``cdc._partition_dataset`` with one item per file: the files
    pack by bytes onto at most one task per CPU under its block bound, so
    a view or replica read fills the pool."""
    from .cdc import _partition_dataset

    files = sorted(state["files"].values()) if state else []
    return _partition_dataset([{"files": [f]} for f in files], _read_file, schema.empty_table())


def _read_dir_arrow(state: dict | None, schema: pa.Schema, sort_keys: list[str]) -> pa.Table:
    """A partition directory's committed rows, driver-side, key-sorted."""
    files = sorted(state["files"].values()) if state else []
    if not files:
        return schema.empty_table()
    t = pa.concat_tables([pq.read_table(f) for f in files])
    return t.sort_by([(c, "ascending") for c in sort_keys])


def _splice_results(files: dict[str, str], results: list[dict]) -> int:
    """Fold per-partition rewrite results into ``files`` (pid -> path): a
    partition left empty drops out and its just-written file is removed.
    Returns the rows written. ``results`` holds the rewritten partitions
    only (a task that found no touched key returned None)."""
    rows = 0
    for r in results:
        rows += int(r["rows"])
        if r["rows"]:
            files[str(r["pid"])] = r["path"]
        else:
            files.pop(str(r["pid"]), None)
            os.remove(r["path"])
    return rows


@ray.remote
def _view_partition_task(body, ctx: dict, item: dict) -> dict:
    """Run one view partition body (:func:`rebuild_partition`,
    :func:`join_partition`) in a pool worker."""
    from .cdc import _single_threaded_arrow

    _single_threaded_arrow()
    return body(ctx, item)


def _run_partitions(body, ctx: dict, items: list[dict]) -> list[dict]:
    """THE one round of an advance: direct tasks, one per partition with
    changefeed files (or, on a rebuild, with lake files), sharing ONE
    ``ray.put`` context. Each task discovers its own touched keys
    (:func:`_partition_inputs`), so no discovery round runs before it;
    like the lake reduce (``cdc._apply_pid_task``) partitions without
    changes get no task, so an advance costs in proportion to the
    partitions it touches. Returns the meta dicts of the partitions that
    were rewritten."""
    ctx_ref = ray.put(ctx)
    metas = ray.get([_view_partition_task.remote(body, ctx_ref, it) for it in items])
    return [m for m in metas if m is not None]


def _partition_inputs(ctx: dict, item: dict):
    """Touched-key discovery for one view partition — the one place a view
    reads its changefeed. Returns ``(touched, stacks)``: the sorted unique
    hashes of the view key in the item's changefeed files whose UNSALTED
    home is this pid (None on a rebuild, where every key qualifies), and
    per source the file stack to merge, i.e. the partition's own files
    plus the fanout partitions' files of each touched salted key homed
    here. Returns None when the changes hold no key homed here (only
    another home's salted rows): the partition keeps its old file."""
    pid, key, P = item["pid"], ctx["key"], np.uint64(ctx["num_partitions"])
    touched = None
    if item["changes"] is not None:
        hashes = [
            stable_hash_array(pq.read_table(f, columns=[key]).column(key))
            for f in item["changes"]
        ]
        h = np.unique(np.concatenate(hashes)) if hashes else np.array([], np.uint64)
        touched = h[(h % P).astype(np.int64) == pid]
        if not len(touched):
            return None
    stacks = []
    for files, salted in zip(item["files"], item["salted"]):
        for h, fanout_files in salted:
            if touched is None or in_sorted(np.array([h], np.uint64), touched)[0]:
                files = files + fanout_files
        stacks.append(list(dict.fromkeys(files)))  # two salted keys may share a fanout pid
    return touched, stacks


def _live_rows(chunk: pa.Table, key: str, num_partitions: int, pid: int, touched) -> pa.Table:
    """Live rows of ``chunk`` whose UNSALTED ``key`` hash routes to view
    partition ``pid`` and, unless ``touched`` is None (a rebuild), is in
    the sorted touched-hash array."""
    from .cdc import DELETED_COL

    live = chunk.filter(pc.invert(chunk.column(DELETED_COL)))
    if not live.num_rows:
        return live
    h = stable_hash_array(live.column(key))
    keep = (h % np.uint64(num_partitions)).astype(np.int64) == pid
    if touched is not None:
        keep &= in_sorted(h, touched)
    return live.filter(pa.array(keep))


def rebuild_partition(ctx: dict, item: dict) -> dict:
    """Recompute one touched view partition: fold the kernel over the
    touched conversations' merged lake rows, splice in the untouched
    rows of the previous view file, write the new file (and, when the
    view emits changes, its REPLACE delta). ``ctx`` is the advance's
    shared context, ``item`` this partition's changefeed files, file
    stacks and output paths. Returns None, writing nothing, when no
    touched key is homed here."""
    from .cdc import _write_data_file, partition_chunks

    inputs = _partition_inputs(ctx, item)
    if inputs is None:
        return None
    touched, (files,) = inputs
    pid, kernel, version = item["pid"], ctx["kernel"], ctx["version"]
    partials = []
    for chunk in partition_chunks(files, *ctx["sources"][0]):
        sel = _live_rows(chunk, "conv_id", ctx["num_partitions"], pid, touched)
        if sel.num_rows:
            partials.append(kernel.partial(sel))
    fresh = kernel.combine(partials)

    pieces = [fresh]
    gone = pa.array([], pa.string())
    if touched is not None and item["old_file"]:
        old = pq.read_table(item["old_file"])
        touched_mask = in_sorted(stable_hash_array(old.column("conv_id")), touched)
        old_kept = old.filter(pa.array(~touched_mask))
        if old_kept.num_rows:
            pieces.append(old_kept)
        if item["delta_out"]:
            # conversations that left the view this advance: touched in
            # the old file, absent from the recompute
            old_touched = pc.unique(old.filter(pa.array(touched_mask)).column("conv_id"))
            gone = old_touched.filter(
                pc.invert(pc.is_in(old_touched, value_set=pc.unique(fresh.column("conv_id"))))
            ).cast(pa.string())
    out = pa.concat_tables(pieces).sort_by("conv_id")
    _write_data_file(out, item["out"])
    delta_path = None
    if item["delta_out"] and (fresh.num_rows or len(gone)):
        u_t = pa.table(
            {
                "op": pa.array(["U"] * fresh.num_rows, pa.string()),
                "version": pa.array([version] * fresh.num_rows, pa.int64()),
                **{c: fresh.column(c) for c in fresh.column_names},
            }
        )
        d_t = pa.table(
            {
                "op": pa.array(["D"] * len(gone), pa.string()),
                "version": pa.array([version] * len(gone), pa.int64()),
                **{
                    f.name: gone if f.name == "conv_id" else pa.nulls(len(gone), f.type)
                    for f in fresh.schema
                },
            }
        )
        _write_data_file(pa.concat_tables([u_t, d_t]).sort_by("conv_id"), item["delta_out"])
        delta_path = item["delta_out"]
    return {
        "pid": pid,
        "rows": out.num_rows,
        "path": item["out"],
        "delta_path": delta_path,
        "touched": -1 if touched is None else len(touched),
    }


class RollupKernel:
    """View kernel for the per-conversation rollup aggregate (the default;
    column-for-column the cdc_rollup oracle SQL). Kernels are stateless,
    picklable strategy objects: ``partial`` runs per merged chunk inside
    the partition task, ``combine`` folds a partition's partials into the
    view rows.

    Both steps are single-threaded Arrow hash aggregates (the callers run
    inside pool tasks). A null ``role`` is not an assistant turn, a null
    ``text`` counts 0 chars and null ``ts`` values are skipped, so a
    conversation whose ``ts`` is all null gets a null ``last_ts``. The
    same ``partial`` is publish.conversation_rollup's map stage."""

    schema = VIEW_SCHEMA

    @staticmethod
    def partial(live: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "conv_id": live.column("conv_id"),
                "a": pc.fill_null(pc.equal(live.column("role"), "assistant"), False),
                "c": pc.fill_null(pc.utf8_length(live.column("text")), 0),
                "ts": live.column("ts"),
            }
        )
        aggs = [([], "count_all"), ("a", "sum"), ("c", "sum"), ("ts", "max")]
        return _as_view(t.group_by("conv_id", use_threads=False).aggregate(aggs))

    @staticmethod
    def combine(partials: list[pa.Table]) -> pa.Table:
        if not partials:
            return VIEW_SCHEMA.empty_table()
        t = pa.concat_tables(partials)
        aggs = [(f.name, "max" if f.name == "last_ts" else "sum") for f in VIEW_SCHEMA][1:]
        return _as_view(t.group_by("conv_id", use_threads=False).aggregate(aggs))


def _as_view(g: pa.Table) -> pa.Table:
    """A rollup aggregate's output (the ``conv_id`` key and the aggregates
    in VIEW_SCHEMA order) as VIEW_SCHEMA rows."""
    cols = [g.column("conv_id")] + g.drop_columns(["conv_id"]).columns
    return pa.table(cols, names=VIEW_SCHEMA.names).cast(VIEW_SCHEMA)


class CorpusKernel:
    """View kernel that maintains the assembled SFT corpus: one
    role-tagged dialogue document per conversation, identical to
    ``publish.assemble_conversations`` (``role: text`` lines joined by
    newlines in ``turn_idx`` order — the same ``string_agg ORDER BY
    turn_idx`` oracle).

    Unlike the rollup (whose partials are O(conversations)), assembly
    partials carry every TURN's rendered line until the final join, so a
    partition task holds O(partition turns) — the same order as the view
    file it is about to write, which is the floor for any materialized
    dialogue view. Turn order is restored explicitly in ``combine`` (one
    sort over the partition's rows), so chunk arrival order never
    matters."""

    schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("n_turns", pa.int64()),
            pa.field("dialogue", pa.string()),
        ]
    )

    def partial(self, live: pa.Table) -> pd.DataFrame:
        from .publish import render_turn_lines

        return pd.DataFrame(
            {
                "conv_id": live.column("conv_id").to_pandas(),
                "turn_idx": live.column("turn_idx").to_pandas(),
                "line": render_turn_lines(
                    live.column("role").to_pandas(), live.column("text").to_pandas()
                ),
            }
        )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        from .publish import join_dialogues

        if not partials:
            return self.schema.empty_table()
        return join_dialogues(pd.concat(partials))


class ToolUsageKernel:
    """View kernel for per-(conversation, tool) call counts — the
    incremental form of ``publish.tool_usage``'s first exchange (the
    (tool, conv) grain). The view stays keyed by ``conv_id`` so the
    engine's touched-conversation splice applies unchanged (several rows
    per conversation — the splice filters old rows by conv hash, not by
    row identity); global per-tool totals are a tiny roll-up over the
    view (``calls`` sum + row count per tool), never over raw turns."""

    schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("tool", pa.string()),
            pa.field("calls", pa.int64()),
        ]
    )

    def partial(self, live: pa.Table) -> pd.DataFrame:
        # `tool` is an EVOLVED column: a view bootstrapped before the
        # schema evolution that adds it reads pre-evolution chunks where
        # the field does not exist yet — absent means all-null, exactly
        # like the lake's own read of pre-evolution files
        tool = (
            live.column("tool").to_pandas()
            if "tool" in live.schema.names
            else pd.Series([None] * live.num_rows, dtype=object)
        )
        df = pd.DataFrame(
            {
                "conv_id": live.column("conv_id").to_pandas(),
                "tool": tool,
            }
        )
        df = df[df["tool"].notna()]
        return (
            df.groupby(["conv_id", "tool"], sort=False).size().rename("calls").reset_index()
        )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        if not partials:
            return self.schema.empty_table()
        g = (
            pd.concat(partials)
            .groupby(["conv_id", "tool"], sort=False)["calls"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "conv_id": pa.Array.from_pandas(g["conv_id"], type=pa.string()),
                "tool": pa.Array.from_pandas(g["tool"], type=pa.string()),
                "calls": pa.Array.from_pandas(g["calls"], type=pa.int64()),
            }
        )


def _advance_result(watermarks: list[int], convs: int, partitions: int, rows: int) -> dict:
    """The one result (and metrics-row) shape of every view run."""
    return {
        "watermarks": list(watermarks),
        "watermark_lsn": watermarks[0],
        "touched_convs": convs,
        "touched_partitions": partitions,
        "rows_written": rows,
    }


class MaintainedView:
    """The one maintained-view driver: a view over N co-partitioned CDC
    engines (``sources``) kept fresh from their changefeeds. The rollup
    family is the one-source case (:class:`IncrementalRollup`), the join
    the two-source case (:class:`IncrementalJoin`); subclasses supply
    only the partition body (``_body``, a module function run once per
    partition with new changes), its extra context (``_context``) and the
    fingerprint that guards a view directory against another view's rows.
    An advance is one round of tasks (:func:`_run_partitions`): each body
    finds its own touched keys (:func:`_partition_inputs`) and recomputes
    them, so the driver never gathers the touched set.

    All durable state lives in the directory: a versioned manifest
    (``version``, one applied LSN per source in ``watermarks``,
    ``files``, ``num_partitions``, ``fingerprint``, ``delta_floor``,
    ``deltas``) plus partition files, so an instance is safe to re-create
    after a crash. Single-writer: concurrent ``advance()`` calls on the
    same directory are not supported (matching the engine's own
    single-committer contract)."""

    #: only the rollup family writes a view changefeed (see
    #: :meth:`IncrementalRollup.changes`)
    emit_changes = False

    def __init__(self, sources: list, view_dir: str, schema: pa.Schema, key: str, sort_keys):
        self.sources = list(sources)
        self.view_dir = view_dir
        #: published view schema (what an empty view reads as)
        self.schema = schema
        #: view key: touched-key discovery, routing and the audit hash it
        self.key = key
        self.sort_keys = list(sort_keys)
        #: grace (seconds) before a SUPERSEDED view/delta file is pruned
        #: after the commit that replaced it — the view analogue of the
        #: lake's ``vacuum(grace_s=...)``: ``read()``/``changes()`` return
        #: LAZY datasets over the manifest's files, so a reader that
        #: overlaps a concurrent advance needs its file list to outlive
        #: the swap. 0 (default) prunes immediately (single-process
        #: pipelines, tests); long-running deployments with concurrent
        #: readers should set it to their slowest reader's budget.
        self.prune_grace_s: float = 0.0
        os.makedirs(view_dir, exist_ok=True)

    # -- durable state -------------------------------------------------
    def _load_state(self) -> dict | None:
        return _load_dir(self.view_dir, _MANIFEST)

    def _commit_state(self, state: dict) -> None:
        _commit_dir(self.view_dir, _MANIFEST, state, self.prune_grace_s)
        ch_dir = os.path.join(self.view_dir, _CHANGES_DIR)
        if os.path.isdir(ch_dir):
            live = {os.path.basename(p) for ps in state["deltas"].values() for p in ps}
            _prune_view_dir(ch_dir, live, self.prune_grace_s)

    # -- public API ----------------------------------------------------
    @property
    def version(self) -> int:
        """The view's committed version (0 before the first run) — the
        cursor :meth:`IncrementalRollup.changes` consumes."""
        state = self._load_state()
        return int(state["version"]) if state else 0

    @property
    def watermarks(self) -> tuple[int, ...]:
        """The applied LSN of each source the view reflects, in source
        order (zeros before the first run)."""
        state = self._load_state()
        if state is None:
            return (0,) * len(self.sources)
        return tuple(int(w) for w in state["watermarks"])

    def read(self) -> "ray.data.Dataset":
        """The maintained view as a Dataset (its partition files packed
        onto at most one read task per CPU; plain Parquet, so downstream
        pipelines compose normally)."""
        return _read_dir(self._load_state(), self.schema)

    def read_arrow(self) -> pa.Table:
        """Driver-side convenience form for tests/small views."""
        return _read_dir_arrow(self._load_state(), self.schema, self.sort_keys)

    def fsck(self) -> dict:
        """Consistency audit of the view directory — the view analogue of
        :meth:`CDCEngine.fsck`. Driver-side (view manifests are small):
        every listed partition file exists with a readable footer and its
        rows hash-route to its partition; delta files exist; no source
        was resharded and no watermark exceeds its source's applied LSN;
        the continuity floor never exceeds the version; the recorded
        fingerprint matches this instance. Returns ``{"ok",
        "files_checked", "issues"}``."""
        state = self._load_state()
        n, issues = _audit_dir(self.view_dir, state, self.key, "view ")
        if state is None:
            return {"ok": not issues, "files_checked": n, "issues": issues}
        P = int(state["num_partitions"])
        for eng, wm in zip(self.sources, state["watermarks"]):
            man = eng.manifest
            if int(man.num_partitions) != P:
                # the same condition advance() fails loud on (reshard
                # re-homed every key) — an audit must not green-light it
                issues.append(
                    f"view built at {P} partitions, table {man.table!r} now at "
                    f"{man.num_partitions} (reshard): rebuild() required"
                )
            if int(wm) > int(man.applied_lsn):
                issues.append(f"view watermark {wm} above table {man.table!r} {man.applied_lsn}")
        for v, paths in state["deltas"].items():
            for p_ in paths:
                n += 1
                if not os.path.exists(p_):
                    issues.append(f"delta v{v}: missing {os.path.basename(p_)}")
        if int(state["delta_floor"]) > int(state["version"]):
            issues.append(f"delta floor {state['delta_floor']} above version {state['version']}")
        if state["fingerprint"] != self._fingerprint():
            issues.append(
                f"kernel mismatch: built as {state['fingerprint']!r}, "
                f"audited as {self._fingerprint()!r}"
            )
        return {"ok": not issues, "files_checked": n, "issues": issues}

    def rebuild(self) -> dict:
        """Full recompute — bootstrap, and the documented recovery after a
        reshard, a kernel/config change, or lagging past a changefeed
        retention floor."""
        return self._run(self._load_state(), full=True)

    def advance(self) -> dict:
        """Bring the view up to every source's committed LSN. Raises
        (fail-loud) when the view was built with another fingerprint,
        when a source was resharded since the last run, or when a
        watermark is no longer reconstructible from a source's changefeed
        — call :meth:`rebuild`."""
        state = self._load_state()
        if state is not None and state["fingerprint"] != self._fingerprint():
            raise RuntimeError(
                f"view at {self.view_dir!r} was built as {state['fingerprint']!r}; "
                f"advancing it as {self._fingerprint()!r} would mix incompatible "
                "rows — use the original kernel/config or rebuild()"
            )
        return self._run(state, full=state is None)

    def _metrics_append(self, row: dict) -> None:
        """Append one run's lineage row to ``_view_metrics.jsonl`` — the
        view analogue of the lake's per-epoch metrics (advisory: written
        after the commit, so a crash in between loses at most the row,
        never the state)."""
        row = {"ts": time.time(), **row}
        with open(os.path.join(self.view_dir, _METRICS), "a") as f:
            f.write(json.dumps(row) + "\n")

    def metrics(self) -> pa.Table:
        """Per-advance lineage history: one row per committed run
        (version, watermarks, touched counts, rows, wall seconds, whether
        it was a rebuild, delta files emitted). Driver-side by contract —
        the file grows one small line per advance."""
        path = os.path.join(self.view_dir, _METRICS)
        if not os.path.exists(path):
            return pa.table({})
        with open(path) as f:
            rows = [json.loads(ln) for ln in f if ln.strip()]
        return pa.Table.from_pylist(rows)

    # -- core ----------------------------------------------------------
    def _run(self, state: dict | None, full: bool) -> dict:
        t0 = time.perf_counter()
        mans = [eng.manifest for eng in self.sources]
        P = int(mans[0].num_partitions)
        for man in mans:
            if not full and int(man.num_partitions) != int(state["num_partitions"]):
                # a reshard re-homed every key: the view's per-pid
                # carry-forward files no longer mean what their numbers
                # say — carrying them forward would resurrect stale rows.
                # Same contract as lagging past the retention floor.
                raise RuntimeError(
                    f"table {man.table!r} was resharded ({state['num_partitions']} -> "
                    f"{man.num_partitions} partitions) since this view's last "
                    "advance; call rebuild()"
                )
        if any(int(man.num_partitions) != P for man in mans):
            raise RuntimeError(
                "tables are not co-partitioned: partition counts "
                f"{[int(man.num_partitions) for man in mans]} — reshard to match first"
            )
        cur = [int(man.applied_lsn) for man in mans]
        if not full:
            wms = [int(w) for w in state["watermarks"]]
            if all(c <= w for c, w in zip(cur, wms)):
                return _advance_result(wms, 0, 0, 0)
        # version is MONOTONIC across rebuilds: a rebuild discards files
        # but must not recycle version numbers, or a delta consumer's
        # committed cursor would silently alias an unrelated new version
        version = int(state["version"]) + 1 if state else 1
        files: dict[str, str] = {} if full else dict(state["files"])
        deltas: dict[str, list[str]] = {} if full else dict(state["deltas"])
        delta_floor = version if full else int(state["delta_floor"])

        fanouts = [
            salted_key_homes(eng.salt_map, man.schema.field(eng.key_cols[0]).type, P)
            for eng, man in zip(self.sources, mans)
        ]

        def stack(man, pid: int) -> list[str]:
            return list(man.partitions[pid].files) if pid in man.partitions else []

        def changes(pid: int) -> list[str]:
            """The changefeed files of ``pid`` and of its salted keys'
            fanout pids, over every source."""
            return list(
                dict.fromkeys(
                    f
                    for by_pid, fan in zip(feeds, fanouts)
                    for p in [pid, *(fp for _h, fps in fan.get(pid, []) for fp in fps)]
                    for f in by_pid.get(p, [])
                )
            )

        if full:
            # a rebuild starts from scratch: carrying forward view files for
            # partitions whose lake files vanished would resurrect stale
            # rows. A salted key's HOME partition may hold no files while
            # its rows live in the fanout partitions — its task must run.
            pid_set: set[int] = set()
            for man, fan in zip(mans, fanouts):
                pid_set |= {pid for pid, ps in man.partitions.items() if ps.files}
                pid_set |= set(fan)
        else:
            # each source's new changefeed files by pid; _changefeed_files
            # validates each horizon (raises past a retention
            # floor/compaction). A pid gets a task when its own files or,
            # for a salted key homed there, a fanout pid's files changed
            feeds = []
            for eng, wm in zip(self.sources, wms):
                by_pid: dict[int, list[str]] = {}
                for pid, f in eng._changefeed_files(wm):
                    by_pid.setdefault(pid, []).append(f)
                feeds.append(by_pid)
            pid_set = {p for by_pid in feeds for p in by_pid} | {h for fan in fanouts for h in fan}
            pid_set = {pid for pid in pid_set if changes(pid)}
        emit = self.emit_changes and not full
        if pid_set and emit:
            os.makedirs(os.path.join(self.view_dir, _CHANGES_DIR), exist_ok=True)
        items = [
            {
                "pid": pid,
                "changes": None if full else changes(pid),
                # per source: the partition's file stack, and each salted
                # key homed here with its fanout partitions' stacks
                "files": [stack(man, pid) for man in mans],
                "salted": [
                    [(h, [f for fp in fps for f in stack(man, fp)]) for h, fps in fan.get(pid, [])]
                    for man, fan in zip(mans, fanouts)
                ],
                "old_file": files.get(str(pid)),
                "out": os.path.join(
                    self.view_dir,
                    f"part-{pid:05d}-v{version:06d}-{uuid.uuid4().hex[:8]}.parquet",
                ),
                "delta_out": os.path.join(
                    self.view_dir,
                    _CHANGES_DIR,
                    f"delta-v{version:06d}-p{pid:05d}-{uuid.uuid4().hex[:8]}.parquet",
                )
                if emit
                else None,
            }
            for pid in sorted(pid_set)
        ]
        ctx = {
            "sources": [(man.schema, eng.key_cols) for eng, man in zip(self.sources, mans)],
            "key": self.key,
            "num_partitions": P,
            "version": version,
            **self._context(),
        }
        results = _run_partitions(self._body, ctx, items) if items else []
        if results and not emit:
            # changefeed continuity: a rebuild, or any advance that
            # recomputes rows WITHOUT emitting them, breaks the delta
            # chain — the floor moves to this version. An advance that
            # touched nothing is an (empty) delta either way.
            delta_floor, deltas = version, {}

        rows_written = _splice_results(files, results)
        new_delta_files = sorted(r["delta_path"] for r in results if r.get("delta_path"))
        if new_delta_files:
            deltas[str(version)] = new_delta_files
        self._commit_state(
            {
                "version": version,
                "watermarks": cur,
                "files": files,
                "num_partitions": P,
                "fingerprint": self._fingerprint(),
                "delta_floor": delta_floor,
                "deltas": deltas,
            }
        )
        out = _advance_result(
            cur,
            -1 if full else sum(int(r["touched"]) for r in results),
            len(results),
            rows_written,
        )
        self._metrics_append(
            {
                "version": version,
                "full": full,
                "delta_files": len(new_delta_files),
                "seconds": round(time.perf_counter() - t0, 4),
                **out,
            }
        )
        return out


class IncrementalRollup(MaintainedView):
    """Incrementally-maintained view of a ``CDCEngine`` table — by default
    the ``conversation_rollup`` aggregate; pass ``kernel=CorpusKernel()``
    (or use :class:`IncrementalCorpus`) to maintain the assembled SFT
    corpus instead. The one-source :class:`MaintainedView`: one instance
    per view directory, keyed and routed by ``conv_id``; the kernel is
    the partition body's strategy and its class + config are the view's
    fingerprint."""

    _body = staticmethod(rebuild_partition)

    def __init__(self, engine, view_dir: str, kernel=None, emit_changes: bool = False):
        self.engine = engine
        self.kernel = kernel if kernel is not None else RollupKernel()
        super().__init__([engine], view_dir, self.kernel.schema, "conv_id", ["conv_id"])
        #: when True, every advance() also writes a row-level VIEW
        #: CHANGEFEED (see :meth:`changes`) — computed inside the partition
        #: task where the old and new rows are already in hand, so the
        #: delta costs one extra small parquet write per touched partition
        self.emit_changes = bool(emit_changes)

    @property
    def watermark(self) -> int:
        return self.watermarks[0]

    def _fingerprint(self) -> str:
        """Identity of the kernel (class + config) persisted in the view
        manifest: advancing a view directory with a DIFFERENT kernel —
        another ``ivm --kind``, or the same kind under another config
        (e.g. a MinHash view built with num_perm=128 advanced by the
        CLI's default 64) — would splice incompatible rows next to
        carried-forward ones. Fail loud instead (rebuild() re-keys)."""
        extra = getattr(self.kernel, "fingerprint", None)
        return f"{type(self.kernel).__name__}:{extra() if callable(extra) else ''}"

    def _context(self) -> dict:
        return {"kernel": self.kernel}  # stateless; shipped once per advance

    def _delta_schema(self) -> pa.Schema:
        return pa.schema(
            [pa.field("op", pa.string()), pa.field("version", pa.int64())]
            + list(self.schema)
        )

    def changes(
        self, since_version: int, net: bool = True, up_to: int | None = None
    ) -> "ray.data.Dataset":
        """The VIEW's own changefeed: the row-level deltas committed by
        advances after ``since_version`` (exclusive) up to the current
        version — so maintained views compose: a downstream consumer
        keeps its derived state fresh from the view's deltas without ever
        rescanning the view, exactly as the view itself consumes the
        lake's changefeed.

        Delta semantics are per-conversation REPLACE, mirroring the
        engine's own no-before-image changefeed: for each touched
        conversation, one ``op='U'`` row per CURRENT view row
        (delete-then-insert the conversation downstream) and one
        ``op='D'`` row (payload columns null) per conversation that left
        the view. With ``net=True`` (default) a conversation touched by
        SEVERAL advances in the window is collapsed to its latest
        version's rows, so one delete-then-insert pass per conversation
        applies the whole window; ``net=False`` returns the raw stream —
        a consumer must then apply versions in ascending order per
        conversation (Datasets carry no row order).

        Requires the view to run with ``emit_changes=True``; fails loud
        when ``since_version`` predates the continuity floor — a rebuild,
        or any non-emitting advance, resets it (resync from :meth:`read`,
        like a consumer that lagged past the lake's changefeed
        retention). The returned Dataset reads the delta files lazily:
        consume (or materialize) it before :meth:`prune_changes`, a
        rebuild, or a non-emitting advance deletes them. ``up_to``
        bounds the window's upper end — an exactly-once consumer anchors
        it to the head version it committed, so an advance racing the
        read cannot leak later versions into the window."""
        state = self._load_state()
        if state is None:
            raise RuntimeError("view has never run; nothing to consume")
        cur = int(state["version"])
        floor = int(state["delta_floor"])
        if since_version > cur:
            raise ValueError(f"since_version {since_version} is ahead of the view ({cur})")
        if since_version < floor:
            raise RuntimeError(
                f"view changefeed is only continuous since version {floor} "
                "(a rebuild or a non-emitting advance reset it); resync from "
                "read() and resume from the current version"
            )
        hi = cur if up_to is None else min(cur, int(up_to))
        by_version = {
            int(v): ps
            for v, ps in state["deltas"].items()
            if since_version < int(v) <= hi
        }
        paths = [p for ps in by_version.values() for p in ps]
        if not paths:
            return ray.data.from_arrow(self._delta_schema().empty_table())
        ds = ray.data.read_parquet(sorted(paths))
        if not net or len(by_version) <= 1:
            return ds
        from ..stages.joins import _direct_grouped_apply

        sch = self._delta_schema()  # capture the schema, not the view/engine

        def latest(df: pd.DataFrame) -> pa.Table:
            # per conversation keep only its highest version's rows — the
            # net window effect under REPLACE semantics
            keep = df["version"] == df.groupby("conv_id", sort=False)["version"].transform("max")
            return pa.Table.from_pandas(df[keep], preserve_index=False).cast(sch)

        return _direct_grouped_apply(ds, "conv_id", latest)

    def prune_changes(self, before_version: int) -> int:
        """Garbage-collect delta files for versions ``<= before_version``
        (a downstream consumer's committed cursor) and raise the
        continuity floor to match — the view-changefeed analogue of the
        engine's ``changefeed_retention_lsn``. Returns the number of
        files dropped. Single-writer, like :meth:`advance`."""
        state = self._load_state()
        if state is None:
            return 0
        if before_version > int(state["version"]):
            raise ValueError(
                f"before_version {before_version} is ahead of the view "
                f"({state['version']}); pruning past the head would wedge the feed"
            )
        deltas = state["deltas"]
        dropped = [p for v, ps in deltas.items() if int(v) <= before_version for p in ps]
        state["deltas"] = {v: ps for v, ps in deltas.items() if int(v) > before_version}
        state["delta_floor"] = max(int(state["delta_floor"]), int(before_version))
        self._commit_state(state)  # prunes the dropped files from _changes/
        return len(dropped)


class IncrementalCorpus(IncrementalRollup):
    """Incrementally-maintained assembled SFT corpus (one role-tagged
    dialogue document per conversation) over the CDC changefeed — the
    ``assemble_conversations`` output kept continuously fresh at
    O(changed conversations) per ``advance()`` instead of a full
    re-assembly. Same durable-state, rebuild, and retention-floor
    contracts as :class:`IncrementalRollup`."""

    def __init__(self, engine, view_dir: str, emit_changes: bool = False):
        super().__init__(engine, view_dir, kernel=CorpusKernel(), emit_changes=emit_changes)


class IncrementalToolUsage(IncrementalRollup):
    """Incrementally-maintained per-(conversation, tool) call counts over
    the CDC changefeed (agent-telemetry grain kept continuously fresh).
    Same durable-state, rebuild, and retention-floor contracts as
    :class:`IncrementalRollup`."""

    def __init__(self, engine, view_dir: str, emit_changes: bool = False):
        super().__init__(engine, view_dir, kernel=ToolUsageKernel(), emit_changes=emit_changes)


#: second-key for the independent 64-bit hash (hash_array wants 16 chars)
_HASH_KEY_2 = "etl-dedup-hash-2"


def _fingerprint128(docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """128-bit content fingerprint (two independent 64-bit SipHashes) of
    each document — the single definition the dedup-family kernels
    (:class:`DedupHashKernel`, :class:`CurationKernel`) share, so their
    views can never diverge on the hashing scheme."""
    h1 = pd.util.hash_array(docs, categorize=False).astype(np.int64)
    h2 = pd.util.hash_array(docs, hash_key=_HASH_KEY_2, categorize=False).astype(np.int64)
    return h1, h2


def _canonical_min(df: pd.DataFrame) -> pd.Series:
    """Canonical member per fingerprint group: the lexicographically
    smallest ``conv_id`` among rows sharing the (text_hash, text_hash2)
    pair — the one dedup rule, shared by every consumer so canonical
    selection cannot drift between views."""
    return df.groupby(["text_hash", "text_hash2"], sort=False)["conv_id"].transform("min")


class DedupHashKernel(CorpusKernel):
    """View kernel for the incremental exact-dedup index: per
    conversation, a 128-bit content fingerprint (:func:`_fingerprint128`)
    of its assembled dialogue — the same rendering as
    :class:`CorpusKernel` / the ``string_agg ORDER BY turn_idx`` oracle,
    so two conversations fingerprint equal iff their dialogues are
    byte-equal. The view row is three narrow columns: the TEXT never
    leaves the partition task, and each ``advance()`` re-fingerprints
    only the touched conversations."""

    schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("text_hash", pa.int64()),
            pa.field("text_hash2", pa.int64()),
        ]
    )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        if not partials:  # e.g. every touched conv in this partition died
            return self.schema.empty_table()
        t = super().combine(partials)  # (conv_id, n_turns, dialogue)
        h1, h2 = _fingerprint128(t.column("dialogue").to_pandas().to_numpy(dtype=object))
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "text_hash": pa.array(h1, pa.int64()),
                "text_hash2": pa.array(h2, pa.int64()),
            }
        )


class IncrementalDedup(IncrementalRollup):
    """Incrementally-maintained EXACT-DEDUP index over the CDC changefeed.

    At 100 TB a corpus cannot be re-deduplicated per ingest epoch; this
    view keeps a per-conversation dialogue fingerprint continuously fresh
    at O(changed conversations) per ``advance()`` (the inherited
    touched-partition recompute — text is hashed inside the partition
    task and never shipped), then :meth:`labels` derives duplicate
    labels with ONE slim exchange of 24-byte rows — hash-equal dialogues
    co-locate, the lexicographically smallest ``conv_id`` per fingerprint
    is canonical, everything else is a duplicate. An edit that makes two
    conversations equal, an edit that splits them apart, and a delete of
    the canonical copy (the next-smallest member takes over) are all
    handled by construction: labels are derived from the CURRENT index,
    never patched.

    Same durable-state, rebuild, reshard and retention-floor contracts as
    :class:`IncrementalRollup`. Collision note: labels equate dialogues
    on a 128-bit fingerprint; at 10^9 conversations the collision
    probability is ~10^-20 — callers needing certainty can verify the
    (tiny) duplicate set against the lake with :meth:`CDCEngine.lookup`.
    """

    def __init__(self, engine, view_dir: str, emit_changes: bool = False):
        super().__init__(engine, view_dir, kernel=DedupHashKernel(), emit_changes=emit_changes)

    def labels(self) -> "ray.data.Dataset":
        """``(conv_id, canonical_conv_id, is_dup)`` for every live
        conversation, derived from the maintained index — the only
        cross-partition step, and it exchanges fingerprints, not text."""
        from ..stages.joins import _direct_grouped_apply

        def kern(df: pd.DataFrame) -> pa.Table:
            if len(df):
                canon = _canonical_min(df)
                dup = (df["conv_id"] != canon).to_numpy()
            else:
                canon = df["conv_id"]
                dup = np.zeros(0, dtype=bool)
            return pa.table(
                {
                    "conv_id": pa.array(df["conv_id"], pa.string()),
                    "canonical_conv_id": pa.array(canon, pa.string()),
                    "is_dup": pa.array(dup, pa.bool_()),
                }
            )

        return _direct_grouped_apply(self.read(), "text_hash", kern)


class MinHashSigKernel(CorpusKernel):
    """View kernel for the incremental NEAR-dup index: per conversation,
    a MinHash signature of its assembled dialogue's word shingles (the
    same signature stage as :func:`~..stages.dedup.minhash_dedup` —
    ``MinHasher`` with the config's permutations). The view holds
    ``num_perm × 8`` bytes per conversation; dialogue text never leaves
    the partition task, and each ``advance()`` re-signs only the touched
    conversations. ``conv_hash`` (64-bit SipHash of the conv id) is the
    integer node id the connected-components labeling runs on."""

    def __init__(self, cfg=None):
        from ..stages.dedup import MinHashConfig

        self.cfg = cfg if cfg is not None else MinHashConfig()

    def fingerprint(self) -> str:
        return repr(self.cfg)

    @property
    def schema(self) -> pa.Schema:
        return pa.schema(
            [
                pa.field("conv_id", pa.string()),
                pa.field("conv_hash", pa.int64()),
                pa.field("sig", pa.list_(pa.int64())),
            ]
        )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        if not partials:
            return self.schema.empty_table()
        from ..stages.dedup import MinHasher

        t = CorpusKernel.combine(self, partials)  # (conv_id, n_turns, dialogue)
        hasher = MinHasher(self.cfg, text_col="dialogue", id_col="conv_id")
        sig_t = hasher(t)
        h = stable_hash_array(t.column("conv_id")).astype(np.int64)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "conv_hash": pa.array(h, pa.int64()),
                "sig": sig_t.column("sig"),
            }
        )


class IncrementalMinHash(IncrementalRollup):
    """Incrementally-maintained NEAR-duplicate (MinHash-LSH) index over
    the CDC changefeed — the fuzzy sibling of :class:`IncrementalDedup`.

    ``advance()`` keeps a per-conversation MinHash signature fresh at
    O(changed conversations) per epoch (inherited touched-partition
    recompute; signatures are computed inside the partition task).
    :meth:`labels` then runs the engine's distributed LSH pipeline OVER
    THE SIGNATURES ONLY — banding, co-partitioned signature-Jaccard
    verification with counted bucket caps, hash-to-min connected
    components — and marks each conversation with its near-dup cluster.
    The corpus text is never re-read and never shipped: label cost
    scales with the signature view (``num_perm × 8`` B/conversation) and
    the duplicate set, not with corpus bytes.

    ``cluster_id`` is an opaque 64-bit id (the cluster's minimum conv
    hash); ``is_dup`` marks every non-representative member. Node ids
    are 64-bit conv hashes — a collision (~n²/2⁶⁴) can merge two
    clusters' bookkeeping; acceptable for advisory near-dup labels
    (verification itself compares signatures, never ids).

    Same durable-state, rebuild, reshard and retention-floor contracts
    as :class:`IncrementalRollup`."""

    def __init__(self, engine, view_dir: str, cfg=None, emit_changes: bool = False):
        kernel = MinHashSigKernel(cfg)
        super().__init__(engine, view_dir, kernel=kernel, emit_changes=emit_changes)
        self.cfg = kernel.cfg

    def labels(
        self, max_bucket: int = 200, stats_out: dict | None = None
    ) -> "ray.data.Dataset":
        """``(conv_id, cluster_id, is_dup)`` for every live conversation,
        derived from the maintained signature view."""
        from ..stages.dedup import (
            _band_tbl,
            _make_bucket_verifier,
            _report_truncation,
            _trunc_counter,
            components_labels,
        )
        from ..stages.joins import _direct_grouped_apply

        cfg = self.cfg
        view = self.read().materialize()  # consumed by banding AND marking
        bands = view.map_batches(
            lambda b: _band_tbl(b.select(["conv_hash", "sig"]), cfg, "conv_hash", "sig"),
            batch_format="pyarrow",
        )
        counter = _trunc_counter()
        try:
            edges = _direct_grouped_apply(
                bands,
                "_bk",
                _make_bucket_verifier(
                    "conv_hash",
                    ["band", "band_hash"],
                    "sig_jaccard",
                    cfg.jaccard_threshold,
                    max_bucket,
                    counter,
                ),
            )
            labels_pdf = components_labels(edges)
        except BaseException:
            counter.cleanup()
            raise
        _report_truncation(counter, stats_out, "incremental_minhash")
        from ..stages.dedup import _assign_clusters

        # broadcast-and-mark is the dedup family's shared kernel: labels_pdf
        # is O(duplicate conversations); conv_id passes through beside its
        # int64 hash node, which is dropped from the output
        return _assign_clusters(
            view, labels_pdf, "conv_hash",
            keep_cols=("conv_id",), flag="is_dup", include_id=False,
        )


class TimeWindowKernel(CorpusKernel):
    """View kernel for incrementally-maintained TUMBLING-WINDOW counts:
    per (conversation, window_start) — turn count and char volume, where
    ``window_start`` floors the turn's event time to ``window_s``
    seconds. The view stays keyed by ``conv_id`` so the inherited
    touched-partition splice applies unchanged (several rows per
    conversation, like :class:`ToolUsageKernel`); the GLOBAL per-window
    report (events per hour across the corpus) derives from the view
    with one tiny read-time aggregate (:meth:`IncrementalTimeRollup.
    windows`), never from raw turns — the IVM form of
    ``pipelines/windows.tumbling_counts``."""

    def __init__(self, window_s: int = 3600):
        if window_s < 1:
            raise ValueError("window_s must be >= 1 second")
        self.window_s = int(window_s)

    def fingerprint(self) -> str:
        return f"window_s={self.window_s}"

    schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("window_start", pa.timestamp("us")),
            pa.field("n_turns", pa.int64()),
            pa.field("total_chars", pa.int64()),
        ]
    )

    def partial(self, live: pa.Table) -> pd.DataFrame:
        ts = live.column("ts").to_pandas()
        df = pd.DataFrame(
            {
                "conv_id": live.column("conv_id").to_pandas(),
                "window_start": ts.dt.floor(f"{self.window_s}s"),
                "chars": pc.utf8_length(
                    pc.coalesce(live.column("text"), pa.scalar("", pa.large_string()))
                ).to_pandas(),
            }
        )
        return df.groupby(["conv_id", "window_start"], sort=False, dropna=False).agg(
            n_turns=("chars", "size"), total_chars=("chars", "sum")
        )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        if not partials:
            return self.schema.empty_table()
        out = (
            pd.concat(partials)
            .groupby(level=[0, 1], sort=False, dropna=False)
            .agg(n_turns=("n_turns", "sum"), total_chars=("total_chars", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "conv_id": pa.Array.from_pandas(out["conv_id"], type=pa.string()),
                "window_start": pa.Array.from_pandas(
                    out["window_start"], type=pa.timestamp("us")
                ),
                "n_turns": pa.Array.from_pandas(out["n_turns"], type=pa.int64()),
                "total_chars": pa.Array.from_pandas(out["total_chars"], type=pa.int64()),
            }
        )


class IncrementalTimeRollup(IncrementalRollup):
    """Incrementally-maintained tumbling-window activity view
    (:class:`TimeWindowKernel`): only touched conversations recompute per
    ``advance()``; :meth:`windows` derives the global per-window report
    (turns, chars, active conversations per window) from the VIEW alone —
    the lake's raw turns are never re-scanned. The CDC × windowed-
    aggregate composition: a live "events per hour" dashboard over a
    trickle-updated 100 TB lake prices each refresh at O(touched
    conversations), not O(corpus)."""

    def __init__(self, engine, view_dir: str, window_s: int = 3600, emit_changes: bool = False):
        super().__init__(
            engine, view_dir, kernel=TimeWindowKernel(window_s), emit_changes=emit_changes
        )

    def windows(self, shuffle_buckets: int | None = None) -> "ray.data.Dataset":
        """Global per-window report from the maintained view: one row per
        ``window_start`` with total turns, total chars and the number of
        active conversations."""
        from ..stages.joins import _direct_grouped_apply

        def kern(df: pd.DataFrame) -> pa.Table:
            if not len(df):
                return pa.table(
                    {
                        "window_start": pa.array([], pa.timestamp("us")),
                        "n_turns": pa.array([], pa.int64()),
                        "total_chars": pa.array([], pa.int64()),
                        "n_conversations": pa.array([], pa.int64()),
                    }
                )
            g = df.groupby("window_start", sort=True).agg(
                n_turns=("n_turns", "sum"),
                total_chars=("total_chars", "sum"),
                n_conversations=("conv_id", "nunique"),
            ).reset_index()
            return pa.table(
                {
                    "window_start": pa.Array.from_pandas(
                        g["window_start"], type=pa.timestamp("us")
                    ),
                    "n_turns": pa.Array.from_pandas(g["n_turns"], type=pa.int64()),
                    "total_chars": pa.Array.from_pandas(g["total_chars"], type=pa.int64()),
                    "n_conversations": pa.Array.from_pandas(
                        g["n_conversations"], type=pa.int64()
                    ),
                }
            )

        return _direct_grouped_apply(self.read(), "window_start", kern, shuffle_buckets)


class VectorIndexKernel(CorpusKernel):
    """View kernel for the incremental VECTOR (similarity-search) index:
    per conversation, a deterministic feature-hashing embedding of its
    assembled dialogue (``stages/similarity.hash_embed`` — no trained
    state, so touched-only recompute agrees with a rebuild bit-for-bit)
    plus its seeded hyperplane-LSH bucket
    (``stages/similarity.hyperplane_buckets``). The view holds ``dim × 4``
    bytes + one int64 per conversation; dialogue text never leaves the
    partition task. Queries read only the buckets their multiprobe ball
    hashes to (see :meth:`IncrementalVectorIndex.search`)."""

    def __init__(self, dim: int = 64, planes: int = 12, seed: int = 7):
        self.dim = int(dim)
        self.planes = int(planes)
        self.seed = int(seed)

    def fingerprint(self) -> str:
        return f"dim={self.dim},planes={self.planes},seed={self.seed}"

    @property
    def schema(self) -> pa.Schema:
        return pa.schema(
            [
                pa.field("conv_id", pa.string()),
                pa.field("bucket", pa.int64()),
                pa.field("vec", pa.list_(pa.float32(), self.dim)),
            ]
        )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        from ..stages.similarity import hash_embed, hyperplane_buckets

        if not partials:
            return self.schema.empty_table()
        t = CorpusKernel.combine(self, partials)  # (conv_id, n_turns, dialogue)
        vecs = hash_embed(t.column("dialogue").to_pandas(), self.dim, self.seed)
        buckets = hyperplane_buckets(vecs, self.planes, self.seed)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "bucket": pa.array(buckets, pa.int64()),
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(vecs.ravel(), pa.float32()), self.dim
                ),
            }
        )


class IncrementalVectorIndex(IncrementalRollup):
    """Incrementally-maintained similarity-search (ANN) index over the CDC
    changefeed — the embedding sibling of :class:`IncrementalTextIndex`:
    the live lake stays vector-searchable at O(touched conversations) per
    ``advance()``.

    Two query tiers share one scoring rule (cosine over the SAME
    deterministic embedding, scores snapped before ranking so ties are
    ULP-insensitive):

    - ``radius=None`` — exact: every view row scores (the oracle tier;
      one matmul per block, per-block partial top-k, tiny driver merge);
    - ``radius=r`` — LSH multiprobe: only rows whose bucket falls in a
      query's Hamming-``r`` ball around its own bucket are candidates
      (the 100 TB path: candidates per query ≈ corpus / 2^planes ×
      ball size; a planted near-duplicate lands in the ball with
      probability rising steeply with its cosine).

    Same durable-state, rebuild, reshard, retention-floor and kernel-
    fingerprint contracts as :class:`IncrementalRollup`."""

    def __init__(
        self,
        engine,
        view_dir: str,
        dim: int = 64,
        planes: int = 12,
        seed: int = 7,
        emit_changes: bool = False,
    ):
        super().__init__(
            engine,
            view_dir,
            kernel=VectorIndexKernel(dim=dim, planes=planes, seed=seed),
            emit_changes=emit_changes,
        )

    def search(
        self,
        query_texts: list[str],
        k: int = 10,
        radius: int | None = 1,
        round_to: int | None = 6,
    ) -> pa.Table:
        """Top-``k`` most-similar conversations per query text. Returns
        ``(query, conv_id, score, rank)`` sorted by (query, rank); ties
        break by conv_id ascending on snapped scores."""
        from ..stages.similarity import (
            hamming_ball_buckets,
            hash_embed,
            hyperplane_buckets,
        )

        kern: VectorIndexKernel = self.kernel
        out_schema = pa.schema(
            [
                pa.field("query", pa.string()),
                pa.field("conv_id", pa.string()),
                pa.field("score", pa.float64()),
                pa.field("rank", pa.int64()),
            ]
        )
        if not query_texts:
            return out_schema.empty_table()
        Q = hash_embed(pd.Series(query_texts), kern.dim, kern.seed)  # (q, dim)
        snap_scale = None if round_to is None else float(10**round_to)
        if radius is None:
            balls = None
        else:
            qb = hyperplane_buckets(Q, kern.planes, kern.seed)
            balls = [
                hamming_ball_buckets(int(b), kern.planes, radius) for b in qb
            ]
        ref = ray.put((Q, balls))

        def partial_topk(batch: pa.Table) -> pa.Table:
            Qm, bls = ray.get(ref)
            if batch.num_rows == 0:
                return pa.table(
                    {
                        "qi": pa.array([], pa.int64()),
                        "conv_id": pa.array([], pa.string()),
                        "score": pa.array([], pa.float64()),
                    }
                )
            # float64 matmul + snap BEFORE the per-block top-k, tie-broken
            # by conv_id — the union of per-block top-k under the exact
            # final order provably contains the global top-k, so the
            # driver merge (same order) is exact, never heuristic
            V = np.asarray(
                batch.column("vec").combine_chunks().flatten().to_numpy(
                    zero_copy_only=False
                ),
                dtype=np.float64,
            ).reshape(batch.num_rows, -1)
            S = V @ Qm.astype(np.float64).T  # (rows, q)
            if snap_scale is not None:
                S = np.round(S * snap_scale) / snap_scale
            conv_np = batch.column("conv_id").to_numpy(zero_copy_only=False)
            conv_rank = np.empty(batch.num_rows, np.int64)
            conv_rank[np.argsort(conv_np, kind="stable")] = np.arange(batch.num_rows)
            bk = batch.column("bucket").to_numpy(zero_copy_only=False)
            qi_out: list[np.ndarray] = []
            row_out: list[np.ndarray] = []
            sc_out: list[np.ndarray] = []
            for j in range(Qm.shape[0]):
                rows = (
                    np.arange(batch.num_rows)
                    if bls is None
                    else np.flatnonzero(np.isin(bk, bls[j]))
                )
                if not len(rows):
                    continue
                s = S[rows, j]
                order = np.lexsort((conv_rank[rows], -s))
                top = rows[order[:k]]
                qi_out.append(np.full(len(top), j, np.int64))
                row_out.append(top)
                sc_out.append(S[top, j])
            if not qi_out:
                return pa.table(
                    {
                        "qi": pa.array([], pa.int64()),
                        "conv_id": pa.array([], pa.string()),
                        "score": pa.array([], pa.float64()),
                    }
                )
            rows_all = np.concatenate(row_out)
            return pa.table(
                {
                    "qi": pa.array(np.concatenate(qi_out)),
                    "conv_id": batch.column("conv_id").take(pa.array(rows_all)),
                    "score": pa.array(np.concatenate(sc_out)),
                }
            )

        # per-block partials are k-bounded per query — the driver merge is
        # O(blocks × queries × k), never O(corpus)
        parts = self.read().map_batches(partial_topk, batch_format="pyarrow").take_all()
        if not parts:
            return out_schema.empty_table()
        df = pd.DataFrame(parts)
        if round_to is not None:
            scale = float(10**round_to)
            df["score"] = np.round(df["score"].to_numpy() * scale).astype(np.int64) / scale
        df = df.sort_values(
            ["qi", "score", "conv_id"], ascending=[True, False, True], kind="mergesort"
        )
        df = df.groupby("qi", sort=True).head(k)
        df["rank"] = df.groupby("qi", sort=False).cumcount() + 1
        return pa.table(
            {
                "query": pa.array(
                    [query_texts[i] for i in df["qi"].to_numpy()], pa.string()
                ),
                "conv_id": pa.array(df["conv_id"].to_numpy(dtype=object), pa.string()),
                "score": pa.array(df["score"].to_numpy(np.float64)),
                "rank": pa.array(df["rank"].to_numpy(np.int64)),
            }
        )


class CurationKernel(CorpusKernel):
    """View kernel for the incrementally-maintained CURATED corpus: per
    conversation, the full pretraining-prep funnel run inside the
    partition task — assemble (the ``string_agg ORDER BY turn_idx``
    rendering), PII-redact (the shared :data:`~..functions.text.PII_PATTERNS`
    RE2 chain, byte-parity with the SQL oracle), quality-gate (turn count,
    role coverage, redacted length — all SQL-expressible), and a 128-bit
    fingerprint of the REDACTED dialogue for the dedup step. Raw text
    never leaves the partition task; the view row carries the redacted
    document plus five narrow columns."""

    def __init__(self, min_turns: int = 2, min_chars: int = 20):
        self.min_turns = int(min_turns)
        self.min_chars = int(min_chars)

    def fingerprint(self) -> str:
        return f"min_turns={self.min_turns},min_chars={self.min_chars}"

    schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("n_turns", pa.int64()),
            pa.field("quality_ok", pa.bool_()),
            pa.field("text_hash", pa.int64()),
            pa.field("text_hash2", pa.int64()),
            pa.field("text", pa.string()),
        ]
    )

    def partial(self, live: pa.Table) -> pd.DataFrame:
        df = super().partial(live)
        df["role"] = live.column("role").to_pandas()
        return df

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        if not partials:
            return self.schema.empty_table()
        from ..functions.text import redact_pii
        from .publish import join_dialogues

        df = pd.concat(partials)
        t = join_dialogues(df[["conv_id", "turn_idx", "line"]])
        # role coverage per conversation, realigned to join_dialogues'
        # output rows BY KEY (never by positional agreement between two
        # independent groupby orderings)
        cov = (
            df.assign(u=df["role"] == "user", a=df["role"] == "assistant")
            .groupby("conv_id", sort=False)[["u", "a"]]
            .any()
            .reindex(t.column("conv_id").to_pandas())
        )
        red = redact_pii(t, text_col="dialogue").column("dialogue")
        n_turns = t.column("n_turns").to_numpy()
        ok = (
            (n_turns >= self.min_turns)
            & cov["u"].to_numpy()
            & cov["a"].to_numpy()
            & (pc.utf8_length(red).to_numpy() >= self.min_chars)
        )
        h1, h2 = _fingerprint128(red.to_pandas().to_numpy(dtype=object))
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "n_turns": t.column("n_turns"),
                "quality_ok": pa.array(ok, pa.bool_()),
                "text_hash": pa.array(h1, pa.int64()),
                "text_hash2": pa.array(h2, pa.int64()),
                "text": red.cast(pa.string()),
            }
        )


class IncrementalCuration(IncrementalRollup):
    """Incrementally-maintained PRETRAINING CORPUS over the CDC changefeed
    — the composed curation funnel (assemble → PII-redact → quality gate →
    exact-dedup) kept continuously fresh at O(changed conversations) per
    ``advance()`` instead of re-curating the corpus per ingest epoch.

    ``advance()`` maintains the per-conversation funnel state (redacted
    document, quality verdict, content fingerprint) via the inherited
    touched-partition recompute. :meth:`corpus` then derives the final
    kept set: quality-passing documents, exact-deduplicated with the
    lexicographically smallest ``conv_id`` per fingerprint canonical —
    duplicate discovery exchanges 24-byte fingerprint rows (never text)
    and the duplicate-id broadcast is O(duplicates), so a trickle epoch
    costs the touched conversations plus one slim exchange, not a corpus
    re-read.

    Same durable-state, rebuild, reshard, retention-floor and
    kernel-fingerprint contracts as :class:`IncrementalRollup`."""

    def __init__(
        self,
        engine,
        view_dir: str,
        min_turns: int = 2,
        min_chars: int = 20,
        emit_changes: bool = False,
    ):
        super().__init__(
            engine,
            view_dir,
            kernel=CurationKernel(min_turns, min_chars),
            emit_changes=emit_changes,
        )

    def corpus(self, stats_out: dict | None = None) -> "ray.data.Dataset":
        """The curated corpus ``(conv_id, n_turns, text)`` derived from
        the maintained view: quality-passing, exact-deduped (min conv_id
        canonical among quality-passing documents, matching the funnel
        order quality→dedup)."""
        from ..stages.joins import _direct_grouped_apply

        # two independent lazy scans of the view's parquet files: dup
        # discovery reads only the three narrow columns, the emit pass
        # streams the text — the corpus is never pinned in the object store
        slim = self.read().map_batches(
            lambda b: b.filter(b.column("quality_ok")).select(
                ["conv_id", "text_hash", "text_hash2"]
            ),
            batch_format="pyarrow",
        )

        def dups_kern(df: pd.DataFrame) -> pa.Table:
            if not len(df):
                return pa.table({"conv_id": pa.array([], pa.string())})
            canon = _canonical_min(df)
            return pa.table(
                {"conv_id": pa.array(df["conv_id"][df["conv_id"] != canon], pa.string())}
            )

        dup_ids = [
            r["conv_id"]
            for r in _direct_grouped_apply(slim, "text_hash", dups_kern).take_all()
        ]  # O(duplicate conversations) — the documented broadcast bound
        if stats_out is not None:
            stats_out["dup_convs"] = len(dup_ids)
        ref = ray.put(pa.array(sorted(dup_ids), pa.string()))

        def keep(batch: pa.Table) -> pa.Table:
            dup = ray.get(ref)
            mask = pc.and_(
                batch.column("quality_ok"),
                pc.invert(pc.is_in(batch.column("conv_id"), value_set=dup)),
            )
            return batch.filter(mask).select(["conv_id", "n_turns", "text"])

        return self.read().map_batches(keep, batch_format="pyarrow")


class TextIndexKernel(CorpusKernel):
    """Posting-list view kernel: BM25-ready posting rows ``(conv_id,
    token, tf, dl)`` plus ONE NULL-token doc-stats row per conversation
    (``tf=0``, ``dl`` = dialogue token length) — the shape
    ``stages/search.bm25_postings_search`` queries directly, so full-text
    relevance search over the live lake stays fresh at O(touched
    conversations) per ``advance()``.

    Tokenization is identical to the static BM25 tiers (lowercase +
    ``TOKEN_PATTERN``) over the ASSEMBLED dialogue (the same ``role:
    text`` / newline rendering as :class:`CorpusKernel`), so the composed
    DuckDB oracle (string_agg → regexp tokenize → BM25) is exact. The
    stat rows make corpus statistics (N, avgdl) derivable from the view
    alone — no side-channel to drift under incremental maintenance, and a
    conversation whose dialogue somehow tokenizes to nothing still counts
    toward N exactly like SQL's GROUP BY."""

    schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("token", pa.string()),
            pa.field("tf", pa.int64()),
            pa.field("dl", pa.int64()),
        ]
    )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        from ..functions.text import TOKEN_PATTERN
        from .publish import join_dialogues

        if not partials:
            return self.schema.empty_table()
        dial = join_dialogues(pd.concat(partials))
        conv = dial.column("conv_id").to_pandas()
        toks = (
            dial.column("dialogue")
            .to_pandas()
            .fillna("")
            .str.lower()
            .str.findall(TOKEN_PATTERN)
        )
        dl = toks.str.len().to_numpy(np.int64)
        parts: list[pa.Table] = []
        ex = toks.explode().dropna()
        if len(ex):
            rows = ex.index.to_numpy(np.int64)
            tf = (
                pd.DataFrame({"r": rows, "t": ex.to_numpy()})
                .groupby(["r", "t"], sort=False)
                .size()
            )
            ridx = tf.index.get_level_values(0).to_numpy(np.int64)
            parts.append(
                pa.table(
                    {
                        "conv_id": pa.array(
                            conv.iloc[ridx].to_numpy(dtype=object), pa.string()
                        ),
                        "token": pa.array(
                            tf.index.get_level_values(1).to_numpy(dtype=object),
                            pa.string(),
                        ),
                        "tf": pa.array(tf.to_numpy(np.int64)),
                        "dl": pa.array(dl[ridx]),
                    }
                )
            )
        parts.append(
            pa.table(
                {
                    "conv_id": pa.array(conv.to_numpy(dtype=object), pa.string()),
                    "token": pa.nulls(len(conv), pa.string()),
                    "tf": pa.array(np.zeros(len(conv), np.int64)),
                    "dl": pa.array(dl),
                }
            )
        )
        return pa.concat_tables(parts)


class RoleStatsKernel(CorpusKernel):
    """Per-(conversation, role) stats view kernel: ``(conv_id, role,
    n_turns, total_chars)`` rows — the maintained base for ANY
    role-granularity report. Because the rows are per-conversation, the
    inherited touched-partition splice applies unchanged; a read-time
    ``stages/rollup.grouping_sets`` over the view yields the full
    ROLLUP(role) report at O(view) cost, no re-scan of the lake — the
    IVM form of ``cdc_role_rollup_sets``."""

    schema = pa.schema(
        [
            pa.field("conv_id", pa.string()),
            pa.field("role", pa.string()),
            pa.field("n_turns", pa.int64()),
            pa.field("total_chars", pa.int64()),
        ]
    )

    def partial(self, live: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "conv_id": live.column("conv_id").to_pandas(),
                "role": live.column("role").to_pandas(),
                "chars": pc.utf8_length(
                    pc.coalesce(live.column("text"), pa.scalar("", pa.large_string()))
                ).to_pandas(),
            }
        )
        return df.groupby(["conv_id", "role"], sort=False, dropna=False).agg(
            n_turns=("chars", "size"), total_chars=("chars", "sum")
        )

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        if not partials:
            return self.schema.empty_table()
        df = pd.concat(partials)
        out = (
            df.groupby(level=[0, 1], sort=False, dropna=False)
            .agg(n_turns=("n_turns", "sum"), total_chars=("total_chars", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "conv_id": pa.Array.from_pandas(out["conv_id"], type=pa.string()),
                "role": pa.Array.from_pandas(out["role"], type=pa.string()),
                "n_turns": pa.Array.from_pandas(out["n_turns"], type=pa.int64()),
                "total_chars": pa.Array.from_pandas(out["total_chars"], type=pa.int64()),
            }
        )


class IncrementalRoleStats(IncrementalRollup):
    """Incrementally-maintained per-(conversation, role) stats
    (:class:`RoleStatsKernel`): only touched conversations recompute per
    ``advance()``; :meth:`rollup` answers the multi-granularity
    ROLLUP(role) report from the view alone."""

    def __init__(self, engine, view_dir: str, emit_changes: bool = False):
        super().__init__(engine, view_dir, kernel=RoleStatsKernel(), emit_changes=emit_changes)

    def rollup(self, shuffle_buckets: int | None = None) -> "ray.data.Dataset":
        """ROLLUP(role) over the maintained view: per-role totals plus the
        grand total with SQL ``GROUPING()`` parity, computed from the
        O(conversations × roles) view rows — the lake is never re-read."""
        from ..stages.rollup import grouping_sets, rollup_sets

        return grouping_sets(
            self.read(),
            rollup_sets(["role"]),
            {"n_turns": ("sum", "n_turns"), "total_chars": ("sum", "total_chars")},
            shuffle_buckets=shuffle_buckets,
        )


#: StatsKernel aggregate functions — each decomposes into associative
#: partials, which is what makes the kernel exact under chunked reads
_STATS_FNS = (
    "count", "sum", "min", "max", "avg",
    "var_samp", "var_pop", "stddev_samp", "stddev_pop",
)

#: second-moment fns — partial triple (Σx, Σx², n); SQL gates: sample
#: variants NULL below 2 non-null values, population variants 0 at one
_STATS_VAR_FNS = ("var_samp", "var_pop", "stddev_samp", "stddev_pop")

#: default Arrow output types for min/max columns of the transcript
#: table; ``column_types`` overrides for other tables
_STATS_TYPES = {
    "turn_idx": pa.int64(),
    "ts": pa.timestamp("us"),
    "chars": pa.int64(),
}


class StatsKernel:
    """CONFIGURABLE per-conversation aggregate view kernel: define a
    custom incrementally-maintained rollup as data instead of code.
    ``aggs`` is a tuple of ``(out_name, fn, col)``:

    - ``("n", "count", "*")`` — row count; ``("n", "count", col)`` —
      NON-NULL values of ``col`` (SQL ``COUNT(col)`` parity);
    - ``sum`` / ``avg`` — numeric ``col`` or the derived ``"chars"``
      (``utf8_length(text)``; NULL text contributes NULL — SQL
      ``length()`` parity). All-NULL groups yield NULL, never 0
      (SQL ``SUM``/``AVG`` parity);
    - ``min`` / ``max`` — any orderable ``col`` (timestamps included);
    - ``var_samp`` / ``var_pop`` / ``stddev_samp`` / ``stddev_pop`` —
      exact second moments from a ``(Σx, Σx², n)`` partial triple; SQL
      gates (sample NULL below 2 values, population 0 at one, all-NULL
      → NULL) match DuckDB.

    Every fn decomposes into associative partials (``avg`` keeps a
    (sum, count) pair), so partials stay O(conversations per chunk) and
    the combine is exact. Output types: count → int64, sum/avg →
    float64, min/max → the column's Arrow type (``column_types``
    extends/overrides :data:`_STATS_TYPES` for non-transcript tables).
    The kernel fingerprint covers the agg config, so a view directory
    built with one spec refuses advances from another."""

    def __init__(
        self,
        aggs: tuple = (
            ("n_turns", "count", "*"),
            ("total_chars", "sum", "chars"),
            ("last_ts", "max", "ts"),
        ),
        column_types: dict | None = None,
    ):
        self.aggs = tuple((str(n), str(f), str(c)) for n, f, c in aggs)
        types = dict(_STATS_TYPES)
        types.update(column_types or {})
        if not self.aggs:
            raise ValueError("StatsKernel needs at least one aggregate")
        fields = [pa.field("conv_id", pa.string())]
        seen = {"conv_id"}
        for name, fn, col in self.aggs:
            if fn not in _STATS_FNS:
                raise ValueError(f"unknown aggregate fn {fn!r} (use {_STATS_FNS})")
            if name in seen:
                raise ValueError(f"duplicate output column {name!r}")
            if fn == "count" and col == "*":
                pass
            elif fn in ("min", "max") and col not in types:
                raise ValueError(
                    f"min/max needs an output type for {col!r} — pass column_types"
                )
            seen.add(name)
            if fn == "count":
                fields.append(pa.field(name, pa.int64()))
            elif fn in ("sum", "avg") or fn in _STATS_VAR_FNS:
                fields.append(pa.field(name, pa.float64()))
            else:
                fields.append(pa.field(name, types[col]))
        self.schema = pa.schema(fields)
        self._types = types

    def fingerprint(self) -> str:
        return ";".join(f"{n}={f}({c})" for n, f, c in self.aggs)

    def _series(self, live: pa.Table, col: str) -> pd.Series:
        if col == "chars":
            # NULL text stays NULL (SQL length() parity — no coalesce)
            return pc.utf8_length(live.column("text")).to_pandas()
        return live.column(col).to_pandas()

    def partial(self, live: pa.Table) -> pd.DataFrame:
        cols = {"conv_id": live.column("conv_id").to_pandas()}
        for _, fn, col in self.aggs:
            if col != "*" and col not in cols:
                cols[col] = self._series(live, col)
        df = pd.DataFrame(cols)
        g = df.groupby("conv_id", sort=False)
        out = pd.DataFrame(index=g.size().index)
        for name, fn, col in self.aggs:
            if fn == "count":
                out[name] = g.size() if col == "*" else g[col].count()
            elif fn == "sum":
                out[f"{name}__s"] = g[col].sum(min_count=1)
            elif fn == "min":
                out[name] = g[col].min()
            elif fn == "max":
                out[name] = g[col].max()
            elif fn in _STATS_VAR_FNS:  # (Σx, Σx², n) partial triple
                xs = df[col].astype("float64")
                grp = xs.groupby(df["conv_id"], sort=False)
                out[f"{name}__s"] = grp.sum(min_count=1)
                out[f"{name}__q"] = (xs**2).groupby(df["conv_id"], sort=False).sum(min_count=1)
                out[f"{name}__c"] = grp.count()
            else:  # avg → exact (sum, count) partial pair
                out[f"{name}__s"] = g[col].sum(min_count=1)
                out[f"{name}__c"] = g[col].count()
        return out

    def combine(self, partials: list[pd.DataFrame]) -> pa.Table:
        from ..stages.util import null_safe_from_pandas

        if not partials:
            return self.schema.empty_table()
        df = pd.concat(partials)
        g = df.groupby(level=0, sort=False)
        out = pd.DataFrame(index=g.size().index)
        for name, fn, col in self.aggs:
            if fn == "count":
                out[name] = g[name].sum().astype("int64")
            elif fn == "sum":
                out[name] = g[f"{name}__s"].sum(min_count=1)
            elif fn == "min":
                out[name] = g[name].min()
            elif fn == "max":
                out[name] = g[name].max()
            elif fn in _STATS_VAR_FNS:
                import numpy as _np

                s = g[f"{name}__s"].sum(min_count=1).astype("float64")
                q = g[f"{name}__q"].sum(min_count=1).astype("float64")
                c = g[f"{name}__c"].sum().astype("float64")
                denom = c - 1 if fn in ("var_samp", "stddev_samp") else c
                with _np.errstate(invalid="ignore", divide="ignore"):
                    v = _np.maximum(q - s * s / c, 0.0) / denom
                    if fn.startswith("stddev"):
                        v = _np.sqrt(v)
                floor = 2 if fn in ("var_samp", "stddev_samp") else 1
                out[name] = pd.Series(v, index=c.index).where(c >= floor)
            else:
                s = g[f"{name}__s"].sum(min_count=1)
                c = g[f"{name}__c"].sum()
                out[name] = s / c.where(c > 0)
        out = out.reset_index()
        return pa.Table.from_arrays(
            [null_safe_from_pandas(out[f.name], f.type) for f in self.schema],
            schema=self.schema,
        )


class IncrementalStats(IncrementalRollup):
    """Incrementally-maintained CUSTOM per-conversation aggregates
    (:class:`StatsKernel`): the user-extension form of the rollup view —
    any count/sum/min/max/avg spec stays fresh at O(touched
    conversations) per ``advance()``, no kernel class required. Same
    durable-state, rebuild, changefeed and fsck contracts as
    :class:`IncrementalRollup`; CLI ``ivm --kind stats --agg
    NAME:FN:COL`` (repeatable)."""

    def __init__(self, engine, view_dir: str, aggs=None, emit_changes: bool = False):
        kernel = StatsKernel(aggs) if aggs is not None else StatsKernel()
        super().__init__(engine, view_dir, kernel=kernel, emit_changes=emit_changes)


class IncrementalTextIndex(IncrementalRollup):
    """Incrementally-maintained FULL-TEXT INDEX over the CDC changefeed:
    the lake's conversations stay BM25-searchable without rebuilding an
    index per ingest epoch — ``advance()`` re-derives postings for the
    touched conversations only (the inherited touched-partition splice),
    and :meth:`search` answers relevance queries from the maintained
    posting rows with exactly the scan-tier scores.

    Contrast with ``stages/search.build_text_index``: the static index is
    TOKEN-partitioned (a query reads only its terms' buckets — the right
    layout for a frozen corpus), while this view is CONVERSATION-
    partitioned (the layout the O(touched)-per-advance splice requires).
    A query therefore scans the posting table once with a token filter
    pushed into the parquet read — O(index), never O(text) — and heavy
    static search can still `build_text_index(view.read())` when the
    corpus freezes. Same durable-state, rebuild, reshard, changefeed and
    fsck contracts as :class:`IncrementalRollup`."""

    def __init__(self, engine, view_dir: str, emit_changes: bool = False):
        super().__init__(engine, view_dir, kernel=TextIndexKernel(), emit_changes=emit_changes)

    def search(
        self,
        queries,
        k: int = 10,
        round_to: int = 6,
        shuffle_buckets: int | None = None,
    ) -> "ray.data.Dataset":
        """Top-k conversations per query: ``(query_id, conv_id, score)``,
        scores identical to ``bm25_topk`` over the assembled corpus."""
        from ..stages.search import _parse_queries, bm25_postings_search

        state = self._load_state()
        files = sorted(state["files"].values()) if state else []
        if not files:
            return bm25_postings_search(self.read(), queries, k=k, round_to=round_to)
        _qids, _tls, terms = _parse_queries(queries)
        import pyarrow.dataset as pads

        flt = pads.field("token").is_null() | pads.field("token").isin(terms)
        pruned = ray.data.read_parquet(files, filter=flt)
        return bm25_postings_search(
            pruned, queries, k=k, round_to=round_to, shuffle_buckets=shuffle_buckets
        )


def join_partition(ctx: dict, item: dict) -> dict:
    """Recompute one touched partition of an :class:`IncrementalJoin`:
    merge the dimension side once (O(keys/P) rows), join it to each
    streamed chunk of the fact side, splice in the untouched rows of the
    previous view file and write the new file. Returns None, writing
    nothing, when no touched key is homed here."""
    from .cdc import _write_data_file, partition_chunks

    inputs = _partition_inputs(ctx, item)
    if inputs is None:
        return None
    touched, (l_files, r_files) = inputs
    pid, on, P = item["pid"], ctx["key"], ctx["num_partitions"]
    (l_schema, l_keys), (r_schema, r_keys) = ctx["sources"]
    out_schema, r_cols = ctx["out_schema"], [on] + ctx["right_cols"]
    r_live = pa.concat_tables(
        [
            _live_rows(c, on, P, pid, touched).select(r_cols)
            for c in partition_chunks(r_files, r_schema, r_keys)
        ]
        or [out_schema.empty_table().select(r_cols)]
    )
    pieces: list[pa.Table] = []
    for chunk in partition_chunks(l_files, l_schema, l_keys):
        sel = _live_rows(chunk, on, P, pid, touched).select(ctx["left_names"])
        if sel.num_rows:
            j = sel.join(
                r_live,
                keys=on,
                join_type="inner" if ctx["how"] == "inner" else "left outer",
                use_threads=False,
            )
            if j.num_rows:
                pieces.append(j.select(out_schema.names).cast(out_schema))
    if touched is not None and item["old_file"]:
        old = pq.read_table(item["old_file"])
        old_kept = old.filter(pa.array(~in_sorted(stable_hash_array(old.column(on)), touched)))
        if old_kept.num_rows:
            pieces.append(old_kept)
    out = (pa.concat_tables(pieces) if pieces else out_schema.empty_table()).sort_by(
        [(c, "ascending") for c in l_keys]
    )
    _write_data_file(out, item["out"])
    return {
        "pid": pid,
        "rows": out.num_rows,
        "path": item["out"],
        "touched": -1 if touched is None else len(touched),
    }


class IncrementalJoin(MaintainedView):
    """Incrementally-maintained JOIN view across TWO co-partitioned CDC
    tables — the materialized form of ``fact LEFT JOIN dim USING (key)``
    kept continuously fresh from both tables' changefeeds at O(changed
    keys) per ``advance()``.

    The canonical instance is ``transcripts ⋈ conv_profile``: the turn-
    grained fact table enriched with per-conversation dimension columns.
    IVM for joins normally needs delta-join algebra (ΔL ⋈ R  ∪  L ⋈ ΔR)
    plus before-images for updates/deletes; this engine's changefeeds
    deliberately carry no before-images, so the view recomputes the
    touched groups like the rollup: the touched-key set is the UNION of
    keys present in either table's new delta files, and each touched
    key's join rows are recomputed from BOTH lakes' current merge-on-read
    state. A key touched only on the dimension side still re-joins its
    fact rows — the union guarantees it.

    Scale shape (the co-partitioning contract):
    - Both engines must route by the SAME leading primary-key column and
      hold the SAME partition count (validated, fail-loud) — then
      ``hash(key) % P`` co-locates every key's fact rows, dimension row
      and view rows, and an advance is ONE Ray task per touched
      partition reading both sides' file stacks. No shuffle anywhere.
    - Touched-key discovery runs inside each partition task, over both
      sides' changefeed files for that partition (column-pruned,
      O(distinct keys) per file); nothing is gathered or broadcast.
    - The dimension side is merged per partition (O(keys/P) rows); the
      fact side streams through the k-way chunk merge and joins
      CHUNK-WISE against the dimension partition — valid because inner
      and left joins are row-local on the fact side — so peak memory is
      O(chunk + dim partition + output), never O(fact partition input).
    - Salted hot keys on either engine pull their fanout partitions'
      files into the home-partition task (``hashing.salted_key_homes``).

    The join and the rollup family share one implementation: this is the
    two-source :class:`MaintainedView`, so state, commit, graced pruning,
    reads, audit, metrics and the fail-loud guards (reshard on either
    side, a config change, a watermark past a retention floor; rebuild()
    recovers) are the rollup's own code. Single writer per view
    directory.
    """

    _body = staticmethod(join_partition)

    def __init__(
        self,
        left_engine,
        right_engine,
        view_dir: str,
        right_cols: list[str] | None = None,
        how: str = "left",
    ):
        if how not in ("inner", "left"):
            raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
        if not left_engine.key_cols or not right_engine.key_cols:
            raise ValueError("both tables need a primary key to co-partition on")
        on = left_engine.key_cols[0]
        if right_engine.key_cols[0] != on:
            raise ValueError(
                f"co-partitioning requires the same leading key column: "
                f"left routes by {on!r}, right by {right_engine.key_cols[0]!r}"
            )
        self.left = left_engine
        self.right = right_engine
        self.how = how
        left_pub = left_engine._public_schema()
        right_pub = right_engine._public_schema()
        if right_cols is None:
            right_cols = [
                n for n in right_pub.names if n != on and n not in left_pub.names
            ]
        clashes = [c for c in right_cols if c in left_pub.names]
        if clashes:
            raise ValueError(
                f"right columns {clashes} clash with left columns; pass "
                "right_cols excluding (or the caller renaming) them"
            )
        missing = [c for c in right_cols if c not in right_pub.names]
        if missing:
            raise ValueError(f"right columns {missing} not in the right table")
        self.right_cols = list(right_cols)
        # published view schema: left public columns, then the selected
        # right columns (null-padded under how='left')
        schema = pa.schema(list(left_pub) + [right_pub.field(c) for c in self.right_cols])
        super().__init__([left_engine, right_engine], view_dir, schema, on, left_engine.key_cols)

    def _fingerprint(self) -> str:
        return (
            f"join:on={self.key},how={self.how},right_cols={','.join(self.right_cols)},"
            f"left={self.left.manifest.table},right={self.right.manifest.table}"
        )

    def _context(self) -> dict:
        return {
            "left_names": self.left._public_schema().names,
            "how": self.how,
            "right_cols": self.right_cols,
            "out_schema": self.schema,
        }
