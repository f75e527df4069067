"""Durable changefeed delivery — the downstream half of the CDC contract.

``ChangefeedConsumer`` exports the net changes of a ``CDCEngine`` table to
a sink directory in exactly-once WINDOWS: each ``poll()`` streams
``engine.changefeed(since_lsn=watermark)`` (packed per-partition merge tasks,
nothing on the driver) into a window directory named by its LSN range,
then atomically commits the directory AND the advanced watermark. A crash
anywhere before the commit leaves the previous watermark in place; the
re-poll first SWEEPS any window directory whose end LSN exceeds the
committed watermark (a committed window's end is always ≤ it), so a window
renamed into place just before a crash can never be delivered alongside
the regenerated one — even when the table advanced in between and the
regenerated window covers a wider range under a different name. Downstream
readers that process window directories in LSN order therefore see each
change exactly once.

This is the generic form of the engine's own ``IncrementalRollup``
(pipelines/incremental.py): where the view folds the feed into an
aggregate, the consumer hands the raw net-change stream to external
systems (search indexers, caches, feature stores — the reference's
analogue is the gold-layer publish job,
/root/reference/src/gold/product_dimension.py:62-93, made continuous).

Scale shape: the export is ``Dataset.write_parquet`` over the streaming
feed — per-partition tasks write their own files under the window
directory; the driver sees only the commit. Window size is bounded by the
poll cadence, not the table.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import pyarrow as pa

#: {12,} not {12}: '{:012d}' is a MINIMUM width — names past 10^12 LSNs
#: grow a 13th digit and must still match the sweep
_WINDOW_RE = re.compile(r"^window-(\d{12,})-(\d{12,})(-seed)?(\.tmp)?$")


def read_window_dir(out_dir: str, window: str) -> pa.Table:
    """Driver-side read of one exported window directory — the single
    definition behind every consumer's ``read_window`` and the CLI."""
    import pyarrow.parquet as pq

    d = os.path.join(out_dir, window)
    parts = [
        pq.read_table(os.path.join(d, f))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    return pa.concat_tables(parts) if parts else pa.table({})


def _dir_rows(d: str) -> int:
    """Row count of a window directory from parquet FOOTERS only."""
    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
        for f in os.listdir(d)
        if f.endswith(".parquet")
    )


class _WindowedConsumer:
    """The shared exactly-once window machinery (state file, atomic
    rename + cursor commit, crash-residue sweep, empty-feed handling) —
    one definition so the lake and view consumers cannot drift on the
    protocol. Subclasses define the CURSOR semantics via ``_state_key``
    (and a ``kind`` tag so a sink directory refuses the other consumer's
    state instead of mis-sweeping its windows) plus three sources:
    ``_head()``, ``_feed(cursor, head)``, ``_seed_source()``."""

    _STATE = "_consumer_state.json"
    _KIND = ""  # subclass tag, persisted + checked
    _state_key = ""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    # -- durable state -------------------------------------------------
    def _load_cursor(self) -> int:
        path = os.path.join(self.out_dir, self._STATE)
        if not os.path.exists(path):
            return 0
        with open(path) as f:
            st = json.load(f)
        kind = st.get("kind", "changefeed")  # pre-tag states were lake consumers
        if kind != self._KIND:
            raise RuntimeError(
                f"sink {self.out_dir!r} belongs to a {kind!r} consumer; a "
                f"{self._KIND!r} consumer would mis-read its cursor and sweep "
                "its committed windows — use a fresh sink directory"
            )
        return int(st[self._state_key])

    def _commit(self, cursor: int, window: str | None, rows: int) -> None:
        path = os.path.join(self.out_dir, self._STATE)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(
                {
                    "kind": self._KIND,
                    self._state_key: cursor,
                    "last_window": window,
                    "last_rows": rows,
                },
                f,
            )
        os.replace(tmp, path)

    def _sweep_uncommitted(self, cursor: int) -> None:
        """Remove window dirs the cursor never recorded. A crash between
        ``os.replace(tmp, final)`` and ``_commit`` leaves a final-named
        dir; if the source advances before the re-poll, the regenerated
        window gets a DIFFERENT name and the stale one would hand
        downstream its range twice. Invariant: every committed window's
        end is ≤ the cursor, so end > cursor (and any ``.tmp``) is
        residue."""
        for d in os.listdir(self.out_dir):
            m = _WINDOW_RE.match(d)
            if m and (int(m.group(2)) > cursor or m.group(4)):
                shutil.rmtree(os.path.join(self.out_dir, d), ignore_errors=True)

    # -- subclass sources ------------------------------------------------
    def _head(self) -> int:
        raise NotImplementedError

    def _feed(self, cursor: int, head: int):
        raise NotImplementedError

    def _seed_source(self):
        raise NotImplementedError

    # -- public API ----------------------------------------------------
    def poll(self) -> dict:
        """Export one window of net changes ``(cursor, head]``. Returns
        ``{"window": dir_or_None, "rows": n, <cursor_key>: c}``. A no-op
        or EMPTY window (the source advanced without net rows) commits
        the cursor without writing a directory. Source-side horizon /
        continuity errors propagate — recover with the seed method."""
        cur = self._load_cursor()
        self._sweep_uncommitted(cur)
        head = self._head()
        if head <= cur:
            return {"window": None, "rows": 0, self._state_key: cur}
        feed = self._feed(cur, head)  # validates horizon/continuity
        name = f"window-{cur + 1:012d}-{head:012d}"
        final = os.path.join(self.out_dir, name)
        tmp = final + ".tmp"
        os.makedirs(tmp, exist_ok=True)  # an empty feed writes no files
        feed.write_parquet(tmp)
        rows = _dir_rows(tmp)
        if rows == 0:
            shutil.rmtree(tmp, ignore_errors=True)
            self._commit(head, None, 0)
            return {"window": None, "rows": 0, self._state_key: head}
        os.replace(tmp, final)
        self._commit(head, name, rows)
        return {"window": name, "rows": rows, self._state_key: head}

    def _seed(self) -> dict:
        """Bootstrap / recovery: export the source's CURRENT full state as
        window 0..head ("replace everything" downstream) and set the
        cursor. Idempotent without a source advance (same name, replaced)."""
        self._sweep_uncommitted(self._load_cursor())
        head = self._head()
        name = f"window-{0:012d}-{head:012d}-seed"
        final = os.path.join(self.out_dir, name)
        tmp = final + ".tmp"
        os.makedirs(tmp, exist_ok=True)  # an empty source still seeds
        self._seed_source().write_parquet(tmp)
        rows = _dir_rows(tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        self._commit(head, name, rows)
        return {"window": name, "rows": rows, self._state_key: head}

    def read_window(self, window: str) -> pa.Table:
        """Driver-side convenience read of one exported window (tests /
        small windows)."""
        return read_window_dir(self.out_dir, window)


class ChangefeedConsumer(_WindowedConsumer):
    """One instance per (table, sink) pair; all durable state lives in the
    sink directory (``_consumer_state.json`` + window dirs), so it is safe
    to re-create after a crash. Single consumer per sink directory."""

    _KIND = "changefeed"
    _state_key = "watermark_lsn"

    def __init__(self, engine, out_dir: str):
        super().__init__(out_dir)
        self.engine = engine

    @property
    def watermark(self) -> int:
        return self._load_cursor()

    def _head(self) -> int:
        return int(self.engine.manifest.applied_lsn)

    def _feed(self, cursor: int, head: int):
        # the feed itself re-reads the manifest: a concurrent committer
        # could advance it between _head() and here, so anchor the window
        # to the LSN range its name claims
        return self.engine.changefeed(since_lsn=cursor, up_to_lsn=head)

    def _seed_source(self):
        return self.engine.snapshot()

    def seed_from_snapshot(self) -> dict:
        """Bootstrap (or retention-recovery) path: export the CURRENT
        committed state as window 0..applied_lsn and set the watermark —
        the documented re-seed when ``poll()`` raises past the retention
        floor. Downstream treats a seed window as 'replace everything'."""
        return self._seed()


class ViewDeltaConsumer(_WindowedConsumer):
    """Exactly-once delivery of a maintained VIEW's changefeed — the
    downstream half of view composition, mirroring
    :class:`ChangefeedConsumer` with the view VERSION as the cursor.

    Each ``poll()`` exports ``view.changes(cursor)`` (netted
    per-conversation REPLACE deltas) into a window directory named by its
    version range, then atomically commits the directory AND the advanced
    cursor; the shared sweep invariant makes a crash between rename and
    commit safe. When the view's continuity floor has passed the cursor
    (a rebuild or a non-emitting advance), ``poll()`` propagates the
    view's fail-loud error — recover with :meth:`seed_from_view`, which
    exports the full view state as a seed window ("replace everything"
    downstream) and restarts the cursor at the current version.

    The consumer only READS the view; delta GC (``prune_changes``) stays
    with the view's single writer, which can prune up to the consumer's
    committed :attr:`cursor`."""

    _KIND = "view-delta"
    _state_key = "version"

    def __init__(self, view, out_dir: str):
        super().__init__(out_dir)
        self.view = view

    @property
    def cursor(self) -> int:
        return self._load_cursor()

    def _head(self) -> int:
        return int(self.view.version)

    def _feed(self, cursor: int, head: int):
        # anchor to head: changes() re-reads the view manifest, and a
        # concurrent advance between _head() and here would otherwise put
        # versions beyond the committed cursor into this window — the next
        # poll would deliver them twice
        return self.view.changes(cursor, up_to=head)

    def _seed_source(self):
        return self.view.read()

    def seed_from_view(self) -> dict:
        """Bootstrap / floor-recovery: export the CURRENT view state as a
        seed window (downstream: replace everything) and restart the
        cursor at the view's version."""
        return self._seed()
