"""Per-table manifest / checkpoint log with atomic two-phase commit.

The manifest is the SINGLE source of visibility for lake data files
(SURVEY.md §4.2): appliers stage immutable Parquet files under
``data/part=<pid>/``, then the driver commits one new manifest version via
an atomic pointer swap (``os.replace``). A job killed mid-epoch leaves only
invisible garbage; re-running the epoch is safe because staged file names
are deterministic in ``(partition, epoch)`` and the epoch watermark makes
re-application a no-op. This replaces the ACID guarantees the reference
inherits from Delta Lake (/root/reference/src/models/writer.py:34-67) with
an explicit commit protocol.

The protocol follows the published Delta Lake design (Armbrust et al.,
"Delta Lake: High-Performance ACID Table Storage over Cloud Object
Stores", VLDB 2020): an ordered log of atomic manifest versions is the
source of truth; data files are immutable and invisible until committed;
time travel reads any retained version; vacuum bounds retention.
:func:`commit_version` forms every version and writes its one history row.

Layout::

    <table_dir>/
      _manifest/
        CURRENT            # text file: committed version number (atomic swap)
        v00000001.json     # full manifest snapshot per version
      data/part=<pid>/epoch=<eid>/part-<pid>-<eid>.parquet
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import pyarrow as pa

from .backend import CommitBackend, PosixCommitBackend
from .schema import TableSpec, lake_schema, schema_from_b64, schema_to_b64


@dataclass
class PartitionState:
    """Committed state of one hash partition: its live files and the
    applied-LSN high-watermark (per-partition lineage, north-rule req).

    ``file_stats`` maps a live file path to its zone-map column stats
    (``state/zonemap.table_stats`` shape) — the data-skipping index.
    Optional and per-file: files written before the stats upgrade simply
    have no entry and are never pruned."""

    files: list[str] = field(default_factory=list)
    applied_lsn: int = 0
    file_stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = {"files": self.files, "applied_lsn": self.applied_lsn}
        if self.file_stats:
            d["file_stats"] = self.file_stats
        return d

    @staticmethod
    def from_json(d: dict) -> "PartitionState":
        # manifests written before the live-row count was dropped carry
        # a "rows" field; it is ignored
        return PartitionState(
            list(d["files"]), int(d["applied_lsn"]), dict(d.get("file_stats", {}))
        )

    def pruned_stats(self) -> dict:
        """file_stats restricted to live files (stats of retired files
        drop out when a new PartitionState is committed)."""
        live = set(self.files)
        return {p: s for p, s in self.file_stats.items() if p in live}


@dataclass
class Manifest:
    table: str
    version: int
    num_partitions: int
    schema_b64: str
    schema_version: int = 1
    applied_lsn: int = 0  # epoch watermark: max committed epoch_id
    partitions: dict[int, PartitionState] = field(default_factory=dict)
    properties: dict = field(default_factory=dict)
    primary_key: list[str] = field(default_factory=list)
    #: append-only lineage: one row per commit after creation, written
    #: by :func:`commit_version`
    history: list[dict] = field(default_factory=list)
    #: wall-clock commit time (stamped by ManifestStore.commit) — enables
    #: timestamp time travel; None for pre-upgrade versions
    committed_at: float | None = None

    @property
    def schema(self) -> pa.Schema:
        return schema_from_b64(self.schema_b64)

    def set_schema(self, schema: pa.Schema) -> None:
        self.schema_b64 = schema_to_b64(schema)

    def data_files(self) -> list[str]:
        out: list[str] = []
        for pid in sorted(self.partitions):
            out.extend(self.partitions[pid].files)
        return out

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "version": self.version,
            "num_partitions": self.num_partitions,
            "schema_b64": self.schema_b64,
            "schema_version": self.schema_version,
            "applied_lsn": self.applied_lsn,
            "partitions": {str(k): v.to_json() for k, v in self.partitions.items()},
            "properties": self.properties,
            "primary_key": self.primary_key,
            "history": self.history,
            "committed_at": self.committed_at,
        }

    @staticmethod
    def from_json(d: dict) -> "Manifest":
        return Manifest(
            table=d["table"],
            version=int(d["version"]),
            num_partitions=int(d["num_partitions"]),
            schema_b64=d["schema_b64"],
            schema_version=int(d.get("schema_version", 1)),
            applied_lsn=int(d["applied_lsn"]),
            partitions={int(k): PartitionState.from_json(v) for k, v in d["partitions"].items()},
            properties=dict(d.get("properties", {})),
            primary_key=list(d.get("primary_key", [])),
            history=list(d.get("history", [])),
            committed_at=d.get("committed_at"),
        )


class CommitConflict(RuntimeError):
    """Another writer committed this version first (or the in-memory
    manifest is stale). The loser's staged files are unreferenced and
    reclaimable by vacuum; callers rebase on the fresh manifest and retry
    (append does this automatically) or re-run (overwrite/merge —
    serializable, fail-loud)."""


class ManifestStore:
    """Load/commit manifest versions with an atomic CURRENT pointer.

    Multi-writer safe: the VERSION FILE is the commit point — created
    with the backend's atomic fail-if-exists put (``os.link`` on POSIX,
    conditional PUT on object stores — see :mod:`.backend`), so of two
    concurrent committers of v(N+1) exactly one wins and the loser gets
    :class:`CommitConflict`. CURRENT is a cached pointer written after
    the version file; a crash in between leaves a durable-but-unpointed
    version that the next reader or committer rolls forward
    (``current_version`` recovery) — the same "log entry is the commit"
    protocol as Delta (Armbrust et al., VLDB 2020, §3.2).

    ``backend`` selects the storage primitives for the MANIFEST LOG only
    (data files are immutable and invisible until referenced, so they
    need no atomicity on any store): :class:`.backend.PosixCommitBackend`
    by default; :class:`.backend.MemoryCommitBackend` is the CAS /
    conditional-put flavor the object-store deployment uses."""

    def __init__(self, table_dir: str, backend: CommitBackend | None = None):
        self.table_dir = table_dir
        self.manifest_dir = os.path.join(table_dir, "_manifest")
        self.backend = backend if backend is not None else PosixCommitBackend()

    def _vpath(self, version: int) -> str:
        return os.path.join(self.manifest_dir, f"v{version:08d}.json")

    # -- read side ---------------------------------------------------------
    def current_version(self) -> int | None:
        """Committed version, finishing any crashed committer's pointer
        swap: version files are complete and durable before they become
        visible (tmp + fsync + link), so if v(CURRENT+1) exists the commit
        happened and only the pointer write was lost."""
        cur = os.path.join(self.manifest_dir, "CURRENT")
        raw = self.backend.read_bytes(cur)
        pointed = int(raw.decode().strip()) if raw is not None else None
        v = pointed or 0
        while self.backend.exists(self._vpath(v + 1)):
            v += 1
        if pointed is not None and v == pointed:
            return pointed
        if v == 0:
            return None
        # roll the pointer forward — re-read first so a slow recoverer
        # cannot regress a pointer a faster committer already advanced
        # (a lost race here is self-healing: the next read recovers again)
        raw = self.backend.read_bytes(cur)
        if raw is not None and int(raw.decode().strip()) >= v:
            return v
        self.backend.put_overwrite(cur, str(v).encode())
        return v

    def version_at(self, ts: float) -> int | None:
        """Newest committed version whose commit time is ≤ ``ts`` —
        timestamp time travel (Delta's ``VERSION AS OF TIMESTAMP``).
        Linear scan from CURRENT downward (robust to clock regressions
        between commits, and the common ask is a recent timestamp);
        pre-upgrade versions without a commit stamp qualify as old."""
        v = self.current_version()
        while v is not None and v >= 1:
            m = self.load(v)
            if m.committed_at is None or m.committed_at <= ts:
                return v
            v -= 1
        return None

    def load(self, version: int | None = None) -> Manifest | None:
        """Committed manifest; ``version`` reads an older snapshot (time
        travel — every commit leaves its full manifest version on disk)."""
        v = version if version is not None else self.current_version()
        if v is None:
            return None
        raw = self.backend.read_bytes(self._vpath(v))
        if raw is None:
            raise FileNotFoundError(f"manifest version {v} does not exist for {self.table_dir}")
        return Manifest.from_json(json.loads(raw))

    # -- write side (phase 2 of the 2PC) -----------------------------------
    def commit(self, manifest: Manifest) -> None:
        """Atomically publish ``manifest`` as the next version.

        Optimistic concurrency: ``manifest.version`` must be exactly
        ``current + 1`` AND this writer must be the one that creates the
        version file — the backend's ``put_if_absent`` is atomic
        fail-if-exists (``os.link`` on POSIX, conditional PUT on object
        stores), so two committers racing past the precheck still
        serialize and the loser raises :class:`CommitConflict` (its
        staged data files stay unreferenced; vacuum reclaims them).
        """
        self.backend.ensure_dir(self.manifest_dir)
        cur = self.current_version()
        expected = (cur or 0) + 1
        if manifest.version != expected:
            raise CommitConflict(
                f"manifest version conflict: committing v{manifest.version}, expected v{expected}"
            )
        import time as _time

        manifest.committed_at = _time.time()
        data = json.dumps(manifest.to_json()).encode()
        # the commit point: atomic winner-take-all
        if not self.backend.put_if_absent(self._vpath(manifest.version), data):
            raise CommitConflict(
                f"manifest version conflict: v{manifest.version} was committed "
                f"concurrently by another writer"
            )
        self.backend.put_overwrite(
            os.path.join(self.manifest_dir, "CURRENT"), str(manifest.version).encode()
        )

    def vacuum(self, manifest: Manifest, grace_s: float = 0.0) -> int:
        """Delete data files not referenced by the committed manifest
        (orphans from replaced COW partitions or crashed attempts). Safe to
        run any time after commit; returns number of files removed.

        ``grace_s``: skip unreferenced files younger than this — under
        concurrent writers an unreferenced file may be another writer's
        staged-but-not-yet-committed data (the writer paths pass a
        multi-minute grace; 0 is for single-writer maintenance).

        Retained changefeed deltas (``properties['retained_deltas']``) are
        live until their retention expires and the engine prunes them."""
        import time as _time

        live = set(manifest.data_files())
        live.update(e["path"] for e in manifest.properties.get("retained_deltas", []))
        removed = 0
        cutoff = _time.time() - grace_s
        data_dir = os.path.join(self.table_dir, "data")
        for root, _dirs, files in os.walk(data_dir):
            for name in files:
                p = os.path.join(root, name)
                if p not in live:
                    if grace_s > 0:
                        try:
                            if os.path.getmtime(p) > cutoff:
                                continue
                        except OSError:
                            continue  # already gone (concurrent vacuum)
                    os.remove(p)
                    removed += 1
        return removed


def create_table(
    store: ManifestStore, spec: TableSpec, num_partitions: int, properties: dict
) -> Manifest:
    """Commit version 1 of the empty table ``spec`` describes. Creation is
    the one commit with no history row: every later version adds exactly
    one, so the lineage of applied epochs and ``describe()``'s commit
    count start after it."""
    empty = Manifest(
        table=spec.name,
        version=0,
        num_partitions=num_partitions,
        schema_b64=schema_to_b64(lake_schema(spec)),
        primary_key=list(spec.primary_key),
        properties=properties,
    )
    return commit_version(store, empty, None)


def commit_version(
    store: ManifestStore, base: Manifest, op: str | None, change=None, **row
) -> Manifest:
    """THE way a table version is formed: copy ``base`` once, bump its
    version, let ``change(new)`` edit partitions, properties or schema,
    append one history row ``{op, version, epoch_id, **row}`` (``epoch_id``
    = the new version's watermark; ``op`` None only for creation), and
    publish through ``store.commit`` — the one CAS point, so a stale
    ``base`` raises :class:`CommitConflict` and nothing is published.
    The copy shares nested property values (lists, dicts) with ``base``:
    ``change`` replaces them, never edits them in place, so a losing
    commit leaves ``base`` as it was. Returns the committed manifest."""
    new = Manifest.from_json(base.to_json())
    new.version = base.version + 1
    if change is not None:
        change(new)
    if op is not None:
        new.history.append({"op": op, "version": new.version, "epoch_id": new.applied_lsn, **row})
    store.commit(new)
    return new
