"""Manifest store: atomic commit protocol, version conflicts, vacuum. No Ray.

The whole OCC/crash/vacuum suite runs against BOTH commit backends — the
POSIX link/replace flavor (local/NFS) and the conditional-put/CAS flavor
(MemoryCommitBackend, modeling S3 If-None-Match / GCS ifGenerationMatch=0
/ a DynamoDB version row) — so the exactly-once story is proven for the
object-store deployment, not just this sandbox's filesystem."""

import json
import os

import pyarrow as pa
import pytest

from etl_framework_ray.state.backend import MemoryCommitBackend, PosixCommitBackend
from etl_framework_ray.state.manifest import (
    CommitConflict,
    Manifest,
    ManifestStore,
    PartitionState,
)
from etl_framework_ray.state.schema import schema_to_b64


@pytest.fixture(params=["posix", "memory"])
def store(request, tmp_path):
    backend = PosixCommitBackend() if request.param == "posix" else MemoryCommitBackend()
    return ManifestStore(str(tmp_path), backend=backend)


def _man(version=1, **kw):
    return Manifest(
        table="t",
        version=version,
        num_partitions=4,
        schema_b64=schema_to_b64(pa.schema([pa.field("a", pa.int32())])),
        **kw,
    )


def _drop_version_file(store: ManifestStore, version: int, manifest: Manifest) -> None:
    """Simulate a racing writer that won ``version``: its complete version
    file exists but OUR store has not seen it (exactly what a real winner
    leaves behind on either backend)."""
    data = json.dumps(manifest.to_json()).encode()
    assert store.backend.put_if_absent(store._vpath(version), data)


def _read_current(store: ManifestStore) -> str:
    raw = store.backend.read_bytes(os.path.join(store.manifest_dir, "CURRENT"))
    assert raw is not None
    return raw.decode().strip()


def test_roundtrip(store, tmp_path):
    assert store.load() is None
    m = _man()
    m.partitions[3] = PartitionState(files=["/x/f.parquet"], applied_lsn=7)
    store.commit(m)
    got = store.load()
    assert got.version == 1
    assert got.partitions[3].files == ["/x/f.parquet"]
    assert got.schema.names == ["a"]


def test_manifest_with_partition_row_counts_loads(store):
    """A manifest written while partitions carried a live-row count
    ("rows") still loads; the count is ignored and not written back."""
    m = _man()
    m.partitions[2] = PartitionState(files=["/x/g.parquet"], applied_lsn=3)
    d = m.to_json()
    d["partitions"]["2"]["rows"] = 124
    store.backend.ensure_dir(store.manifest_dir)
    assert store.backend.put_if_absent(store._vpath(1), json.dumps(d).encode())
    got = store.load()
    assert got.version == 1
    assert got.partitions[2] == PartitionState(files=["/x/g.parquet"], applied_lsn=3)
    assert "rows" not in got.partitions[2].to_json()


def test_version_conflict_rejected(store):
    store.commit(_man(1))
    with pytest.raises(RuntimeError, match="conflict"):
        store.commit(_man(1))  # replay of same version
    with pytest.raises(RuntimeError, match="conflict"):
        store.commit(_man(3))  # skipping a version
    store.commit(_man(2))
    assert store.load().version == 2


def test_uncommitted_files_invisible_and_vacuumed(store, tmp_path):
    data = tmp_path / "data" / "part=00001"
    data.mkdir(parents=True)
    live = data / "live.parquet"
    orphan = data / "orphan.parquet"
    live.write_bytes(b"x")
    orphan.write_bytes(b"y")
    m = _man(1)
    m.partitions[1] = PartitionState(files=[str(live)], applied_lsn=1)
    store.commit(m)
    assert store.load().data_files() == [str(live)]  # orphan never visible
    removed = store.vacuum(m)
    assert removed == 1
    assert live.exists() and not orphan.exists()


def test_history_and_watermark_roundtrip(store):
    m = _man(1, applied_lsn=500)
    m.history.append({"epoch_id": 500, "events": 10})
    store.commit(m)
    got = store.load()
    assert got.applied_lsn == 500
    assert got.history == [{"epoch_id": 500, "events": 10}]
    assert _read_current(store) == "1"


# ---------------------------------------------------------------------------
# Optimistic concurrency: the version file is the commit point
# ---------------------------------------------------------------------------


def test_commit_is_atomic_winner_take_all(store):
    """Two committers racing past the version precheck must serialize: the
    version-file create is fail-if-exists, so exactly one wins."""
    store.commit(_man(1))
    # simulate a racer that won v2 AFTER our precheck
    _drop_version_file(store, 2, _man(2))
    # our commit of v2 must lose — never clobber the winner's file
    with pytest.raises(CommitConflict):
        store.commit(_man(2, properties={"mine": True}))
    assert store.load().properties == {}  # the racer's v2 survived intact


def test_concurrent_threads_serialize(store):
    """N threads all publishing v2 concurrently: exactly one backend
    put_if_absent succeeds; every loser raises CommitConflict."""
    import threading

    store.commit(_man(1))
    results: list[str] = []
    lock = threading.Lock()

    def attempt(i: int) -> None:
        try:
            store.commit(_man(2, properties={"writer": i}))
            with lock:
                results.append("win")
        except CommitConflict:
            with lock:
                results.append("lose")

    threads = [threading.Thread(target=attempt, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results.count("win") == 1
    assert results.count("lose") == 7
    assert store.load().version == 2


def test_crash_window_recovery_rolls_current_forward(store):
    """A committer crashing between version-file create and CURRENT write
    leaves a durable commit; the next reader finishes the pointer swap."""
    store.commit(_man(1))
    _drop_version_file(store, 2, _man(2))
    assert _read_current(store) == "1"  # pointer is stale
    assert store.current_version() == 2  # read recovers
    assert _read_current(store) == "2"  # and persists the roll-forward
    store.commit(_man(3))  # next commit builds on the recovered version
    assert store.load().version == 3


def test_first_commit_crash_window(store):
    """v1 exists but CURRENT was never written (crash on the very first
    commit): recovery must still find it."""
    store.backend.ensure_dir(store.manifest_dir)
    _drop_version_file(store, 1, _man(1))
    assert store.current_version() == 1
    assert store.load().version == 1


def test_vacuum_grace_spares_fresh_unreferenced_files(store, tmp_path):
    """grace_s > 0 keeps young orphans (a concurrent writer's in-flight
    staging) and removes old ones."""
    data = tmp_path / "data" / "part=00001"
    data.mkdir(parents=True)
    fresh = data / "staging.parquet"
    old = data / "crashed.parquet"
    fresh.write_bytes(b"x")
    old.write_bytes(b"y")
    os.utime(old, (0, 0))  # epoch-old mtime
    m = _man(1)
    store.commit(m)
    removed = store.vacuum(m, grace_s=3600)
    assert removed == 1
    assert fresh.exists() and not old.exists()


def test_two_stores_share_memory_backend(tmp_path):
    """Two ManifestStore instances over the same CAS backend see each
    other's commits — the multi-writer object-store topology."""
    be = MemoryCommitBackend()
    a = ManifestStore(str(tmp_path), backend=be)
    b = ManifestStore(str(tmp_path), backend=be)
    a.commit(_man(1))
    assert b.load().version == 1
    b.commit(_man(2))
    with pytest.raises(CommitConflict):
        a.commit(_man(2))  # a is stale; precheck/CAS rejects
    assert a.load().version == 2
