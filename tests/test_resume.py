"""Kill/resume + exactly-once tests (FIXTURES.md F6).

A replay killed after epoch k's commit — and again mid-epoch k+1 before
commit (staged files on disk, no manifest entry) — must produce a final
state identical to an uninterrupted run.
"""

import glob
import os

import pytest

from etl_framework_ray.pipelines.cdc import CDCEngine
from etl_framework_ray.sources.changelog import ChangeLog
from etl_framework_ray.sources.generator import GenConfig, generate_changelog, oracle_replay

CFG = GenConfig(num_events=4000, num_conversations=120, seed=77)


def _setup(tmp_path):
    log = generate_changelog(CFG)
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=500)
    return log, clog


@pytest.mark.usefixtures("ray_session")
def test_resume_after_commit_equals_uninterrupted(tmp_path):
    log, clog = _setup(tmp_path)

    # uninterrupted reference run
    ref = CDCEngine(str(tmp_path / "ref"), num_partitions=4)
    ref.replay(clog, segments_per_epoch=2)

    # interrupted run: apply 2 epochs, "crash", fresh engine resumes
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    for epoch in clog.epochs(2)[:2]:
        eng.apply_epoch(epoch)
    watermark = eng.manifest.applied_lsn
    del eng

    eng2 = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    assert eng2.manifest.applied_lsn == watermark  # durable checkpoint
    stats = eng2.replay(clog, segments_per_epoch=2)
    assert stats.epochs_applied == len(clog.epochs(2)) - 2

    assert eng2.snapshot_arrow().equals(ref.snapshot_arrow())


@pytest.mark.usefixtures("ray_session")
def test_crash_mid_epoch_leaves_state_invisible(tmp_path):
    log, clog = _setup(tmp_path)
    epochs = clog.epochs(2)

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    eng.apply_epoch(epochs[0])
    state_after_e0 = eng.snapshot_arrow()

    # simulate a crash mid-epoch-1: stage files exactly like the applier
    # would, but never commit the manifest
    fake_dir = os.path.join(eng.table_dir, "data", "part=00002", f"epoch={epochs[1].epoch_id:012d}")
    os.makedirs(fake_dir, exist_ok=True)
    with open(os.path.join(fake_dir, "part-00002-garbage.parquet"), "wb") as f:
        f.write(b"not a parquet file")

    # snapshot still reads ONLY manifest-listed files → unchanged
    eng2 = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    assert eng2.snapshot_arrow().equals(state_after_e0)

    # resume applies epoch 1+ normally; the garbage file is replaced or
    # ignored (deterministic staged name differs) and vacuumed
    eng2.replay(clog, segments_per_epoch=2)
    oracle = oracle_replay(log)
    got = eng2.snapshot_arrow().to_pylist()
    assert len(got) == len(oracle)
    assert all(oracle[(r["conv_id"], r["turn_idx"])]["text"] == r["text"] for r in got)
    leftovers = glob.glob(os.path.join(eng2.table_dir, "data", "**", "*garbage*"), recursive=True)
    assert leftovers == []  # vacuum removed the orphan


@pytest.mark.usefixtures("ray_session")
def test_reapply_committed_epoch_is_noop(tmp_path):
    log, clog = _setup(tmp_path)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    eng.replay(clog, segments_per_epoch=2)
    v = eng.manifest.version
    before = eng.snapshot_arrow()
    for epoch in clog.epochs(2):
        assert eng.apply_epoch(epoch) is None  # duplicate delivery of a committed epoch
    assert eng.manifest.version == v
    assert eng.snapshot_arrow().equals(before)


@pytest.mark.usefixtures("ray_session")
def test_apply_task_retry_is_idempotent(tmp_path):
    """Speculative/retried reduce tasks re-produce byte-identical staged
    files at the same deterministic path — double application of the same
    epoch's task changes nothing."""
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray as _ray

    from etl_framework_ray.pipelines.cdc import (
        CDCEngine,
        _apply_pid_task,
        _prep_segment_task,
    )

    log = generate_changelog(GenConfig(num_events=2000, num_conversations=30, seed=55))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=1000)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=2)
    epoch = clog.epochs(10)[0]
    chg_schema, new_lake, _ = eng._epoch_schemas(epoch)

    ctx_ref = _ray.put(
        {
            "table_dir": eng.table_dir,
            "lake_schema": new_lake,
            "epoch_id": epoch.epoch_id,
            "compact_every": eng.compact_every,
            "tombstone_ttl_lsn": None,
            "part_files": {},
        }
    )
    prep = [
        _prep_segment_task.remote(p, chg_schema, eng.key_cols, 2, {}) for p in epoch.paths
    ]
    bounds = np.stack(_ray.get([b for _, b in prep]))
    run = lambda pid: _ray.get(
        _apply_pid_task.remote(ctx_ref, eng.key_cols, [pid], bounds, *[t for t, _ in prep])
    )[0]
    first = run(0)
    content_1 = open(first["path"], "rb").read()
    second = run(0)  # the "retry"
    assert second["path"] == first["path"]
    assert second["rows_live"] == first["rows_live"]
    t1 = pq.read_table(first["path"])
    assert open(first["path"], "rb").read() and pq.read_table(second["path"]).equals(t1)
    # exactly one staged file exists for this (partition, epoch)
    d = os.path.dirname(first["path"])
    assert len([f for f in os.listdir(d) if f.endswith(".parquet")]) == 1


@pytest.mark.usefixtures("ray_session")
def test_tail_follows_growing_changelog(tmp_path):
    """tail() drains what exists, picks up segments appended between
    polls, and stops after the configured idle polls — final state equals
    the oracle and re-tailing is a no-op."""
    from etl_framework_ray.sources.generator import oracle_replay

    log = generate_changelog(GenConfig(num_events=4000, seed=77))
    half = log.num_rows // 2
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, half), segment_rows=1000)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)

    s1 = eng.tail(clog, poll_s=0, max_polls=1, segments_per_epoch=1)
    assert s1.epochs_applied > 0
    mid_lsn = eng.manifest.applied_lsn

    clog.write_segments(log.slice(half), segment_rows=1000)
    s2 = eng.tail(clog, poll_s=0, idle_stop_polls=2, segments_per_epoch=1)
    assert s2.epochs_applied > 0
    assert eng.manifest.applied_lsn > mid_lsn

    oracle = oracle_replay(log)
    state = eng.snapshot_arrow().to_pylist()
    assert len(state) == len(oracle)
    for row, k in zip(state, sorted(oracle)):
        assert (row["conv_id"], row["turn_idx"]) == k
        assert row["text"] == oracle[k]["text"]

    s3 = eng.tail(clog, poll_s=0, idle_stop_polls=1, segments_per_epoch=1)
    assert s3.epochs_applied == 0 and s3.events == 0


@pytest.mark.usefixtures("ray_session")
def test_racing_duplicate_tailer_is_harmless(tmp_path):
    """Two engines (racing tailers) applying the SAME epoch: the commit
    race loser treats it as duplicate delivery (no-op, rebased manifest)
    and both converge to the oracle state; a conflict from a commit that
    does NOT cover the epoch still raises."""
    from etl_framework_ray.sources.generator import oracle_replay
    from etl_framework_ray.state.manifest import CommitConflict, Manifest

    log = generate_changelog(GenConfig(num_events=3000, seed=88))
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log, segment_rows=1000)
    eng1 = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    eng2 = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)  # same table, stale view
    epochs = clog.epochs(1)

    assert eng1.apply_epoch(epochs[0]) is not None  # eng1 wins epoch 1
    assert eng2.apply_epoch(epochs[0]) is None       # loser: duplicate delivery
    assert eng2.manifest.version == eng1.manifest.version  # rebased
    # the loser continues from the rebased state like nothing happened
    for ep in epochs[1:]:
        assert eng2.apply_epoch(ep) is not None

    oracle = oracle_replay(log)
    state = eng2.snapshot_arrow().to_pylist()
    assert len(state) == len(oracle)
    for row, k in zip(state, sorted(oracle)):
        assert (row["conv_id"], row["turn_idx"]) == k
        assert row["text"] == oracle[k]["text"]

    # a conflicting commit that does NOT cover the epoch re-raises:
    # bump the version with a no-data property commit, then let a stale
    # engine try an epoch the new current does not cover
    eng3 = CDCEngine(str(tmp_path / "tbl2"), num_partitions=2)
    clog2 = ChangeLog(str(tmp_path / "log2"))
    clog2.write_segments(log.slice(0, 1000), segment_rows=500)
    eng4 = CDCEngine(str(tmp_path / "tbl2"), num_partitions=2)  # stale twin
    m = Manifest.from_json(eng3.manifest.to_json())
    m.version += 1
    eng3.store.commit(m)  # version bump without advancing applied_lsn
    with pytest.raises(CommitConflict):
        eng4.apply_epoch(clog2.epochs(1)[0])


@pytest.mark.usefixtures("ray_session")
def test_tail_keeps_views_fresh(tmp_path):
    """tail(views=[...]) advances maintained views after every applying
    poll: at drain the views equal a from-scratch recompute, the view
    never lags the lake, and the view's changefeed saw every window."""
    from etl_framework_ray.pipelines.incremental import (
        IncrementalCorpus,
        IncrementalRollup,
    )

    log = generate_changelog(GenConfig(num_events=4000, seed=78))
    half = log.num_rows // 2
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, half), segment_rows=1000)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4, compact_every=1_000_000)
    roll = IncrementalRollup(eng, str(tmp_path / "roll"), emit_changes=True)
    corp = IncrementalCorpus(eng, str(tmp_path / "corp"))

    eng.tail(clog, poll_s=0, max_polls=1, segments_per_epoch=1, views=[roll, corp])
    assert roll.watermark == eng.manifest.applied_lsn == corp.watermark
    v1 = roll.version

    clog.write_segments(log.slice(half), segment_rows=1000)
    eng.tail(clog, poll_s=0, idle_stop_polls=2, segments_per_epoch=1, views=[roll, corp])
    assert roll.watermark == eng.manifest.applied_lsn == corp.watermark
    assert roll.version > v1

    # views equal a from-scratch recompute of the same lake state
    fresh = IncrementalRollup(eng, str(tmp_path / "roll2"))
    fresh.rebuild()
    import pandas as pd

    pd.testing.assert_frame_equal(
        roll.read_arrow().to_pandas(), fresh.read_arrow().to_pandas()
    )
    # and the emitting view's changefeed covered the incremental window
    assert roll.changes(v1).count() > 0


@pytest.mark.usefixtures("ray_session")
def test_replay_and_resume_on_cas_commit_backend(tmp_path):
    """Full replay + kill/resume with the object-store (conditional-put)
    commit backend: the engine's exactly-once semantics must not depend on
    POSIX link/replace. The backend instance is shared across the "crash"
    (an object store survives the process; MemoryCommitBackend models
    that), the data files stay plain parquet on disk."""
    from etl_framework_ray.state.backend import MemoryCommitBackend

    log, clog = _setup(tmp_path)
    backend = MemoryCommitBackend()

    ref = CDCEngine(str(tmp_path / "ref"), num_partitions=4)
    ref.replay(clog, segments_per_epoch=2)

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4, commit_backend=backend)
    for epoch in clog.epochs(2)[:2]:
        eng.apply_epoch(epoch)
    watermark = eng.manifest.applied_lsn
    del eng

    eng2 = CDCEngine(str(tmp_path / "tbl"), num_partitions=4, commit_backend=backend)
    assert eng2.manifest.applied_lsn == watermark  # durable checkpoint
    stats = eng2.replay(clog, segments_per_epoch=2)
    assert stats.epochs_applied == len(clog.epochs(2)) - 2
    assert eng2.snapshot_arrow().equals(ref.snapshot_arrow())
    # no POSIX manifest dir was ever created on the CAS backend
    assert not os.path.exists(os.path.join(str(tmp_path / "tbl"), "_manifest"))


@pytest.mark.usefixtures("ray_session")
def test_pipelined_tail_equals_serial_and_oracle(tmp_path):
    """The cross-poll pipelined tail (pipelined=True) must end in exactly
    the serial tail's committed state: drain a half-staged log, grow it,
    drain again, compare to the oracle; re-tailing is a no-op; a view
    attached to the pipelined tail equals a from-scratch rebuild."""
    from etl_framework_ray.pipelines.incremental import IncrementalRollup
    from etl_framework_ray.sources.generator import oracle_replay

    log = generate_changelog(GenConfig(num_events=4000, seed=77))
    half = log.num_rows // 2
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, half), segment_rows=500)
    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4, compact_every=1_000_000)
    view = IncrementalRollup(eng, str(tmp_path / "view"))

    s1 = eng.tail(
        clog, poll_s=0, idle_stop_polls=1, segments_per_epoch=1, views=[view],
    )
    assert s1.epochs_applied > 0
    mid_lsn = eng.manifest.applied_lsn
    assert view.read_arrow().num_rows > 0  # advanced inside the tail

    clog.write_segments(log.slice(half), segment_rows=500)
    s2 = eng.tail(
        clog, poll_s=0, idle_stop_polls=2, segments_per_epoch=1, views=[view],
    )
    assert s2.epochs_applied > 0
    assert eng.manifest.applied_lsn > mid_lsn

    oracle = oracle_replay(log)
    state = eng.snapshot_arrow().to_pylist()
    assert len(state) == len(oracle)
    for row, k in zip(state, sorted(oracle)):
        assert (row["conv_id"], row["turn_idx"]) == k
        assert row["text"] == oracle[k]["text"]

    # the view kept by the pipelined tail == a from-scratch rebuild
    fresh = IncrementalRollup(eng, str(tmp_path / "view2"))
    fresh.rebuild()
    a = view.read_arrow().to_pandas().sort_values("conv_id").reset_index(drop=True)
    b = fresh.read_arrow().to_pandas().sort_values("conv_id").reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)

    s3 = eng.tail(clog, poll_s=0, idle_stop_polls=1, segments_per_epoch=1)
    assert s3.epochs_applied == 0 and s3.events == 0


@pytest.mark.usefixtures("ray_session")
def test_pipelined_tail_overlaps_midflight_arrivals(tmp_path):
    """Segments that appear WHILE the pipelined tail is applying are
    picked up by the in-flight re-list (no extra sleep cycle) and the
    final state still equals the oracle."""
    import pyarrow.parquet as _pq

    from etl_framework_ray.sources.generator import oracle_replay

    log = generate_changelog(GenConfig(num_events=3000, seed=55))
    third = log.num_rows // 3
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, third), segment_rows=250)

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4)
    orig_apply = eng.apply_epoch
    grown = {"n": 0}

    def apply_and_grow(epoch, **kw):
        # producer races the applier: new segments land mid-apply
        if grown["n"] == 0:
            clog.write_segments(log.slice(third, third), segment_rows=250)
        elif grown["n"] == 1:
            clog.write_segments(log.slice(2 * third), segment_rows=250)
        grown["n"] += 1
        return orig_apply(epoch, **kw)

    eng.apply_epoch = apply_and_grow
    stats = eng.tail(clog, poll_s=0, idle_stop_polls=2, segments_per_epoch=2)
    eng.apply_epoch = orig_apply
    assert stats.epochs_applied > 0
    oracle = oracle_replay(log)
    state = eng.snapshot_arrow().to_pylist()
    assert len(state) == len(oracle)
    for row, k in zip(state, sorted(oracle)):
        assert (row["conv_id"], row["turn_idx"]) == k
        assert row["text"] == oracle[k]["text"]


@pytest.mark.usefixtures("ray_session")
def test_pipelined_tail_max_polls_bounds_a_sustained_producer(tmp_path):
    """max_polls must bound BOTH the loop-top listings and the in-flight
    re-lists: against a producer that writes a new segment during every
    apply, tail(max_polls=2, pipelined=True) stops after draining what
    those two polls listed instead of following the producer forever."""
    from etl_framework_ray.pipelines.incremental import IncrementalRollup

    log = generate_changelog(GenConfig(num_events=8000, seed=21))
    step = log.num_rows // 16
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, step), segment_rows=step)

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=4, compact_every=1_000_000)
    view = IncrementalRollup(eng, str(tmp_path / "view"))
    advances = []
    orig_advance = view.advance
    view.advance = lambda: advances.append(eng.manifest.applied_lsn) or orig_advance()

    orig_apply = eng.apply_epoch
    written = {"n": 1}

    def apply_and_produce(epoch, **kw):
        # the producer never stops: one fresh segment lands per apply
        if written["n"] < 16:
            clog.write_segments(
                log.slice(written["n"] * step, step), segment_rows=step
            )
            written["n"] += 1
        return orig_apply(epoch, **kw)

    eng.apply_epoch = apply_and_produce
    stats = eng.tail(
        clog, poll_s=0, max_polls=2, segments_per_epoch=1, views=[view],
    )
    eng.apply_epoch = orig_apply

    # bounded: two polls listed at most a few epochs; the producer's
    # later segments were NOT chased
    assert 0 < stats.epochs_applied < 10
    assert written["n"] < 16
    # the view advanced at every poll boundary, not just at the end —
    # never more than one poll of epochs behind
    assert len(advances) >= 2


@pytest.mark.usefixtures("ray_session")
def test_tail_vacuums_at_every_applying_poll_boundary(tmp_path):
    """A producer that keeps the queue non-empty means the tail never
    drains, so vacuum must run at each poll boundary, not only when the
    loop exits. With a compaction every epoch, each apply orphans one file
    per partition; those must be gone before the next apply."""
    log = generate_changelog(GenConfig(num_events=8000, seed=21))
    step = log.num_rows // 16
    clog = ChangeLog(str(tmp_path / "log"))
    clog.write_segments(log.slice(0, step), segment_rows=step)

    eng = CDCEngine(str(tmp_path / "tbl"), num_partitions=2, compact_every=1)
    data_dir = os.path.join(str(tmp_path / "tbl"), "data")

    def unreferenced() -> int:
        man = eng.manifest
        live = set(man.data_files())
        live.update(e["path"] for e in man.properties.get("retained_deltas", []))
        return sum(
            os.path.join(root, name) not in live
            for root, _dirs, names in os.walk(data_dir)
            for name in names
        )

    orig_apply = eng.apply_epoch
    written = {"n": 1}
    orphans = []

    def apply_and_produce(epoch, **kw):
        orphans.append(unreferenced())
        # one fresh segment lands per apply until the log is exhausted
        if written["n"] < 16:
            n = written["n"]
            rest = log.slice(n * step, step if n < 15 else None)
            clog.write_segments(rest, segment_rows=rest.num_rows)
            written["n"] += 1
        return orig_apply(epoch, **kw)

    eng.apply_epoch = apply_and_produce
    stats = eng.tail(clog, poll_s=0, idle_stop_polls=1, segments_per_epoch=1)
    eng.apply_epoch = orig_apply

    assert stats.epochs_applied == 16
    assert len(orphans) == 16
    assert max(orphans) <= eng.manifest.num_partitions, orphans
    oracle = oracle_replay(log)
    state = eng.snapshot_arrow().to_pylist()
    assert len(state) == len(oracle)
    for row, k in zip(state, sorted(oracle)):
        assert (row["conv_id"], row["turn_idx"]) == k
        assert row["text"] == oracle[k]["text"]
