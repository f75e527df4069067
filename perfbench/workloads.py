"""The three benchmark workloads.

Each takes a :class:`perfbench.run.Session` and returns a dict with the
end-to-end values (``e2e``), the per-workload report in the metric names
the benchmark spec documents (``report``), per-layer values from a traced
run (``per_layer`` and ``layers``), and the op counts and mismatches of
its correctness gate.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa

from . import inputs, verify
from .trace import layer_metrics

#: fixed session shape for every workload
NUM_CPUS = 2
NUM_PARTITIONS = 16
SEGMENTS_PER_EPOCH = 4
#: set-up is repeated this many times per run; setup_s is the median
SETUP_REPS = 5
#: tail_trickle: lander period, tail poll period, warm-up segments
TRICKLE_INTERVAL_S = 1.25
POLL_S = 0.02
WARMUP_SEGMENTS = 3
#: tail_trickle keeps every folded delta, so views never fall behind the
#: changefeed horizon (without it advance() fails after a compaction)
RETENTION_LSN = 10**9
#: serve_reads: one cycle = this many lookups, a pruned scan, a full scan
LOOKUPS_PER_CYCLE = 20
ABSENT_KEY_FRAC = 0.1
HOT_KEY_FRAC, HOT_LOOKUP_FRAC = 0.2, 0.8
PRUNED_COLUMNS = ["conv_id", "turn_idx", "role"]
PRUNED_KEY_FRAC = 0.05


def _pct(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def _settle() -> None:
    """Flush this run's own writes (inputs, earlier tables) before a timed
    step, so their writeback does not land inside it."""
    os.sync()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _engine(table_dir: str, **kw):
    from etl_framework_ray.pipelines.cdc import CDCEngine

    return CDCEngine(table_dir, num_partitions=NUM_PARTITIONS, **kw)


def _replay(eng, log):
    return eng.replay(log, segments_per_epoch=SEGMENTS_PER_EPOCH, pipelined=True)


def _commit_times(eng) -> list[tuple[int, float]]:
    """``(applied_lsn, committed_at)`` of every manifest version."""
    cur = eng.store.current_version() or 0
    return [
        (m.applied_lsn, m.committed_at)
        for m in (eng.store.load(v) for v in range(1, cur + 1))
    ]


def _boot(s, boot_log, view: bool = False, **engine_kw):
    """One set-up: a fresh table (and view) with its first epoch applied.
    Returns ``(seconds, engine, view)``."""
    from etl_framework_ray.pipelines.incremental import IncrementalRollup

    table, view_dir = s.fresh("boot_table"), s.fresh("boot_view")
    t0 = time.perf_counter()
    eng = _engine(table, **engine_kw)
    _replay(eng, boot_log)
    v = None
    if view:
        v = IncrementalRollup(eng, view_dir)
        v.advance()
    return time.perf_counter() - t0, eng, v


def _layers(s, windows, extra: dict) -> tuple[dict, dict]:
    import ray

    timeline = ray.timeline()
    m, block = layer_metrics(s.tracer, timeline, windows, s.num_cpus)
    m.update(extra)
    s.tracer.dump(s.trace_path, timeline)
    return m, block


def _result(setup, rate, lat_ms, report, attempted, failed, per_layer=None, layers=None):
    return {
        "e2e": {
            "setup_s": setup,
            "throughput_per_s": rate,
            "latency_p50_ms": _pct(lat_ms, 50),
            "latency_p90_ms": _pct(lat_ms, 90),
            "driver_rss_peak_mb": report["driver_rss_peak_mb"][0],
        },
        "report": report,
        "per_layer": per_layer,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# replay_backlog
# ---------------------------------------------------------------------------


def _replay_leg(s, log, seconds: float, min_reps: int = 2) -> dict:
    """Closed loop, one caller: replay the whole backlog into fresh tables
    until ``seconds`` would be exceeded. Per replay: events/s; per epoch:
    the interval between lake commits (the first from the call)."""
    rates, intervals, windows, engines = [], [], [], []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(rates) >= min_reps and elapsed + elapsed / len(rates) > seconds:
            break
        eng = _engine(s.fresh("replay_table"))
        _settle()
        w0, t0 = time.time(), time.perf_counter()
        with s.tracer.span("bench.replay"):
            st = _replay(eng, log)
        dt = time.perf_counter() - t0
        windows.append((w0, time.time()))
        rates.append(st.events / dt)
        commits = [c for _lsn, c in _commit_times(eng)[1:]]
        intervals += [b - a for a, b in zip([w0] + commits, commits)]
        engines.append(eng)
    return {"rates": rates, "intervals_ms": [x * 1e3 for x in intervals],
            "windows": windows, "engines": engines,
            "epochs": sum(len(e.manifest.history) for e in engines)}


def replay_backlog(s) -> dict:
    from etl_framework_ray.sources.changelog import ChangeLog

    backlog = ChangeLog(s.input("backlog", inputs.scaled(inputs.BACKLOG, s.scale)))
    boot = ChangeLog(s.input("boot", inputs.scaled(inputs.BOOT, s.scale)))
    s.start_ray(NUM_CPUS)
    setup = statistics.median(_boot(s, boot)[0] for _ in range(SETUP_REPS))
    if s.trace:
        plain = _replay_leg(s, backlog, s.seconds / 2)
        s.tracer.set_enabled(True)
        traced = _replay_leg(s, backlog, s.seconds / 2)
        s.tracer.set_enabled(False)
        per_layer, layers = _layers(
            s, traced["windows"],
            {"trace.overhead_frac": statistics.median(plain["rates"]) / statistics.median(traced["rates"]) - 1},
        )
        legs = [plain, traced]
    else:
        plain = _replay_leg(s, backlog, s.seconds * 2 / 3)
        per_layer = layers = None
        legs = [plain]
    rss = _rss_mb()
    report = {"setup_s": (setup, "s", SETUP_REPS),
              "replay_events_per_s": (statistics.median(plain["rates"]), "events/s", len(plain["rates"])),
              "driver_rss_peak_mb": (rss, "MB", 1)}
    if not s.trace:
        # single-threaded baseline: the same backlog in a fresh 1-CPU session
        s.stop_ray()
        s.start_ray(1)
        _boot(s, boot)
        one = _replay_leg(s, backlog, s.seconds / 3, min_reps=1)
        legs.append(one)
        thr1 = statistics.median(one["rates"])
        report["replay_events_per_s_1cpu"] = (thr1, "events/s", len(one["rates"]))
        report["replay_scaling_eff"] = (report["replay_events_per_s"][0] / thr1 / NUM_CPUS, "ratio", 1)
    # correctness: the last table of each leg against DuckDB LWW
    checks = [verify.lake_vs_duckdb(leg["engines"][-1].snapshot_arrow(), [backlog.log_dir]) for leg in legs]
    failed = sum(1 for c in checks if c)
    attempted = sum(leg["epochs"] for leg in legs) + len(checks)
    report["ops_failed_frac"] = (failed / attempted, "frac", attempted)
    return _result(setup, statistics.median(plain["rates"]), plain["intervals_ms"], report,
                   attempted, failed, per_layer, layers)


# ---------------------------------------------------------------------------
# tail_trickle
# ---------------------------------------------------------------------------


def _segment_max_lsn(name: str) -> int:
    return int(name.split("-")[2].split(".")[0])


def _trickle_phase(s, eng, view, clog, staging: str, names: list[str]) -> dict:
    """Open loop: a lander process moves ``names`` into the log on a fixed
    schedule while this process tails it with the view attached. Returns
    per-segment freshness from the manifest history and view metrics."""
    ledger = s.fresh("ledger.json")
    _settle()
    start_at = time.time() + 0.3
    lander = subprocess.Popen(
        [sys.executable, os.path.join(os.path.dirname(__file__), "lander.py"),
         staging, clog.log_dir, repr(start_at), repr(TRICKLE_INTERVAL_S), ledger, *names],
        env=dict(os.environ, OMP_NUM_THREADS="1"),
    )
    idle = int(1.2 * TRICKLE_INTERVAL_S / POLL_S)
    epochs = 0
    w0 = time.time()
    try:
        with s.tracer.span("bench.tail"):
            while True:
                done = lander.poll() is not None
                st = eng.tail(clog, poll_s=POLL_S, idle_stop_polls=1 if done else idle,
                              views=[view], pipelined=True, segments_per_epoch=SEGMENTS_PER_EPOCH)
                epochs += st.epochs_applied
                if done:
                    break
    finally:
        if lander.poll() is None:
            lander.kill()
        lander.wait()
    w1 = time.time()
    if lander.returncode != 0:
        raise RuntimeError(f"lander exited with {lander.returncode}")
    with open(ledger) as f:
        rows = json.load(f)
    commits = _commit_times(eng)
    vm = view.metrics().to_pylist()
    lake, view_f, late = [], [], []
    for r in rows:
        hi = _segment_max_lsn(r["name"])
        lake.append(min(c for lsn, c in commits if lsn >= hi) - r["due"])
        view_f.append(min(m["ts"] for m in vm if m["watermark_lsn"] >= hi) - r["due"])
        late.append(r["landed"] - r["due"])
    lo, hi = _segment_max_lsn(rows[0]["name"]) - 1, _segment_max_lsn(rows[-1]["name"])
    hist = [h for h in eng.manifest.history if lo < h["epoch_id"] <= hi]
    busy = sum(h["duration_s"] for h in hist) + sum(
        m["seconds"] for m in vm if w0 <= m["ts"] <= w1 and m["touched_partitions"]
    )
    events = sum(h["events"] for h in hist)
    advances = sum(1 for m in vm if w0 <= m["ts"] <= w1)
    return {"lake_ms": [x * 1e3 for x in lake], "view_ms": [x * 1e3 for x in view_f],
            "late_s": late, "capacity": events / busy if busy else 0.0,
            "ops": epochs + advances, "window": (w0, w1)}


def tail_trickle(s) -> dict:
    from etl_framework_ray.sources.changelog import ChangeLog

    boot_p = inputs.scaled(inputs.BOOT, s.scale)
    p = inputs.scaled(inputs.TRICKLE, s.scale)
    n = max(4, round(s.seconds / TRICKLE_INTERVAL_S))
    boot = ChangeLog(s.input("boot", boot_p))
    src = s.input("trickle", {**p, "n_segments": WARMUP_SEGMENTS + n,
                              "evolve_at": WARMUP_SEGMENTS + n // 3,
                              "lsn_start": boot_p["events"] + 1})
    staging = s.fresh("staging")
    shutil.copytree(src, staging)
    names = sorted(os.listdir(staging))
    clog = ChangeLog(s.fresh("log"))
    s.start_ray(NUM_CPUS)
    boots = [_boot(s, boot, view=True, changefeed_retention_lsn=RETENTION_LSN) for _ in range(SETUP_REPS)]
    setup = statistics.median(b[0] for b in boots)
    _secs, eng, view = boots[-1]
    _trickle_phase(s, eng, view, clog, staging, names[:WARMUP_SEGMENTS])
    measured = names[WARMUP_SEGMENTS:]
    per_layer = layers = None
    if s.trace:
        half = len(measured) // 2
        plain = _trickle_phase(s, eng, view, clog, staging, measured[:half])
        s.tracer.set_enabled(True)
        traced = _trickle_phase(s, eng, view, clog, staging, measured[half:])
        s.tracer.set_enabled(False)
        per_layer, layers = _layers(s, [traced["window"]], {
            "trace.overhead_frac": _pct(traced["view_ms"], 50) / _pct(plain["view_ms"], 50) - 1,
            "sources.land_late_p50_s": _pct(traced["late_s"], 50),
        })
        phases = [plain, traced]
    else:
        plain = _trickle_phase(s, eng, view, clog, staging, measured)
        phases = [plain]
    rss = _rss_mb()
    state = eng.snapshot_arrow()
    bad_lake = verify.lake_vs_oracle(state, [boot.log_dir, clog.log_dir],
                                     ("role", "text", "tool", inputs.ADDED_COLUMN))
    bad_view = verify.view_vs_rebuild(eng, view, s.fresh("rebuilt_view"))
    failed = int(bad_lake > 0) + bad_view
    attempted = sum(ph["ops"] for ph in phases) + 2
    report = {
        "setup_s": (setup, "s", SETUP_REPS),
        "freshness_p50_s": (_pct(plain["lake_ms"], 50) / 1e3, "s", len(plain["lake_ms"])),
        "freshness_p90_s": (_pct(plain["lake_ms"], 90) / 1e3, "s", len(plain["lake_ms"])),
        "view_freshness_p50_s": (_pct(plain["view_ms"], 50) / 1e3, "s", len(plain["view_ms"])),
        "view_freshness_p90_s": (_pct(plain["view_ms"], 90) / 1e3, "s", len(plain["view_ms"])),
        "land_late_p50_s": (_pct(plain["late_s"], 50), "s", len(plain["late_s"])),
        "driver_rss_peak_mb": (rss, "MB", 1),
        "ops_failed_frac": (failed / attempted, "frac", attempted),
    }
    return _result(setup, plain["capacity"], plain["view_ms"], report, attempted, failed,
                   per_layer, layers)


# ---------------------------------------------------------------------------
# serve_reads
# ---------------------------------------------------------------------------


class _Keys:
    """Skewed lookup keys: most lookups go to a hot fifth of a seeded
    permutation of the conversations, a share to ids never written."""

    def __init__(self, seed: int, conversations: int):
        self.rng = np.random.default_rng([seed, 7])
        self.n = conversations
        self.perm = self.rng.permutation(conversations)

    def present(self, i: int) -> str:
        """The ``i``-th hottest key: written by the build, so a lookup of
        it reads files (set-up must not depend on drawing an absent key)."""
        return f"conv-{int(self.perm[i % self.n]):06d}"

    def draw(self) -> str:
        u = self.rng.random()
        if u < ABSENT_KEY_FRAC:
            return f"conv-{self.n + int(self.rng.integers(0, self.n)):06d}"
        hot = max(1, int(self.n * HOT_KEY_FRAC))
        if u < ABSENT_KEY_FRAC + (1 - ABSENT_KEY_FRAC) * HOT_LOOKUP_FRAC:
            return self.present(int(self.rng.integers(0, hot)))
        return self.present(hot + int(self.rng.integers(0, self.n - hot)))

    def key_range(self) -> list:
        width = max(1, int(self.n * PRUNED_KEY_FRAC))
        lo = int(self.rng.integers(0, self.n - width + 1))
        return [("conv_id", ">=", f"conv-{lo:06d}"), ("conv_id", "<", f"conv-{lo + width:06d}")]


def _serve_phase(s, eng, keys: _Keys, seconds: float) -> dict:
    """Closed loop, one client: cycles of lookups, one pruned scan and one
    full scan until ``seconds`` would be exceeded."""
    out = {"lookup_ms": [], "results": [], "scans": [], "pruned": []}
    _settle()
    t_start = time.perf_counter()
    w0 = time.time()
    cycles = 0
    with s.tracer.span("bench.serve"):
        while True:
            elapsed = time.perf_counter() - t_start
            if cycles and elapsed + elapsed / cycles > seconds:
                break
            for _ in range(LOOKUPS_PER_CYCLE):
                k = keys.draw()
                t0 = time.perf_counter()
                got = eng.lookup([k])
                out["lookup_ms"].append((time.perf_counter() - t0) * 1e3)
                out["results"].append((k, got))
            pred, stats = keys.key_range(), {}
            t0 = time.perf_counter()
            with s.tracer.span("read.pruned_scan"):
                n = eng.snapshot(columns=PRUNED_COLUMNS, predicate=pred, prune_stats=stats).count()
            out["pruned"].append((n, time.perf_counter() - t0, pred, stats))
            t0 = time.perf_counter()
            with s.tracer.span("read.scan"):
                n = eng.snapshot().count()
            out["scans"].append((n, time.perf_counter() - t0))
            cycles += 1
    out["window"] = (w0, time.time())
    return out


def serve_reads(s) -> dict:
    import ray

    from etl_framework_ray.sources.changelog import ChangeLog

    p = inputs.scaled(inputs.SERVE, s.scale)
    log = ChangeLog(s.input("serve", p))
    s.start_ray(NUM_CPUS)
    table = s.fresh("serve_table")
    s.tracer.set_enabled(s.trace)
    w0 = time.time()
    with s.tracer.span("bench.build"):
        _replay(_engine(table), log)
    build_window = (w0, time.time())
    s.tracer.set_enabled(False)
    keys = _Keys(s.seed, p["conversations"])
    _settle()

    def open_and_lookup(i: int):
        t0 = time.perf_counter()
        eng = _engine(table, create_if_missing=False)
        eng.lookup([keys.present(i)])
        return time.perf_counter() - t0, eng

    opened = [open_and_lookup(i) for i in range(SETUP_REPS)]
    setup = statistics.median(t for t, _eng in opened)
    eng = opened[-1][1]
    _serve_phase(s, eng, keys, 0)  # warm-up cycle, untimed
    per_layer = layers = None
    if s.trace:
        plain = _serve_phase(s, eng, keys, s.seconds / 2)
        s.tracer.set_enabled(True)
        traced = _serve_phase(s, eng, keys, s.seconds / 2)
        s.tracer.set_enabled(False)
        parts = [len(ps.files) for ps in eng.manifest.partitions.values()]
        per_layer, layers = _layers(s, [build_window, traced["window"]], {
            "trace.overhead_frac": _pct(traced["lookup_ms"], 50) / _pct(plain["lookup_ms"], 50) - 1,
            "read.part_files_mean": statistics.fmean(parts),
            "read.pruned_scan_files_frac": statistics.median(
                st["files_read"] / st["files_total"] for *_x, st in traced["pruned"]
            ),
        })
        phases = [plain, traced]
    else:
        plain = _serve_phase(s, eng, keys, s.seconds)
        phases = [plain]
    rss = _rss_mb()
    state = eng.snapshot_arrow()
    failed = int(verify.lake_vs_duckdb(state, [log.log_dir]) > 0)
    failed += sum(verify.lookups_vs_snapshot(state, ph["results"]) for ph in phases)
    failed += sum(n != state.num_rows for ph in phases for n, _t in ph["scans"])
    for ph in phases:
        for n, _t, pred, _st in ph["pruned"]:
            failed += int(n != verify.filtered(state, pred).num_rows)
    pred = plain["pruned"][0][2]
    got = ray.get(eng.snapshot(columns=PRUNED_COLUMNS, predicate=pred).to_arrow_refs())
    failed += verify.scan_vs_snapshot(pa.concat_tables(got), state, PRUNED_COLUMNS, pred)
    attempted = sum(len(ph["results"]) + len(ph["scans"]) + len(ph["pruned"]) for ph in phases) + 2
    scan_rates = [n / t for n, t in plain["scans"]]
    report = {
        "setup_s": (setup, "s", SETUP_REPS),
        "lookup_p50_ms": (_pct(plain["lookup_ms"], 50), "ms", len(plain["lookup_ms"])),
        "lookup_p95_ms": (_pct(plain["lookup_ms"], 95), "ms", len(plain["lookup_ms"])),
        "scan_rows_per_s": (statistics.median(scan_rates), "rows/s", len(scan_rates)),
        "pruned_scan_s": (statistics.median(t for _n, t, *_x in plain["pruned"]), "s", len(plain["pruned"])),
        "live_keys": (state.num_rows, "rows", 1),
        "driver_rss_peak_mb": (rss, "MB", 1),
        "ops_failed_frac": (failed / attempted, "frac", attempted),
    }
    return _result(setup, statistics.median(scan_rates), plain["lookup_ms"], report,
                   attempted, failed, per_layer, layers)


WORKLOADS = {
    "replay_backlog": replay_backlog,
    "tail_trickle": tail_trickle,
    "serve_reads": serve_reads,
}
