"""Layer tracing from outside the engine.

Three sources, none of which changes engine code:

* driver-side wrappers on the engine's public functions (and on the names
  ``pipelines.cdc`` imported into its own namespace, which a wrapper on the
  defining module would miss) record nested spans in memory;
* a Ray ``worker_process_setup_hook`` (:func:`worker_setup`) wraps the
  kernels the map and reduce tasks call, naming each span after the task
  it runs in; each worker appends its spans to its own file;
* ``ray.timeline()`` gives the task spans (execute, argument fetch,
  output store).

A layer's self time is its span time minus the time of the spans nested
directly inside it. Tracing is switched on and off at run time (a flag
file tells the workers), so one session can measure an untraced and a
traced phase.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

#: environment variable naming the directory of worker span files
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
_FLAG = "ENABLED"

#: remote/batch functions of the engine -> layer prefix of the kernels
#: they call (worker side)
_TASK_LAYER = {
    "_prep_segment_task": "map",
    "_apply_pid_task": "reduce",
    "resolve": "read",
    "rebuild_partition": "view",
}


def _p50(xs):
    return statistics.median(xs) if xs else 0.0


class Tracer:
    """Driver-side spans and counters, kept in memory until the run ends."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        os.makedirs(span_dir, exist_ok=True)
        self.enabled = False
        #: (name, start, end, depth, thread id)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        stack.append(name)
        t0 = time.time()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((name, t0, time.time(), len(stack), threading.get_ident()))

    def inside(self, name: str) -> bool:
        return name in self._stack()

    def set_enabled(self, on: bool) -> None:
        """Switch tracing for the driver and, through the flag file, for
        every worker."""
        self.enabled = on
        flag = os.path.join(self.span_dir, _FLAG)
        if on:
            open(flag, "w").close()
        elif os.path.exists(flag):
            os.remove(flag)

    # -- wrappers ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper; ``after(out,
        *args, **kwargs)`` runs on each traced call's result."""
        orig = getattr(owner, attr)
        setattr(owner, attr, _Wrapped(orig, self, name, after))
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap the engine's driver-side layer boundaries."""
        from etl_framework_ray.pipelines import cdc, incremental
        from etl_framework_ray.pipelines import metrics as lineage
        from etl_framework_ray.sources.changelog import ChangeLog
        from etl_framework_ray.state import manifest, zonemap

        def listed(out, *_a, **_k):
            self.samples["sources.backlog_segments"].append(sum(len(e.segments) for e in out))

        def planned(out, *_a, **_k):
            self.counts["schema.changes"] += len(out[2])

        def submitted(out, eng, epoch, *_a, **_k):
            self.counts["map.segments_submitted"] += len(epoch.paths)
            self.samples["exchange.refs"].append(len(epoch.paths) * eng.manifest.num_partitions)

        def applied(out, eng, epoch, *_a, **_k):
            if out is None:
                return
            self.counts["map.segments_committed"] += len(epoch.segments)
            self.samples["commit.epochs"].append(
                {
                    "table_dir": eng.table_dir,
                    "epoch_id": epoch.epoch_id,
                    "events": out["events"],
                    "patches_discarded": out.get("patches_discarded", 0),
                    "input_bytes": sum(os.path.getsize(p) for p in epoch.paths),
                }
            )

        def committed(out, store, man, *_a, **_k):
            self.samples["commit.manifest_bytes"].append(
                os.path.getsize(store._vpath(man.version))
            )

        def advanced(out, *_a, **_k):
            self.samples["view.advances"].append(out)

        real_can_match = zonemap.file_can_match

        def can_match(stats, conjuncts):
            ok = real_can_match(stats, conjuncts)
            if self.enabled and self.inside("read.lookup"):
                self.counts["read.files_considered"] += 1
                self.counts["read.files_opened"] += int(ok)
            return ok

        self.wrap(ChangeLog, "epochs", "sources.list", listed)
        self.wrap(cdc.CDCEngine, "_epoch_schemas", "schema.plan", planned)
        self.wrap(cdc, "merge_schemas", "schema.merge")
        self.wrap(cdc, "plan_evolution", "schema.evolve")
        self.wrap(cdc.CDCEngine, "_submit_prep", "map.submit", submitted)
        self.wrap(cdc.CDCEngine, "apply_epoch", "commit.apply_epoch", applied)
        self.wrap(lineage, "write_epoch_metrics", "commit.lineage")
        self.wrap(manifest.ManifestStore, "commit", "commit.manifest", committed)
        self.wrap(manifest.ManifestStore, "vacuum", "commit.vacuum")
        self.wrap(incremental.IncrementalRollup, "advance", "view.advance", advanced)
        self.wrap(cdc.CDCEngine, "lookup", "read.lookup")
        self.wrap(cdc, "lww_reduce", "read.lww")
        self.wrap(cdc, "normalize_table", "read.normalize")
        zonemap.file_can_match = can_match
        self._patches.append((zonemap, "file_can_match", real_can_match))
        real_pq = cdc.pq
        cdc.pq = _Parquet(real_pq, self.span, {"read_table": "read.file", "read_schema": "schema.footer"})
        self._patches.append((cdc, "pq", real_pq))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- collection ----------------------------------------------------
    def worker_spans(self) -> dict[int, list[tuple]]:
        """Spans the workers wrote, per worker process."""
        out: dict[int, list[tuple]] = {}
        for path in glob.glob(os.path.join(self.span_dir, "spans-*.jsonl")):
            pid = int(os.path.basename(path)[6:-6])
            with open(path) as f:
                out[pid] = [tuple(json.loads(line)) for line in f if line.strip()]
        return out

    def dump(self, path: str, timeline: list) -> None:
        """Write every span this run recorded (the only write of spans)."""
        with open(path, "w") as f:
            json.dump(
                {
                    "driver": self.spans,
                    "workers": {str(k): v for k, v in self.worker_spans().items()},
                    "timeline": timeline,
                },
                f,
            )


def _unwrap(fn):
    return fn


class _Wrapped:
    """Span-recording stand-in for a function or method. Ray pickles task
    functions together with the globals they use, so a wrapper that a task
    references pickles as the function it wraps: tracing never changes
    what runs in a worker."""

    def __init__(self, orig, tracer: Tracer, name: str, after=None):
        functools.update_wrapper(self, orig)
        self.orig, self.tracer, self.name, self.after = orig, tracer, name, after

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        if not tracer.enabled:
            return self.orig(*args, **kwargs)
        with tracer.span(self.name):
            try:
                out = self.orig(*args, **kwargs)
            except Exception:
                tracer.counts[f"{self.name}.errors"] += 1
                raise
        if self.after is not None:
            self.after(out, *args, **kwargs)
        return out

    def __get__(self, obj, cls=None):
        return self if obj is None else functools.partial(self, obj)

    def __reduce__(self):
        return (_unwrap, (self.orig,))


class _Parquet:
    """Stand-in for ``pyarrow.parquet`` inside ``pipelines.cdc`` only:
    the named functions record spans, everything else passes through.
    Pickles as the real module."""

    def __init__(self, real, span, names: dict):
        self._real, self._span, self._names = real, span, names

    def __getattr__(self, attr):
        fn = getattr(self._real, attr)
        name = self._names.get(attr)
        if name is None:
            return fn
        span = self._span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def __reduce__(self):
        return (importlib.import_module, (self._real.__name__,))


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _WorkerSpans:
    def __init__(self, span_dir: str):
        self.flag = os.path.join(span_dir, _FLAG)
        self.path = os.path.join(span_dir, f"spans-{os.getpid()}.jsonl")
        self.fd = None
        self.depth = 0

    def layer(self) -> str:
        f = sys._getframe(2)
        for _ in range(16):
            if f is None:
                break
            layer = _TASK_LAYER.get(f.f_code.co_name)
            if layer is not None:
                return layer
            f = f.f_back
        return "worker"

    def wrap(self, owner, attr: str, kernel: str) -> None:
        orig = getattr(owner, attr)
        spans = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not os.path.exists(spans.flag):
                return orig(*args, **kwargs)
            name = f"{spans.layer()}.{kernel}"
            spans.depth += 1
            t0 = time.time()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = time.time()
                spans.depth -= 1
                spans.write([name, t0, t1, spans.depth])

        setattr(owner, attr, traced)

    def write(self, row: list) -> None:
        # one short append per span: a worker can be stopped at any point,
        # so nothing is left in a buffer that would be lost with it
        if self.fd is None:
            self.fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(self.fd, (json.dumps(row) + "\n").encode())


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: wrap the kernels the engine's
    tasks call, in this worker process. Task functions arrive pickled with
    references to the modules that DEFINE these kernels, so those are
    patched first, then the names ``pipelines.cdc`` bound at import."""
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if not span_dir:
        return
    import pyarrow.parquet as pq

    from etl_framework_ray.functions import hashing
    from etl_framework_ray.stages import lww
    from etl_framework_ray.state import schema, zonemap

    spans = _WorkerSpans(span_dir)
    kernels = (
        (schema, "normalize_table", "normalize"),
        (lww, "lww_survivor_indices", "combiner"),
        (lww, "lww_reduce", "lww"),
        (hashing, "salted_partition_ids", "route"),
        (zonemap, "table_stats", "zone_stats"),
        (pq, "read_table", "read"),
        (pq, "write_table", "write"),
    )
    for module, attr, kernel in kernels:
        spans.wrap(module, attr, kernel)
    from etl_framework_ray.pipelines import cdc

    for module, attr, _kernel in kernels[:4]:
        setattr(cdc, attr, getattr(module, attr))
    spans.wrap(cdc, "_fold_epoch_patches", "patch_fold")
    spans.wrap(cdc, "_write_merged_stream", "compact")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[tuple]) -> dict[str, list[float]]:
    """``{name: [calls, total_s, self_s]}`` for spans of ONE thread or
    process, given as ``(name, start, end, depth, ...)``."""
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    child: dict[int, float] = defaultdict(float)
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], spans[i][3]))
    stack: list[int] = []
    for i in order:
        name, start, end, depth = spans[i][:4]
        while stack and spans[stack[-1]][3] >= depth:
            stack.pop()
        if stack:
            child[stack[-1]] += end - start
        stack.append(i)
    for i, s in enumerate(spans):
        rec = out[s[0]]
        rec[0] += 1
        rec[1] += s[2] - s[1]
        rec[2] += s[2] - s[1] - child[i]
    return out


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _task_kind(name: str) -> str | None:
    # Ray Data operator tasks all carry one generic name: they are told
    # apart by the driver span they run under (scan or view advance)
    for fn, layer in (
        ("_prep_segment_task", "map"),
        ("_apply_pid_task", "reduce"),
        ("_touched_hashes_task", "view"),
        ("_map_task", "data"),
    ):
        if fn in name:
            return layer
    return None


def timeline_tasks(timeline: list, windows: list[tuple[float, float]]) -> dict:
    """Task spans from ``ray.timeline()`` that start inside ``windows``:
    per kind, each task's ``(start, end, fetch_s, store_s)``, plus every
    ``task:execute`` interval (for pool occupancy)."""
    def within(t):
        return any(lo <= t <= hi for lo, hi in windows)

    by_tid: dict[str, list] = defaultdict(list)
    tasks: dict[str, list] = defaultdict(list)
    execute = []
    for ev in timeline:
        if ev.get("ph") != "X":
            continue
        s = ev["ts"] / 1e6
        e = s + ev["dur"] / 1e6
        if not within(s):
            continue
        name = ev.get("name", "")
        if name == "task:execute":
            execute.append((s, e))
        if name.startswith("task:"):
            by_tid[ev["tid"]].append((name, s, e))
            continue
        kind = _task_kind(name)
        if kind is not None:
            tasks[kind].append([s, e, 0.0, 0.0, ev["tid"]])
    for rows in tasks.values():
        for row in rows:
            for name, s, e in by_tid[row[4]]:
                if row[0] - 1e-4 <= s and e <= row[1] + 1e-4:
                    if name == "task:deserialize_arguments":
                        row[2] += e - s
                    elif name == "task:store_outputs":
                        row[3] += e - s
    return {"tasks": tasks, "execute": execute}


def _sum_self(layers: dict, *names: str) -> float:
    return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)


def layer_metrics(
    tracer: Tracer, timeline: list, windows: list[tuple[float, float]], num_cpus: int
) -> tuple[dict, dict]:
    """Per-layer metrics and the ``layers`` self-time block for the traced
    ``windows`` of a run."""
    per_thread: dict[int, list] = defaultdict(list)
    for s in tracer.spans:
        if not s[0].startswith("bench."):
            per_thread[s[4]].append(s)
    layers: dict[str, dict] = {}

    def add(stats):
        for name, (calls, total, self_s) in stats.items():
            rec = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += calls
            rec["total_s"] += total
            rec["self_s"] += self_s

    for spans in per_thread.values():
        add(self_times(spans))
    workers = tracer.worker_spans()
    for spans in workers.values():
        add(self_times([s for s in spans if any(lo <= s[1] <= hi for lo, hi in windows)]))
    tl = timeline_tasks(timeline, windows)
    tasks = tl["tasks"]
    for kind, rows in tasks.items():
        add({f"{kind}.task": [len(rows), sum(r[1] - r[0] for r in rows), sum(r[1] - r[0] for r in rows)]})

    def durs(kind):
        return [r[1] - r[0] for r in tasks.get(kind, [])]

    def spans_named(*names):
        return [s for s in tracer.spans if s[0] in names]

    scans = [(s[1], s[2]) for s in spans_named("read.scan", "read.pruned_scan")]
    scan_tasks = [r[1] - r[0] for r in tasks.get("data", []) if any(a <= r[0] <= b for a, b in scans)]

    wall = sum(hi - lo for lo, hi in windows)
    busy = sum(_union(tl["execute"], lo, hi) for lo, hi in windows)
    driver_iv = [(s[1], s[2]) for s in tracer.spans if not s[0].startswith("bench.")]
    covered = sum(_union(tl["execute"] + driver_iv, lo, hi) for lo, hi in windows)
    exec_total = sum(min(e, hi) - max(s, lo) for s, e in tl["execute"] for lo, hi in windows if e > lo and s < hi)

    # per-epoch reduce straggling: group reduce tasks by the apply_epoch
    # span they ran in
    stragglers = []
    for _n, s0, s1, *_ in spans_named("commit.apply_epoch"):
        d = [r[1] - r[0] for r in tasks.get("reduce", []) if s0 <= r[0] <= s1]
        if len(d) >= 2 and _p50(d) > 0:
            stragglers.append(max(d) / _p50(d))

    epochs = tracer.samples["commit.epochs"]
    lineage = _lineage_rows(epochs)
    events = sum(e["events"] for e in epochs)
    sent = sum(r["events_applied"] for r in lineage)
    written = sum(r["bytes_written"] for r in lineage)
    in_bytes = sum(e["input_bytes"] for e in epochs)
    skews = []
    for _key, rows in _group(lineage, lambda r: (r["table_dir"], r["epoch_id"])).items():
        ev = [r["events_applied"] for r in rows]
        if len(ev) >= 2 and _p50(ev) > 0:
            skews.append(max(ev) / _p50(ev))
    advances = [a for a in tracer.samples["view.advances"] if a.get("touched_partitions")]
    lookups = len(spans_named("read.lookup"))
    considered = tracer.counts["read.files_considered"]

    m = {
        "sources.list_s": layers.get("sources.list", {}).get("total_s", 0.0),
        "sources.backlog_max_segments": max(tracer.samples["sources.backlog_segments"], default=0),
        "schema.plan_s": layers.get("schema.plan", {}).get("total_s", 0.0),
        "schema.changes": tracer.counts["schema.changes"],
        "map.tasks": len(durs("map")),
        "map.task_s_p50": _p50(durs("map")),
        "map.task_s_sum": sum(durs("map")),
        "map.store_outputs_s": sum(r[3] for r in tasks.get("map", [])),
        "map.read_s": _sum_self(layers, "map.read"),
        "map.normalize_s": _sum_self(layers, "map.normalize"),
        "map.combiner_s": _sum_self(layers, "map.combiner"),
        "map.route_s": _sum_self(layers, "map.route"),
        "map.combiner_keep_frac": sent / events if events else 0.0,
        "map.tasks_per_segment": (
            tracer.counts["map.segments_submitted"] / tracer.counts["map.segments_committed"]
            if tracer.counts["map.segments_committed"]
            else 0.0
        ),
        "exchange.fetch_s": sum(r[2] for r in tasks.get("reduce", [])),
        "exchange.refs_per_epoch": _p50(tracer.samples["exchange.refs"]),
        "exchange.skew_events_max_over_median": _p50(skews),
        "reduce.tasks": len(durs("reduce")),
        "reduce.task_s_p50": _p50(durs("reduce")),
        "reduce.task_s_sum": sum(durs("reduce")),
        "reduce.straggler_max_over_median": _p50(stragglers),
        "reduce.lww_s": _sum_self(layers, "reduce.lww", "reduce.patch_fold"),
        "reduce.write_s": _sum_self(layers, "reduce.write", "reduce.compact"),
        "reduce.zone_stats_s": _sum_self(layers, "reduce.zone_stats"),
        "reduce.compactions": layers.get("reduce.compact", {}).get("calls", 0),
        "reduce.bytes_written": written,
        "reduce.write_amp": written / in_bytes if in_bytes else 0.0,
        "reduce.patches_discarded": sum(int(e["patches_discarded"] or 0) for e in epochs),
        "commit.apply_epoch_s_p50": _p50([s[2] - s[1] for s in spans_named("commit.apply_epoch")]),
        "commit.lineage_s": layers.get("commit.lineage", {}).get("total_s", 0.0),
        "commit.manifest_s": layers.get("commit.manifest", {}).get("total_s", 0.0),
        "commit.manifest_bytes": _p50(tracer.samples["commit.manifest_bytes"]),
        "commit.vacuum_s": layers.get("commit.vacuum", {}).get("total_s", 0.0),
        "commit.conflicts": tracer.counts["commit.manifest.errors"],
        "pool.busy_frac": exec_total / (num_cpus * wall) if wall else 0.0,
        "pool.bubble_s": wall - busy,
        "view.advance_s_p50": _p50([s[2] - s[1] for s in spans_named("view.advance")]),
        "view.touched_partitions_mean": (
            statistics.fmean(a["touched_partitions"] for a in advances) if advances else 0.0
        ),
        "view.rows_written": sum(a["rows_written"] for a in advances),
        "read.files_considered_per_lookup": considered / lookups if lookups else 0.0,
        "read.files_opened_per_lookup": tracer.counts["read.files_opened"] / lookups if lookups else 0.0,
        "read.zone_skip_frac": (
            1 - tracer.counts["read.files_opened"] / considered if considered else 0.0
        ),
        "read.lww_s": layers.get("read.lww", {}).get("total_s", 0.0),
        "read.scan_task_s_p50": _p50(scan_tasks),
        "trace.unattributed_frac": 1 - covered / wall if wall else 0.0,
    }
    block = {
        k: {"calls": v["calls"], "total_s": round(v["total_s"], 6), "self_s": round(v["self_s"], 6)}
        for k, v in sorted(layers.items())
    }
    return m, block


def _group(rows, key):
    out = defaultdict(list)
    for r in rows:
        out[key(r)].append(r)
    return out


def _lineage_rows(epochs: list[dict]) -> list[dict]:
    """The engine's per-partition lineage rows of the traced epochs."""
    import pyarrow.parquet as pq

    from etl_framework_ray.pipelines.metrics import metrics_dir

    rows = []
    for e in epochs:
        path = os.path.join(metrics_dir(e["table_dir"]), f"epoch-{e['epoch_id']:012d}.parquet")
        if os.path.exists(path):
            for r in pq.read_table(path, columns=["events_applied", "bytes_written"]).to_pylist():
                rows.append({**r, "table_dir": e["table_dir"], "epoch_id": e["epoch_id"]})
    return rows
