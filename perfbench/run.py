"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Prints context lines (run context, the
per-workload report, and with ``--trace 1`` the layer self times), then
one JSON result line: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. Everything the
run writes stays under the checkout (``.perfbench_work``, the input cache
``.perfbench_cache`` and the Ray session directory ``.pbray``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

#: AF_UNIX socket paths are capped at 107 bytes; Ray's session adds ~64
_MAX_RAY_TMP = 42


class Session:
    """Paths, input cache, Ray session and tracer of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: float):
        from perfbench.trace import Tracer

        self.workload, self.seed, self.seconds, self.trace, self.scale = (
            workload, seed, seconds, trace, scale,
        )
        base = os.path.join(ROOT, ".perfbench_work")
        self.work = os.path.join(base, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.cache = os.path.join(ROOT, ".perfbench_cache")
        self.trace_path = os.path.join(base, f"trace-{workload}-seed{seed}.json")
        self.tracer = Tracer(os.path.join(self.work, "spans"))
        self.num_cpus = 0
        self._n = 0
        self._ray_tmp: str | None = None
        self._old_sessions: set[str] = set()

    def fresh(self, name: str) -> str:
        """A new, not yet existing path under this run's work directory."""
        self._n += 1
        return os.path.join(self.work, f"{name}-{self._n}")

    def input(self, kind: str, params: dict) -> str:
        from perfbench.inputs import cached

        return cached(ROOT, self.cache, kind, {**params, "seed": self.seed})

    def start_ray(self, num_cpus: int) -> None:
        import logging

        import ray
        from ray.data import DataContext

        from perfbench.trace import SPAN_DIR_ENV

        tmp = os.path.join(ROOT, ".pbray")
        kw = {"_temp_dir": tmp} if len(tmp) <= _MAX_RAY_TMP else {}
        self._ray_tmp = tmp if kw else None
        self._old_sessions = self._sessions()
        runtime_env = None
        if self.trace:
            runtime_env = {
                "worker_process_setup_hook": "perfbench.trace.worker_setup",
                "env_vars": {SPAN_DIR_ENV: self.tracer.span_dir},
            }
        ray.init(
            address="local",
            num_cpus=num_cpus,
            object_store_memory=1_000_000_000,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            runtime_env=runtime_env,
            **kw,
        )
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        self.num_cpus = num_cpus
        os.sync()  # inputs were just written; keep their writeback out of set-up

    def _sessions(self) -> set[str]:
        if self._ray_tmp is None or not os.path.isdir(self._ray_tmp):
            return set()
        return {n for n in os.listdir(self._ray_tmp) if n.startswith("session_2")}

    def stop_ray(self) -> None:
        """Stop the session and delete the session directory it created."""
        import ray

        if ray.is_initialized():
            ray.shutdown()
        for name in self._sessions() - self._old_sessions:
            shutil.rmtree(os.path.join(self._ray_tmp, name), ignore_errors=True)

    def close(self) -> None:
        self.stop_ray()
        self.tracer.uninstall()
        shutil.rmtree(self.work, ignore_errors=True)


def _memcpy_gbps() -> float:
    """Ambient memory bandwidth: best of 5 copies of a 64 MiB buffer."""
    import numpy as np

    a = np.ones(8 << 20)
    b = np.empty_like(a)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(b, a)
        best = min(best, time.perf_counter() - t0)
    return round(a.nbytes / best / 1e9, 2)


def _ambient() -> dict:
    return {"memcpy_gbps": _memcpy_gbps(), "load1": round(os.getloadavg()[0], 2)}


def _static_context() -> dict:
    import pyarrow
    import ray

    nproc = None
    if shutil.which("nproc"):
        out = subprocess.run(["nproc"], capture_output=True, text=True)
        nproc = int(out.stdout.strip()) if out.returncode == 0 else None
    return {
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "affinity_cores": len(os.sched_getaffinity(0)),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
    }


def _load_spec() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as f:
        spec = json.load(f)
    return bench, spec


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor (self-test only)")
    args = ap.parse_args(argv)

    bench, spec = _load_spec()
    # the engine under test is the checkout's own source, never an installed copy
    import etl_framework_ray

    if not os.path.abspath(etl_framework_ray.__file__).startswith(ROOT + os.sep):
        sys.exit(f"etl_framework_ray is not in this checkout ({ROOT})")

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")

    context = {"start": _ambient(), **_static_context()}
    s = Session(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    try:
        if s.trace:
            s.tracer.install()
        out = WORKLOADS[args.workload](s)
    finally:
        s.close()
    context["end"] = _ambient()
    context["session"] = spec["session"]

    print(json.dumps({"context": context}))
    print(json.dumps({"report": {
        k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in out["report"].items()
    }}))
    if s.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(json.dumps({"layers": {
            "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in out["per_layer"].items()},
            "self_times": out["layers"],
        }}))
        values, wanted = out["per_layer"], bench["per_layer"]
    else:
        values, wanted = out["e2e"], bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
