"""Benchmark self-test: every workload at tiny scale, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run exits 0 with a passing correctness verdict, that its
last line carries exactly the result keys and every metric of
``BENCHMARK.json`` with its unit, that the report and layer lines cover
``perfbench/spec.json``, and that the benchmark fails (non-zero exit, no
result line) in a directory holding only ``BENCHMARK.json`` and
``perfbench/``. Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.03"
SECONDS = "3"


def run(cwd: str, workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as f:
        spec = json.load(f)
    spec_layers = {m["name"]: m for m in spec["per_layer"]}
    for m in bench["per_layer"]:
        check(m["name"] in spec_layers, f"{m['name']} missing from spec.json")
        check(spec_layers[m["name"]]["unit"] == m["unit"], f"{m['name']} unit differs from spec.json")
    check(
        {w["name"] for w in bench["workloads"]} == set(spec["workloads"]),
        "BENCHMARK.json and spec.json name different workloads",
    )

    layer_names: set[str] = set()
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            p = run(ROOT, name, trace)
            check(p.returncode == 0, f"{name} --trace {trace} exited {p.returncode}: {p.stderr[-1500:]}")
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0, f"{name} --trace {trace}: {result}")
            check(result["attempted"] >= 1, f"{name}: nothing attempted")
            got = result["metrics"]
            check(set(got) == {m["name"] for m in wanted}, f"{name} --trace {trace}: metric names differ")
            for m in wanted:
                check(got[m["name"]]["unit"] == m["unit"], f"{name}: unit of {m['name']}")
                check(isinstance(got[m["name"]]["value"], float), f"{name}: value of {m['name']}")
            if trace == 0:
                for m in wanted:
                    check(got[m["name"]]["value"] > 0, f"{name}: {m['name']} is not positive")
                report = json.loads(lines[-2])["report"]
                missing = set(spec["workloads"][name]["report"]) - set(report)
                check(not missing, f"{name}: report lacks {sorted(missing)}")
            else:
                layers = json.loads(lines[-2])["layers"]
                layer_names |= set(layers["metrics"])
                check(layers["self_times"], f"{name}: empty layer self times")
            print(f"ok {name} --trace {trace}", flush=True)
    check(set(spec_layers) <= layer_names, f"traced runs lack {sorted(set(spec_layers) - layer_names)}")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", bench["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0 and '"correct"' not in p.stdout, "runs without the engine")
    print("ok fails without the engine")
    print("selftest passed")


if __name__ == "__main__":
    main()
