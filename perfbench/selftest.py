"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload shrunk (verify --max-size 3, the 3-edge maps and
size-4 skeletons, large at 20 and 40 edges), untraced and traced, and
asserts that each run is correct and prints every end-to-end and per-layer
metric named in BENCHMARK.json as a finite number with its unit. Then checks
that the benchmark fails, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark itself.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)


def check(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} trace={trace}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: {result['attempted']} attempted, "
                         f"{result['failed']} failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"{workload} trace={trace}: metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"{workload} trace={trace}: {m['name']} = {got}")
    print(f"ok {workload} trace={trace}: {len(metrics)} metrics, "
          f"{result['attempted']} operations")


def check_bare() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "verify", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("without the program the benchmark still printed a result")
    print(f"ok without the program: exit code {proc.returncode}, no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check(spec, workload, trace)
    check_bare()


if __name__ == "__main__":
    main()
