"""lambdamaps benchmark: closed loop, one caller, one operation at a time.

    python3 perfbench/run.py --workload {verify,sweep,large,all} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout. Every pass runs in a fresh interpreter
(child.py) against the checkout's ``src``. Untraced (``--trace 0``), passes
repeat while another one fits in ``--seconds``, and set-up alone is run
again until there are enough samples; the last stdout line is a JSON
object with the end-to-end metrics (medians over passes). Traced
(``--trace 1``), one untraced and one traced pass give the per-layer
metrics. ``--tiny`` shrinks every workload for the self-test. Spans and
failure lists go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("verify", "sweep", "large")
# Set-up is sampled at least SETUP_SAMPLES times and for SETUP_SECONDS in
# all: a set-up of a fraction of a second is at the mercy of short stalls.
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one child pass; returns its JSON result with `setup_s` added."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(OUT), *extra]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def untraced(args, deadline: float) -> dict:
    passes = []
    while True:
        passes.append(spawn(args, deadline))
        measured = sum(p["run_s"] for p in passes)
        if measured + passes[-1]["run_s"] > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS:
        setups.append(spawn(args, deadline, "--setup-only")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    known = sum(p["known"] for p in passes)
    print(f"{args.workload}: {len(passes)} pass(es), {len(setups)} set-ups, seed {args.seed}, "
          f"recursion limit {passes[0]['recursion_limit']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:12s} {value:14.4f} {UNITS[name]}", file=sys.stderr)
    p99 = [p["op_p99_us"] for p in passes if p["op_p99_us"] is not None]
    print(f"  op_p50_us    {statistics.median(p['op_p50_us'] for p in passes):14.1f} us"
          f"  (diagnostic, not gated; {passes[0]['ops']} completed ops per pass)\n"
          f"  op_p99_us    {statistics.median(p99) if p99 else math.nan:14.1f} us"
          f"  (diagnostic, not gated)", file=sys.stderr)
    print(f"  failed_frac  {failed / attempted:14.6f} ratio ({failed} of {attempted}; "
          f"{known} known seed defects)", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def traced(args, deadline: float) -> dict:
    plain = spawn(args, deadline)
    result = spawn(args, deadline, "--trace")
    layer = result["per_layer"]
    layer["trace.overhead"] = result["run_s"] / plain["run_s"] - 1
    for name in sorted(layer, key=lambda k: (k.split(".")[0], k)):
        print(f"  {name:48s} {layer[name]:14.6f}", file=sys.stderr)
    metrics = {}
    for name, value in layer.items():
        if name.endswith((".calls", ".errors")):
            unit = "count"
        elif name.endswith("_s"):
            unit = "s"
        else:
            unit = "ratio"
        metrics[name] = {"value": value, "unit": unit}
    failed = plain["failed"] + result["failed"]
    return {"correct": failed == 0, "attempted": plain["attempted"] + result["attempted"],
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "lambdamaps").is_dir():
        print(f"no lambdamaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            deadline = time.monotonic() + DEADLINE_S
            results[name] = (traced if args.trace else untraced)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results.values():
        for name, m in result["metrics"].items():
            if not math.isfinite(m["value"]):
                print(f"benchmark failed: {name} is not finite", file=sys.stderr)
                return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
