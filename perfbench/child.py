"""One pass of one workload in a fresh interpreter: set-up, then the timed
phase. Prints one JSON line on stdout; tables and failures go to stderr.

Started by run.py, with the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import lambdamaps
    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(lambdamaps.__file__).resolve().parent.parent != src:
        print(f"lambdamaps imported from {lambdamaps.__file__}, not {src}", file=sys.stderr)
        return 1

    recorder = None
    if args.trace:
        import spans
        recorder = spans.install()
    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, args.tiny)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tally = workloads.Tally(args.workload, recorder)
    t0 = time.perf_counter()
    run(state, tally)
    run_s = time.perf_counter() - t0
    if recorder is not None:
        recorder.close()
    result = {
        "ready": ready,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "known": tally.known,
        "ops": len(tally.op_times),
        "op_p50_us": statistics.median(tally.op_times) * 1e6 if tally.op_times else 0.0,
        # p99 only with at least ten samples above it
        "op_p99_us": (statistics.quantiles(tally.op_times, n=100)[98] * 1e6
                      if len(tally.op_times) >= 1000 else None),
        "recursion_limit": sys.getrecursionlimit(),
    }
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if tally.rows:
        lines = [f"{'shape':8s} {'edges':>6s} {'operation':15s} {'seconds':>9s}  status"]
        lines += [f"{s:8s} {n:6d} {op:15s} {dt:9.4f}  {st}" for s, n, op, dt, st in tally.rows]
        print("\n".join(lines), file=sys.stderr)
    if tally.records:
        path = out / f"{tag}-outcomes.txt"
        path.write_text("\n".join(tally.records) + "\n")
        for rec in tally.records:
            head = rec.splitlines()[0]
            print(head[:200], file=sys.stderr)
        print(f"inputs and commands of these outcomes: {path}", file=sys.stderr)
    if recorder is not None:
        metrics, table = recorder.metrics(tally.labels)
        if table:
            print("\n".join(table), file=sys.stderr)
        recorder.write(out / f"{tag}-spans.tsv.gz")
        result["per_layer"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
