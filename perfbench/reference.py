"""Reference figures: ten runs per workload, medians and quartiles.

    python3 perfbench/reference.py [--workloads a,b] [--seeds 1-10] [--seconds 30] [--trace]

Run from the root of a checkout.  For each workload it runs
``run.py`` once per seed, one run after another, and prints each
end-to-end metric's median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile
spread as a share of the median.  With ``--trace`` it makes one traced
run per workload instead, on the first seed, and prints its per-layer
metrics.  Raw results go to ``.bench_out/reference-NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def one_run(workload: str, seed: int, seconds: str, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for w in args.workloads.split(","):
        results = []
        for seed in seeds[:1] if args.trace else seeds:
            t = time.monotonic()
            r = one_run(w, seed, args.seconds, args.trace)
            results.append({"seed": seed, "wall_s": time.monotonic() - t, **r})
            print(f"{w} seed {seed}: {time.monotonic() - t:.1f} s, correct {r['correct']}, "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
        suffix = "-trace" if args.trace else ""
        with open(os.path.join(run.OUT_DIR, f"reference-{w}{suffix}.json"), "w") as fh:
            json.dump(results, fh, indent=1)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) < 2:
                print(f"  {w:17s} {name:28s} {med:14.6g} {unit}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {w:17s} {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:.3f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
