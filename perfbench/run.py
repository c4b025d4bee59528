"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run starts five set-up probes
(interpreter start, import and set-up only), then repeats whole rounds,
each a fresh single-threaded interpreter running ``worker.py`` on the
same inputs, one after another, until ``--seconds`` have passed (at
least two rounds; one pair with tracing).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over
the run: ``setup_s`` (probes and rounds), ``verdict_s``, ``checks_per_s``
and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced rounds
alternate; the metrics are the per-layer ones from the traced rounds, and
``trace.overhead_s``, the traced minus the untraced median ``verdict_s``.
The last traced round's spans go to ``.bench_out/trace-NAME.jsonl.gz``.
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

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_ROUNDS = 2
DEADLINE_S = 170  # a run must end within 180 seconds
OUT_DIR = ".bench_out"


class RoundFailed(Exception):
    pass


def worker(workload: str, seed: int, *, trace: bool = False, setup_only: bool = False,
           size: str = "full", trace_out: str = "", deadline: float = DEADLINE_S) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round did not finish in {deadline:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = [worker(workload, seed, setup_only=True, deadline=left())["setup_s"]
              for _ in range(SETUP_PROBES)]
    t_start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    trace_out = os.path.join(OUT_DIR, f"trace-{workload}.jsonl.gz") if trace else ""
    min_rounds = 1 if trace else MIN_ROUNDS
    while len(plain) < min_rounds or time.monotonic() - t_start < seconds:
        plain.append(worker(workload, seed, deadline=left()))
        if trace:
            traced.append(worker(workload, seed, trace=True, trace_out=trace_out,
                                 deadline=left()))
        print(f"round {len(plain)}: verdict_s {plain[-1]['verdict_s']:.4f}"
              + (f", traced {traced[-1]['verdict_s']:.4f}" if trace else ""), file=sys.stderr)

    rows = plain + traced
    problems = [p for r in rows for p in r["problems"]]
    digests = {r["digest"] for r in rows}
    if len(digests) != 1:
        problems.append(f"rounds on the same inputs gave {len(digests)} different outputs")
    if trace and not all(r["restored"] for r in traced):
        problems.append("tracing did not restore the original functions")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    def med(key: str, rs: list[dict]) -> float:
        return statistics.median(r[key] for r in rs)

    if trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
            for name, unit in tracer.PER_LAYER
        }
        metrics["trace.overhead_s"] = {
            "value": med("verdict_s", traced) - med("verdict_s", plain), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in plain]),
                        "unit": "s"},
            "verdict_s": {"value": med("verdict_s", plain), "unit": "s"},
            "checks_per_s": {
                "value": statistics.median(r["verdicts"] / r["verdict_s"] for r in plain),
                "unit": "1/s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", plain), "unit": "MB"},
        }
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "toposkit", "__init__.py")):
        print("run from the root of a toposkit checkout: src/toposkit is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name:32s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
