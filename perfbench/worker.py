"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--size full|tiny]
        [--trace 0|1] [--t0 T] [--setup-only] [--trace-out PATH]

Run from the root of a checkout; toposkit is imported from its ``src``.
``--t0`` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so ``setup_s`` covers interpreter start, the
import and the workload's set-up.  The last line of standard output is
one JSON object with the round's measurements and check results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    t0 = time.monotonic() if args.t0 is None else args.t0

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import toposkit

    if not os.path.abspath(toposkit.__file__).startswith(src + os.sep):
        print(f"toposkit imported from {toposkit.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracer
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, args.size)
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    w.setup()
    setup_s = time.monotonic() - t0
    if args.setup_only:
        if tr:
            tr.uninstall()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    w.run()
    verdict_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    row = {}
    if tr:
        patched = tr.patched
        restored = tr.uninstall()
        row["layers"] = tr.metrics()
        row["spans"] = len(tr.start)
        row["restored"] = restored and patched > 0
        if args.trace_out:
            tr.dump(args.trace_out)
    out = w.check()
    row.update(
        setup_s=setup_s,
        verdict_s=verdict_s,
        peak_rss_mb=peak_rss_mb,
        verdicts=out.verdicts,
        attempted=out.attempted,
        failed=out.failed,
        problems=out.problems,
        digest=out.digest.hexdigest(),
    )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
