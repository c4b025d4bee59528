"""Quick self-test of the benchmark, about ten seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks the closed-form oracles
against the census sizes they stand for, the self-time arithmetic on a
synthetic nest of spans, that tracing restores every function it wraps,
and that each workload passes all of its checks at a tiny size, traced
and untraced, with identical outputs both ways.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def test_oracles() -> None:
    census = {"arrow": 60, "chain3": 1678, "chain4": 50018, "diamond": 74112, "discrete2": 16,
              "one": 4, "parallel": 910, "span": 1842, "z2": 8}
    got = {name: oracles.census_size(name, 3) for name in census}
    expect(got == census, f"census sizes at bound 3: {got}")
    expect(oracles.suite_I_checks(3) == 3_313_410, "suite I makes 3 313 410 checks at bound 3")
    expect(oracles.sierpinski_sheaves(3) == 60, "60 sheaves on sierpinski at bound 3")
    expect(oracles.two_point_sheaves(3) == 24, "24 sheaves on two_point_discrete at bound 3")
    expect([oracles.involutions(n) for n in range(5)] == [1, 1, 2, 4, 10], "involution counts")


def test_self_time() -> None:
    # name, start, end, parent; one name per span, so totals per name are
    # the spans' own self times
    spans = [
        ("A", 0.0, 10.0, -1),   # children B, C cover 3 + 4
        ("B", 1.0, 4.0, 0),     # child D covers 1
        ("D", 2.0, 3.0, 1),
        ("C", 5.0, 9.0, 0),     # children E, F overlap: their union is 5 .. 8.5
        ("E", 5.0, 6.5, 3),
        ("F", 6.0, 8.5, 3),
        ("G", 11.0, 12.0, -1),  # child H runs past G's end and is clipped
        ("H", 11.5, 12.5, 6),
    ]
    names = [s[0] for s in spans]
    own, incl, count = tracer.span_times(
        names, list(range(len(spans))), [s[3] for s in spans],
        [s[1] for s in spans], [s[2] for s in spans],
    )
    want = {"A": 3.0, "B": 2.0, "D": 1.0, "C": 0.5, "E": 1.5, "F": 2.5, "G": 0.5, "H": 1.0}
    expect(all(math.isclose(own[n], want[n]) for n in want), f"self times {own}")
    expect(incl["A"] == 10.0 and count == {n: 1 for n in names}, "durations and span counts")

    # the hom memo's misses are searches made from inside a memo lookup
    names = ["presheaf.hom_memo", "presheaf.hom", "presheaf.keys"]
    m = tracer.layer_metrics(names, [0, 1, 0, 2, 1], [-1, 0, -1, 2, -1],
                             [0.0, 1.0, 3.0, 3.5, 5.0], [2.0, 1.5, 4.0, 3.6, 6.0], {})
    expect(m["presheaf.hom_memo.lookups"] == 2 and m["presheaf.hom_memo.misses"] == 1
           and m["presheaf.hom.calls"] == 2 and m["presheaf.keys.calls"] == 1,
           "memo lookups, misses and calls")


def test_restore() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from toposkit import kan, presheaf, site, verify

    before = (site.is_sheaf, verify.is_sheaf, kan.is_sheaf, presheaf.PresheafCategory.hom,
              verify.run_theorem_suite)
    tr = tracer.Tracer()
    tr.install()
    wrapped = verify.is_sheaf is not before[1] and site.is_sheaf is verify.is_sheaf
    C = verify.fixture_categories()["arrow"]
    F = verify.yoneda_embed(C, "t")
    presheaf.presheaf_category(C, 2).hom(F, F)
    restored = tr.uninstall()
    after = (site.is_sheaf, verify.is_sheaf, kan.is_sheaf, presheaf.PresheafCategory.hom,
             verify.run_theorem_suite)
    expect(wrapped, "every binding of is_sheaf is wrapped")
    expect(restored and all(a is b for a, b in zip(before, after)),
           "uninstall restores every original")
    m = tr.metrics()
    expect(m["presheaf.hom_memo.misses"] == 1 and m["presheaf.hom.calls"] == 1,
           "a memo miss is recorded under its lookup")


def test_workloads() -> None:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [m["name"] for m in spec["per_layer"]]
    expect(listed == [n for n, _ in tracer.PER_LAYER] + ["trace.overhead_s"],
           "BENCHMARK.json lists the tracer's per-layer metrics")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        t = time.perf_counter()
        plain = run.worker(name, 7, size="tiny")
        traced = run.worker(name, 7, size="tiny", trace=True,
                            trace_out=os.path.join(run.OUT_DIR, f"selftest-{name}.jsonl.gz"))
        expect(not plain["problems"] and not traced["problems"] and plain["failed"] == 0,
               f"{name}: tiny run passes its checks {plain['problems'] + traced['problems']}")
        expect(plain["digest"] == traced["digest"], f"{name}: tracing leaves outputs identical")
        expect(traced["restored"] and set(traced["layers"]) == {n for n, _ in tracer.PER_LAYER},
               f"{name}: traced run restores functions and reports every layer")
        print(f"      {name}: {time.perf_counter() - t:.1f} s, {traced['spans']} spans")


def main() -> int:
    if not os.path.isfile(os.path.join("src", "toposkit", "__init__.py")):
        print("run from the root of a toposkit checkout", file=sys.stderr)
        return 2
    test_oracles()
    test_self_time()
    test_restore()
    test_workloads()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
