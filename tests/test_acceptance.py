"""Release gate: eight criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Time limits are part of the criteria and asserted; every
quantifier below is exhaustive or seeded, never spot-checked.
"""

import hashlib
import random
import subprocess
import sys
import time

import pytest

from toposkit.fincat import HandleDiagram, discrete_category, parallel_pair_category
from toposkit.presheaf import (
    PresheafCategory,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    finset_obj,
    is_presheaf_iso,
)
from toposkit.kan import adjunction_phi, right_adjoint_hp, tilde_extend
from toposkit.site import (
    is_sheaf,
    is_sheaf_coverform,
    sheafification_limit_comparison,
    sheafify,
)
from toposkit.verify import corpus_generate, random_presheaf, run_theorem_suite

SEED = 0


@pytest.fixture(scope="module")
def corpus():
    return corpus_generate(SEED, "default")


def _verdict(num: int, t0: float, detail: str) -> float:
    dt = time.monotonic() - t0
    print(f"criterion {num}: PASS ({dt:.1f}s) {detail}")
    return dt


def test_criterion_1_representable_hom_counts(corpus):
    assert len(corpus.categories) >= 8
    assert all(len(C.objects) <= 4 for C in corpus.categories.values())
    t0 = time.monotonic()
    rep = run_theorem_suite("I", corpus, "default")
    assert rep.verdict == "pass", rep.witnesses[:3]
    assert rep.checks_run > 1_000_000  # exhaustive over bound-3 presheaves
    dt = _verdict(1, t0, f"{rep.checks_run} checks, {len(corpus.categories)} categories")
    assert dt < 60


def test_criterion_2_density_comparison(corpus):
    t0 = time.monotonic()
    rep = run_theorem_suite("II", corpus, "default")
    assert rep.verdict == "pass", rep.witnesses[:3]
    assert rep.checks_run > 0
    dt = _verdict(2, t0, f"{rep.checks_run} checks")
    assert dt < 60


def test_criterion_3_extension_and_adjunction(corpus):
    t0 = time.monotonic()
    rep3 = run_theorem_suite("III", corpus, "default")
    rep4 = run_theorem_suite("IV", corpus, "default")
    assert rep3.verdict == "pass", rep3.witnesses[:3]
    assert rep4.verdict == "pass", rep4.witnesses[:3]
    # unit isos were exercised against both codomain flavours
    assert {f.codomain for f in corpus.functors} >= {"finset", "psh_arrow"}

    # the currying pin, recomputed here rather than trusted from the suite
    p = next(f for f in corpus.functors if f.name == "two_point_stalk").functor
    FSH = corpus.handles["finset"]
    S = constant_presheaf(corpus.categories["one"], ["s0", "s1"], name="S")
    z = finset_obj(["z0", "z1"], name="Z")
    homs = FSH.hom(tilde_extend(p, S).obj, z)
    nats = enumerate_presheaf_morphisms(S, right_adjoint_hp(p, z))
    assert len(homs) == 16 and len(nats) == 16
    phi = adjunction_phi(p, S, z)
    assert len({FSH.mor_key(phi.backward(t)) for t in nats}) == 16

    dt = _verdict(3, t0, f"{rep3.checks_run + rep4.checks_run} checks, currying 16=16")
    assert dt < 180


def test_criterion_4_sheaf_machinery_exhaustive(corpus):
    t0 = time.monotonic()
    totals = {}
    for site_name in ("two_point_discrete", "sierpinski"):
        site = corpus.sites[site_name]
        sheaves = non_sheaves = 0
        for F in PresheafCategory(site.base, 3).objects():
            first = is_sheaf(F, site).ok
            assert is_sheaf_coverform(F, site).ok == first, (site_name, F.name)
            res = sheafify(F, site)
            assert is_sheaf(res.sheaf, site).ok, (site_name, F.name)
            assert is_presheaf_iso(res.unit) == first, (site_name, F.name)
            assert is_presheaf_iso(sheafify(res.sheaf, site).unit), (site_name, F.name)
            sheaves += first
            non_sheaves += not first
        assert sheaves and non_sheaves  # both classes must actually occur
        totals[site_name] = sheaves + non_sheaves
    assert totals["two_point_discrete"] > 70_000
    assert totals["sierpinski"] > 1_500
    dt = _verdict(4, t0, f"{sum(totals.values())} presheaves across 2 sites")
    assert dt < 180


def test_criterion_5_sheafification_left_exact(corpus):
    t0 = time.monotonic()
    per_site = 0
    for site_name in ("two_point_discrete", "sierpinski"):
        site = corpus.sites[site_name]
        rng = random.Random(f"acceptance:5:{site_name}")
        seeded = 0

        # terminal: the one-point presheaf is its own sheafification
        one = constant_presheaf(site.base, ["*"], name="1")
        assert is_presheaf_iso(sheafify(one, site).unit)

        pair_index = discrete_category("pair2", ["1", "2"])
        for i in range(25):
            F = random_presheaf(site.base, rng, 2, name=f"p{i}F")
            G = random_presheaf(site.base, rng, 2, name=f"p{i}G")
            D = HandleDiagram(pair_index, {"1": F, "2": G}, {})
            assert is_presheaf_iso(sheafification_limit_comparison(site, D)), (
                site_name,
                "binary-product",
                i,
            )
            seeded += 1

        for i in range(25):
            F = random_presheaf(site.base, rng, 2, name=f"e{i}F")
            G = random_presheaf(site.base, rng, 2, name=f"e{i}G")
            nats = enumerate_presheaf_morphisms(F, G)
            if not nats:
                G = F  # identities give the degenerate but still valid pair
                nats = enumerate_presheaf_morphisms(F, G)
            u = nats[rng.randrange(len(nats))]
            v = nats[rng.randrange(len(nats))]
            D = HandleDiagram(parallel_pair_category(), {"a": F, "b": G}, {"u": u, "v": v})
            assert is_presheaf_iso(sheafification_limit_comparison(site, D)), (
                site_name,
                "equalizer",
                i,
            )
            seeded += 1

        assert seeded >= 50
        per_site = seeded
    _verdict(5, t0, f"{per_site} seeded instances per site, 3 limit shapes")


def test_criterion_6_flat_continuous_classification(corpus):
    tagged = {(f.exact, f.continuous) for f in corpus.functors}
    assert (True, True) in tagged  # a flat continuous fixture exists
    assert (True, False) in tagged  # and a flat non-continuous control
    t0 = time.monotonic()
    rep = run_theorem_suite("VI", corpus, "default")
    assert rep.verdict == "pass", rep.witnesses[:3]
    assert rep.checks_run > 0
    dt = _verdict(6, t0, f"{rep.checks_run} checks")
    assert dt < 300


def test_criterion_7_exactness_and_cofilteredness(corpus):
    assert any(f.exact is False for f in corpus.functors)
    t0 = time.monotonic()
    rep = run_theorem_suite("VII", corpus, "default")
    assert rep.verdict == "pass", rep.witnesses[:3]
    assert rep.checks_run > 0
    dt = _verdict(7, t0, f"{rep.checks_run} checks")
    assert dt < 300


def test_criterion_8_byte_identical_reports():
    t0 = time.monotonic()
    argv = [
        sys.executable,
        "-m",
        "toposkit.cli",
        "suite",
        "all",
        "--seed",
        "0",
        "--report",
        "json",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()[:500]
    assert second.returncode == 0, second.stderr.decode()[:500]
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty, so the comparison means something
    # the report itself is pinned (3 068 bytes), so a change to any verdict,
    # count, witness or note fails here and not only between two runs
    assert hashlib.sha256(first.stdout).hexdigest() == (
        "92e5ad49327b58ae8aaccc5201b266392fefe204efa2d20dcf828bd3278549f2"
    )
    _verdict(8, t0, f"{len(first.stdout)} bytes, two runs")
