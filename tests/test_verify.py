"""Corpus and suite behavior.

The suites themselves are the system under test here, so the checks are
structural: report invariants hold, the same seed reproduces the same
bytes, hand tags match computed verdicts, and a deliberately mistagged
corpus is caught with a witness naming the fixture. Mathematical content
of the individual checkers is covered by the per-module test files.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading

import pytest

from toposkit import verify
from toposkit.errors import (
    ConsistencyError,
    ConstructionRefused,
    ResourceBudgetError,
    StructureError,
    WorkspaceParseError,
)
from toposkit.fincat import validate_category, validate_handle_functor
from toposkit.presheaf import short_key, validate_presheaf
from toposkit.site import validate_site
from toposkit.verify import (
    SUITE_IDS,
    Budget,
    budget_profile,
    corpus_generate,
    fixture_categories,
    fixture_sites,
    negative_controls,
    random_fs_diagram,
    random_presheaf,
    run_theorem_suite,
    suite_all,
)

import random

CORPUS = corpus_generate(0, "small")


# -- corpus construction ----------------------------------------------------


def test_fixture_categories_validate():
    for name, C in fixture_categories().items():
        rep = validate_category(C)
        assert rep.ok, (name, rep.violations)


def test_fixture_sites_validate():
    cats = fixture_categories()
    for name, site in fixture_sites(cats).items():
        assert validate_site(site).ok, name


def test_corpus_members_validate():
    for cname, members in CORPUS.presheaves.items():
        for F in members:
            assert F.base is CORPUS.categories[cname]
            assert validate_presheaf(F).ok, (cname, short_key(F))
    for fx in CORPUS.functors:
        assert validate_handle_functor(fx.functor).ok, fx.name


def test_corpus_roster_is_seed_independent():
    names0 = [fx.name for fx in CORPUS.functors]
    names9 = [fx.name for fx in corpus_generate(9, "small").functors]
    assert names0 == names9
    # tags ride along with the roster
    tags0 = [(fx.exact, fx.site, fx.continuous) for fx in CORPUS.functors]
    tags9 = [(fx.exact, fx.site, fx.continuous) for fx in corpus_generate(9, "small").functors]
    assert tags0 == tags9


def test_corpus_digest_reproducible_and_seed_sensitive():
    assert corpus_generate(0, "small").digest() == CORPUS.digest()
    assert corpus_generate(1, "small").digest() != CORPUS.digest()


def test_corpus_rejects_bounds_above_census_cap():
    big = dataclasses.replace(budget_profile("default"), sample_bound=4)
    with pytest.raises(ResourceBudgetError):
        corpus_generate(0, big)


def test_functor_fixture_sites_exist():
    for fx in CORPUS.functors:
        if fx.site is not None:
            assert fx.site in CORPUS.sites
        assert fx.base in CORPUS.categories
        assert fx.codomain in CORPUS.handles


# -- seeded generators ------------------------------------------------------


def test_random_presheaf_valid_and_reproducible():
    C = fixture_categories()["diamond"]
    ps1 = [random_presheaf(C, random.Random("t:1"), 3) for _ in range(3)]
    ps2 = [random_presheaf(C, random.Random("t:1"), 3) for _ in range(3)]
    for F, G in zip(ps1, ps2):
        assert validate_presheaf(F).ok
        assert F.values == G.values and F.actions == G.actions
        assert all(len(v) <= 3 for v in F.values.values())


def test_random_presheaf_differs_across_streams():
    C = fixture_categories()["diamond"]
    a = [random_presheaf(C, random.Random("s:a"), 3).values for _ in range(4)]
    b = [random_presheaf(C, random.Random("s:b"), 3).values for _ in range(4)]
    assert a != b


def test_random_fs_diagram_endpoints():
    cats = fixture_categories()
    J = cats["chain3"]
    Z = CORPUS.handles["finset"]
    d = random_fs_diagram(J, random.Random("d:0"), bound=2, name="D")
    assert set(d.obs) == set(J.objects)
    for m, f in d.mors.items():
        assert Z.obj_key(Z.source(f)) == Z.obj_key(d.obs[J.src(m)])
        assert Z.obj_key(Z.target(f)) == Z.obj_key(d.obs[J.tgt(m)])


# -- budgets ----------------------------------------------------------------


def test_budget_profiles():
    for name in ("small", "default", "large"):
        b = budget_profile(name)
        assert b.name == name
    assert budget_profile("small").exhaustive_bound < budget_profile("default").exhaustive_bound
    with pytest.raises(StructureError):
        budget_profile("huge")


# -- suite reports ----------------------------------------------------------


@pytest.mark.parametrize("theorem", SUITE_IDS)
def test_suite_passes_on_small_budget(theorem):
    rep = run_theorem_suite(theorem, CORPUS, "small")
    assert rep.verdict == "pass", rep.witnesses[:3]
    assert rep.checks_run > 0
    assert rep.witnesses == []
    assert rep.inputs == CORPUS.digest()


def test_unknown_suite_rejected():
    with pytest.raises(StructureError):
        run_theorem_suite("VIII", CORPUS, "small")


def test_report_dict_shape():
    rep = run_theorem_suite("II", CORPUS, "small").to_dict()
    assert set(rep) == {
        "theorem",
        "statement",
        "inputs",
        "checks_run",
        "verdict",
        "witnesses",
        "budget_notes",
    }
    assert rep["verdict"] in ("pass", "fail")


def test_negative_controls_pass():
    rep = negative_controls(CORPUS)
    assert rep.verdict == "pass"
    assert rep.checks_run >= 5


def test_suite_all_shape_and_order():
    out = suite_all(CORPUS, "small")
    assert [s["theorem"] for s in out["suites"]] == list(SUITE_IDS) + ["controls"]
    assert out["verdict"] == "pass"
    assert out["seed"] == 0
    assert out["budget"] == "small"
    assert out["corpus"] == CORPUS.digest()


def test_suite_all_byte_identical_across_runs():
    a = json.dumps(suite_all(corpus_generate(3, "small"), "small"), sort_keys=True)
    b = json.dumps(suite_all(corpus_generate(3, "small"), "small"), sort_keys=True)
    assert a == b


# -- memo scope --------------------------------------------------------------


def _memos_held(corpus):
    """The extension, right-adjoint and hom memos that hold entries."""
    held = [
        (fx.name, key)
        for fx in corpus.functors
        for key in ("extension", "extension_mor", "hp")
        if fx.functor._memo.get(key)
    ]
    held += [(name, "hom") for name, Z in sorted(corpus.handles.items()) if Z._hom_memo]
    return held


def _run(theorem, corpus):
    if theorem == "controls":
        return negative_controls(corpus)
    return run_theorem_suite(theorem, corpus, "small")


@pytest.mark.parametrize("theorem", SUITE_IDS + ("controls",))
def test_a_run_drops_its_memos_and_a_rerun_reports_the_same(theorem):
    corpus = corpus_generate(1, "small")
    first = _run(theorem, corpus).to_dict()
    assert _memos_held(corpus) == []
    assert _run(theorem, corpus).to_dict() == first
    assert _memos_held(corpus) == []


def test_flat_verdicts_outlive_the_run():
    corpus = corpus_generate(1, "small")
    run_theorem_suite("V", corpus, "small")
    flat = [fx.name for fx in corpus.functors if fx.functor._memo.get("flat")]
    assert "wedge_diamond" in flat and "const_point_diamond" in flat


def _raising(real, corpus, seen):
    """``real``, then a note of the memos held, then an exception."""

    def wrapped(*args, **kwargs):
        real(*args, **kwargs)
        seen.extend(_memos_held(corpus))
        raise RuntimeError("raised mid-run")

    return wrapped


def test_a_suite_that_raises_still_drops_its_memos(monkeypatch):
    corpus = corpus_generate(1, "small")
    seen = []
    monkeypatch.setitem(verify._SUITES, "IV", _raising(verify._SUITES["IV"], corpus, seen))
    with pytest.raises(RuntimeError, match="mid-run"):
        run_theorem_suite("IV", corpus, "small")
    # the run had filled every kind of memo when it raised, and none is left
    assert {key for _, key in seen} == {"extension", "extension_mor", "hp", "hom"}
    assert _memos_held(corpus) == []


def test_controls_that_raise_still_drop_their_memos(monkeypatch):
    corpus = corpus_generate(1, "small")
    seen = []
    monkeypatch.setattr(verify, "is_flat_bounded", _raising(verify.is_flat_bounded, corpus, seen))
    with pytest.raises(RuntimeError, match="mid-run"):
        negative_controls(corpus)
    assert seen and _memos_held(corpus) == []


# -- the runner: units on worker processes --------------------------------


@pytest.mark.parametrize(
    "error",
    [
        ResourceBudgetError("enumerate_presheaves", 7, 3),
        ConstructionRefused("refused", {"shape": "terminal", "factors": ["h_a"]}),
        WorkspaceParseError(4, "category c", "unknown object"),
    ],
)
def test_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)


def _workers(monkeypatch, n):
    monkeypatch.setattr(verify, "_worker_count", lambda units: min(n, units))


def _plant_suite_I_failures(monkeypatch, corpus, names):
    """yoneda_backward rebuilds from the next element on the named bases."""
    planted = {id(corpus.categories[n]) for n in names}
    real = verify.yoneda_backward

    def wrong(C, X, F, e):
        if id(C) in planted:
            vals = F.values[X]
            e = vals[(vals.index(e) + 1) % len(vals)]
        return real(C, X, F, e)

    monkeypatch.setattr(verify, "yoneda_backward", wrong)


def test_suite_I_merges_its_units_as_one_serial_run(monkeypatch):
    corpus = corpus_generate(0, "small")
    budget = budget_profile("small")
    # one base with a few failures, one past the witness cap on its own,
    # and one whose failures all land after the cap
    _plant_suite_I_failures(monkeypatch, corpus, ("one", "parallel", "z2"))
    serial = verify._Recorder()
    for cname in sorted(corpus.categories):
        verify._suite_I(corpus, budget, serial, cname)
    want = serial.finish("I", corpus.digest()).to_dict()
    assert {w["category"] for w in want["witnesses"]} == {"one", "parallel"}
    assert len(want["witnesses"]) == 25
    assert want["budget_notes"][-1] == "witness list capped at 25; 139 more failures"
    for n in (1, 2):
        _workers(monkeypatch, n)
        assert run_theorem_suite("I", corpus, budget).to_dict() == want
        assert multiprocessing.active_children() == []


def test_suite_all_reports_the_same_on_workers_and_leaves_none(monkeypatch):
    reports = []
    for n in (1, 2):
        _workers(monkeypatch, n)
        corpus = corpus_generate(2, "small")
        reports.append(json.dumps(suite_all(corpus, "small")))
        assert multiprocessing.active_children() == []
        # flatness verdicts stay memoized where suite V ran: on the
        # caller's corpus in-process, on the workers otherwise
        assert any(fx.functor._memo.get("flat") for fx in corpus.functors) == (n == 1)
    assert reports[0] == reports[1]


def test_a_budget_refusal_on_a_worker_reaches_the_caller(monkeypatch):
    _workers(monkeypatch, 2)
    real = verify.enumerate_presheaves

    def refusing(C, bound, **kwargs):
        if C.name == "diamond":
            raise ResourceBudgetError(f"census in {os.getpid()}", 7, 3)
        return real(C, bound, **kwargs)

    monkeypatch.setattr(verify, "enumerate_presheaves", refusing)
    with pytest.raises(ResourceBudgetError) as info:
        suite_all(corpus_generate(0, "small"), "small")
    # raised on a worker, with its fields intact
    assert info.value.operation.startswith("census in ")
    assert info.value.operation != f"census in {os.getpid()}"
    assert (info.value.requested, info.value.budget) == (7, 3)
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_instead_of_hanging(monkeypatch):
    _workers(monkeypatch, 2)
    real = verify.enumerate_presheaves
    parent = os.getpid()

    def dying(C, bound, **kwargs):
        if C.name == "diamond" and os.getpid() != parent:
            os._exit(3)
        return real(C, bound, **kwargs)

    monkeypatch.setattr(verify, "enumerate_presheaves", dying)
    with pytest.raises(ChildProcessError):
        run_theorem_suite("I", corpus_generate(0, "small"), "small")
    assert multiprocessing.active_children() == []


def test_the_cli_imports_no_multiprocessing():
    # the pool is imported on its first use, so the CLI's start-up stays lean
    code = "import sys, toposkit.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verify.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def _census_pids(monkeypatch):
    pids = []
    real = verify.enumerate_presheaves
    monkeypatch.setattr(
        verify, "enumerate_presheaves", lambda *a, **k: pids.append(os.getpid()) or real(*a, **k)
    )
    return pids


def test_one_unit_and_threaded_callers_run_in_process(monkeypatch):
    _workers(monkeypatch, 2)
    pids = _census_pids(monkeypatch)
    run_theorem_suite("II", CORPUS, "small")
    assert pids and set(pids) == {os.getpid()}
    del pids[:]
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        run_theorem_suite("I", CORPUS, "small")
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert len(pids) == len(CORPUS.categories) and set(pids) == {os.getpid()}
    # with the thread gone, suite I's census runs on the workers
    del pids[:]
    run_theorem_suite("I", CORPUS, "small")
    assert pids == []


# -- suites catch tampering -------------------------------------------------


def _with_tag(corpus, name, **changes):
    functors = [
        dataclasses.replace(fx, **changes) if fx.name == name else fx
        for fx in corpus.functors
    ]
    return dataclasses.replace(corpus, functors=functors)


def test_suite_V_catches_wrong_exactness_tag():
    bad = _with_tag(CORPUS, "wedge_diamond", exact=True)
    rep = run_theorem_suite("V", bad, "small")
    assert rep.verdict == "fail"
    assert any(w.get("fixture") == "wedge_diamond" for w in rep.witnesses)


def test_suite_VI_catches_wrong_continuity_tag():
    bad = _with_tag(CORPUS, "const_point_diamond", continuous=True)
    rep = run_theorem_suite("VI", bad, "small")
    assert rep.verdict == "fail"
    assert any(w.get("fixture") == "const_point_diamond" for w in rep.witnesses)


def test_suite_VII_catches_wrong_exactness_tag():
    bad = _with_tag(CORPUS, "doubled_stalk", exact=True)
    rep = run_theorem_suite("VII", bad, "small")
    assert rep.verdict == "fail"
    assert any(w.get("fixture") == "doubled_stalk" for w in rep.witnesses)


def test_witness_cap_is_reported():
    functors = [
        dataclasses.replace(fx, exact=(None if fx.exact is None else not fx.exact))
        for fx in CORPUS.functors
    ]
    bad = dataclasses.replace(CORPUS, functors=functors)
    rep = run_theorem_suite("V", bad, "small")
    assert rep.verdict == "fail"
    assert len(rep.witnesses) <= 25


def test_custom_budget_object_accepted():
    tiny = dataclasses.replace(
        budget_profile("small"), presheaf_samples=1, z_samples=1, name="tiny"
    )
    rep = run_theorem_suite("IV", CORPUS, tiny)
    assert rep.verdict == "pass"
