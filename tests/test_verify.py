"""Corpus and suite behavior.

The suites themselves are the system under test here, so the checks are
structural: report invariants hold, the same seed reproduces the same
bytes, hand tags match computed verdicts, and a deliberately mistagged
corpus is caught with a witness naming the fixture. Mathematical content
of the individual checkers is covered by the per-module test files.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from toposkit import kan, verify
from toposkit.errors import (
    ConsistencyError,
    ConstructionRefused,
    ResourceBudgetError,
    StructureError,
    WorkspaceParseError,
)
from toposkit.fincat import (
    FinCatHandle,
    HandleDiagram,
    discrete_category,
    make_category,
    parallel_pair_category,
    validate_category,
    validate_handle_functor,
)
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


# sha256 over every fixture's object values and map components, in roster
# order, for seeds 0 and 1 at the small and default budgets: the corpus
# digest holds only names, so a change to any fixture's tables shows here
FIXTURE_TABLES_SHA256 = "6c896fb5f56f7fe0a859426c555b2665f531142de46e697cd0727b474cf9015f"


def test_fixture_tables_are_pinned():
    h = hashlib.sha256()
    for seed in (0, 1):
        for budget in ("small", "default"):
            rows = [
                [
                    fx.name,
                    [[X, dict(p.obj_map[X].values)] for X in sorted(p.dom.objects)],
                    [[m, dict(p.mor_map[m].components)] for m in sorted(p.mor_map)],
                ]
                for fx in corpus_generate(seed, budget).functors
                for p in (fx.functor,)
            ]
            h.update(json.dumps(rows, sort_keys=True).encode())
    assert h.hexdigest() == FIXTURE_TABLES_SHA256


def test_corpus_rejects_bounds_above_census_cap():
    big = dataclasses.replace(budget_profile("default"), sample_bound=4)
    with pytest.raises(ResourceBudgetError):
        corpus_generate(0, big)


def test_functor_fixture_sites_exist():
    site_on = {id(S.base): n for n, S in CORPUS.sites.items()}
    assert len(site_on) == len(CORPUS.sites)  # one site per base
    for fx in CORPUS.functors:
        if fx.site is not None:
            assert fx.site in CORPUS.sites
        assert fx.base in CORPUS.categories
        assert fx.codomain in CORPUS.handles
        # the stated fields agree with the functor and the corpus
        assert fx.name == fx.functor.name
        assert CORPUS.categories[fx.base] is fx.functor.dom
        assert CORPUS.handles[fx.codomain] is fx.functor.cod
        set_valued = fx.functor.cod is CORPUS.handles["finset"]
        assert fx.site == (site_on.get(id(fx.functor.dom)) if set_valued else None), fx.name
        if fx.continuous is not None:
            assert fx.site is not None, fx.name


def test_finitely_complete_bases_are_the_fixtures_with_finite_limits():
    def complete(C):
        H = FinCatHandle(C)
        terminal = HandleDiagram(make_category("empty", ()), {}, {})
        two, pair = discrete_category("two", ["l", "r"]), parallel_pair_category()
        products = [
            HandleDiagram(two, {"l": X, "r": Y}, {}) for X in C.objects for Y in C.objects
        ]
        equalizers = [
            HandleDiagram(pair, {"a": X, "b": Y}, {"u": f, "v": g})
            for X in C.objects
            for Y in C.objects
            for f in C.hom(X, Y)
            for g in C.hom(X, Y)
        ]
        return all(H.try_limit(d) is not None for d in [terminal, *products, *equalizers])

    found = [name for name, C in fixture_categories().items() if complete(C)]
    assert sorted(found) == sorted(verify.FINITELY_COMPLETE_BASES)
    assert sorted(found) == ["arrow", "chain3", "chain4", "diamond", "one"]


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
    # the negative controls are not a suite of their own
    with pytest.raises(StructureError):
        run_theorem_suite("controls", CORPUS, "small")


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


@pytest.mark.usefixtures("serial_workers")
@pytest.mark.parametrize("theorem", SUITE_IDS + ("controls",))
def test_a_run_drops_its_memos_and_a_rerun_reports_the_same(theorem):
    corpus = corpus_generate(1, "small")
    first = _run(theorem, corpus).to_dict()
    assert _memos_held(corpus) == []
    assert _run(theorem, corpus).to_dict() == first
    assert _memos_held(corpus) == []


@pytest.mark.usefixtures("serial_workers")
def test_flat_verdicts_outlive_the_run():
    corpus = corpus_generate(1, "small")
    run_theorem_suite("V", corpus, "small")
    flat = [fx.name for fx in corpus.functors if fx.functor._flat]
    assert "wedge_diamond" in flat and "const_point_diamond" in flat


def test_the_controls_probe_flatness_at_the_run_budget():
    # the controls, like suites V to VII, read the profile's flatness knobs
    corpus = corpus_generate(0, "small")
    suite_all(corpus, "small")
    wedge = next(fx for fx in corpus.functors if fx.name == "wedge_diamond")
    assert list(wedge.functor._flat) == [(6, 10)]


def _raising(real, corpus, seen):
    """``real``, then a note of the memos held, then an exception."""

    def wrapped(*args, **kwargs):
        real(*args, **kwargs)
        seen.extend(_memos_held(corpus))
        raise RuntimeError("raised mid-run")

    return wrapped


def test_a_suite_that_raises_still_drops_its_memos(monkeypatch, serial_workers):
    corpus = corpus_generate(1, "small")
    seen = []
    monkeypatch.setitem(verify._SUITES, "IV", _raising(verify._SUITES["IV"], corpus, seen))
    with pytest.raises(RuntimeError, match="mid-run"):
        run_theorem_suite("IV", corpus, "small")
    # the run had filled every kind of memo when it raised, and none is left
    assert {key for _, key in seen} == {"extension", "extension_mor", "hp", "hom"}
    assert _memos_held(corpus) == []


def test_controls_that_raise_still_drop_their_memos(monkeypatch, serial_workers):
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
    want = _serial_report("I", corpus, budget)
    assert {w["category"] for w in want["witnesses"]} == {"one", "parallel"}
    assert len(want["witnesses"]) == 25
    assert want["budget_notes"][-1] == "witness list capped at 25; 139 more failures"
    for n in (1, 2):
        _workers(monkeypatch, n)
        assert run_theorem_suite("I", corpus, budget).to_dict() == want
        assert multiprocessing.active_children() == []


def test_suite_all_reports_the_same_on_workers_and_leaves_none(monkeypatch):
    reports = []
    threads = threading.active_count()
    for n in (1, 2):
        _workers(monkeypatch, n)
        corpus = corpus_generate(2, "small")
        reports.append(json.dumps(suite_all(corpus, "small")))
        assert multiprocessing.active_children() == []
        # a thread left behind would make every later run serial
        assert threading.active_count() == threads
        assert _memos_held(corpus) == []
    assert reports[0] == reports[1]


def test_a_budget_refusal_on_a_worker_reaches_the_caller(monkeypatch):
    _workers(monkeypatch, 2)
    real = verify.iter_presheaves

    def refusing(C, bound, **kwargs):
        if C.name == "diamond":
            raise ResourceBudgetError(f"census in {os.getpid()}", 7, 3)
        return real(C, bound, **kwargs)

    monkeypatch.setattr(verify, "iter_presheaves", refusing)
    with pytest.raises(ResourceBudgetError) as info:
        suite_all(corpus_generate(0, "small"), "small")
    # raised on a worker, with its fields intact
    assert info.value.operation.startswith("census in ")
    assert info.value.operation != f"census in {os.getpid()}"
    assert (info.value.requested, info.value.budget) == (7, 3)
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_instead_of_hanging(monkeypatch):
    _workers(monkeypatch, 2)
    real = verify.iter_presheaves
    parent = os.getpid()

    def dying(C, bound, **kwargs):
        if C.name == "diamond" and os.getpid() != parent:
            os._exit(3)
        return real(C, bound, **kwargs)

    monkeypatch.setattr(verify, "iter_presheaves", dying)
    threads = threading.active_count()
    with pytest.raises(ChildProcessError):
        run_theorem_suite("I", corpus_generate(0, "small"), "small")
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_the_cli_imports_no_multiprocessing():
    # the pool is imported on its first use, so the CLI's start-up stays lean
    code = (
        "import sys, toposkit.cli; print(sorted(m for m in sys.modules"
        " if 'multiprocessing' in m or m == 'concurrent.futures.process'))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verify.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def _call_pids(monkeypatch, module, name):
    """The process of each call to ``module.name``."""
    pids = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: pids.append(os.getpid()) or real(*a, **k))
    return pids


def test_one_unit_and_threaded_callers_run_in_process(monkeypatch):
    _workers(monkeypatch, 2)
    pids = _call_pids(monkeypatch, verify, "eta_iso")
    run_theorem_suite("III", CORPUS, "small")
    assert len(pids) == len(CORPUS.functors) and set(pids) == {os.getpid()}
    pids = _call_pids(monkeypatch, verify, "iter_presheaves")
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


# -- suites II, IV and V on workers ------------------------------------------


def _serial_report(theorem, corpus, budget):
    """One recorder over every unit of ``theorem``, in order, in-process."""
    rec = verify._Recorder()
    for cname in sorted(corpus.categories):
        verify._SUITES[theorem](corpus, budget, rec, cname)
    return rec.finish(theorem, corpus.digest()).to_dict()


def _reports_on_workers(monkeypatch, theorem, corpus, budget):
    """The reports of ``theorem`` on one worker and on two."""
    reports = []
    for n in (1, 2):
        _workers(monkeypatch, n)
        reports.append(run_theorem_suite(theorem, corpus, budget).to_dict())
        assert multiprocessing.active_children() == []
    return reports


def _functors_by_base(corpus):
    """The names of each base's functors, in roster order, by sorted base."""
    return [
        [fx.name for fx in corpus.functors if fx.base == cname]
        for cname in sorted(corpus.categories)
    ]


@pytest.mark.parametrize("theorem", ["II", "IV", "V"])
@pytest.mark.parametrize("seed, budget", [(s, "small") for s in range(4)] + [(0, "default")])
def test_suites_II_IV_V_report_the_same_on_workers(monkeypatch, theorem, seed, budget):
    reports = [
        _reports_on_workers(monkeypatch, theorem, corpus_generate(seed, budget), budget)
        for _ in range(2)
    ]
    assert reports[0][0] == reports[0][1] == reports[1][1]
    assert reports[0][0]["verdict"] == "pass"


@pytest.mark.parametrize(
    "theorem, probe",
    [("I", "iter_presheaves"), ("II", "density_check"), ("IV", "adjunction_phi"),
     ("V", "is_flat_setvalued")],
)
def test_suites_I_II_IV_V_run_on_the_workers(monkeypatch, theorem, probe):
    _workers(monkeypatch, 2)
    pids = _call_pids(monkeypatch, verify, probe)
    run_theorem_suite(theorem, CORPUS, "small")
    assert pids == []
    _workers(monkeypatch, 1)
    run_theorem_suite(theorem, CORPUS, "small")
    assert pids and set(pids) == {os.getpid()}


def test_the_units_do_not_depend_on_the_worker_count(monkeypatch):
    handed = []

    def capture(corpus, budget, units):
        handed.append(units)
        raise RuntimeError("units captured")

    monkeypatch.setattr(verify, "_map_units", capture)
    for n in (1, 2, 8):
        _workers(monkeypatch, n)
        with pytest.raises(RuntimeError, match="captured"):
            suite_all(CORPUS, "small")
    assert handed[0] == handed[1] == handed[2]
    categories = [(c,) for c in sorted(CORPUS.categories)]
    for theorem in ("I", "II", "IV", "V"):
        assert [args for t, args in handed[0] if t == theorem] == categories
    assert [t for t, args in handed[0] if not args] == ["III", "VI", "VII", "controls"]


def test_suite_II_merges_its_units_as_one_serial_run(monkeypatch):
    corpus = corpus_generate(0, "small")
    budget = budget_profile("small")
    real = verify.density_check
    planted = {id(corpus.categories[n]) for n in ("one", "parallel", "z2")}

    def wrong(F):
        d = real(F)
        return dataclasses.replace(d, ok=False) if id(F.base) in planted else d

    monkeypatch.setattr(verify, "density_check", wrong)
    want = _serial_report("II", corpus, budget)
    # a few failures on one base, then the cap reached on the next, and
    # every failure of the last after the cap
    assert [w["category"] for w in want["witnesses"]] == ["one"] * 8 + ["parallel"] * 17
    assert want["budget_notes"] == [
        "exhaustive census at value bound 2 plus the corpus presheaf samples",
        "witness list capped at 25; 23 more failures",
    ]
    assert _reports_on_workers(monkeypatch, "II", corpus, budget) == [want, want]


def test_suite_IV_merges_its_units_as_one_serial_run(monkeypatch):
    # the default budget, where units skip instances and truncate hom sets
    corpus = corpus_generate(0, "default")
    budget = budget_profile("default")
    # the functors on either side of the chain4 | diamond boundary, the
    # first only at its first transposition, and the last functor of the
    # last category, whose failures run past the witness cap
    by_base = _functors_by_base(corpus)
    k = sorted(corpus.categories).index("chain4")
    before, after, last = by_base[k][-1], by_base[k + 1][0], by_base[-1][-1]
    calls = []  # the functor of each transposition since the functor changed
    real_phi, real_validate = verify.adjunction_phi, verify.validate_presheaf_morphism

    def phi(p, H, z):
        if calls and calls[0] != p.name:
            calls.clear()
        calls.append(p.name)
        return real_phi(p, H, z)

    def validate(t):
        rep = real_validate(t)
        if calls and (calls == [before] or calls[0] in (after, last)):
            rep = dataclasses.replace(rep, violations=[*rep.violations, "planted"])
        return rep

    monkeypatch.setattr(verify, "adjunction_phi", phi)
    monkeypatch.setattr(verify, "validate_presheaf_morphism", validate)
    want = _serial_report("IV", corpus, budget)
    fixtures = [w["fixture"] for w in want["witnesses"]]
    assert fixtures == [before] + [after] * 20 + [last] * 4
    # the units' notes first, then the skip count, then the cap
    assert want["budget_notes"] == [
        "hom sets truncated to 6 maps",
        "3 instances skipped: hom or transform pool above budget",
        "witness list capped at 25; 8 more failures",
    ]
    assert _reports_on_workers(monkeypatch, "IV", corpus, budget) == [want, want]


def test_suite_V_merges_its_units_as_one_serial_run(monkeypatch):
    corpus = corpus_generate(1, "small")
    budget = budget_profile("small")
    # the last functor of chain4 and every functor of the later bases read
    # as not flat elementwise
    by_base = _functors_by_base(corpus)
    k = sorted(corpus.categories).index("chain4")
    planted = {by_base[k][-1], *(name for names in by_base[k + 1:] for name in names)}
    real = verify.is_flat_setvalued

    def wrong(p):
        rep = real(p)
        if p.name in planted:
            return dataclasses.replace(rep, violations=[] if rep.violations else ["planted"])
        return rep

    monkeypatch.setattr(verify, "is_flat_setvalued", wrong)
    want = _serial_report("V", corpus, budget)
    # the first two failures sit on either side of the chain4 | diamond
    # boundary, and the cap falls four bases later
    fixtures = [w["fixture"] for w in want["witnesses"]]
    assert fixtures[:2] == [by_base[k][-1], by_base[k + 1][0]]
    assert len(fixtures) == 25 and fixtures[-1] == by_base[k + 4][0]
    assert want["budget_notes"] == ["witness list capped at 25; 8 more failures"]
    assert _reports_on_workers(monkeypatch, "V", corpus, budget) == [want, want]


def _flat_memo(corpus):
    return {fx.name: fx.functor._flat for fx in corpus.functors}


@pytest.mark.parametrize(
    "run",
    [lambda c: run_theorem_suite("V", c, "small"), lambda c: suite_all(c, "small")],
    ids=["suite V", "suite all"],
)
def test_flat_verdicts_probed_on_workers_reach_the_caller(monkeypatch, run):
    memos = []
    for n in (1, 2):
        _workers(monkeypatch, n)
        pids = _call_pids(monkeypatch, kan, "_flat_verdict")
        corpus = corpus_generate(2, "small")
        run(corpus)
        # probed in the caller only when the run is in-process
        assert bool(pids) == (n == 1)
        memos.append(_flat_memo(corpus))
    assert memos[0] == memos[1]
    counterexamples = [
        v.counterexample
        for verdicts in memos[1].values()
        for v in verdicts.values()
        if v.counterexample is not None
    ]
    assert counterexamples
    for cx in counterexamples:
        with pytest.raises(TypeError):
            cx["shape"] = "tampered"
        for value in cx.values():
            if isinstance(value, list):
                with pytest.raises(TypeError):
                    value.append("h_top")


def test_suites_after_V_read_its_verdicts_from_the_workers(monkeypatch):
    _workers(monkeypatch, 2)
    corpus = corpus_generate(3, "small")
    run_theorem_suite("V", corpus, "small")
    pids = _call_pids(monkeypatch, kan, "_flat_verdict")
    for theorem in ("VI", "VII"):
        run_theorem_suite(theorem, corpus, "small")
    assert pids == []


@pytest.mark.parametrize("theorem", ["II", "IV", "V"])
def test_a_unit_that_raises_on_a_worker_raises_in_the_caller(monkeypatch, theorem):
    _workers(monkeypatch, 2)
    corpus = corpus_generate(1, "small")
    parent = os.getpid()
    real = verify._SUITES[theorem]

    def raising(corpus_, budget, rec, *args):
        real(corpus_, budget, rec, *args)
        if args == (max(corpus.categories),):
            raise RuntimeError(f"raised mid-run in {os.getpid()}")

    monkeypatch.setitem(verify._SUITES, theorem, raising)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="mid-run") as info:
        run_theorem_suite(theorem, corpus, "small")
    assert str(info.value) != f"raised mid-run in {parent}"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    assert _memos_held(corpus) == []


def test_a_unit_that_raises_cancels_the_units_not_yet_started(monkeypatch, tmp_path):
    _workers(monkeypatch, 2)
    log = tmp_path / "units"
    first = min(CORPUS.categories)

    def slow(corpus, budget, rec, cname):
        with open(log, "a") as f:
            f.write(f"start {cname}\n")
        if cname == first:
            raise RuntimeError("raised by the first unit")
        time.sleep(0.5)
        with open(log, "a") as f:
            f.write(f"done {cname}\n")

    monkeypatch.setitem(verify._SUITES, "I", slow)
    with pytest.raises(RuntimeError, match="first unit"):
        run_theorem_suite("I", CORPUS, "small")
    events = [line.split() for line in log.read_text().splitlines()]
    started = {c for e, c in events if e == "start"}
    # the units not yet queued when the error came back never start, and
    # every unit that started has finished when the error reaches the caller
    assert first in started and len(started) < len(CORPUS.categories)
    assert {c for e, c in events if e == "done"} == started - {first}
    assert multiprocessing.active_children() == []


def test_a_run_on_workers_drops_its_memos_once_in_the_caller(monkeypatch, tmp_path):
    _workers(monkeypatch, 2)
    log = tmp_path / "drops"
    real = verify._drop_run_memos

    def logged(corpus):
        # workers cannot append to a list of the caller's, so the log is a file
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        real(corpus)

    monkeypatch.setattr(verify, "_drop_run_memos", logged)
    corpus = corpus_generate(1, "small")
    for calls in (1, 2):
        run_theorem_suite("IV", corpus, "small")
        assert log.read_text().split() == [str(os.getpid())] * calls
        assert _memos_held(corpus) == []


def test_controls_that_raise_on_a_worker_raise_in_the_caller(monkeypatch):
    _workers(monkeypatch, 2)
    corpus = corpus_generate(1, "small")
    parent = os.getpid()
    real = verify._SUITES["controls"]

    def raising(corpus_, budget, rec):
        real(corpus_, budget, rec)
        if os.getpid() != parent:
            raise RuntimeError("raised mid-run")

    monkeypatch.setitem(verify._SUITES, "controls", raising)
    with pytest.raises(RuntimeError, match="mid-run"):
        suite_all(corpus, "small")
    assert multiprocessing.active_children() == []
    assert _memos_held(corpus) == []


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
