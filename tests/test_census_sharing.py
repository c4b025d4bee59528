"""Census presheaves share their tables, and suites I and II stream them.

``iter_presheaves`` builds each distinct table once per call: one value
tuple per size, one ``values`` dict per size vector and one action dict
per action tuple, handed to every presheaf that has it.  That is sound
only while nothing mutates a table, so the guard below snapshots every
table of two censuses, runs the code that reads census presheaves (the
suite I and II unit bodies, the hom and iso search, the density check,
both sheaf checks and sheafification) and checks that no table moved.
``validated_census`` in test_presheaf.py stays the oracle for the order
and labels of the census itself.

The memory tests bound what the sharing and the streaming are for: the
bytes a census keeps per presheaf, and the census presheaves alive at
once while suite I checks them.
"""

import tracemalloc
import weakref

import pytest

from toposkit import verify
from toposkit.presheaf import (
    enumerate_presheaf_morphisms,
    enumerate_presheaves,
    find_presheaf_iso,
)
from toposkit.site import is_sheaf, is_sheaf_coverform, sheafify
from toposkit.verify import budget_profile, corpus_generate, fixture_categories, fixture_sites

from conftest import ordered

CATEGORIES = fixture_categories()
SITES = fixture_sites(CATEGORIES)
SITE_OF = {"chain3": SITES["sierpinski"], "diamond": SITES["two_point_discrete"]}
CENSUS = {name: enumerate_presheaves(CATEGORIES[name], 2) for name in sorted(SITE_OF)}


def tables(census):
    """A deep copy of every table, key orders included."""
    return [ordered({"values": F.values, "actions": F.actions}) for F in census]


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_census_builds_each_table_once(name):
    owners = {}
    for F in CENSUS[name]:
        sizes = tuple(len(v) for v in F.values.values())
        owners.setdefault(("values", sizes), set()).add(id(F.values))
        for v in F.values.values():
            owners.setdefault(("tuple", v), set()).add(id(v))
        for act in F.actions.values():
            owners.setdefault(("action", tuple(act.items())), set()).add(id(act))
    assert all(len(ids) == 1 for ids in owners.values())


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_nothing_that_reads_the_census_mutates_its_tables(name, monkeypatch):
    census, site = CENSUS[name], SITE_OF[name]
    before = tables(census)
    # the unit bodies read this census in place of their own
    monkeypatch.setattr(verify, "iter_presheaves", lambda C, bound: iter(census))
    corpus, budget = corpus_generate(0, "small"), budget_profile("small")
    for body in (verify._suite_I, verify._suite_II):
        rec = verify._Recorder()
        body(corpus, budget, rec, name)
        assert rec.checks and not rec.witnesses
    for F in census[::5]:
        for G in census[::17]:
            enumerate_presheaf_morphisms(F, G, limit=4)
        assert find_presheaf_iso(F, F) is not None
    for F in census:
        is_sheaf(F, site)
        is_sheaf_coverform(F, site)
        sheafify(sheafify(F, site).sheaf, site)
    assert tables(census) == before


def test_the_census_keeps_few_bytes_per_presheaf():
    C = fixture_categories()["chain3"]
    enumerate_presheaves(C, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        census = enumerate_presheaves(C, 3)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # CPython 3.11: about 510 bytes each when tables are shared, about
    # 1 950 when every presheaf builds its own
    assert len(census) == 1678
    assert kept / len(census) < 1000


def test_suite_I_holds_few_census_presheaves_at_once(monkeypatch):
    real = verify.iter_presheaves
    alive = most = made = 0
    refs = []

    def gone(_ref):
        nonlocal alive
        alive -= 1

    def watched(C, bound):
        nonlocal alive, most, made
        for F in real(C, bound):
            refs.append(weakref.ref(F, gone))
            alive += 1
            made += 1
            most = max(most, alive)
            yield F

    monkeypatch.setattr(verify, "iter_presheaves", watched)
    rec = verify._Recorder()
    verify._suite_I(corpus_generate(0, "small"), budget_profile("default"), rec, "chain3")
    assert made == 1678 and rec.checks and not rec.witnesses
    assert most <= 2
