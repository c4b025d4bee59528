"""The plus construction's pass-through against the full search.

Wherever F(X) maps bijectively onto the matching families over the
minimal sieve, ``plus_construction`` passes F through there and shares
F's tables instead of relabeling every family; where the minimal sieve
holds the identity it is maximal, Match(h_X, F) = F(X), and no search is
made.  The routine below is the plus construction with neither shortcut:
it searches every minimal sieve, labels the classes and builds every
table anew.  It is kept here as the oracle.  Labels, tables, units,
decode and encode, their dict orders included, and everything built on
them must come out the same both ways, on sheaves, separated presheaves
and tables in reversed order too.  A table the output shares with its
input is the input's own object, so it must equal the oracle's table
as it stands.
"""

import pytest
from hypothesis import given, settings, strategies as st

from toposkit import site as site_module
from toposkit.errors import FactorizationError
from toposkit.presheaf import (
    Presheaf,
    PresheafMorphism,
    compose_presheaf_morphisms,
    enumerate_presheaf_morphisms,
    enumerate_presheaves,
)
from toposkit.site import (
    PlusResult,
    SheafificationResult,
    _restrictions,
    factor_through_unit,
    generate_topology,
    is_sheaf,
    matching_families,
    plus_construction,
    sheafify,
    sheafify_morphism,
    site_plan,
)
from toposkit.verify import fixture_categories, fixture_sites

from conftest import (
    diamond,
    ordered,
    parallel_arrows,
    reversed_tables,
    walking_idempotent,
    z2_group,
)
from test_site import trivial_site
from test_site_plan import plus_data


# ---------------------------------------------------------------------------
# the plus construction with a family search at every object


def searched_plus_construction(F: Presheaf, site) -> PlusResult:
    plan = site_plan(site)
    C = site.base
    values = {}
    decode = {}
    encode = {}
    unit_comps = {}
    for X in C.objects:
        sp = plan.minimal[X]
        fams = sorted(matching_families(sp, F))
        restricted = _restrictions(F, X, sp.arrows)
        preimage = {}
        for x, fam in zip(F.values[X], restricted):
            preimage.setdefault(fam, x)
        used = set(preimage.values())
        labels = []
        fresh = 0
        for fam in fams:
            if fam in preimage:
                labels.append(preimage[fam])
            else:
                while f"p{fresh}" in used:
                    fresh += 1
                labels.append(f"p{fresh}")
                used.add(f"p{fresh}")
        values[X] = tuple(sorted(labels))
        decode[X] = dict(zip(labels, fams))
        encode[X] = enc = dict(zip(fams, labels))
        unit_comps[X] = {x: enc[fam] for x, fam in zip(F.values[X], restricted)}
    actions = {}
    for m in C.morphisms:
        idx = plan.restrict[m.name]
        enc, dec = encode[m.src], decode[m.tgt]
        actions[m.name] = {
            label: enc[tuple([dec[label][i] for i in idx])] for label in values[m.tgt]
        }
    plus = Presheaf(C, values, actions, f"{F.name}+" if F.name else "+")
    unit = PresheafMorphism(F, plus, unit_comps)
    return PlusResult(plus, unit, decode, encode)


def searched_sheafify(F: Presheaf, site) -> SheafificationResult:
    p1 = searched_plus_construction(F, site)
    p2 = searched_plus_construction(p1.presheaf, site)
    sheaf = Presheaf(
        p2.presheaf.base, p2.presheaf.values, p2.presheaf.actions,
        f"a({F.name})" if F.name else "a(F)",
    )
    unit = compose_presheaf_morphisms(
        PresheafMorphism(p1.presheaf, sheaf, p2.unit.components), p1.unit
    )
    return SheafificationResult(sheaf, unit, p1, p2)


# ---------------------------------------------------------------------------
# the sites


def passing_through(site):
    plan = site_plan(site)
    C = site.base
    return sorted(X for X in C.objects if C.id_of(X) in plan.minimal[X].arrows)


CORPUS = fixture_sites(fixture_categories())
# chain c0 < c1 < c2 < c3 with c2 covered by c1 alone: c0, c1 and c3 keep
# their maximal sieves, while c2 does not
MIXED = generate_topology(CORPUS["three_point_chain"].base, {"c2": [["c1.c2"]]}, name="mixed")
SITES = dict(CORPUS)
SITES["trivial_diamond"] = trivial_site(diamond())
SITES["mixed"] = MIXED
CENSUS = {name: enumerate_presheaves(s.base, 2) for name, s in SITES.items()}


def test_the_pass_through_objects_of_each_site():
    assert passing_through(CORPUS["arrow_trivial"]) == ["s", "t"]
    assert passing_through(CORPUS["sierpinski"]) == ["t", "u"]
    assert passing_through(CORPUS["three_point_chain"]) == ["c1", "c2", "c3"]
    assert passing_through(CORPUS["two_point_discrete"]) == ["a", "b"]
    assert passing_through(SITES["trivial_diamond"]) == sorted(diamond().objects)
    assert passing_through(MIXED) == ["c0", "c1", "c3"]


def sheafify_data(res: SheafificationResult):
    S = res.sheaf
    return [
        ordered({"name": S.name, "values": S.values, "actions": S.actions}),
        ordered(res.unit.components),
        plus_data(res.stage1),
        plus_data(res.stage2),
    ]


def factor_or_error(res, T, t, site):
    try:
        return ordered(factor_through_unit(site, res, T, t).components)
    except FactorizationError as e:
        return ("FactorizationError", str(e))


def check_against_the_search(site, F: Presheaf, G: Presheaf, pick) -> None:
    pf = plus_construction(F, site)
    assert plus_data(pf) == plus_data(searched_plus_construction(F, site))
    # the second step runs on a presheaf with fresh labels
    assert plus_data(plus_construction(pf.presheaf, site)) == plus_data(
        searched_plus_construction(pf.presheaf, site)
    )
    rf, rg = sheafify(F, site), sheafify(G, site)
    of, og = searched_sheafify(F, site), searched_sheafify(G, site)
    assert sheafify_data(rf) == sheafify_data(of)
    assert sheafify_data(rg) == sheafify_data(og)
    homs = enumerate_presheaf_morphisms(F, G, limit=8)
    if not homs:
        return
    t = pick(homs)
    assert ordered(sheafify_morphism(site, rf, rg, t).components) == ordered(
        sheafify_morphism(site, of, og, t).components
    )
    # through a sheaf, and through G itself, which may be refused
    to_sheaf = compose_presheaf_morphisms(rg.unit, t)
    assert factor_or_error(rf, rg.sheaf, to_sheaf, site) == factor_or_error(
        of, og.sheaf, to_sheaf, site
    )
    assert factor_or_error(rf, G, t, site) == factor_or_error(of, G, t, site)


# ---------------------------------------------------------------------------
# the comparisons


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plus_and_sheafification_match_the_search_on_the_fixture_sites(data):
    name = data.draw(st.sampled_from(sorted(SITES)))
    site, census = SITES[name], CENSUS[name]
    F = data.draw(st.sampled_from(census))
    G = data.draw(st.sampled_from(census))
    if data.draw(st.booleans()):
        F = reversed_tables(F)
    check_against_the_search(site, F, G, lambda homs: data.draw(st.sampled_from(homs)))


BASES = {
    "diamond": diamond(),
    "chain4": CORPUS["three_point_chain"].base,
    "idempotent": walking_idempotent(),
    "parallel": parallel_arrows(),
    "z2": z2_group(),
}
BASE_CENSUS = {C.name: enumerate_presheaves(C, 2) for C in BASES.values()}


@st.composite
def generated_sites(draw):
    """A base and, per object, a declared cover drawn from its arrows."""
    C = BASES[draw(st.sampled_from(sorted(BASES)))]
    covers = {}
    for X in C.objects:
        if draw(st.booleans()):
            covers[X] = [draw(st.lists(st.sampled_from(C.arrows_into(X)), unique=True))]
    return generate_topology(C, covers, name="generated")


@settings(max_examples=100, deadline=None)
@given(generated_sites(), st.data())
def test_plus_and_sheafification_match_the_search_on_generated_sites(site, data):
    census = BASE_CENSUS[site.base.name]
    F = data.draw(st.sampled_from(census))
    G = data.draw(st.sampled_from(census))
    check_against_the_search(site, F, G, lambda homs: data.draw(st.sampled_from(homs)))


@pytest.mark.parametrize("name", sorted(SITES))
def test_plus_matches_the_search_on_every_census_presheaf(name):
    site = SITES[name]
    for F in CENSUS[name]:
        for P in (F, reversed_tables(F)):
            assert plus_data(plus_construction(P, site)) == plus_data(
                searched_plus_construction(P, site)
            )


# ---------------------------------------------------------------------------
# the bijective pass-through and the tables it shares


@st.composite
def sites_and_inputs(draw):
    """A fixture or generated site and a presheaf on it: a census member,
    a census sheaf, the separated presheaf that one plus step makes of a
    census member, or its sheafification; its tables reversed or not."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(SITES)))
        site, census = SITES[name], CENSUS[name]
    else:
        site = draw(generated_sites())
        census = BASE_CENSUS[site.base.name]
    kind = draw(st.sampled_from(["census", "sheaf", "separated", "sheafified"]))
    if kind == "sheaf":
        census = [F for F in census if is_sheaf(F, site).ok]
    F = draw(st.sampled_from(census))
    if kind == "separated":
        F = plus_construction(F, site).presheaf
    elif kind == "sheafified":
        F = sheafify(F, site).sheaf
    if draw(st.booleans()):
        F = reversed_tables(F)
    return site, F


@settings(max_examples=150, deadline=None)
@given(sites_and_inputs())
def test_the_pass_through_matches_the_search_on_sheaves_and_separated_presheaves(case):
    site, F = case
    assert plus_data(plus_construction(F, site)) == plus_data(searched_plus_construction(F, site))
    assert sheafify_data(sheafify(F, site)) == sheafify_data(searched_sheafify(F, site))


def shared_tables(pr: PlusResult, F: Presheaf, site):
    """The tables of one plus step on F that are F's own objects, each
    with its place in the step's tables and in F's."""
    P, C = pr.presheaf, site.base
    out = [(("values", X), F.values[X]) for X in C.objects if P.values[X] is F.values[X]]
    out += [(("actions", m), F.actions[m]) for m in P.actions if P.actions[m] is F.actions[m]]
    out += [
        (("components", X), F.actions[C.id_of(X)])
        for X in C.objects
        if pr.unit.components[X] is F.actions[C.id_of(X)]
    ]
    return out


def step_tables(pr: PlusResult):
    P = pr.presheaf
    return {"values": P.values, "actions": P.actions, "components": pr.unit.components}


@pytest.mark.parametrize("name", sorted(SITES))
def test_sheafifying_a_sheaf_returns_its_own_tables_and_the_identity(name):
    site = SITES[name]
    C = site.base
    for F in CENSUS[name]:
        S = sheafify(F, site).sheaf
        again = sheafify(S, site)
        assert again.sheaf.values is S.values and again.sheaf.actions is S.actions
        for X in C.objects:
            comp = again.unit.components[X]
            assert comp is S.actions[C.id_of(X)]
            assert ordered(comp) == [(x, x) for x in S.values[X]]


@pytest.mark.parametrize("name", sorted(SITES))
def test_sheafifying_a_sheaf_searches_each_object_once(name, monkeypatch):
    # the first step passes a sheaf through everywhere, so the second
    # step reuses its tables instead of searching the same families again
    site = SITES[name]
    searched = len(site.base.objects) - len(passing_through(site))
    sheaves = [sheafify(F, site).sheaf for F in CENSUS[name]]
    calls = []
    real = site_module.matching_families
    monkeypatch.setattr(
        site_module, "matching_families", lambda sp, F: calls.append(sp) or real(sp, F)
    )
    for S in sheaves:
        sheafify(S, site)
    assert len(calls) == searched * len(sheaves)


@pytest.mark.parametrize("name", sorted(SITES))
def test_the_tables_a_non_sheaf_shares_equal_the_searched_ones(name):
    site = SITES[name]
    C = site.base
    non_sheaves = shared = searched_objects = 0
    for F in CENSUS[name]:
        if is_sheaf(F, site).ok:
            continue
        non_sheaves += 1
        pf, of = plus_construction(F, site), searched_plus_construction(F, site)
        oracle = step_tables(of)
        for (table, key), ours in shared_tables(pf, F, site):
            assert ordered(ours) == ordered(oracle[table][key])
            shared += 1
            if table == "values":
                searched_objects += C.id_of(key) not in site_plan(site).minimal[key].arrows
    # a non-sheaf passes through at each object covered only by its maximal
    # sieve, and on two_point_discrete at a searched object, top or bot, too
    assert (shared > 0) == (non_sheaves > 0)
    assert (searched_objects > 0) == (name == "two_point_discrete")
