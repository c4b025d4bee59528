"""Sites, sheaves, sheafification, and the epi-family machinery.

Oracles come first: a naive common-refinement partition for the plus
construction, closed-form sheaf models for the two open-cover sites, a
joint-surjectivity criterion for finite-set families, and the sieve
subpresheaf route to matching families, and the definition of a matching
family scanned over the full product, which also fixes their order.
"""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from toposkit import presheaf, site as site_module
from toposkit.errors import (
    ConsistencyError,
    FactorizationError,
    ResourceBudgetError,
    StructureError,
)
from toposkit.fincat import (
    FinCatHandle,
    HandleDiagram,
    HandleFunctor,
    discrete_category,
    parallel_pair_category,
    poset_category,
    terminal_category,
)
from toposkit.presheaf import (
    Presheaf,
    PresheafCategory,
    PresheafMorphism,
    compose_presheaf_morphisms,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    enumerate_presheaves,
    find_presheaf_iso,
    finset_category,
    finset_map,
    finset_obj,
    is_presheaf_iso,
    make_presheaf,
    presheaf_identity,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda_embed,
)
from toposkit.site import (
    SheafCategory,
    Sieve,
    Site,
    canonical_pretopology,
    enumerate_sieves,
    epsilon,
    epsilon_on_mor,
    factor_through_unit,
    generate_topology,
    is_continuous,
    is_sheaf,
    is_sheaf_coverform,
    is_sieve_closed,
    is_strict_epi_family,
    is_subcanonical,
    is_universal_strict_epi,
    matching_families,
    maximal_sieve,
    plus_construction,
    plus_on_morphism,
    pullback_sieve,
    sheafification_limit_comparison,
    sheafify,
    sheafify_morphism,
    sieve_generated,
    site_plan,
    validate_site,
)
from toposkit.verify import fixture_categories, fixture_sites

from conftest import chain, diamond


# ---------------------------------------------------------------------------
# fixtures: the two open-cover sites and trivial topologies


def sierpinski_site() -> Site:
    # opens of the Sierpinski space as a chain e < u < t; the only
    # nontrivial cover is the empty family over the empty open
    C = poset_category("chain3", ["e", "u", "t"], [("e", "u"), ("u", "t"), ("e", "t")])
    return generate_topology(C, {"e": [[]]}, name="sierpinski")


def discrete_two_point_site() -> Site:
    # opens of the discrete two-point space: a diamond with top covered
    # by the two points and bot covered by the empty family
    return generate_topology(
        diamond(), {"top": [["a.top", "b.top"]], "bot": [[]]}, name="discrete2pt"
    )


def trivial_site(C) -> Site:
    return generate_topology(C, {}, name="trivial")


SIER = sierpinski_site()
DISC = discrete_two_point_site()

PSH_DIAMOND_2 = list(enumerate_presheaves(diamond(), 2))
PSH_CHAIN3_2 = list(enumerate_presheaves(SIER.base, 2))


# ---------------------------------------------------------------------------
# oracles


def oracle_pair_model(F: Presheaf) -> bool:
    """Discrete 2-point site: sheaf iff F(bot) is a point and restriction
    to the two opens is a bijection onto the product."""
    if len(F.values["bot"]) != 1:
        return False
    pairs = [(F.actions["a.top"][x], F.actions["b.top"][x]) for x in F.values["top"]]
    expected = {(u, v) for u in F.values["a"] for v in F.values["b"]}
    return len(set(pairs)) == len(pairs) and set(pairs) == expected


def oracle_restriction_model(F: Presheaf) -> bool:
    """Sierpinski site: sheaf iff the value over the empty open is a point."""
    return len(F.values["e"]) == 1


def oracle_jointly_surjective(fam, target) -> bool:
    hit = set()
    for m in fam:
        hit.update(m.components["*"].values())
    return hit == set(target.values["*"])


def _restrict_pair(S, fam, R):
    pos = {f: i for i, f in enumerate(S.sorted_arrows())}
    r_arrows = R.sorted_arrows()
    return tuple(fam[pos[f]] for f in r_arrows)


def oracle_plus_partition(site: Site, F: Presheaf, X: str):
    """Naive plus classes: all (sieve, family) pairs, merged whenever they
    agree on some common covering refinement."""
    pairs = []
    for S in site.topology[X]:
        for fam in matching_families(site_plan(site).sieve(S), F):
            pairs.append((S, fam))
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            Si, fi = pairs[i]
            Sj, fj = pairs[j]
            for R in site.topology[X]:
                if R.arrows <= (Si.arrows & Sj.arrows):
                    if _restrict_pair(Si, fi, R) == _restrict_pair(Sj, fj, R):
                        ri, rj = find(i), find(j)
                        if ri != rj:
                            parent[ri] = rj
                        break
    return pairs, [find(i) for i in range(len(pairs))]


# ---------------------------------------------------------------------------
# sieves and topology generation


def test_generated_sieves_are_closed():
    C = diamond()
    for f in C.morphisms:
        S = sieve_generated(C, f.tgt, [f.name])
        assert is_sieve_closed(C, S)
        assert f.name in S.arrows


def test_sieve_lattice_on_diamond_top():
    C = diamond()
    sieves = enumerate_sieves(C, "top")
    assert len(sieves) == 6
    assert all(is_sieve_closed(C, S) for S in sieves)
    assert maximal_sieve(C, "top") in sieves
    assert Sieve("top", frozenset()) in sieves


def test_the_sieve_lattice_is_refused_past_its_generator_cap(monkeypatch):
    # the four principal sieves on the diamond's top span 2 ** 4 unions
    monkeypatch.setattr(site_module, "MAX_SIEVE_GENERATORS", 4)
    assert len(enumerate_sieves(diamond(), "top")) == 6
    monkeypatch.setattr(site_module, "MAX_SIEVE_GENERATORS", 3)
    with pytest.raises(ResourceBudgetError) as exc:
        enumerate_sieves(diamond(), "top")
    assert (exc.value.operation, exc.value.requested, exc.value.budget) == (
        "enumerate_sieves", 16, 8
    )


def test_pullback_sieve_of_cover():
    C = diamond()
    S = sieve_generated(C, "top", ["a.top", "b.top"])
    assert "bot.top" in S.arrows
    P = pullback_sieve(C, S, "a.top")
    assert P == maximal_sieve(C, "a")


def test_trivial_topology_everything_is_a_sheaf():
    site = trivial_site(diamond())
    for X in site.base.objects:
        assert site.topology[X] == (maximal_sieve(site.base, X),)
    for F in PSH_DIAMOND_2:
        assert is_sheaf(F, site).ok
        assert is_sheaf_coverform(F, site).ok


def test_identity_covers_generate_trivial_topology():
    C = diamond()
    with_ids = generate_topology(C, {X: [[f"id_{X}"]] for X in C.objects})
    assert with_ids.topology == trivial_site(C).topology


def test_saturation_is_a_fixpoint():
    for site in (SIER, DISC):
        refed = generate_topology(
            site.base,
            {X: [list(S.sorted_arrows()) for S in site.topology[X]] for X in site.base.objects},
        )
        assert refed.topology == site.topology


def test_discrete_site_topology_contents():
    C = DISC.base
    s_ab = sieve_generated(C, "top", ["a.top", "b.top"])
    assert set(DISC.topology["top"]) == {s_ab, maximal_sieve(C, "top")}
    assert set(DISC.topology["bot"]) == {Sieve("bot", frozenset()), maximal_sieve(C, "bot")}
    assert DISC.topology["a"] == (maximal_sieve(C, "a"),)
    assert DISC.topology["b"] == (maximal_sieve(C, "b"),)
    assert DISC.minimal["top"] == s_ab
    assert DISC.minimal["bot"] == Sieve("bot", frozenset())


def test_validate_site_accepts_generated_and_flags_corruption():
    assert validate_site(SIER).ok
    assert validate_site(DISC).ok
    C = diamond()
    # inserting a sieve without its pullbacks breaks stability
    bad_topology = dict(trivial_site(C).topology)
    bad_topology["top"] = tuple(
        sorted(
            set(bad_topology["top"]) | {Sieve("top", frozenset({"bot.top"}))},
            key=Sieve.key,
        )
    )
    bad = Site(C, {}, bad_topology, trivial_site(C).minimal, "corrupt")
    rep = validate_site(bad)
    assert not rep.ok
    assert {v.law for v in rep.violations} & {"stability", "intersection", "transitivity"}


def test_cover_validation_errors():
    C = diamond()
    with pytest.raises(StructureError):
        generate_topology(C, {"nowhere": [["a.top"]]})
    with pytest.raises(StructureError):
        generate_topology(C, {"top": [["bot.a"]]})
    with pytest.raises(StructureError):
        generate_topology(C, {"top": [["ghost"]]})


# ---------------------------------------------------------------------------
# matching families


def sieve_subpresheaf(site: Site, S: Sieve) -> Presheaf:
    # the sieve as a subfunctor of the representable of its target
    C = site.base
    values = {Y: tuple(sorted(f for f in S.arrows if C.src(f) == Y)) for Y in C.objects}
    actions = {
        m.name: {f: C.compose(f, m.name) for f in values[m.tgt]} for m in C.morphisms
    }
    return Presheaf(C, values, actions, "sieve")


@pytest.mark.parametrize("site", [SIER, DISC], ids=["sierpinski", "discrete"])
def test_matching_families_agree_with_sieve_morphisms(site):
    corpus = PSH_CHAIN3_2 if site is SIER else PSH_DIAMOND_2
    for F in corpus[:40]:
        for X in site.base.objects:
            for S in site.topology[X]:
                sub = sieve_subpresheaf(site, S)
                assert validate_presheaf(sub).ok
                nats = enumerate_presheaf_morphisms(sub, F)
                fams = matching_families(site_plan(site).sieve(S), F)
                arrows = S.sorted_arrows()
                via_nats = {
                    tuple(t.components[site.base.src(f)][f] for f in arrows)
                    for t in nats
                }
                assert via_nats == set(fams)
                assert len(fams) == len(nats)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matching_families_follow_the_product_order_of_the_definition(data):
    site = data.draw(st.sampled_from([SIER, DISC]))
    C = site.base
    F = data.draw(st.sampled_from(PSH_CHAIN3_2 if site is SIER else PSH_DIAMOND_2))
    X = data.draw(st.sampled_from(sorted(C.objects)))
    S = data.draw(st.sampled_from(enumerate_sieves(C, X)))
    arrows = S.sorted_arrows()
    want = []
    for fam in itertools.product(*[F.values[C.src(f)] for f in arrows]):
        at = dict(zip(arrows, fam))
        # restricting the value at f along g gives the value at f.g
        if all(
            F.actions[g][at[f]] == at[C.compose(f, g)]
            for f in arrows
            for g in C.arrows_into(C.src(f))
        ):
            want.append(fam)
    assert matching_families(site_plan(site).sieve(S), F) == want


def test_empty_sieve_has_one_matching_family():
    S = Sieve("bot", frozenset())
    F = constant_presheaf(DISC.base, ["x", "y"])
    assert matching_families(site_plan(DISC).sieve(S), F) == [()]


# ---------------------------------------------------------------------------
# the sheaf condition against the hand models


def test_pair_model_matches_is_sheaf_on_discrete_site():
    agree = 0
    for F in PSH_DIAMOND_2:
        assert is_sheaf(F, DISC).ok == oracle_pair_model(F)
        agree += 1
    assert agree == 249


def test_restriction_model_matches_is_sheaf_on_sierpinski():
    for F in PSH_CHAIN3_2:
        assert is_sheaf(F, SIER).ok == oracle_restriction_model(F)


@pytest.mark.parametrize("site", [SIER, DISC], ids=["sierpinski", "discrete"])
def test_coverform_agrees_with_sieve_form(site):
    corpus = PSH_CHAIN3_2 if site is SIER else PSH_DIAMOND_2
    for F in corpus:
        assert is_sheaf(F, site).ok == is_sheaf_coverform(F, site).ok


def test_sheaf_census_bound_two():
    # discrete: one point at bot, top the product of the two fibers;
    # sierpinski: one point over the empty open, the rest free
    assert sum(is_sheaf(F, DISC).ok for F in PSH_DIAMOND_2) == 10
    assert sum(is_sheaf(F, SIER).ok for F in PSH_CHAIN3_2) == 11


def test_representables_are_sheaves_on_both_sites():
    for site in (SIER, DISC):
        for X in site.base.objects:
            assert is_sheaf(yoneda_embed(site.base, X), site).ok


def test_sheaf_witness_kinds():
    rep = is_sheaf(constant_presheaf(DISC.base, ["x", "y"]), DISC)
    assert not rep.ok
    assert rep.witness["kind"] == "not-separated"
    assert rep.witness["object"] == "bot"
    # one point everywhere except a missing amalgamation over the top cover
    F = make_presheaf(
        DISC.base,
        {"bot": ["z"], "a": ["a0"], "b": ["b0", "b1"], "top": ["t0"]},
        {
            "bot.a": {"a0": "z"},
            "bot.b": {"b0": "z", "b1": "z"},
            "bot.top": {"t0": "z"},
            "a.top": {"t0": "a0"},
            "b.top": {"t0": "b0"},
        },
    )
    rep = is_sheaf(F, DISC)
    assert not rep.ok
    assert rep.witness["kind"] == "no-amalgamation"
    assert rep.witness["object"] == "top"


# ---------------------------------------------------------------------------
# plus construction


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(PSH_DIAMOND_2) - 1))
def test_plus_classes_match_common_refinement_oracle(i):
    F = PSH_DIAMOND_2[i]
    pr = plus_construction(F, DISC)
    assert validate_presheaf(pr.presheaf).ok
    assert validate_presheaf_morphism(pr.unit).ok
    for X in DISC.base.objects:
        pairs, roots = oracle_plus_partition(DISC, F, X)
        labels = [
            pr.encode[X][_restrict_pair(S, fam, DISC.minimal[X])]
            for S, fam in pairs
        ]
        # same oracle class exactly when the minimal-sieve label agrees
        for a in range(len(pairs)):
            for b in range(len(pairs)):
                assert (roots[a] == roots[b]) == (labels[a] == labels[b])
        assert set(labels) == set(pr.presheaf.values[X])


def test_plus_is_identity_over_trivial_topology():
    site = trivial_site(diamond())
    for F in PSH_DIAMOND_2[:60]:
        pr = plus_construction(F, site)
        assert pr.presheaf == F
        assert pr.unit.components == presheaf_identity(F).components


def test_plus_fixes_sheaves_on_the_nose():
    for F in PSH_DIAMOND_2:
        if is_sheaf(F, DISC).ok:
            pr = plus_construction(F, DISC)
            assert pr.presheaf == F
            assert pr.unit.components == presheaf_identity(F).components


def test_plus_output_is_separated():
    for F in PSH_DIAMOND_2[:80]:
        rep = is_sheaf(plus_construction(F, DISC).presheaf, DISC)
        assert rep.ok or rep.witness["kind"] != "not-separated"


def test_double_plus_collapses_two_points_over_the_empty_open():
    F = constant_presheaf(DISC.base, ["u", "v"])
    once = plus_construction(F, DISC)
    twice = plus_construction(once.presheaf, DISC)
    assert len(once.presheaf.values["bot"]) == 1
    assert len(twice.presheaf.values["bot"]) == 1
    assert is_sheaf(twice.presheaf, DISC).ok


def test_plus_respects_morphisms():
    F = constant_presheaf(DISC.base, ["x", "y"], name="K2")
    G = yoneda_embed(DISC.base, "top")
    t = PresheafMorphism(F, G, {X: {"x": G.values[X][0], "y": G.values[X][0]} for X in DISC.base.objects})
    assert validate_presheaf_morphism(t).ok
    pf, pg = plus_construction(F, DISC), plus_construction(G, DISC)
    pt = plus_on_morphism(DISC, pf, pg, t)
    assert validate_presheaf_morphism(pt).ok
    # naturality square of the unit
    lhs = compose_presheaf_morphisms(pt, pf.unit)
    rhs = compose_presheaf_morphisms(pg.unit, t)
    assert lhs.components == rhs.components
    # identities go to identities
    pid = plus_on_morphism(DISC, pf, pf, presheaf_identity(F))
    assert pid.components == presheaf_identity(pf.presheaf).components


# ---------------------------------------------------------------------------
# sheafification


@pytest.mark.parametrize("site", [SIER, DISC], ids=["sierpinski", "discrete"])
def test_sheafify_lands_in_sheaves(site):
    corpus = PSH_CHAIN3_2 if site is SIER else PSH_DIAMOND_2
    for F in corpus:
        res = sheafify(F, site)
        assert is_sheaf(res.sheaf, site).ok
        assert validate_presheaf_morphism(res.unit).ok


@pytest.mark.parametrize("site", [SIER, DISC], ids=["sierpinski", "discrete"])
def test_unit_is_iso_exactly_on_sheaves(site):
    corpus = PSH_CHAIN3_2 if site is SIER else PSH_DIAMOND_2
    for F in corpus:
        assert is_presheaf_iso(sheafify(F, site).unit) == is_sheaf(F, site).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(PSH_DIAMOND_2) - 1))
def test_sheafify_idempotent_up_to_iso(i):
    F = PSH_DIAMOND_2[i]
    once = sheafify(F, DISC).sheaf
    again = sheafify(once, DISC)
    assert is_presheaf_iso(again.unit)
    assert find_presheaf_iso(again.sheaf, once) is not None


def test_empty_top_fills_in_as_the_product():
    F = make_presheaf(
        DISC.base,
        {"bot": ["z"], "a": ["a0", "a1"], "b": ["b0"], "top": []},
        {
            "bot.a": {"a0": "z", "a1": "z"},
            "bot.b": {"b0": "z"},
            "bot.top": {},
            "a.top": {},
            "b.top": {},
        },
    )
    res = sheafify(F, DISC)
    assert len(res.sheaf.values["top"]) == 2 * 1
    assert len(res.sheaf.values["a"]) == 2
    assert len(res.sheaf.values["b"]) == 1


@settings(max_examples=12, deadline=None)
@given(st.integers(0, len(PSH_DIAMOND_2) - 1))
def test_unit_induces_hom_bijection_onto_sheaves(i):
    F = PSH_DIAMOND_2[i]
    res = sheafify(F, DISC)
    sheaves = [G for G in PSH_DIAMOND_2[:120] if is_sheaf(G, DISC).ok]
    for G in sheaves[:4]:
        upstairs = enumerate_presheaf_morphisms(res.sheaf, G)
        downstairs = enumerate_presheaf_morphisms(F, G)
        composed = [compose_presheaf_morphisms(u, res.unit) for u in upstairs]
        keys = {tuple(sorted((X, tuple(sorted(c.items()))) for X, c in u.components.items())) for u in composed}
        assert len(keys) == len(upstairs) == len(downstairs)
        for t in downstairs:
            u = factor_through_unit(DISC, res, G, t)
            assert compose_presheaf_morphisms(u, res.unit).components == t.components


def test_factoring_through_unit_is_the_unique_one():
    F = constant_presheaf(DISC.base, ["x", "y"], name="K2")
    res = sheafify(F, DISC)
    G = yoneda_embed(DISC.base, "top")
    t = PresheafMorphism(F, G, {X: {"x": G.values[X][0], "y": G.values[X][0]} for X in DISC.base.objects})
    u = factor_through_unit(DISC, res, G, t)
    assert compose_presheaf_morphisms(u, res.unit).components == t.components
    others = [
        v
        for v in enumerate_presheaf_morphisms(res.sheaf, G)
        if compose_presheaf_morphisms(v, res.unit).components == t.components
    ]
    assert len(others) == 1 and others[0].components == u.components


def test_factor_through_unit_refuses_non_sheaf_targets():
    F = constant_presheaf(DISC.base, ["x", "y"], name="K2")
    res = sheafify(F, DISC)
    with pytest.raises(FactorizationError):
        factor_through_unit(DISC, res, F, presheaf_identity(F))


def test_factor_through_unit_refuses_a_non_sheaf_target_the_amalgamation_walk_accepted():
    # T is one point below top and empty at top, so the family (e0, e0)
    # over the cover of top has no amalgamation.  A map out of the empty
    # presheaf never pushes a family there: a(0) is one point p0 at bot,
    # over the empty cover, and a walk over the pushed families alone
    # factored it as p0 -> e0.  T is no sheaf, so there is nothing to factor.
    C = DISC.base
    F = constant_presheaf(C, [], name="0")
    T = make_presheaf(
        C,
        {"bot": ["e0"], "a": ["e0"], "b": ["e0"]},
        {"bot.a": {"e0": "e0"}, "bot.b": {"e0": "e0"}, "a.top": {}, "b.top": {}, "bot.top": {}},
        name="T",
    )
    assert not is_sheaf(T, DISC).ok
    (t,) = enumerate_presheaf_morphisms(F, T)
    res = sheafify(F, DISC)
    assert res.sheaf.values == {"bot": ("p0",), "a": (), "b": (), "top": ()}
    with pytest.raises(FactorizationError):
        factor_through_unit(DISC, res, T, t)


def test_sheafify_morphism_is_natural_in_the_unit():
    F = constant_presheaf(DISC.base, ["x", "y"], name="K2")
    G = yoneda_embed(DISC.base, "top")
    t = PresheafMorphism(F, G, {X: {"x": G.values[X][0], "y": G.values[X][0]} for X in DISC.base.objects})
    rf, rg = sheafify(F, DISC), sheafify(G, DISC)
    at = sheafify_morphism(DISC, rf, rg, t)
    assert validate_presheaf_morphism(at).ok
    lhs = compose_presheaf_morphisms(at, rf.unit)
    rhs = compose_presheaf_morphisms(rg.unit, t)
    assert lhs.components == rhs.components


# ---------------------------------------------------------------------------
# left exactness of sheafification, one known case per shape


def test_terminal_presheaf_already_a_sheaf():
    one = constant_presheaf(DISC.base, ["*"], name="1")
    assert is_sheaf(one, DISC).ok
    assert is_presheaf_iso(sheafify(one, DISC).unit)


def test_binary_product_comparison_is_iso():
    F = constant_presheaf(DISC.base, ["x", "y"], name="K2")
    G = yoneda_embed(DISC.base, "top")
    D = HandleDiagram(discrete_category("pair2", ["1", "2"]), {"1": F, "2": G}, {})
    assert is_presheaf_iso(sheafification_limit_comparison(DISC, D))


def test_equalizer_comparison_is_iso():
    F = constant_presheaf(DISC.base, ["x", "y"], name="K2")
    swap = PresheafMorphism(F, F, {X: {"x": "y", "y": "x"} for X in DISC.base.objects})
    ident = presheaf_identity(F)
    D = HandleDiagram(parallel_pair_category(), {"a": F, "b": F}, {"u": ident, "v": swap})
    assert is_presheaf_iso(sheafification_limit_comparison(DISC, D))


# ---------------------------------------------------------------------------
# sheafified representables


def test_epsilon_is_a_sheaf_isomorphic_to_the_representable():
    # both sites are subcanonical, so sheafification fixes representables
    for site in (SIER, DISC):
        for X in site.base.objects:
            e = epsilon(site, X)
            assert is_sheaf(e, site).ok
            assert find_presheaf_iso(e, yoneda_embed(site.base, X)) is not None
            assert is_presheaf_iso(sheafify(yoneda_embed(site.base, X), site).unit)


def test_epsilon_is_the_yoneda_embedding_over_trivial_topology():
    site = trivial_site(diamond())
    for X in site.base.objects:
        assert epsilon(site, X) == yoneda_embed(site.base, X)


def test_epsilon_respects_composition_and_identities():
    C = DISC.base
    lhs = epsilon_on_mor(DISC, C.compose("a.top", "bot.a"))
    rhs = compose_presheaf_morphisms(
        epsilon_on_mor(DISC, "a.top"), epsilon_on_mor(DISC, "bot.a")
    )
    assert lhs.components == rhs.components
    e_id = epsilon_on_mor(DISC, "id_top")
    assert e_id.components == presheaf_identity(epsilon(DISC, "top")).components


# ---------------------------------------------------------------------------
# strict epimorphic families


def test_jointly_surjective_pair_is_strict_epi():
    fs = finset_category(2)
    two = finset_obj(["a", "b"])
    fam = [
        finset_map(finset_obj(["a"]), two, {"a": "a"}),
        finset_map(finset_obj(["b"]), two, {"b": "b"}),
    ]
    assert is_strict_epi_family(fs, fam).ok
    rep = is_strict_epi_family(fs, fam[:1])
    assert not rep.ok and rep.witness["factorings"] != 1


def test_identity_family_is_strict_epi():
    fs = finset_category(2)
    two = finset_obj(["a", "b"])
    assert is_strict_epi_family(fs, [fs.identity(two)]).ok


def test_strict_epi_matches_joint_surjectivity_in_finite_sets():
    fs = finset_category(2)
    two = finset_obj(["a", "b"])
    singles = [finset_obj(["a"]), finset_obj(["b"])]
    pools = [
        finset_map(src, two, {src.values["*"][0]: v})
        for src in singles
        for v in two.values["*"]
    ]
    for r in range(1, 3):
        for fam in itertools.combinations(pools, r):
            assert is_strict_epi_family(fs, list(fam)).ok == oracle_jointly_surjective(
                fam, two
            )


def test_empty_family_strict_epi_only_into_the_empty_set():
    fs = finset_category(2)
    assert is_strict_epi_family(fs, [], target=finset_obj([])).ok
    assert not is_strict_epi_family(fs, [], target=finset_obj(["a"])).ok
    with pytest.raises(StructureError):
        is_strict_epi_family(fs, [])


def test_mixed_targets_rejected():
    fs = finset_category(2)
    f = finset_map(finset_obj(["a"]), finset_obj(["a", "b"]), {"a": "a"})
    g = fs.identity(finset_obj(["a"]))
    with pytest.raises(StructureError):
        is_strict_epi_family(fs, [f, g])


def test_mixed_targets_rejected_when_they_share_a_name():
    # the keys agree, the contents do not
    fs = finset_category(3)
    S = finset_obj(["s"], name="S")
    f1 = finset_map(S, finset_obj(["t"], name="T"), {"s": "t"})
    f2 = finset_map(S, finset_obj(["u", "v"], name="T"), {"s": "u"})
    with pytest.raises(StructureError, match="mixed targets"):
        is_strict_epi_family(fs, [f1, f2])


def test_an_explicit_target_must_be_the_members_target():
    # as is_universal_strict_epi refuses it
    C = diamond()
    with pytest.raises(StructureError):
        is_universal_strict_epi(C, ["a.top", "b.top"], target="a")
    handle = FinCatHandle(C)
    with pytest.raises(StructureError, match="mixed targets"):
        is_strict_epi_family(handle, ["a.top", "b.top"], target="a")
    assert is_strict_epi_family(handle, ["a.top", "b.top"], target="top").ok
    # by content too: the keys agree, the contents do not
    fs = finset_category(3)
    f = finset_map(finset_obj(["s"]), finset_obj(["t"], name="T"), {"s": "t"})
    with pytest.raises(StructureError, match="mixed targets"):
        is_strict_epi_family(fs, [f], target=finset_obj(["u", "v"], name="T"))
    assert is_strict_epi_family(fs, [f], target=finset_obj(["t"], name="T")).ok


def test_universal_strict_epi_on_the_diamond():
    C = diamond()
    assert is_universal_strict_epi(C, ["a.top", "b.top"]).ok
    # a single point does not cover the top: no map top -> a exists
    assert not is_universal_strict_epi(C, ["a.top"]).ok
    assert is_universal_strict_epi(C, [], target="bot").ok
    assert not is_universal_strict_epi(C, [], target="a").ok
    assert is_universal_strict_epi(C, ["id_top"]).ok


def test_universal_strict_epi_reports_pullback_gaps():
    from conftest import parallel_arrows

    C = parallel_arrows()
    rep = is_universal_strict_epi(C, ["u"])
    assert any(g["base_change"] == "v" for g in rep.gaps)


# ---------------------------------------------------------------------------
# canonical pretopology


def test_canonical_pretopology_terminal_category():
    # the empty family is universal strict epi here: the only target is
    # the point itself, with a one-element hom set
    C = terminal_category()
    assert canonical_pretopology(C) == {"*": ((), ("id_*",))}


def test_canonical_pretopology_discrete_two_objects():
    C = discrete_category("two", ["l", "r"])
    assert canonical_pretopology(C) == {"l": (("id_l",),), "r": (("id_r",),)}


def test_canonical_pretopology_diamond_recovers_open_covers():
    covers = canonical_pretopology(diamond())
    assert ("a.top", "b.top") in covers["top"]
    assert () in covers["bot"]
    assert covers["a"] == (("id_a",),)


def test_canonical_pretopology_is_refused_past_its_arrow_cap(monkeypatch):
    # four arrows end at the diamond's top, at most two anywhere else
    monkeypatch.setattr(site_module, "MAX_PRETOPOLOGY_ARROWS", 4)
    assert ("a.top", "b.top") in canonical_pretopology(diamond())["top"]
    monkeypatch.setattr(site_module, "MAX_PRETOPOLOGY_ARROWS", 3)
    with pytest.raises(ResourceBudgetError) as exc:
        canonical_pretopology(diamond())
    assert (exc.value.operation, exc.value.requested, exc.value.budget) == (
        "canonical_pretopology", 16, 8
    )


def test_canonical_pretopology_group_prefers_identity_family():
    from conftest import z2_group

    covers = canonical_pretopology(z2_group())
    assert covers == {"*": (("id_*",),)}


@pytest.mark.parametrize("make", [diamond, lambda: SIER.base], ids=["diamond", "chain3"])
def test_canonical_pretopology_is_subcanonical(make):
    C = make()
    covers = canonical_pretopology(C)
    site = generate_topology(C, {X: [list(f) for f in fams] for X, fams in covers.items()})
    assert is_subcanonical(site).value


# ---------------------------------------------------------------------------
# continuity and subcanonicity


def test_epsilon_is_continuous():
    C = DISC.base
    eps = HandleFunctor(
        "epsilon",
        C,
        SheafCategory(DISC, 2),
        {X: epsilon(DISC, X) for X in C.objects},
        {m: epsilon_on_mor(DISC, m) for m in C.non_identities()},
    )
    rep = is_continuous(eps, DISC)
    assert rep.ok and rep.covers_checked == 2


def test_collapsing_functor_is_not_continuous():
    # send the two-point cover to a pair of maps that miss an element
    fs = finset_category(2)
    em, pt, two = finset_obj([]), finset_obj(["q"]), finset_obj(["t0", "t1"])
    p = HandleFunctor(
        "collapse",
        DISC.base,
        fs,
        {"bot": em, "a": pt, "b": pt, "top": two},
        {
            "bot.a": finset_map(em, pt, {}),
            "bot.b": finset_map(em, pt, {}),
            "bot.top": finset_map(em, two, {}),
            "a.top": finset_map(pt, two, {"q": "t0"}),
            "b.top": finset_map(pt, two, {"q": "t0"}),
        },
    )
    rep = is_continuous(p, DISC)
    assert not rep.ok
    assert rep.failures[0]["object"] == "top"


def test_any_functor_is_continuous_over_the_trivial_site():
    site = trivial_site(DISC.base)
    fs = finset_category(2)
    pt = finset_obj(["q"])
    p = HandleFunctor(
        "point", site.base, fs,
        {X: pt for X in site.base.objects},
        {m: fs.identity(pt) for m in site.base.non_identities()},
    )
    assert is_continuous(p, site).ok


def test_subcanonical_sites():
    assert is_subcanonical(SIER).value
    assert is_subcanonical(DISC).value
    assert is_subcanonical(trivial_site(diamond())).value


def test_empty_cover_of_a_populated_object_is_not_subcanonical():
    site = generate_topology(diamond(), {"a": [[]]})
    rep = is_subcanonical(site)
    assert not rep.value
    assert any(not entry["ok"] for entry in rep.covers_strict_epi)
    assert any(not entry["ok"] for entry in rep.representable_sheaves)


# ---------------------------------------------------------------------------
# the sheaf category handle


def test_trivial_site_handle_matches_presheaf_handle():
    site = trivial_site(diamond())
    Sh = SheafCategory(site, 1)
    Psh = PresheafCategory(site.base, 1)
    assert [F.values for F in Sh.objects()] == [F.values for F in Psh.objects()]


def test_sheaf_handle_is_the_full_subcategory_of_sheaves():
    site = fixture_sites(fixture_categories())["two_point_discrete"]
    Sh = SheafCategory(site, 2)
    census = PresheafCategory(site.base, 2).objects()
    assert Sh.objects() == [P for P in census if is_sheaf(P, site).ok]


def test_the_sheaf_handle_keeps_no_non_sheaf_alive(monkeypatch):
    site = fixture_sites(fixture_categories())["two_point_discrete"]
    made = []

    def recording(C, bound, real=presheaf.iter_presheaves):
        for P in real(C, bound):
            made.append(weakref.ref(P))
            yield P

    monkeypatch.setattr(presheaf, "iter_presheaves", recording)
    Sh = SheafCategory(site, 2)
    sheaves = Sh.objects()
    gc.collect()
    assert len(made) == 249 and len(sheaves) == 10
    assert [r() for r in made if r() is not None] == sheaves


def test_the_sheaf_handle_refuses_an_oversized_census_before_any_sheaf_check(monkeypatch):
    site = fixture_sites(fixture_categories())["two_point_discrete"]
    monkeypatch.setattr(site_module, "MAX_PRESHEAVES", 248)

    def no_check(*args):
        raise AssertionError("a sheaf check ran before the refusal")

    monkeypatch.setattr(site_module, "is_sheaf", no_check)
    with pytest.raises(ResourceBudgetError) as exc:
        SheafCategory(site, 2).objects()
    assert (exc.value.requested, exc.value.budget) == (249, 248)


def test_sheaf_count_matches_pair_model_bound_two():
    Sh = SheafCategory(DISC, 2)
    # pairs of sets of size <= 2 whose product also fits the bound,
    # weighted by the bijections realizing the product
    expected = 0
    for na in range(3):
        for nb in range(3):
            if na * nb <= 2:
                expected += 1 if na * nb == 0 else (1 if na * nb == 1 else 2)
    assert len(Sh.objects()) == expected == 10


def test_sheaf_products_and_coproducts_follow_the_pair_model():
    Sh = SheafCategory(DISC, 2)
    A = sheafify(
        make_presheaf(
            DISC.base,
            {"bot": ["z"], "a": ["a0"], "b": ["b0"], "top": ["t0"]},
            {
                "bot.a": {"a0": "z"},
                "bot.b": {"b0": "z"},
                "bot.top": {"t0": "z"},
                "a.top": {"t0": "a0"},
                "b.top": {"t0": "b0"},
            },
            name="A",
        ),
        DISC,
    ).sheaf
    B = sheafify(
        make_presheaf(
            DISC.base,
            {"bot": ["z"], "a": ["a0"], "b": ["b0", "b1"], "top": ["t0", "t1"]},
            {
                "bot.a": {"a0": "z"},
                "bot.b": {"b0": "z", "b1": "z"},
                "bot.top": {"t0": "z", "t1": "z"},
                "a.top": {"t0": "a0", "t1": "a0"},
                "b.top": {"t0": "b0", "t1": "b1"},
            },
            name="B",
        ),
        DISC,
    ).sheaf
    pair = discrete_category("pair2", ["1", "2"])
    prod = Sh.limit(HandleDiagram(pair, {"1": A, "2": B}, {}))
    assert len(prod.apex.values["a"]) == 1 * 1
    assert len(prod.apex.values["b"]) == 1 * 2
    assert len(prod.apex.values["top"]) == 1 * 2
    cop = Sh.colimit(HandleDiagram(pair, {"1": A, "2": B}, {}))
    assert is_sheaf(cop.apex, DISC).ok
    assert len(cop.apex.values["bot"]) == 1
    assert len(cop.apex.values["a"]) == 2
    assert len(cop.apex.values["b"]) == 3
    assert len(cop.apex.values["top"]) == 2 * 3
    # mediating maps work through the sheafified colimit
    legs2 = {"1": Sh.hom(A, A)[0], "2": Sh.hom(B, A)[0]} if Sh.hom(B, A) else None
    if legs2:
        med = cop.factor(A, legs2)
        for j in ("1", "2"):
            got = compose_presheaf_morphisms(med, cop.legs[j])
            assert got.components == legs2[j].components


def test_terminal_and_initial_sheaves():
    Sh = SheafCategory(DISC, 2)
    empty_diag = HandleDiagram(discrete_category("none", []), {}, {})
    top = Sh.limit(empty_diag)
    assert all(len(v) == 1 for v in top.apex.values.values())
    bottom = Sh.colimit(empty_diag)
    # the initial sheaf has a point over the empty open and nothing else
    assert is_sheaf(bottom.apex, DISC).ok
    assert len(bottom.apex.values["bot"]) == 1
    assert bottom.apex.values["a"] == ()


def test_sheaf_limits_stay_sheaves():
    Sh = SheafCategory(DISC, 2)
    sheaves = Sh.objects()
    F = next(S for S in sheaves if len(S.values["top"]) == 2)
    D = HandleDiagram(
        parallel_pair_category(),
        {"a": F, "b": F},
        {"u": presheaf_identity(F), "v": presheaf_identity(F)},
    )
    eq = Sh.limit(D)
    assert is_sheaf(eq.apex, DISC).ok
