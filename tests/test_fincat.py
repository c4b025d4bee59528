"""Category-law validation, duality, functors, cone search, cofilteredness.

Oracle: every universal cone returned by the search is re-verified
against the raw definition by an independent checker.  Cones over
functors between the conftest categories are also checked in order
against a product scan through the cone triangles.  The handle's colimits,
taken as limits in the opposite category, are checked against a cocone
search on the dual functor with its own factoring.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    chain,
    diamond,
    discrete2,
    parallel_arrows,
    walking_idempotent,
    z2_group,
)
from toposkit import fincat
from toposkit.errors import FactorizationError, StructureError
from toposkit.fincat import (
    Cone,
    FinCatHandle,
    FinCategory,
    FinFunctor,
    HandleDiagram,
    HandleFunctor,
    Morphism,
    discrete_category,
    enumerate_cones,
    is_cofiltered,
    make_category,
    opposite,
    parallel_pair_category,
    poset_category,
    terminal_category,
    universal_cone_search,
    validate_category,
    validate_functor,
    validate_handle_functor,
)
from toposkit.presheaf import finset_category, finset_map, finset_obj

# ---------------------------------------------------------------------------
# oracles


def oracle_is_limit(D: FinFunctor, cone: Cone) -> bool:
    """Raw universality: every cone over D factors through exactly one morphism."""
    C = D.cod
    jobjs = sorted(D.dom.objects)
    for other in enumerate_cones(D):
        hits = [
            f
            for f in C.hom(other.apex, cone.apex)
            if all(C.compose(cone.legs[j], f) == other.legs[j] for j in jobjs)
        ]
        if len(hits) != 1:
            return False
    return True


def oracle_colimit(D: FinFunctor):
    """Colimit cocone of D as (apex, legs) or None, by the limit search on
    the dual functor built by hand; the reference for the handle's colimit."""
    dual = FinFunctor(opposite(D.dom), opposite(D.cod), dict(D.obj_map), dict(D.mor_map))
    cone = universal_cone_search(dual)
    if cone is None:
        return None
    return cone.apex, dict(cone.legs)


def oracle_colimit_factor(C: FinCategory, apex: str, legs, apex2: str, legs2) -> str:
    """The unique f: apex -> apex2 with f . legs[j] == legs2[j] for all j."""
    hits = [
        f
        for f in C.hom(apex, apex2)
        if all(C.compose(f, legs[j]) == legs2[j] for j in legs)
    ]
    if len(hits) != 1:
        raise FactorizationError(f"expected one mediating morphism, found {len(hits)}")
    return hits[0]


def handle_diagram(D: FinFunctor) -> HandleDiagram:
    return HandleDiagram(
        D.dom, dict(D.obj_map), {m: D.mor_map[m] for m in D.dom.non_identities()}
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_make_category_fills_identities_and_unit_rows():
    C = z2_group()
    assert C.compose("s", "id_*") == "s"
    assert C.compose("id_*", "s") == "s"
    assert C.compose("s", "s") == "id_*"
    assert validate_category(C).ok


def test_make_category_missing_composite_is_an_error():
    with pytest.raises(StructureError, match="missing"):
        make_category("bad", ["x"], [("f", "x", "x")], {})


def test_make_category_rejects_unknown_endpoints():
    with pytest.raises(StructureError, match="endpoint"):
        make_category("bad", ["x"], [("f", "x", "y")], {})


def test_validate_catches_broken_associativity():
    # x --f--> x with f.f = f but (f.f).f forced inconsistent via manual table
    mors = (
        Morphism("id_x", "x", "x"),
        Morphism("f", "x", "x"),
        Morphism("g", "x", "x"),
    )
    table = {
        ("id_x", "id_x"): "id_x",
        ("id_x", "f"): "f", ("f", "id_x"): "f",
        ("id_x", "g"): "g", ("g", "id_x"): "g",
        ("f", "f"): "g", ("f", "g"): "id_x", ("g", "f"): "f",
        ("g", "g"): "g",
    }
    C = FinCategory("broken", ("x",), mors, {"x": "id_x"}, table)
    rep = validate_category(C)
    assert not rep.ok
    assert any(v.law == "associativity" for v in rep.violations)


def test_validate_catches_missing_identity():
    C = FinCategory("noid", ("x",), (Morphism("f", "x", "x"),), {}, {("f", "f"): "f"})
    rep = validate_category(C)
    assert any(v.law == "identity-missing" for v in rep.violations)


def test_validate_catches_partial_composition_table():
    mors = (Morphism("id_x", "x", "x"), Morphism("f", "x", "x"))
    table = {("id_x", "id_x"): "id_x", ("id_x", "f"): "f", ("f", "id_x"): "f"}
    C = FinCategory("partial", ("x",), mors, {"x": "id_x"}, table)
    rep = validate_category(C)
    assert any(v.law == "compose-total" for v in rep.violations)


def test_validate_enforces_size_caps(monkeypatch):
    objs = [f"o{i}" for i in range(7)]
    C = make_category("big", objs)
    rep = validate_category(C)
    assert any(v.law == "size-bound" for v in rep.violations)
    monkeypatch.setattr(fincat, "MAX_OBJECTS", 7)
    assert validate_category(C).ok


def test_validate_morphism_cap_counts_non_identities():
    mors = [(f"m{i}", "x", "x") for i in range(25)]
    compose = {(f"m{i}", f"m{j}"): "m0" for i in range(25) for j in range(25)}
    # deliberately non-associative is fine for the cap check; build raw
    C = make_category("many", ["x"], mors, compose)
    rep = validate_category(C)
    assert any(v.law == "size-bound" for v in rep.violations)


def test_poset_category_takes_transitive_closure():
    C = chain(3)
    assert C.has_mor("c0.c2")
    assert C.compose("c1.c2", "c0.c1") == "c0.c2"
    assert validate_category(C).ok


# ---------------------------------------------------------------------------
# duality


def test_opposite_reverses_and_is_involutive():
    C = diamond()
    Cop = opposite(C)
    assert Cop.src("bot.a") == "a" and Cop.tgt("bot.a") == "bot"
    assert validate_category(Cop).ok
    assert opposite(Cop) == C


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] < p[1])))
def test_opposite_involutive_on_random_posets(pairs):
    objs = [f"p{i}" for i in range(4)]
    C = poset_category("rnd", objs, [(objs[a], objs[b]) for a, b in pairs])
    assert validate_category(C).ok
    assert validate_category(opposite(C)).ok
    assert opposite(opposite(C)) == C


def test_opposite_swaps_limits_and_colimits():
    C = diamond()
    D = FinFunctor(discrete_category("2", ["l", "r"]), C, {"l": "a", "r": "b"}, {})
    assert universal_cone_search(D).apex == "bot"
    assert FinCatHandle(C).colimit(handle_diagram(D)).apex == "top"


# ---------------------------------------------------------------------------
# functors


def test_validate_functor_accepts_monotone_map():
    C2, C3 = chain(2), chain(3)
    F = FinFunctor(
        C2, C3,
        {"c0": "c0", "c1": "c2"},
        {"id_c0": "id_c0", "id_c1": "id_c2", "c0.c1": "c0.c2"},
    )
    assert validate_functor(F).ok


def test_validate_functor_catches_composition_failure():
    Z, I = z2_group(), walking_idempotent()
    # s |-> e2 breaks F(s.s) = F(id) since e2.e2 = e2 != id_e
    F = FinFunctor(Z, I, {"*": "e"}, {"id_*": "id_e", "s": "e2"})
    rep = validate_functor(F)
    assert any(v.law == "composition" for v in rep.violations)


def test_validate_handle_functor_flags_a_namesake_endpoint():
    # c0.c1 starts at a set named A, but not at the A that c0 goes to
    arrow = chain(2)
    B = finset_obj(["b"], name="B")
    p = HandleFunctor(
        "p", arrow, finset_category(3),
        {"c0": finset_obj(["a"], name="A"), "c1": B},
        {"c0.c1": finset_map(finset_obj(["x", "y"], name="A"), B, {"x": "b", "y": "b"})},
    )
    rep = validate_handle_functor(p)
    assert [v.detail for v in rep.violations] == ["value of c0.c1 has wrong source"]


# ---------------------------------------------------------------------------
# cones


SHAPES = (discrete2, parallel_arrows, lambda: chain(2), z2_group, walking_idempotent)
TARGETS = (diamond, lambda: chain(3), parallel_arrows, z2_group, walking_idempotent)
FUNCTORS: dict[tuple[int, int], list[FinFunctor]] = {}


def functors_between(j: int, c: int) -> list[FinFunctor]:
    """Every functor SHAPES[j] -> TARGETS[c], by validating all assignments."""
    if (j, c) not in FUNCTORS:
        J, C = SHAPES[j](), TARGETS[c]()
        objs, mors = sorted(J.objects), sorted(J.non_identities())
        found = []
        for images in itertools.product(sorted(C.objects), repeat=len(objs)):
            obj_map = dict(zip(objs, images))
            ids = {J.id_of(x): C.id_of(obj_map[x]) for x in objs}
            pools = [C.hom(obj_map[J.src(m)], obj_map[J.tgt(m)]) for m in mors]
            for arrows in itertools.product(*pools):
                F = FinFunctor(J, C, obj_map, {**ids, **dict(zip(mors, arrows))})
                if validate_functor(F).ok:
                    found.append(F)
        FUNCTORS[(j, c)] = found
    return FUNCTORS[(j, c)]


def draw_functor(data, j: int, c: int) -> FinFunctor:
    return data.draw(st.sampled_from(functors_between(j, c)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cones_follow_the_product_order_of_the_triangles(data):
    j = data.draw(st.integers(0, len(SHAPES) - 1))
    c = data.draw(st.integers(0, len(TARGETS) - 1))
    D = draw_functor(data, j, c)
    C, J, jobjs = D.cod, D.dom, sorted(D.dom.objects)
    want = []
    for apex in sorted(C.objects):
        for legs in itertools.product(*[C.hom(apex, D.obj_map[k]) for k in jobjs]):
            leg = dict(zip(jobjs, legs))
            if all(C.compose(D.mor_map[m.name], leg[m.src]) == leg[m.tgt] for m in J.morphisms):
                want.append((apex, leg))
    assert [(cone.apex, cone.legs) for cone in enumerate_cones(D)] == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_handle_colimit_matches_the_dual_cocone_search(data):
    j = data.draw(st.integers(0, len(SHAPES) - 1))
    c = data.draw(st.integers(0, len(TARGETS) - 1))
    D = draw_functor(data, j, c)
    C = D.cod
    want = oracle_colimit(D)
    h = FinCatHandle(C)
    if want is None:
        with pytest.raises(FactorizationError):
            h.colimit(handle_diagram(D))
        return
    got = h.colimit(handle_diagram(D))
    assert (got.apex, got.legs) == want
    # every cocone over D is a cone over the dual functor
    dual = FinFunctor(opposite(D.dom), opposite(C), D.obj_map, D.mor_map)
    for other in enumerate_cones(dual):
        try:
            expected = oracle_colimit_factor(C, *want, other.apex, other.legs)
        except FactorizationError:
            with pytest.raises(FactorizationError):
                got.factor(other.apex, other.legs)
        else:
            assert got.factor(other.apex, other.legs) == expected


def test_meet_is_product_in_poset(diamond_cat):
    D = FinFunctor(discrete_category("2", ["l", "r"]), diamond_cat, {"l": "a", "r": "b"}, {})
    cone = universal_cone_search(D)
    assert cone.apex == "bot"
    assert cone.legs == {"l": "bot.a", "r": "bot.b"}
    assert oracle_is_limit(D, cone)


def test_pullback_in_poset_is_meet(diamond_cat):
    from toposkit.fincat import cospan_category

    J = cospan_category()
    D = FinFunctor(
        J, diamond_cat,
        {"l": "a", "m": "top", "r": "b"},
        {"lm": "a.top", "rm": "b.top"},
    )
    cone = universal_cone_search(D)
    assert cone.apex == "bot"
    assert oracle_is_limit(D, cone)


def test_group_has_no_binary_product():
    Z = z2_group()
    D = FinFunctor(discrete_category("2", ["l", "r"]), Z, {"l": "*", "r": "*"}, {})
    assert universal_cone_search(D) is None


def test_parallel_pair_has_no_equalizer_in_its_walking_category():
    P = parallel_pair_category()
    D = FinFunctor(P, P, {x: x for x in P.objects}, {m.name: m.name for m in P.morphisms})
    assert universal_cone_search(D) is None


def test_empty_diagram_limit_is_terminal_object(diamond_cat):
    D = FinFunctor(make_category("0", ()), diamond_cat, {}, {})
    cone = universal_cone_search(D)
    assert cone.apex == "top"
    co = FinCatHandle(diamond_cat).colimit(handle_diagram(D))
    assert co.apex == "bot"


def test_every_returned_cone_passes_raw_universality():
    cats = [diamond(), chain(4), walking_idempotent()]
    for C in cats:
        for x in C.objects:
            for y in C.objects:
                D = FinFunctor(discrete_category("2", ["l", "r"]), C, {"l": x, "r": y}, {})
                cone = universal_cone_search(D)
                if cone is not None:
                    assert oracle_is_limit(D, cone)


def test_cone_search_returns_lexicographically_smallest_apex():
    # two isomorphic terminal-ish candidates: use a category with two
    # isomorphic objects t1 ~ t2 both terminal
    mors = [
        ("f", "t1", "t2"), ("g", "t2", "t1"),
    ]
    comp = {("g", "f"): "id_t1", ("f", "g"): "id_t2"}
    C = make_category("twins", ["t1", "t2"], mors, comp)
    assert validate_category(C).ok
    D = FinFunctor(make_category("0", ()), C, {}, {})
    assert universal_cone_search(D).apex == "t1"


# ---------------------------------------------------------------------------
# cofilteredness


def test_poset_with_bottom_is_cofiltered(diamond_cat):
    assert is_cofiltered(diamond_cat).ok


def test_discrete_pair_is_not_cofiltered():
    rep = is_cofiltered(discrete2())
    assert any(v.law == "span" for v in rep.violations)


def test_parallel_pair_category_is_not_cofiltered():
    rep = is_cofiltered(parallel_arrows())
    assert any(v.law == "equalizing-arrow" for v in rep.violations)


def test_empty_category_is_not_cofiltered():
    rep = is_cofiltered(make_category("0", ()))
    assert any(v.law == "nonempty" for v in rep.violations)


def test_group_is_cofiltered():
    # single object, and s is equalized by nothing... checked by hand:
    # parallel pair (id, s): need e with id.e = s.e, i.e. e = s.e; no such e
    rep = is_cofiltered(z2_group())
    assert not rep.ok


# ---------------------------------------------------------------------------
# handles


def test_fincat_handle_limits_and_factoring(diamond_cat):
    h = FinCatHandle(diamond_cat)
    J = discrete_category("2", ["l", "r"])
    lim = h.limit(HandleDiagram(J, {"l": "a", "r": "b"}, {}))
    assert lim.apex == "bot"
    med = lim.factor("bot", {"l": "bot.a", "r": "bot.b"})
    assert med == "id_bot"
    colim = h.colimit(HandleDiagram(J, {"l": "a", "r": "b"}, {}))
    assert colim.apex == "top"
    assert colim.factor("top", {"l": "a.top", "r": "b.top"}) == "id_top"


def test_fincat_handle_try_limit_returns_none_when_absent():
    h = FinCatHandle(z2_group())
    J = discrete_category("2", ["l", "r"])
    assert h.try_limit(HandleDiagram(J, {"l": "*", "r": "*"}, {})) is None


def test_handle_terminal_initial(diamond_cat):
    h = FinCatHandle(diamond_cat)
    assert h.terminal() == "top"
    assert h.colimit(HandleDiagram(make_category("empty", ()), {}, {})).apex == "bot"
    assert h.is_iso("id_a")
    assert not h.is_iso("bot.a")
