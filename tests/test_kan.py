"""Extensions along representables, their adjunctions, and flatness.

The oracle for extension values is a raw union-find over triples
(object, element, point) built directly from the presheaf and functor
tables, so colimit sizes are checked against code that shares nothing
with the colimit machinery.  Hom counts in FinSet reduce to arithmetic.
The elements of a set-valued functor, read off the category of elements
of its transpose, are checked against a direct construction from the
functor's tables.
"""

import copy
import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parallel_arrows, walking_idempotent, z2_group
from toposkit import kan, presheaf
from toposkit.errors import (
    ConsistencyError,
    ConstructionRefused,
    ResourceBudgetError,
    StructureError,
)
from toposkit.fincat import (
    FinCategory,
    HandleDiagram,
    Morphism,
    HandleFunctor,
    discrete_category,
    is_cofiltered,
    make_category,
    opposite,
    parallel_pair_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_handle_functor,
)
from toposkit.kan import (
    _hp_value,
    adjunction_phi,
    build_ell,
    covariant_elements,
    eta_component,
    eta_iso,
    extension_limit_comparison,
    hp_on_mor,
    is_flat_bounded,
    is_flat_setvalued,
    right_adjoint_hp,
    tilde_extend,
    tilde_extend_mor,
)
from toposkit.presheaf import (
    PresheafMorphism,
    compose_presheaf_morphisms,
    constant_presheaf,
    enumerate_presheaf_morphisms,
    element_node,
    enumerate_presheaves,
    find_presheaf_iso,
    finset_category,
    finset_map,
    finset_obj,
    finset_value,
    presheaf_category,
    presheaf_identity,
    short_key,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda_embed,
    yoneda_on_mor,
)
from toposkit.site import SheafCategory, epsilon, generate_topology, is_sheaf

# ---------------------------------------------------------------------------
# fixtures

ONE = terminal_category()
ARROW = poset_category("arrow", ["s", "t"], [("s", "t")])
CHAIN2 = poset_category("chain2", ["u", "v"], [("u", "v")])
DIAMOND = poset_category(
    "diamond",
    ["bot", "a", "b", "top"],
    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"), ("bot", "top")],
)
FS = finset_category(3)

E0 = finset_obj([], name="E0")
PT = finset_obj(["q"], name="pt")
S2 = finset_obj(["s0", "s1"], name="S2")
Z2 = finset_obj(["z0", "z1"], name="Z2")


def const_map(dom, cod, label):
    return finset_map(dom, cod, {x: label for x in finset_value(dom)})


def one_to(A):
    """The functor 1 -> FinSet picking out the finite set A."""
    return HandleFunctor(f"pick_{A.name}", ONE, FS, {"*": A}, {})


def upset_char(C, upset, name):
    """Characteristic functor of an up-closed subset of a poset."""
    obj_map = {X: (PT if X in upset else E0) for X in C.objects}
    mor_map = {}
    for m in C.non_identities():
        d, c = obj_map[C.src(m)], obj_map[C.tgt(m)]
        mor_map[m] = finset_map(d, c, {"q": "q"} if finset_value(d) else {})
    return HandleFunctor(name, C, FS, obj_map, mor_map)


POINT_A = upset_char(DIAMOND, {"a", "top"}, "point_a")

# p(u) has two points merged over the top of the chain; exact up to the
# terminal shape but not on binary products
DOUBLE_U = HandleFunctor(
    "double_u",
    CHAIN2,
    FS,
    {"u": S2, "v": PT},
    {"u.v": const_map(S2, PT, "q")},
)


def corpus_functors():
    pairs = [(POINT_A, "point_a"), (DOUBLE_U, "double_u"), (one_to(S2), "pick_S2")]
    pairs.append((upset_char(DIAMOND, {"bot", "a", "b", "top"}, "all_diamond"), "all_diamond"))
    pairs.append((upset_char(CHAIN2, {"v"}, "top_chain2"), "top_chain2"))
    return pairs


# ---------------------------------------------------------------------------
# oracles


def oracle_extension_classes(p, H):
    """Connected components of pairs (element of H(X), point of p(X)).

    Generators live at (X, e, x); every arrow f: X -> Y glues (X, H(f)e', x)
    to (Y, e', p(f)x).  This is the colimit of p over the elements of H,
    computed with no colimit code at all.
    """
    C = H.base
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for X in C.objects:
        for e in H.values[X]:
            for x in finset_value(p.obj_map[X]):
                parent[(X, e, x)] = (X, e, x)
    for m in C.non_identities():
        X, Y = C.src(m), C.tgt(m)
        restrict = H.actions[m]
        push = p.on_mor(m).components["*"]
        for e2 in H.values[Y]:
            for x in finset_value(p.obj_map[X]):
                union((X, restrict[e2], x), (Y, e2, push[x]))
    return {find(k) for k in parent}


def fs_hom_count(A, B):
    a, b = len(finset_value(A)), len(finset_value(B))
    return b**a if a else 1


def extension_size(p, H):
    return len(finset_value(tilde_extend(p, H).obj))


# ---------------------------------------------------------------------------
# the extension as a colimit


def test_extension_size_matches_union_find_oracle():
    for p, _ in corpus_functors():
        C = p.dom
        for H in enumerate_presheaves(C, 2, max_count=300):
            assert extension_size(p, H) == len(oracle_extension_classes(p, H))


def test_extension_of_product_presheaf_on_point_is_product():
    p = one_to(S2)
    H = constant_presheaf(ONE, ["h0", "h1"], name="H")
    value = tilde_extend(p, H)
    assert len(finset_value(value.obj)) == 4
    assert len(oracle_extension_classes(p, H)) == 4


def test_extension_of_initial_presheaf_is_initial():
    for p, _ in corpus_functors():
        zero = constant_presheaf(p.dom, [], name="0")
        assert finset_value(tilde_extend(p, zero).obj) == ()


def test_extension_rejects_presheaf_on_wrong_base():
    H = constant_presheaf(ARROW, ["h"], name="H")
    with pytest.raises(StructureError):
        tilde_extend(POINT_A, H)


def test_extension_values_are_memoized():
    H = yoneda_embed(DIAMOND, "top")
    assert tilde_extend(POINT_A, H) is tilde_extend(POINT_A, H)


def test_extension_memo_dies_with_its_functor():
    p = upset_char(DIAMOND, {"a", "top"}, "throwaway")
    tilde_extend(p, yoneda_embed(DIAMOND, "top"))
    alive = weakref.ref(p)
    del p
    gc.collect()
    assert alive() is None


def test_extension_memo_keeps_neither_the_presheaf_nor_its_elements():
    p = upset_char(DIAMOND, {"a", "top"}, "keeper")
    H = constant_presheaf(DIAMOND, ["h0", "h1"], name="temporary")
    value = tilde_extend(p, H)
    assert [f.name for f in dataclasses.fields(value)] == ["obj_elem", "colimit"]
    assert set(value.obj_elem) == set(value.colimit.legs)
    gone = weakref.ref(H)
    del H
    gc.collect()
    assert gone() is None
    assert list(p._memo["extension"].values()) == [value]
    assert validate_presheaf(value.obj).ok


def test_extension_maps_phi_and_eta_agree_with_the_colimit_legs():
    p = POINT_A
    for X in DIAMOND.objects:
        legs = tilde_extend(p, yoneda_embed(DIAMOND, X)).colimit.legs
        assert eta_component(p, X) is legs[element_node(f"id_{X}", X)]
    for m in DIAMOND.non_identities():
        t = yoneda_on_mor(DIAMOND, m)
        vf, vg = tilde_extend(p, t.dom), tilde_extend(p, t.cod)
        lifted = tilde_extend_mor(p, t)
        for n, (e, X) in vf.obj_elem.items():
            leg = vg.colimit.legs[element_node(t.components[X][e], X)]
            assert FS.equal_mor(FS.compose(lifted, vf.colimit.legs[n]), leg)
    H = yoneda_embed(DIAMOND, "top")
    value = tilde_extend(p, H)
    phi = adjunction_phi(p, H, Z2)
    decode = _hp_value(p, Z2).decode
    for w in FS.hom(value.obj, Z2):
        t = phi.forward(w)
        for n, (e, X) in value.obj_elem.items():
            leg = FS.compose(w, value.colimit.legs[n])
            assert FS.equal_mor(decode[X][t.components[X][e]], leg)
        assert FS.equal_mor(phi.backward(t), w)


def test_prefix_read_of_a_large_hom_set_keeps_only_the_prefix():
    FS9 = finset_category(9)
    A = finset_obj([f"a{i}" for i in range(9)], name="A9")
    B = finset_obj(["b0", "b1", "b2"], name="B3")
    got = FS9.hom_prefix(A, B, 2)
    (maps, complete), = FS9._hom_memo.values()
    assert len(maps) == 2 and not complete
    first = {f"a{i}": "b0" for i in range(9)}
    assert [t.components["*"] for t in got] == [first, {**first, "a8": "b1"}]
    assert len(FS9.hom(A, B)) == 3**9


def test_extension_preserves_identities_and_composition():
    p = DOUBLE_U
    presheaves = list(enumerate_presheaves(CHAIN2, 2, max_count=20))
    for H in presheaves[:4]:
        value = tilde_extend(p, H)
        lifted = tilde_extend_mor(p, presheaf_identity(H))
        assert FS.equal_mor(lifted, FS.identity(value.obj))
    F, G = presheaves[1], presheaves[3]
    for t1 in enumerate_presheaf_morphisms(F, G)[:3]:
        for t2 in enumerate_presheaf_morphisms(G, F)[:3]:
            lhs = tilde_extend_mor(p, compose_presheaf_morphisms(t2, t1))
            rhs = FS.compose(tilde_extend_mor(p, t2), tilde_extend_mor(p, t1))
            assert FS.equal_mor(lhs, rhs)


# ---------------------------------------------------------------------------
# the unit on representables


def test_eta_components_invert_representable_extensions():
    for p, _ in corpus_functors():
        res = eta_iso(p)
        assert res.report.ok, res.report.violations
        for X in p.dom.objects:
            comp = res.components[X]
            assert FS.source(comp) == p.obj_map[X]
            assert FS.is_iso(comp)


def test_eta_size_identity_against_oracle():
    for p, _ in corpus_functors():
        for X in p.dom.objects:
            H = yoneda_embed(p.dom, X)
            assert len(oracle_extension_classes(p, H)) == len(finset_value(p.obj_map[X]))


def test_eta_naturality_square_recomputed_by_hand():
    p = POINT_A
    comps = {X: eta_component(p, X) for X in DIAMOND.objects}
    for m in DIAMOND.non_identities():
        X, Y = DIAMOND.src(m), DIAMOND.tgt(m)
        lifted = tilde_extend_mor(p, yoneda_on_mor(DIAMOND, m))
        lhs = FS.compose(lifted, comps[X])
        rhs = FS.compose(comps[Y], p.on_mor(m))
        assert FS.equal_mor(lhs, rhs)


def test_eta_reads_the_identity_by_its_own_name():
    # the identity of x is not called id_x here
    C = FinCategory(
        "pt1", ("x",), (Morphism("one_x", "x", "x"),), {"x": "one_x"}, {("one_x", "one_x"): "one_x"}
    )
    assert validate_category(C).ok
    res = eta_iso(HandleFunctor("pick", C, FS, {"x": S2}, {}))
    assert res.report.ok, res.report.violations
    assert FS.source(res.components["x"]) == S2


# ---------------------------------------------------------------------------
# the right adjoint


def test_hp_sizes_are_hom_counts():
    for p, _ in corpus_functors():
        for z in (E0, PT, Z2):
            hp = right_adjoint_hp(p, z)
            assert validate_presheaf(hp).ok
            for X in p.dom.objects:
                assert len(hp.values[X]) == fs_hom_count(p.obj_map[X], z)


def test_hp_into_terminal_is_terminal_presheaf():
    for p, _ in corpus_functors():
        hp = right_adjoint_hp(p, PT)
        assert all(len(hp.values[X]) == 1 for X in p.dom.objects)


def test_hp_of_yoneda_recovers_the_presheaf():
    """With p the Yoneda embedding, maps h_X -> G are the elements of G(X)."""
    PSH = presheaf_category(ARROW, 2)
    yo = HandleFunctor(
        "yo",
        ARROW,
        PSH,
        {X: yoneda_embed(ARROW, X) for X in ARROW.objects},
        {m: yoneda_on_mor(ARROW, m) for m in ARROW.non_identities()},
    )
    assert validate_handle_functor(yo).ok
    for G in enumerate_presheaves(ARROW, 2, max_count=12):
        hp = right_adjoint_hp(yo, G)
        for X in ARROW.objects:
            assert len(hp.values[X]) == len(G.values[X])
        assert find_presheaf_iso(hp, G) is not None


def test_hp_on_mor_is_functorial_postcomposition():
    p = POINT_A
    w = const_map(S2, Z2, "z0")
    v = finset_map(Z2, S2, {"z0": "s1", "z1": "s0"})
    tw, tv = hp_on_mor(p, w), hp_on_mor(p, v)
    assert validate_presheaf_morphism(tw).ok
    comp = hp_on_mor(p, FS.compose(v, w))
    assert compose_presheaf_morphisms(tv, tw).components == comp.components
    ident = hp_on_mor(p, FS.identity(Z2))
    assert ident.components == presheaf_identity(right_adjoint_hp(p, Z2)).components


def test_hp_tables_keep_apart_name_clashes_and_content_clashes():
    p = POINT_A
    # same name, different content: the hom sets differ
    small, big = finset_obj(["z0"], name="Z"), finset_obj(["z0", "z1"], name="Z")
    assert right_adjoint_hp(p, small).values != right_adjoint_hp(p, big).values
    # same content, different name: the name feeds the table and its maps
    w2 = finset_obj(["z0", "z1"], name="W2")
    hz, hw = right_adjoint_hp(p, Z2), right_adjoint_hp(p, w2)
    assert (hz.name, hw.name) == ("h_point_a(Z2)", "h_point_a(W2)")
    assert hz.values == hw.values and hz.actions == hw.actions
    assert hp_on_mor(p, FS.identity(w2)).cod is hw
    # equal targets share one table
    assert right_adjoint_hp(p, finset_obj(["z0", "z1"], name="Z2")) is hz


def test_hp_table_memo_dies_with_its_functor():
    p = upset_char(DIAMOND, {"a", "top"}, "throwaway")
    table = weakref.ref(right_adjoint_hp(p, Z2))
    assert right_adjoint_hp(p, Z2) is table()
    alive = weakref.ref(p)
    del p
    gc.collect()
    assert alive() is None and table() is None


def test_hp_budget_refusal_is_raised_again_and_never_cached(monkeypatch):
    monkeypatch.setattr(presheaf, "HOM_BUDGET", 4)
    FS_tight = finset_category(3)
    p = HandleFunctor("pick_S2", ONE, FS_tight, {"*": S2}, {})
    T3 = finset_obj(["t0", "t1", "t2"], name="T3")  # 9 maps S2 -> T3
    for _ in range(2):
        with pytest.raises(ResourceBudgetError):
            right_adjoint_hp(p, T3)
    monkeypatch.setattr(presheaf, "HOM_BUDGET", 100)
    assert len(right_adjoint_hp(p, T3).values["*"]) == 9


# ---------------------------------------------------------------------------
# the adjunction bijection


def test_currying_counts_match_on_the_point():
    p = one_to(S2)
    H = constant_presheaf(ONE, ["h0", "h1"], name="H")
    value = tilde_extend(p, H)
    homs = FS.hom(value.obj, Z2)
    nats = enumerate_presheaf_morphisms(H, right_adjoint_hp(p, Z2))
    assert len(homs) == 16
    assert len(nats) == 16


def test_phi_forward_backward_are_mutually_inverse():
    cases = [
        (one_to(S2), constant_presheaf(ONE, ["h0", "h1"], name="H"), Z2),
        (POINT_A, yoneda_embed(DIAMOND, "top"), Z2),
        (DOUBLE_U, yoneda_embed(CHAIN2, "u"), S2),
    ]
    for p, H, z in cases:
        phi = adjunction_phi(p, H, z)
        value = tilde_extend(p, H)
        for w in FS.hom(value.obj, z):
            t = phi.forward(w)
            assert validate_presheaf_morphism(t).ok
            assert FS.equal_mor(phi.backward(t), w)
        for t in enumerate_presheaf_morphisms(H, right_adjoint_hp(p, z)):
            round_trip = phi.forward(phi.backward(t))
            assert round_trip.components == t.components


def test_phi_is_natural_in_the_presheaf():
    """phi(w) restricted along s: H' -> H equals phi(w after extension of s)."""
    p = DOUBLE_U
    H = yoneda_embed(CHAIN2, "v")
    Hp = yoneda_embed(CHAIN2, "u")
    s = yoneda_on_mor(CHAIN2, "u.v")
    phi_H = adjunction_phi(p, H, Z2)
    phi_Hp = adjunction_phi(p, Hp, Z2)
    lifted = tilde_extend_mor(p, s)
    for w in FS.hom(tilde_extend(p, H).obj, Z2):
        lhs = compose_presheaf_morphisms(phi_H.forward(w), s)
        rhs = phi_Hp.forward(FS.compose(w, lifted))
        assert lhs.components == rhs.components


def test_phi_is_natural_in_the_target():
    p = POINT_A
    H = yoneda_embed(DIAMOND, "a")
    v = finset_map(Z2, S2, {"z0": "s1", "z1": "s0"})
    phi_z = adjunction_phi(p, H, Z2)
    phi_s = adjunction_phi(p, H, S2)
    post = hp_on_mor(p, v)
    for w in FS.hom(tilde_extend(p, H).obj, Z2):
        lhs = phi_s.forward(FS.compose(v, w))
        rhs = compose_presheaf_morphisms(post, phi_z.forward(w))
        assert lhs.components == rhs.components


def test_phi_on_representables_reduces_to_maps_out_of_p():
    """Composing backward with the unit is a bijection onto hom(p(X), z)."""
    p = POINT_A
    for X in DIAMOND.objects:
        H = yoneda_embed(DIAMOND, X)
        phi = adjunction_phi(p, H, Z2)
        eta = eta_component(p, X)
        keys = {
            FS.mor_key(FS.compose(phi.backward(t), eta))
            for t in enumerate_presheaf_morphisms(H, right_adjoint_hp(p, Z2))
        }
        assert len(keys) == fs_hom_count(p.obj_map[X], Z2)


def test_phi_on_initial_presheaf_is_the_trivial_bijection():
    p = POINT_A
    zero = constant_presheaf(DIAMOND, [], name="0")
    phi = adjunction_phi(p, zero, Z2)
    homs = FS.hom(tilde_extend(p, zero).obj, Z2)
    assert len(homs) == 1
    t = phi.forward(homs[0])
    assert all(not c for c in t.components.values())
    assert FS.equal_mor(phi.backward(t), homs[0])


# ---------------------------------------------------------------------------
# the exactness comparisons


NO_OBJECTS = HandleDiagram(discrete_category("none", []), {}, {})


def terminal_comparison(p):
    """extension(terminal presheaf) -> terminal of Z: the limit comparison
    over the empty diagram."""
    return extension_limit_comparison(p, NO_OBJECTS)


def coproduct_diagram(C, F, G):
    return HandleDiagram(discrete_category("pair2", ["1", "2"]), {"1": F, "2": G}, {})


def test_terminal_comparison_detects_the_failing_point():
    assert FS.is_iso(terminal_comparison(one_to(PT)))
    assert not FS.is_iso(terminal_comparison(one_to(S2)))


def test_product_comparison_counts_on_the_point():
    p = one_to(S2)
    H = constant_presheaf(ONE, ["h0", "h1"], name="H")
    D = coproduct_diagram(ONE, H, H)
    cmp_map = extension_limit_comparison(p, D)
    assert len(finset_value(FS.source(cmp_map))) == 8
    assert len(finset_value(FS.target(cmp_map))) == 16


# ---------------------------------------------------------------------------
# flatness, both routes


def test_filters_of_the_diamond_are_flat_both_ways():
    for upset in ({"top"}, {"a", "top"}, {"b", "top"}, {"bot", "a", "b", "top"}):
        p = upset_char(DIAMOND, upset, "chi")
        assert is_flat_setvalued(p).ok
        verdict = is_flat_bounded(p)
        assert verdict.verdict == "verified-up-to-budget"
        assert verdict.counterexample is None
        assert verdict.instances > 0


def test_nonfiltered_upset_fails_both_ways():
    p = upset_char(DIAMOND, {"a", "b", "top"}, "wedge")
    assert not is_flat_setvalued(p).ok
    verdict = is_flat_bounded(p)
    assert verdict.verdict == "counterexample"
    assert verdict.counterexample["shape"] == "binary-product"
    factors = set(verdict.counterexample["factors"])
    assert factors == {"h_a", "h_b"}


def test_two_point_value_on_the_point_category_is_not_flat():
    p = one_to(S2)
    assert not is_flat_setvalued(p).ok
    verdict = is_flat_bounded(p)
    assert verdict.verdict == "counterexample"
    assert verdict.counterexample["shape"] == "terminal"


def test_singleton_value_on_the_point_category_is_flat():
    p = one_to(PT)
    assert is_flat_setvalued(p).ok
    assert is_flat_bounded(p).verdict == "verified-up-to-budget"


def test_empty_functor_is_not_flat():
    p = upset_char(CHAIN2, set(), "empty")
    rep = is_flat_setvalued(p)
    assert not rep.ok
    assert any(v.law == "nonempty" for v in rep.violations)
    verdict = is_flat_bounded(p)
    assert verdict.verdict == "counterexample"
    assert verdict.counterexample["shape"] == "terminal"


def test_constant_point_on_discrete_base_is_not_flat():
    disc = discrete_category("disc2", ["l", "r"])
    p = HandleFunctor("const_pt", disc, FS, {"l": PT, "r": PT}, {})
    assert not is_flat_setvalued(p).ok
    verdict = is_flat_bounded(p)
    assert verdict.verdict == "counterexample"
    assert verdict.counterexample["shape"] == "terminal"


def test_doubled_stalk_fails_on_a_product_after_passing_terminal():
    assert FS.is_iso(terminal_comparison(DOUBLE_U))
    assert not is_flat_setvalued(DOUBLE_U).ok
    verdict = is_flat_bounded(DOUBLE_U)
    assert verdict.verdict == "counterexample"
    assert verdict.counterexample["shape"] == "binary-product"
    assert verdict.counterexample["factors"] == ["h_u", "h_u"]


def test_flat_routes_never_disagree():
    """Cofiltered elements imply no bounded counterexample and conversely."""
    functors = [p for p, _ in corpus_functors()]
    functors.append(upset_char(DIAMOND, {"a", "b", "top"}, "wedge"))
    functors.append(one_to(PT))
    functors.append(one_to(E0))
    for p in functors:
        setwise = is_flat_setvalued(p).ok
        verdict = is_flat_bounded(p)
        if setwise:
            assert verdict.verdict == "verified-up-to-budget"
        if verdict.verdict == "counterexample":
            assert not setwise


def old_flat_probes(p, max_products, max_equalizers, max_pool):
    """The product and equalizer loops of is_flat_bounded before they became
    one probe generator, as (verdict, counterexample, instances); hom sets
    are read through the kan module's binding, so a test can count them."""
    C, Z = p.dom, p.cod
    instances = 1
    if not Z.is_iso(terminal_comparison(p)):
        detail = "extension of the terminal presheaf is not terminal"
        return "counterexample", {"shape": "terminal", "detail": detail}, instances
    pool = [yoneda_embed(C, X) for X in sorted(C.objects)]
    try:
        for F in enumerate_presheaves(C, 2, max_count=max_pool):
            pool.append(F)
            if len(pool) >= max_pool:
                break
    except ResourceBudgetError:
        pass
    pair = discrete_category("pair2", ["1", "2"])
    done = 0
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            if done >= max_products:
                break
            D = HandleDiagram(pair, {"1": pool[i], "2": pool[j]}, {})
            cmp1 = extension_limit_comparison(p, D)
            instances += 1
            done += 1
            if not Z.is_iso(cmp1):
                factors = [pool[i].name or short_key(pool[i]), pool[j].name or short_key(pool[j])]
                return "counterexample", {"shape": "binary-product", "factors": factors}, instances
        if done >= max_products:
            break
    pp = parallel_pair_category()
    done = 0
    for i in range(len(pool)):
        for j in range(len(pool)):
            if done >= max_equalizers:
                break
            ts = kan.enumerate_presheaf_morphisms(pool[i], pool[j])
            for t1 in ts:
                for t2 in ts:
                    if done >= max_equalizers:
                        break
                    D = HandleDiagram(pp, {"a": pool[i], "b": pool[j]}, {"u": t1, "v": t2})
                    cmp2 = extension_limit_comparison(p, D)
                    instances += 1
                    done += 1
                    if not Z.is_iso(cmp2):
                        objects = [pool[i].name or short_key(pool[i]),
                                   pool[j].name or short_key(pool[j])]
                        counterexample = {"shape": "equalizer", "objects": objects}
                        return "counterexample", counterexample, instances
                if done >= max_equalizers:
                    break
        if done >= max_equalizers:
            break
    return "verified-up-to-budget", None, instances


# one knob caps both shapes, so the old loops run with equal caps
@pytest.mark.parametrize("knobs", [(12, 20), (6, 10), (0, 4), (2, 40), (30, 6), (40, 40)])
def test_flat_probes_match_the_old_loops(monkeypatch, knobs):
    calls = []
    search = kan.enumerate_presheaf_morphisms
    monkeypatch.setattr(
        kan, "enumerate_presheaf_morphisms", lambda F, G: calls.append(1) or search(F, G)
    )
    functors = [p for p, _ in corpus_functors()]
    functors += [upset_char(DIAMOND, {"a", "b", "top"}, "wedge"), one_to(PT), one_to(E0)]
    functors.append(upset_char(ARROW, {"s", "t"}, "all_arrow"))
    max_probes, max_pool = knobs
    # fresh copies with empty memos: other tests warm the shared functors,
    # and a memoized verdict makes none of the hom reads counted here
    for p in map(dataclasses.replace, functors):
        del calls[:]
        old = old_flat_probes(p, max_probes, max_probes, max_pool)
        old_reads = len(calls)
        del calls[:]
        new = is_flat_bounded(p, max_probes=max_probes, max_pool=max_pool)
        assert (new.verdict, new.counterexample, new.instances) == old
        assert len(calls) == old_reads
        del calls[:]
        assert is_flat_bounded(p, max_probes=max_probes, max_pool=max_pool) is new
        assert calls == []


def test_flat_pool_note_says_the_pool_holds_only_the_representables():
    # the bound-2 census on the arrow has 11 members: a pool of 10 cannot
    # take it, so the probes run over h_s and h_t alone
    assert len(enumerate_presheaves(ARROW, 2)) == 11
    p = upset_char(ARROW, {"s", "t"}, "all_arrow")
    small = is_flat_bounded(p, max_probes=6, max_pool=10)
    assert small.notes == (
        "presheaf census at value bound 2 has more than 10 members; "
        "the pool holds only the 2 representables",
    )
    # the terminal, the 3 products of h_s and h_t, and the 3 parallel pairs
    # among their 3 maps
    assert (small.verdict, small.instances) == ("verified-up-to-budget", 7)
    fits = is_flat_bounded(p, max_probes=6, max_pool=11)
    assert fits.notes == () and fits.instances == 13


def test_a_shared_flat_verdict_cannot_be_changed():
    p = upset_char(ARROW, {"s", "t"}, "all_arrow")
    verdict = is_flat_bounded(p, max_probes=6, max_pool=10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.notes = ()
    assert isinstance(verdict.notes, tuple)


def test_an_edit_to_a_shared_counterexample_reaches_no_later_caller():
    from toposkit.verify import corpus_generate

    functors = corpus_generate(0, "small").functors
    wedge = next(fx.functor for fx in functors if fx.name == "wedge_diamond")
    verdict = is_flat_bounded(wedge)
    want = {"shape": "binary-product", "factors": ["h_a", "h_b"]}
    assert verdict.counterexample == want
    with pytest.raises(TypeError):
        verdict.counterexample["shape"] = "tampered"
    with pytest.raises(TypeError):
        verdict.counterexample["factors"].append("h_top")
    # a copy is the caller's to edit
    mine = copy.deepcopy(verdict.counterexample)
    mine["shape"] = "tampered"
    mine["factors"].append("h_top")
    assert is_flat_bounded(wedge) is verdict
    assert verdict.counterexample == want


def test_a_copied_flat_verdict_still_refuses_edits():
    from toposkit.verify import corpus_generate

    functors = corpus_generate(0, "small").functors
    wedge = next(fx.functor for fx in functors if fx.name == "wedge_diamond")
    verdict = is_flat_bounded(wedge)
    for copied in (
        pickle.loads(pickle.dumps(verdict)),
        copy.deepcopy(verdict),
        copy.copy(verdict),
    ):
        assert copied == verdict
        with pytest.raises(TypeError):
            copied.counterexample["shape"] = "tampered"
        with pytest.raises(TypeError):
            copied.counterexample["factors"].append("h_top")
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.notes = ()
    assert verdict.counterexample == {"shape": "binary-product", "factors": ["h_a", "h_b"]}
    # a verdict without a counterexample copies as it is
    fits = is_flat_bounded(upset_char(ARROW, {"s", "t"}, "all_arrow"), max_probes=6, max_pool=10)
    assert pickle.loads(pickle.dumps(fits)) == fits


def test_covariant_elements_is_a_category_with_named_nodes():
    gamma, nodes = covariant_elements(DOUBLE_U)
    # an element category may exceed the caps on user-supplied categories
    assert {v.law for v in validate_category(gamma).violations} <= {"size-bound"}
    assert set(nodes) == {"s0@u", "s1@u", "q@v"}
    assert nodes["s0@u"] == ("s0", "u")
    assert set(gamma.non_identities()) == {"u.v|s0", "u.v|s1"}


def oracle_covariant_elements(p):
    """Pairs (x, X) and arrows f|x: (x, X) -> (p(f)x, Y), composition
    table included, built directly from p's finite-set tables."""
    C = p.dom
    fs_values = {X: finset_value(p.obj_map[X]) for X in C.objects}
    nodes = {}
    for X in C.objects:
        for x in fs_values[X]:
            nodes[f"{x}@{X}"] = (x, X)
    arrows = []
    for m in C.non_identities():
        X, Y = C.src(m), C.tgt(m)
        act_m = p.on_mor(m).components["*"]
        for x in fs_values[X]:
            arrows.append((f"{m}|{x}", f"{x}@{X}", f"{act_m[x]}@{Y}"))
    compose = {}
    for g in C.non_identities():
        for f in C.non_identities():
            if C.src(g) != C.tgt(f):
                continue
            gf = C.compose(g, f)
            act_f = p.on_mor(f).components["*"]
            for x in fs_values[C.src(f)]:
                name_g = f"{g}|{act_f[x]}"
                name_f = f"{f}|{x}"
                target = f"{gf}|{x}" if not C.is_identity(gf) else f"id_{x}@{C.src(f)}"
                compose[(name_g, name_f)] = target
    gamma = make_category(f"el({p.name})", sorted(nodes), arrows, compose)
    return gamma, nodes


ELEMENT_BASES = (ONE, ARROW, DIAMOND, z2_group(), walking_idempotent(), parallel_arrows())
SET_FUNCTORS: dict = {}


def set_functors(k: int) -> list:
    """Every functor ELEMENT_BASES[k] -> FinSet with sets of size <= 2; a
    functor on C is a presheaf on the opposite of C."""
    if k not in SET_FUNCTORS:
        C = ELEMENT_BASES[k]
        out = []
        for i, P in enumerate(enumerate_presheaves(opposite(C), 2)):
            obs = {X: finset_obj(P.values[X], name=f"{X}{i}") for X in C.objects}
            mors = {
                m: finset_map(obs[C.src(m)], obs[C.tgt(m)], P.actions[m])
                for m in C.non_identities()
            }
            out.append(HandleFunctor(f"set{i}", C, FS, obs, mors))
        SET_FUNCTORS[k] = out
    return SET_FUNCTORS[k]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_covariant_elements_matches_the_direct_construction(data):
    k = data.draw(st.integers(0, len(ELEMENT_BASES) - 1))
    p = data.draw(st.sampled_from(set_functors(k)))
    assert validate_handle_functor(p).ok
    gamma, nodes = covariant_elements(p)
    want, want_nodes = oracle_covariant_elements(p)
    assert nodes == want_nodes
    assert sorted(gamma.objects) == list(want.objects)
    assert dict(gamma.identity) == dict(want.identity)
    assert {m.name: (m.src, m.tgt) for m in gamma.morphisms} == {
        m.name: (m.src, m.tgt) for m in want.morphisms
    }
    assert dict(gamma.composition) == dict(want.composition)
    got_rep, want_rep = is_cofiltered(gamma), is_cofiltered(want)
    assert [v.law for v in got_rep.violations] == [v.law for v in want_rep.violations]
    assert sorted(v.witness for v in got_rep.violations) == sorted(
        v.witness for v in want_rep.violations
    )


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_memoized_flat_verdicts_equal_the_uncached_probing(data):
    """The memo keys verdicts by the knob pair, so any sequence of reads
    over any knobs returns what fresh probing returns, and a repeated read
    returns the verdict already held."""
    k = data.draw(st.integers(0, len(ELEMENT_BASES) - 1), label="base")
    functors = set_functors(k)
    p = functors[data.draw(st.integers(0, len(functors) - 1), label="functor")]
    p = dataclasses.replace(p)
    seen = {}
    knob_pairs = st.tuples(st.integers(0, 8), st.integers(1, 12))
    for knobs in data.draw(st.lists(knob_pairs, min_size=1, max_size=4), label="knobs"):
        max_probes, max_pool = knobs
        got = is_flat_bounded(p, max_probes=max_probes, max_pool=max_pool)
        oracle = kan._flat_verdict(dataclasses.replace(p), max_probes, max_pool)
        assert got == oracle
        if knobs in seen:
            assert got is seen[knobs]
        seen[knobs] = got
    assert set(p._flat) == set(seen)


def test_setvalued_flatness_needs_finite_set_targets():
    PSH = presheaf_category(ARROW, 2)
    yo = HandleFunctor(
        "yo",
        ARROW,
        PSH,
        {X: yoneda_embed(ARROW, X) for X in ARROW.objects},
        {m: yoneda_on_mor(ARROW, m) for m in ARROW.non_identities()},
    )
    with pytest.raises(StructureError):
        is_flat_setvalued(yo)
    # a sheaf handle on a one-object base is not one of finite sets: the
    # point is the only sheaf, and the constant functor at it is flat
    SH = SheafCategory(generate_topology(z2_group(), {"*": [[]]}), 2)
    (point,) = SH.objects()
    discrete2 = discrete_category("discrete2", ["l", "r"])
    const = HandleFunctor("const", discrete2, SH, {"l": point, "r": point}, {})
    assert is_flat_bounded(const).verdict == "verified-up-to-budget"
    with pytest.raises(StructureError):
        is_flat_setvalued(const)


# ---------------------------------------------------------------------------
# the induced morphism of sheaf theories


def discrete_two_point_site():
    return generate_topology(
        DIAMOND, {"top": [["a.top", "b.top"]], "bot": [[]]}, name="disc2pt"
    )


def test_build_ell_recovers_the_point():
    site = discrete_two_point_site()
    ell = build_ell(POINT_A, site)
    assert ell.flatness.verdict == "verified-up-to-budget"
    for X in DIAMOND.objects:
        val = ell.inverse_image(epsilon(site, X))
        assert FS.find_iso(val.obj, POINT_A.obj_map[X]) is not None


def test_build_ell_direct_images_are_sheaves():
    site = discrete_two_point_site()
    ell = build_ell(POINT_A, site)
    for z in (E0, PT, Z2):
        hp = ell.direct_image(z)
        assert is_sheaf(hp, site).ok
        assert len(hp.values["bot"]) == 1


def test_build_ell_phi_round_trips():
    site = discrete_two_point_site()
    ell = build_ell(POINT_A, site)
    F = epsilon(site, "top")
    phi = adjunction_phi(POINT_A, F, Z2)
    for w in FS.hom(ell.inverse_image(F).obj, Z2):
        assert FS.equal_mor(phi.backward(phi.forward(w)), w)


def test_build_ell_refuses_non_continuous_functors():
    site = discrete_two_point_site()
    bad = upset_char(DIAMOND, {"bot", "a", "b", "top"}, "all")
    with pytest.raises(ConstructionRefused) as exc:
        build_ell(bad, site)
    assert exc.value.witness["object"] == "bot"


def test_non_continuous_functor_has_a_non_sheaf_direct_image():
    site = discrete_two_point_site()
    bad = upset_char(DIAMOND, {"bot", "a", "b", "top"}, "all")
    rep = is_sheaf(right_adjoint_hp(bad, Z2), site)
    assert not rep.ok
    assert rep.witness["object"] == "bot"


def test_build_ell_refuses_continuous_but_non_flat_functors():
    site = discrete_two_point_site()
    wedge = upset_char(DIAMOND, {"a", "b", "top"}, "wedge")
    with pytest.raises(ConstructionRefused) as exc:
        build_ell(wedge, site)
    assert exc.value.witness["shape"] == "binary-product"


def test_build_ell_requires_the_site_base():
    site = discrete_two_point_site()
    with pytest.raises(StructureError):
        build_ell(DOUBLE_U, site)


def test_build_ell_on_the_trivial_topology():
    trivial = generate_topology(CHAIN2, {}, name="trivial")
    p = upset_char(CHAIN2, {"v"}, "top_chain2")
    ell = build_ell(p, trivial)
    for z in (PT, Z2):
        assert is_sheaf(ell.direct_image(z), trivial).ok
    for X in CHAIN2.objects:
        val = ell.inverse_image(yoneda_embed(CHAIN2, X))
        assert FS.find_iso(val.obj, p.obj_map[X]) is not None
