"""Presheaf machinery: validation, the representable embedding and its
evaluation bijection, elements categories, pointwise (co)limits, density,
and the bounded presheaf-category handle.

Oracles written here, independent of the library internals:
  * an unpruned product scan for presheaf morphism enumeration, and a
    product scan through the validators that also fixes the order of
    morphisms, isomorphisms and the census;
  * naive fixpoint partition merging to check union-find quotients;
  * closed-form counts for bounded presheaf enumeration on tiny bases;
  * hand-computed coequalizer / equalizer / product tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain, diamond, discrete2, parallel_arrows, walking_idempotent, z2_group
from toposkit import presheaf
from toposkit.errors import FactorizationError, ResourceBudgetError, StructureError
from toposkit.fincat import (
    FinCatHandle,
    HandleDiagram,
    discrete_category,
    make_category,
    opposite,
    parallel_pair_category,
    poset_category,
    terminal_category,
    validate_category,
    validate_functor,
    validate_handle_functor,
)
from toposkit.presheaf import (
    PresheafCategory,
    PresheafMorphism,
    UnionFind,
    category_of_elements,
    compose_presheaf_morphisms,
    constant_presheaf,
    density_check,
    enumerate_presheaf_morphisms,
    enumerate_presheaves,
    find_presheaf_iso,
    finset_category,
    finset_functor,
    finset_map,
    finset_obj,
    finset_transpose,
    finset_value,
    is_presheaf_iso,
    make_presheaf,
    presheaf_colimit,
    presheaf_identity,
    presheaf_key,
    presheaf_limit,
    short_key,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda_backward,
    yoneda_embed,
    yoneda_forward,
    yoneda_on_mor,
)
from toposkit.verify import corpus_generate, fixture_categories

# ---------------------------------------------------------------------------
# oracles


def oracle_presheaf_morphisms(F, G):
    """Unpruned scan over all component tuples, filtered by naturality."""
    C = F.base
    objs = sorted(C.objects)
    pools = []
    for x in objs:
        dom, cod = F.values[x], G.values[x]
        pools.append([dict(zip(dom, c)) for c in itertools.product(cod, repeat=len(dom))])
    out = []
    for combo in itertools.product(*pools):
        comps = dict(zip(objs, combo))
        natural = True
        for m in C.non_identities():
            x, y = C.src(m), C.tgt(m)
            for e in F.values[y]:
                if comps[x][F.actions[m][e]] != G.actions[m][comps[y][e]]:
                    natural = False
                    break
            if not natural:
                break
        if natural:
            out.append(comps)
    return out


def oracle_partition(elements, pairs):
    """Fixpoint merging of singleton sets; returns frozenset of frozensets."""
    groups = [{e} for e in elements]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ga = next(g for g in groups if a in g)
            gb = next(g for g in groups if b in g)
            if ga is not gb:
                groups.remove(ga)
                groups.remove(gb)
                groups.append(ga | gb)
                changed = True
    return frozenset(frozenset(g) for g in groups)


# ---------------------------------------------------------------------------
# presheaf validation


def test_representables_are_valid_presheaves():
    C = diamond()
    for X in C.objects:
        assert validate_presheaf(yoneda_embed(C, X)).ok


def test_validate_catches_broken_contravariance():
    C = chain(3)
    # action of the long arrow disagrees with the composite of the short ones
    F = make_presheaf(
        C,
        {"c0": ["x", "y"], "c1": ["x"], "c2": ["x"]},
        {
            "c0.c1": {"x": "x"},
            "c1.c2": {"x": "x"},
            "c0.c2": {"x": "y"},
        },
    )
    rep = validate_presheaf(F)
    assert any(v.law == "contravariance" for v in rep.violations)


def test_validate_catches_nonidentity_identity_action():
    C = terminal_category()
    F = make_presheaf(C, {"*": ["x", "y"]})
    bad = type(F)(C, F.values, {"id_*": {"x": "y", "y": "x"}}, "bad")
    rep = validate_presheaf(bad)
    assert any(v.law == "identity-action" for v in rep.violations)


def test_validate_catches_partial_action():
    C = chain(2)
    F = make_presheaf(C, {"c0": ["x"], "c1": ["u", "v"]}, {"c0.c1": {"u": "x"}})
    rep = validate_presheaf(F)
    assert any(v.law == "action-total" for v in rep.violations)


def test_make_presheaf_refuses_what_the_base_does_not_have():
    C = poset_category("arrow", ["s", "t"], [("s", "t")])
    with pytest.raises(StructureError):
        make_presheaf(C, {"s": ["x"], "tt": ["y"]}, {"s.tt": {"y": "x"}, "id_s": {"x": "zzz"}})
    with pytest.raises(StructureError, match="has no tt"):
        make_presheaf(C, {"s": ["x"], "tt": ["y"]})
    with pytest.raises(StructureError, match="has no s.tt"):
        make_presheaf(C, {"s": ["x"], "t": ["y"]}, {"s.tt": {"y": "x"}})
    with pytest.raises(StructureError, match="id_s is not the identity"):
        make_presheaf(C, {"s": ["x"], "t": ["y"]}, {"s.t": {"y": "x"}, "id_s": {"x": "zzz"}})
    # an identity action may be stated, as the identity
    F = make_presheaf(C, {"s": ["x"], "t": ["y"]}, {"s.t": {"y": "x"}, "id_s": {"x": "x"}})
    assert validate_presheaf(F).ok


# ---------------------------------------------------------------------------
# morphism enumeration against the oracle


@pytest.mark.parametrize("bound", [1, 2])
def test_presheaf_morphisms_match_unpruned_oracle(bound):
    C = chain(2)
    ps = enumerate_presheaves(C, bound)
    for F in ps:
        for G in ps:
            got = {
                tuple(sorted((x, tuple(sorted(c.items()))) for x, c in t.components.items()))
                for t in enumerate_presheaf_morphisms(F, G)
            }
            want = {
                tuple(sorted((x, tuple(sorted(c.items()))) for x, c in comps.items()))
                for comps in oracle_presheaf_morphisms(F, G)
            }
            assert got == want


def test_enumerated_morphisms_are_natural():
    C = diamond()
    F = yoneda_embed(C, "top")
    G = constant_presheaf(C, ["u", "v"])
    for t in enumerate_presheaf_morphisms(F, G):
        assert validate_presheaf_morphism(t).ok


def chain3():
    return chain(3)


CENSUS_2 = [
    enumerate_presheaves(maker(), 2)
    for maker in (diamond, chain3, discrete2, z2_group, walking_idempotent, parallel_arrows)
]


def validated_morphisms(F, G):
    """Every component tuple in product order, kept when it validates."""
    objs = sorted(F.base.objects)
    pools = [list(itertools.product(G.values[x], repeat=len(F.values[x]))) for x in objs]
    out = []
    for combo in itertools.product(*pools):
        t = PresheafMorphism(
            F, G, {x: dict(zip(F.values[x], c)) for x, c in zip(objs, combo)}
        )
        if validate_presheaf_morphism(t).ok:
            out.append(t)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_morphisms_and_first_iso_follow_the_validated_product_order(data):
    census = data.draw(st.sampled_from(CENSUS_2))
    F = data.draw(st.sampled_from(census))
    G = data.draw(st.sampled_from(census))
    want = validated_morphisms(F, G)
    got = enumerate_presheaf_morphisms(F, G)
    assert [t.components for t in got] == [t.components for t in want]
    isos = [t for t in want if is_presheaf_iso(t)]
    iso = find_presheaf_iso(F, G)
    assert (iso is None) == (not isos)
    if isos:
        assert iso.components == isos[0].components


def oracle_presheaf_key(F):
    """presheaf_key as a plain string formula, rebuilt on every call."""
    vs = ";".join(f"{x}:{','.join(F.values[x])}" for x in sorted(F.values))
    acts = ";".join(
        f"{m}:{','.join(f'{e}>{F.actions[m][e]}' for e in sorted(F.actions[m]))}"
        for m in sorted(F.actions)
    )
    return f"{F.base.name}|{vs}|{acts}"


def oracle_short_key(F):
    if F.name:
        return F.name
    return f"P#{hashlib.sha256(oracle_presheaf_key(F).encode()).hexdigest()[:10]}"


def oracle_mor_key(t):
    comps = ";".join(
        f"{x}:{','.join(f'{e}>{t.components[x][e]}' for e in sorted(t.components[x]))}"
        for x in sorted(t.components)
    )
    return f"{oracle_short_key(t.dom)}->{oracle_short_key(t.cod)}[{comps}]"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cached_keys_match_the_string_formulas(data):
    census = data.draw(st.sampled_from(CENSUS_2))
    F = data.draw(st.sampled_from(census))
    G = data.draw(st.sampled_from(census))
    if data.draw(st.booleans()):
        # a renamed copy starts with empty caches and must not read F's
        F = dataclasses.replace(F, name="F")
    PS = PresheafCategory(F.base, 2)
    homs = PS.hom(F, G)
    for _ in range(2):  # the first pass fills the caches, the second reads them
        for P in (F, G):
            assert presheaf_key(P) == oracle_presheaf_key(P)
            assert short_key(P) == oracle_short_key(P)
        for t in homs:
            assert PS.mor_key(t) == oracle_mor_key(t)


def test_morphism_budget_refuses_instead_of_truncating():
    C = terminal_category()
    F = finset_obj(["a", "b", "c"])
    G = finset_obj(["x", "y", "z"])
    with pytest.raises(ResourceBudgetError):
        enumerate_presheaf_morphisms(F, G, budget=10)


# ---------------------------------------------------------------------------
# the evaluation bijection for representables


def exhaustive_eval_bijection(C, presheaves):
    for X in C.objects:
        hx = yoneda_embed(C, X)
        for F in presheaves:
            nats = enumerate_presheaf_morphisms(hx, F)
            assert len(nats) == len(F.values[X])
            seen = set()
            for t in nats:
                e = yoneda_forward(C, X, t)
                seen.add(e)
                back = yoneda_backward(C, X, F, e)
                assert back.components == t.components
            assert seen == set(F.values[X])
            for e in F.values[X]:
                t = yoneda_backward(C, X, F, e)
                assert validate_presheaf_morphism(t).ok
                assert yoneda_forward(C, X, t) == e


def test_eval_bijection_exhaustive_on_arrow_base():
    C = chain(2)
    exhaustive_eval_bijection(C, enumerate_presheaves(C, 2))


def test_eval_bijection_on_diamond_fixtures():
    C = diamond()
    fixtures = [yoneda_embed(C, X) for X in C.objects]
    fixtures.append(constant_presheaf(C, ["u", "v"]))
    exhaustive_eval_bijection(C, fixtures)


def test_eval_bijection_on_group_base():
    C = z2_group()
    exhaustive_eval_bijection(C, enumerate_presheaves(C, 2))


def test_representable_morphisms_are_shared_per_base():
    C = diamond()
    for m in C.morphisms:
        t = yoneda_on_mor(C, m.name)
        assert yoneda_on_mor(C, m.name) is t
        assert t.dom is yoneda_embed(C, m.src) and t.cod is yoneda_embed(C, m.tgt)
        assert t.components == {
            Y: {g: C.compose(m.name, g) for g in C.hom(Y, m.src)} for Y in C.objects
        }


def test_representable_morphisms_compose_as_arrows():
    C = diamond()
    t1 = yoneda_on_mor(C, "bot.a")
    t2 = yoneda_on_mor(C, "a.top")
    comp = compose_presheaf_morphisms(t2, t1)
    assert comp.components == yoneda_on_mor(C, "bot.top").components


# ---------------------------------------------------------------------------
# category of elements


def test_elements_category_of_representable_has_terminal_identity():
    C = diamond()
    els = category_of_elements(yoneda_embed(C, "top"))
    # an element category may exceed the caps on user-supplied categories
    assert {v.law for v in validate_category(els.gamma).violations} <= {"size-bound"}
    assert validate_functor(els.projection).ok
    # the pair (id_top, top) receives exactly one arrow from every element:
    # an arrow (g, X) -> (id_top, top) is an f with id.f = g, so f = g
    node = "id_top@top"
    assert node in els.gamma.objects
    for other in els.gamma.objects:
        assert len(els.gamma.hom(other, node)) == 1


def test_elements_category_sizes():
    C = diamond()
    F = constant_presheaf(C, ["u", "v"])
    els = category_of_elements(F)
    assert len(els.gamma.objects) == 8
    # one arrow per (base arrow, element of the target value set)
    assert len(els.gamma.non_identities()) == 2 * len(C.non_identities())


def test_elements_cocone_legs_are_natural():
    C = diamond()
    F = yoneda_embed(C, "a")
    els = category_of_elements(F)
    for n, (e, X) in els.obj_elem.items():
        leg = yoneda_backward(C, X, F, e)
        assert validate_presheaf_morphism(leg).ok
        assert leg.cod == F
        assert yoneda_forward(C, X, leg) == e


# ---------------------------------------------------------------------------
# union-find


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
)
def test_union_find_matches_naive_partition(n, raw_pairs):
    elements = [f"x{i}" for i in range(n)]
    pairs = [(f"x{a % n}", f"x{b % n}") for a, b in raw_pairs]
    uf = UnionFind()
    for e in elements:
        uf.add(e)
    for a, b in pairs:
        uf.union(a, b)
    got = frozenset(frozenset(ms) for ms in uf.classes().values())
    assert got == oracle_partition(elements, pairs)
    # canonical labels are smallest members
    for label, members in uf.classes().items():
        assert label == min(members)


# ---------------------------------------------------------------------------
# pointwise colimits and limits


def test_coequalizer_of_finite_sets():
    P = finset_obj(["p0", "p1"])
    Q = finset_obj(["q0", "q1", "q2"])
    u = finset_map(P, Q, {"p0": "q0", "p1": "q1"})
    v = finset_map(P, Q, {"p0": "q1", "p1": "q2"})
    J = parallel_pair_category()
    data = presheaf_colimit(HandleDiagram(J, {"a": P, "b": Q}, {"u": u, "v": v}), P.base)
    # q0 ~ q1 via p0 and q1 ~ q2 via p1, and the p's merge into the same
    # class, so one class remains; its label is the smallest member
    assert finset_value(data.apex) == ("a:p0",)
    leg = data.legs["b"]
    assert set(leg.components["*"].values()) == {"a:p0"}


def test_coproduct_of_representables():
    C = diamond()
    J = discrete_category("2", ["l", "r"])
    h_a, h_b = yoneda_embed(C, "a"), yoneda_embed(C, "b")
    data = presheaf_colimit(HandleDiagram(J, {"l": h_a, "r": h_b}, {}), C)
    assert data.apex.values["bot"] == ("l:bot.a", "r:bot.b")
    assert data.apex.values["top"] == ()
    assert validate_presheaf(data.apex).ok


def test_colimit_factoring_recovers_cocone_and_rejects_noncocones():
    C = diamond()
    J = discrete_category("2", ["l", "r"])
    h_a, h_b = yoneda_embed(C, "a"), yoneda_embed(C, "b")
    data = presheaf_colimit(HandleDiagram(J, {"l": h_a, "r": h_b}, {}), C)
    T = constant_presheaf(C, ["t"])
    legs2 = {
        "l": enumerate_presheaf_morphisms(h_a, T)[0],
        "r": enumerate_presheaf_morphisms(h_b, T)[0],
    }
    med = data.factor(T, legs2)
    assert validate_presheaf_morphism(med).ok
    for j in ("l", "r"):
        assert compose_presheaf_morphisms(med, data.legs[j]).components == legs2[j].components
    # now break the cocone: two distinct constants on a merged class
    K2 = constant_presheaf(C, ["s", "t"])
    J1 = terminal_category("J")
    P = finset_obj(["x", "y"])
    QJ = parallel_pair_category()
    ident = presheaf_colimit(
        HandleDiagram(
            QJ,
            {"a": P, "b": P},
            {
                "u": finset_map(P, P, {"x": "x", "y": "y"}),
                "v": finset_map(P, P, {"x": "y", "y": "x"}),
            },
        ),
        P.base,
    )
    # x and y are merged; a leg separating them cannot factor
    T2 = finset_obj(["0", "1"])
    bad = {
        "a": finset_map(P, T2, {"x": "0", "y": "1"}),
        "b": finset_map(P, T2, {"x": "0", "y": "1"}),
    }
    with pytest.raises(FactorizationError):
        ident.factor(T2, bad)


def test_product_and_equalizer_of_finite_sets():
    A = finset_obj(["a0", "a1"])
    B = finset_obj(["b0", "b1", "b2"])
    J = discrete_category("2", ["l", "r"])
    prod = presheaf_limit(HandleDiagram(J, {"l": A, "r": B}, {}), A.base)
    assert len(finset_value(prod.apex)) == 6
    u = finset_map(A, B, {"a0": "b0", "a1": "b1"})
    v = finset_map(A, B, {"a0": "b0", "a1": "b2"})
    JP = parallel_pair_category()
    eq = presheaf_limit(HandleDiagram(JP, {"a": A, "b": B}, {"u": u, "v": v}), A.base)
    # only a0 agrees
    assert len(finset_value(eq.apex)) == 1
    assert eq.legs["a"].components["*"][finset_value(eq.apex)[0]] == "a0"


def test_limit_factoring_rejects_non_cones():
    A = finset_obj(["a0", "a1"])
    B = finset_obj(["b0"])
    u = finset_map(A, B, {"a0": "b0", "a1": "b0"})
    v = finset_map(A, B, {"a0": "b0", "a1": "b0"})
    JP = parallel_pair_category()
    eq = presheaf_limit(HandleDiagram(JP, {"a": A, "b": B}, {"u": u, "v": v}), A.base)
    T = finset_obj(["t"])
    # legs that do not commute with u: pick b-leg missing the u-image
    B2 = finset_obj(["b0", "b1"])
    eq2 = presheaf_limit(
        HandleDiagram(
            JP, {"a": A, "b": B2},
            {"u": finset_map(A, B2, {"a0": "b0", "a1": "b0"}),
             "v": finset_map(A, B2, {"a0": "b0", "a1": "b1"})},
        ),
        A.base,
    )
    bad_legs = {"a": finset_map(T, A, {"t": "a1"}), "b": finset_map(T, B2, {"t": "b1"})}
    with pytest.raises(FactorizationError):
        eq2.factor(T, bad_legs)


def test_presheaf_limit_matches_meet_of_representables(diamond_cat=None):
    C = diamond()
    J = discrete_category("2", ["l", "r"])
    prod = presheaf_limit(
        HandleDiagram(J, {"l": yoneda_embed(C, "a"), "r": yoneda_embed(C, "b")}, {}), C
    )
    iso = find_presheaf_iso(prod.apex, yoneda_embed(C, "bot"))
    assert iso is not None and is_presheaf_iso(iso)


def test_empty_diagram_limit_and_colimit_need_only_the_base():
    C = diamond()
    empty = HandleDiagram(make_category("empty", ()), {}, {})
    lim = presheaf_limit(empty, C)
    assert lim.apex.values == {X: ("()",) for X in C.objects}
    assert validate_presheaf(lim.apex).ok and lim.legs == {}
    T = constant_presheaf(C, ["s", "t"])
    med = lim.factor(T, {})
    assert validate_presheaf_morphism(med).ok
    assert med.components == {X: {"s": "()", "t": "()"} for X in C.objects}
    assert [t.components for t in enumerate_presheaf_morphisms(T, lim.apex)] == [med.components]
    colim = presheaf_colimit(empty, C)
    assert colim.apex.values == {X: () for X in C.objects}
    assert validate_presheaf(colim.apex).ok and colim.legs == {}
    out = colim.factor(T, {})
    assert validate_presheaf_morphism(out).ok
    assert out.components == {X: {} for X in C.objects}
    assert [t.components for t in enumerate_presheaf_morphisms(colim.apex, T)] == [out.components]


# ---------------------------------------------------------------------------
# density


def test_density_exhaustive_on_arrow_base():
    C = chain(2)
    for F in enumerate_presheaves(C, 2):
        rep = density_check(F)
        assert rep.ok, rep.detail


def test_density_on_diamond_and_group_fixtures():
    for C in (diamond(), z2_group()):
        for X in C.objects:
            assert density_check(yoneda_embed(C, X)).ok
        assert density_check(constant_presheaf(C, ["u", "v"])).ok
        for F in enumerate_presheaves(C, 1):
            assert density_check(F).ok


def test_density_comparison_sends_classes_to_evaluations():
    C = chain(2)
    F = make_presheaf(
        C, {"c0": ["x", "y"], "c1": ["z"]}, {"c0.c1": {"z": "x"}}
    )
    rep = density_check(F)
    assert rep.ok
    comp = rep.comparison
    assert is_presheaf_iso(comp)


# ---------------------------------------------------------------------------
# bounded enumeration


def test_enumeration_counts_on_tiny_bases():
    assert len(enumerate_presheaves(terminal_category(), 2)) == 3
    assert len(enumerate_presheaves(discrete2(), 1)) == 4
    C2 = chain(2)
    # sum over sizes (n0, n1) of n0^n1
    assert len(enumerate_presheaves(C2, 2)) == sum(
        n0 ** n1 for n0 in range(3) for n1 in range(3) if n0 or not n1
    )
    assert len(enumerate_presheaves(diamond(), 1)) == 6


def test_enumeration_count_on_group_base():
    # actions of the involution: permutations s with s.s = id
    # size 0: 1, size 1: 1, size 2: id and the swap -> 2
    assert len(enumerate_presheaves(z2_group(), 2)) == 4


def test_enumeration_is_deterministic_and_valid():
    C = diamond()
    a = enumerate_presheaves(C, 1)
    b = enumerate_presheaves(C, 1)
    assert [p.values for p in a] == [p.values for p in b]
    assert [p.actions for p in a] == [p.actions for p in b]
    for p in a:
        assert validate_presheaf(p).ok


def validated_census(C, bound):
    """Sizes in product order, then non-identity action tuples in sorted
    arrow order, kept when the presheaf validates."""
    objs = sorted(C.objects)
    mors = sorted(C.non_identities())
    out = []
    for sizes in itertools.product(range(bound + 1), repeat=len(objs)):
        size = dict(zip(objs, sizes))
        pools = [
            itertools.product(range(size[C.src(m)]), repeat=size[C.tgt(m)]) for m in mors
        ]
        for tables in itertools.product(*pools):
            F = make_presheaf(
                C,
                {x: [f"e{k}" for k in range(size[x])] for x in objs},
                {m: {f"e{k}": f"e{v}" for k, v in enumerate(t)} for m, t in zip(mors, tables)},
            )
            if validate_presheaf(F).ok:
                out.append(F)
    return out


CENSUS_CASES = [
    (maker, bound)
    for maker in (chain3, discrete2, z2_group, walking_idempotent, parallel_arrows)
    for bound in (0, 1, 2)
] + [(diamond, 0), (diamond, 1)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CENSUS_CASES))
def test_census_follows_the_validated_product_order(case):
    maker, bound = case
    C = maker()
    got = enumerate_presheaves(C, bound)
    want = validated_census(C, bound)
    assert [(F.values, F.actions) for F in got] == [(F.values, F.actions) for F in want]


def test_enumeration_budget_raises():
    with pytest.raises(ResourceBudgetError):
        enumerate_presheaves(diamond(), 2, max_count=10)


# ---------------------------------------------------------------------------
# the handle


def test_handle_probes_are_representables():
    C = diamond()
    PS = PresheafCategory(C, bound=1)
    probes = PS.probe_objects()
    assert [p.name for p in probes] == ["h_a", "h_b", "h_bot", "h_top"]


def test_handle_hom_and_iso():
    C = chain(2)
    PS = PresheafCategory(C, bound=2)
    F = yoneda_embed(C, "c1")
    assert PS.is_iso(PS.identity(F))
    G = make_presheaf(C, {"c0": ["u"], "c1": ["w"]}, {"c0.c1": {"w": "u"}})
    iso = PS.find_iso(F, G)
    assert iso is not None
    assert PS.is_iso(iso)


def components(maps):
    return [t.components for t in maps]


def draw_pair(data):
    census = data.draw(st.sampled_from(CENSUS_2))
    return data.draw(st.sampled_from(census)), data.draw(st.sampled_from(census))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_prefix_reads_are_prefixes_of_the_hom_set(data):
    F, G = draw_pair(data)
    full = components(PresheafCategory(F.base, 2).hom(F, G))
    for n in range(len(full) + 3):
        # a fresh handle, so each read runs its own search
        PS = PresheafCategory(F.base, 2)
        assert components(PS.hom_prefix(F, G, n)) == full[:n]
        (maps, complete), = PS._hom_memo.values()
        assert len(maps) == min(n, len(full)) and complete == (n > len(full))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_later_reads_extend_or_slice_an_incomplete_slot(data):
    F, G = draw_pair(data)
    full = components(enumerate_presheaf_morphisms(F, G))
    n = data.draw(st.integers(0, len(full) + 2))
    m = data.draw(st.integers(0, len(full) + 2))
    PS = PresheafCategory(F.base, 2)
    assert components(PS.hom_prefix(F, G, n)) == full[:n]
    assert components(PS.hom_prefix(F, G, m)) == full[:m]
    assert components(PS.hom(F, G)) == full
    (maps, complete), = PS._hom_memo.values()
    assert complete and components(maps) == full
    assert components(PS.hom_prefix(F, G, n)) == full[:n]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefix_reads_refuse_exactly_where_hom_refuses(data):
    F, G = draw_pair(data)
    budget = data.draw(st.integers(1, 300))
    n = data.draw(st.integers(0, 3))

    def refused(read) -> bool:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(presheaf, "HOM_BUDGET", budget)
            try:
                read(PresheafCategory(F.base, 2))
            except ResourceBudgetError:
                return True
        return False

    assert refused(lambda PS: PS.hom(F, G)) == refused(lambda PS: PS.hom_prefix(F, G, n))


@pytest.mark.parametrize("maker", [diamond, z2_group, parallel_arrows, walking_idempotent])
def test_fincat_handle_prefix_is_a_slice_of_hom(maker):
    H = FinCatHandle(maker())
    for a in H.objects():
        for b in H.objects():
            homs = H.hom(a, b)
            for n in range(len(homs) + 3):
                assert H.hom_prefix(a, b, n) == homs[:n]


def test_handle_objects_respect_budget(monkeypatch):
    monkeypatch.setattr(presheaf, "MAX_PRESHEAVES", 5)
    C = diamond()
    PS = PresheafCategory(C, bound=2)
    with pytest.raises(ResourceBudgetError):
        PS.objects()


def test_finset_is_presheaves_on_the_point():
    FS = PresheafCategory(terminal_category(), 3)
    sizes = sorted(len(finset_value(P)) for P in FS.objects())
    assert sizes == [0, 1, 2, 3]
    one = FS.terminal()
    assert len(finset_value(one)) == 1


def test_handle_terminal_and_initial_are_valid_presheaves():
    # every non-identity action must be present, not just the identity rows
    PS = PresheafCategory(diamond(), 1)
    assert validate_presheaf(PS.terminal()).ok
    empty = HandleDiagram(make_category("empty", ()), {}, {})
    assert validate_presheaf(PS.colimit(empty).apex).ok


def test_presheaf_identity_and_composition_laws():
    C = diamond()
    F = yoneda_embed(C, "top")
    G = constant_presheaf(C, ["u", "v"])
    for t in enumerate_presheaf_morphisms(F, G):
        assert compose_presheaf_morphisms(t, presheaf_identity(F)).components == t.components
        assert compose_presheaf_morphisms(presheaf_identity(G), t).components == t.components


# ---------------------------------------------------------------------------
# set-valued functors as presheaves on the opposite base


def _finset_tables(p):
    return (
        {X: finset_value(p.obj_map[X]) for X in p.dom.objects},
        {m: p.mor_map[m].components for m in p.dom.non_identities()},
    )


@pytest.mark.parametrize("cname", sorted(fixture_categories()))
def test_finset_functor_and_transpose_are_inverse(cname):
    C = fixture_categories()[cname]
    C_op = opposite(C)
    fs = finset_category(2)
    for k, G in enumerate(enumerate_presheaves(C_op, 2)):
        p = finset_functor(f"p{k}", C, G, fs)
        assert validate_handle_functor(p).ok
        assert [p.obj_map[X].name for X in C.objects] == [f"p{k}({X})" for X in C.objects]
        T = finset_transpose(p)
        assert T.base == C_op and T.name == f"p{k}"
        assert T.values == G.values and T.actions == G.actions
        assert _finset_tables(finset_functor("q", C, T, fs)) == _finset_tables(p)


def test_every_set_valued_fixture_is_the_functor_of_its_transpose():
    corpus = corpus_generate(0, "small")
    fs = corpus.handles["finset"]
    fixtures = [fx.functor for fx in corpus.functors if fx.codomain == "finset"]
    assert len(fixtures) > 30
    for p in fixtures:
        q = finset_functor(p.name, p.dom, finset_transpose(p), fs)
        assert _finset_tables(q) == _finset_tables(p), p.name
