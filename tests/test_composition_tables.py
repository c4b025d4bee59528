"""Composition tables built from an index of arrows by target.

``make_category`` and ``category_of_elements`` find the arrows that
compose with g by looking up the arrows into its source, instead of
testing every pair.  The pairwise builders below are the routines as they
were before, kept here as the oracle: the categories must be equal and
their composition tables must list the same entries in the same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from toposkit.errors import StructureError
from toposkit.fincat import FinCategory, FinFunctor, Morphism, make_category
from toposkit.presheaf import (
    ElementsCategory,
    Presheaf,
    category_of_elements,
    element_node,
    enumerate_presheaves,
)
from toposkit.verify import fixture_categories

from conftest import parallel_arrows, reversed_tables, walking_idempotent


# ---------------------------------------------------------------------------
# the pairwise builders


def pairwise_make_category(name, objects, morphisms=(), compose=None) -> FinCategory:
    compose = dict(compose or {})
    objects = tuple(objects)
    idmap = {x: f"id_{x}" for x in objects}
    mors = [Morphism(idmap[x], x, x) for x in objects]
    for mname, s, t in morphisms:
        if mname in idmap.values():
            raise StructureError(f"{name}: morphism name {mname!r} collides with an identity")
        if s not in objects or t not in objects:
            raise StructureError(f"{name}: morphism {mname!r} has unknown endpoint")
        mors.append(Morphism(mname, s, t))
    table = {}
    for g in mors:
        for f in mors:
            if g.src != f.tgt:
                continue
            key = (g.name, f.name)
            if f.name == idmap[f.src]:
                table[key] = g.name
            elif g.name == idmap[g.src]:
                table[key] = f.name
            elif key in compose:
                table[key] = compose[key]
            else:
                raise StructureError(
                    f"{name}: composition table is missing ({g.name}, {f.name})"
                )
    extra = set(compose) - set(table)
    if extra:
        raise StructureError(f"{name}: composition entries for non-composable pairs {sorted(extra)}")
    return FinCategory(name, objects, tuple(mors), idmap, table)


def pairwise_category_of_elements(F: Presheaf) -> ElementsCategory:
    C = F.base
    nodes = []
    obj_elem = {}
    for X in C.objects:
        for e in F.values[X]:
            n = element_node(e, X)
            nodes.append(n)
            obj_elem[n] = (e, X)
    arrows = []
    arrow_data = {}
    for f in C.non_identities():
        X, Y = C.src(f), C.tgt(f)
        for y in F.values[Y]:
            name = f"{f}|{y}"
            arrows.append((name, element_node(F.actions[f][y], X), element_node(y, Y)))
            arrow_data[name] = (f, y)
    compose = {}
    for gname, (g, y2) in arrow_data.items():
        for fname, (f, y1) in arrow_data.items():
            if C.src(g) != C.tgt(f) or F.actions[g][y2] != y1:
                continue
            c = C.compose(g, f)
            if C.is_identity(c):
                src_node = element_node(F.actions[f][y1], C.src(f))
                compose[(gname, fname)] = f"id_{src_node}"
            else:
                compose[(gname, fname)] = f"{c}|{y2}"
    gamma = pairwise_make_category(f"el({F.name or 'F'})", nodes, arrows, compose)
    proj_obj = {n: obj_elem[n][1] for n in nodes}
    proj_mor = {f"id_{n}": C.id_of(obj_elem[n][1]) for n in nodes}
    for name, (f, _) in arrow_data.items():
        proj_mor[name] = f
    return ElementsCategory(gamma, FinFunctor(gamma, C, proj_obj, proj_mor), obj_elem)


# ---------------------------------------------------------------------------
# the comparisons


BASES = dict(fixture_categories())
BASES["idempotent"] = walking_idempotent()
BASES["parallel_arrows"] = parallel_arrows()
CENSUS = {name: enumerate_presheaves(C, 2) for name, C in BASES.items()}


def non_identity_data(C: FinCategory):
    """The arguments that rebuild C through make_category."""
    mors = [(m.name, m.src, m.tgt) for m in C.morphisms if not C.is_identity(m.name)]
    compose = {
        (g, f): C.compose(g, f)
        for g, f in C.composable_pairs()
        if not (C.is_identity(g) or C.is_identity(f))
    }
    return mors, compose


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_elements_match_the_pairwise_builder(data):
    name = data.draw(st.sampled_from(sorted(BASES)))
    F = data.draw(st.sampled_from(CENSUS[name]))
    if data.draw(st.booleans()):
        F = reversed_tables(F)
    new, old = category_of_elements(F), pairwise_category_of_elements(F)
    assert list(new.gamma.composition.items()) == list(old.gamma.composition.items())
    assert new.gamma == old.gamma
    assert list(new.projection.mor_map.items()) == list(old.projection.mor_map.items())
    assert new.projection == old.projection
    assert list(new.obj_elem.items()) == list(old.obj_elem.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_make_category_matches_the_pairwise_builder(data):
    C = BASES[data.draw(st.sampled_from(sorted(BASES)))]
    mors, compose = non_identity_data(C)
    # declaration order of the arrows and of the table must not matter
    mors = data.draw(st.permutations(mors))
    compose = dict(data.draw(st.permutations(sorted(compose.items()))))
    objects = data.draw(st.permutations(C.objects))
    new = make_category(C.name, objects, mors, compose)
    old = pairwise_make_category(C.name, objects, mors, compose)
    assert list(new.composition.items()) == list(old.composition.items())
    assert new == old


@pytest.mark.parametrize("drop", ["missing", "extra"])
def test_make_category_refuses_bad_tables_as_the_pairwise_builder(drop):
    C = BASES["chain4"]
    mors, compose = non_identity_data(C)
    if drop == "missing":
        del compose[sorted(compose)[0]]
    else:
        compose[("c0.c1", "c2.c3")] = "c0.c3"
    with pytest.raises(StructureError) as new:
        make_category(C.name, C.objects, mors, compose)
    with pytest.raises(StructureError) as old:
        pairwise_make_category(C.name, C.objects, mors, compose)
    assert str(new.value) == str(old.value)
