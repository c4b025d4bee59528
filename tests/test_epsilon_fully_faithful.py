"""The sheafified Yoneda embedding is fully faithful on subcanonical sites.

On a subcanonical site every representable is a sheaf, so sheafifying it
changes nothing up to isomorphism, and Yoneda makes epsilon: C -> Sh(C, J)
fully faithful (Mac Lane & Moerdijk, Sheaves in Geometry and Logic,
III.5; SGA4 IV 4.9.4).  The helpers build epsilon as a handle-valued
functor from ``site.epsilon`` and ``site.epsilon_on_mor`` and check it hom
by hom: distinct arrows stay distinct, and every map of sheafified
representables comes from an arrow.  Each check runs the plus
construction and its action on morphisms over the representables.
"""

import pytest

from toposkit.fincat import HandleFunctor, ValidationReport, validate_handle_functor
from toposkit.site import (
    SheafCategory,
    Site,
    canonical_pretopology,
    generate_topology,
    is_subcanonical,
)
from toposkit.verify import fixture_categories, fixture_sites

from conftest import diamond, epsilon_handle_functor, parallel_arrows, walking_idempotent


def is_handle_fully_faithful(p: HandleFunctor) -> ValidationReport:
    """Faithfulness and fullness of a handle-valued functor, hom by hom."""
    rep = ValidationReport()
    Z = p.cod
    for x in p.dom.objects:
        for y in p.dom.objects:
            dom_hom = p.dom.hom(x, y)
            images = [p.on_mor(m) for m in dom_hom]
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    if Z.equal_mor(images[i], images[j]):
                        rep.add(
                            "faithful",
                            (dom_hom[i], dom_hom[j]),
                            f"{dom_hom[i]} and {dom_hom[j]} collapse",
                        )
            for w in Z.hom(p.obj_map[x], p.obj_map[y]):
                if not any(Z.equal_mor(w, im) for im in images):
                    rep.add("full", (x, y), f"a map {x}->{y} downstairs has no preimage")
    return rep


def fixture_site_list() -> dict[str, Site]:
    """The corpus sites, the trivial and the canonical topology on every
    fixture category (the latter as ``toposkit canonical-topology`` builds
    it), and the hand-declared sites of the other site tests."""
    categories = fixture_categories()
    sites = dict(fixture_sites(categories))
    categories["idempotent"] = walking_idempotent()
    categories["parallel_arrows"] = parallel_arrows()
    for name, C in sorted(categories.items()):
        sites[f"trivial_{name}"] = generate_topology(C, {}, name=f"trivial_{name}")
        sites[f"canonical_{name}"] = generate_topology(
            C, canonical_pretopology(C), name=f"canonical({name})"
        )
    sites["parallel_u"] = generate_topology(parallel_arrows(), {"y": [["u"]]}, name="parallel_u")
    sites["idempotent_e2"] = generate_topology(
        walking_idempotent(), {"e": [["e2"]]}, name="idempotent_e2"
    )
    sites["diamond_empty_a"] = generate_topology(diamond(), {"a": [[]]}, name="diamond_empty_a")
    return sites


SITES = fixture_site_list()
SUBCANONICAL = sorted(name for name, s in SITES.items() if is_subcanonical(s).value)


def test_the_subcanonical_fixture_sites():
    assert {"arrow_trivial", "sierpinski", "two_point_discrete", "three_point_chain"} <= set(
        SUBCANONICAL
    )
    assert {name for name in SITES if name.startswith(("trivial_", "canonical_"))} <= set(
        SUBCANONICAL
    )
    assert "diamond_empty_a" not in SUBCANONICAL


@pytest.mark.parametrize("name", SUBCANONICAL)
def test_epsilon_is_a_fully_faithful_functor_on_subcanonical_sites(name):
    site = SITES[name]
    p = epsilon_handle_functor(site, SheafCategory(site))
    assert validate_handle_functor(p).ok
    rep = is_handle_fully_faithful(p)
    assert rep.ok, rep.violations


def test_a_collapsed_arrow_is_not_faithful():
    # send both parallel arrows u, v: x -> y to the image of u
    site = SITES["trivial_parallel_arrows"]
    p = epsilon_handle_functor(site, SheafCategory(site))
    collapsed = HandleFunctor(
        "collapsed", p.dom, p.cod, p.obj_map, {**p.mor_map, "v": p.mor_map["u"]}
    )
    assert validate_handle_functor(collapsed).ok
    rep = is_handle_fully_faithful(collapsed)
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("faithful", ("u", "v")),
        ("full", ("x", "y")),
    ]


def test_epsilon_is_not_full_when_a_populated_object_has_the_empty_cover():
    # covering a by the empty family gives epsilon(bot) and epsilon(b) a
    # point over a, so maps out of epsilon(a) appear where the diamond has
    # no arrow a -> bot or a -> b
    site = SITES["diamond_empty_a"]
    rep = is_handle_fully_faithful(epsilon_handle_functor(site, SheafCategory(site)))
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("full", ("a", "bot")),
        ("full", ("a", "b")),
    ]
