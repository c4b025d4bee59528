"""Lemma yoneda6 at its universal instance: epsilon classifies itself.

The sheafified Yoneda embedding epsilon: C -> Sh(C, J) is continuous and
flat, so ``build_ell`` accepts it as a handle functor into
``SheafCategory(site, 2)``.  The universal property of SGA4 IV 4.9.4,
applied to epsilon itself, says that the inverse image it induces is the
identity of Sh(C, J): extending epsilon along the representables sends
every sheaf F back to a sheaf isomorphic to F.  Checked on the four
corpus sites and on five more over every bound-2 sheaf.  The mutation precomposes epsilon
with the symmetry of the two-point discrete space, which swaps its legs
at the points a and b: the result is as continuous and flat as epsilon,
and its inverse image swaps F(a) and F(b), so it fails the identity
check exactly on the sheaves with |F(a)| != |F(b)|.

The isomorphism is natural: the canonical comparison c_F from the
inverse image of F to F, the colimit's factoring of the maps eps(X) -> F
that the elements of F classify, is an isomorphism, and every square
t . c_F = c_G . ell(t) commutes for sampled sheaf maps t: F -> G.  Its
mutation pairs one map with another map's extension.

The five sites beyond the corpus are diamond with the empty cover of a,
chain3 with {u.t} covering t, the canonical topologies on span and
parallel, and the trivial topology on z2.  The first two are not
subcanonical: some representables are not sheaves there, so epsilon is
not the Yoneda embedding, and its plus steps pass F through at some
objects and search at others.  Flatness is probed over a finite pool of
presheaves; where the bound-2 census has more than the pool's 20
members, that pool holds the representables alone.  That is so on every
site here but arrow_trivial and z2, and the flatness test pins it.
"""

import pytest

from toposkit.fincat import validate_handle_functor
from toposkit.kan import build_ell, is_flat_bounded, tilde_extend_mor
from toposkit.presheaf import validate_presheaf_morphism, yoneda_backward, yoneda_embed
from toposkit.site import (
    SheafCategory,
    canonical_pretopology,
    factor_through_unit,
    generate_topology,
    is_continuous,
    is_subcanonical,
    plus_construction,
    sheafify,
)
from toposkit.verify import fixture_categories, fixture_sites

from conftest import epsilon_handle_functor, swapped_legs

CATEGORIES = fixture_categories()
SITES = fixture_sites(CATEGORIES)


def _canonical(name):
    C = CATEGORIES[name]
    covers = canonical_pretopology(C)
    return generate_topology(
        C, {X: [list(f) for f in fams] for X, fams in covers.items()}, name=f"{name}_canonical"
    )


BEYOND_THE_CORPUS = {
    "diamond_a_empty": generate_topology(CATEGORIES["diamond"], {"a": [[]]}, name="diamond_a_empty"),
    "chain3_u_covers_t": generate_topology(
        CATEGORIES["chain3"], {"t": [["u.t"]]}, name="chain3_u_covers_t"
    ),
    "span_canonical": _canonical("span"),
    "parallel_canonical": _canonical("parallel"),
    "z2_trivial": generate_topology(CATEGORIES["z2"], {}, name="z2_trivial"),
}
SITES.update(BEYOND_THE_CORPUS)
# the sites whose bound-2 census fits in the flatness probe pool; on all
# the others flatness is probed over the representables alone
FULL_PROBE_POOL = {"arrow_trivial", "z2_trivial"}


def _epsilon(name):
    site = SITES[name]
    return site, epsilon_handle_functor(site, SheafCategory(site, 2))


def _not_returned(p, site):
    """The bound-2 sheaves F whose image under the inverse image of p is
    not isomorphic to F."""
    ell = build_ell(p, site)
    Z = p.cod
    return [F for F in Z.objects() if Z.find_iso(ell.inverse_image(F).obj, F) is None]


@pytest.mark.parametrize("name", sorted(SITES))
def test_epsilon_is_continuous_and_flat(name):
    site, eps = _epsilon(name)
    assert validate_handle_functor(eps).ok
    assert is_continuous(eps, site).ok
    flat = is_flat_bounded(eps)
    assert flat.verdict == "verified-up-to-budget"
    assert build_ell(eps, site).flatness.verdict == "verified-up-to-budget"
    if name in FULL_PROBE_POOL:
        assert flat.notes == ()
    else:
        reps = len(site.base.objects)
        assert flat.notes == (
            "presheaf census at value bound 2 has more than 20 members; "
            f"the pool holds only the {reps} representables",
        )


def test_two_sites_beyond_the_corpus_are_not_subcanonical():
    """There some representable is no sheaf, and its plus step passes it
    through at some objects only: its unit there is its identity action."""
    for name, site in BEYOND_THE_CORPUS.items():
        C = site.base
        partial = []
        for X in C.objects:
            h = yoneda_embed(C, X)
            unit = plus_construction(h, site).unit.components
            through = [Y for Y in C.objects if unit[Y] is h.actions[C.id_of(Y)]]
            if len(through) < len(C.objects):
                partial.append((X, through))
        subcanonical = name not in ("diamond_a_empty", "chain3_u_covers_t")
        assert is_subcanonical(site).value == subcanonical
        assert (partial == []) == subcanonical
        assert all(through for _, through in partial)


@pytest.mark.parametrize("name", sorted(SITES))
def test_the_inverse_image_of_epsilon_is_the_identity_on_sheaves(name):
    site, eps = _epsilon(name)
    assert len(eps.cod.objects()) >= (4 if name in BEYOND_THE_CORPUS else 10)
    assert _not_returned(eps, site) == []


def test_epsilon_with_swapped_legs_fails_the_identity_check():
    site, eps = _epsilon("two_point_discrete")
    swapped = swapped_legs(eps)
    assert validate_handle_functor(swapped).ok
    assert is_continuous(swapped, site).ok
    lopsided = [F for F in eps.cod.objects() if len(F.values["a"]) != len(F.values["b"])]
    assert lopsided
    assert _not_returned(swapped, site) == lopsided


def _comparisons(eps, site):
    """The canonical comparison c_F: ell(F) -> F for each bound-2 sheaf F,
    in the order of ``eps.cod.objects()``.  Its leg at the element e of
    F(X) is the map eps(X) -> F that e classifies: the Yoneda map h_X -> F
    factored through the unit of the sheafification."""
    ell = build_ell(eps, site)
    C = site.base
    units = {X: sheafify(yoneda_embed(C, X), site) for X in C.objects}
    out = []
    for F in eps.cod.objects():
        ext = ell.inverse_image(F)
        legs = {
            n: factor_through_unit(site, units[X], F, yoneda_backward(C, X, F, e))
            for n, (e, X) in ext.obj_elem.items()
        }
        out.append(ext.colimit.factor(F, legs))
    return out


@pytest.mark.parametrize("name", sorted(SITES))
def test_the_comparison_to_each_sheaf_is_a_natural_iso(name):
    site, eps = _epsilon(name)
    Z = eps.cod
    sheaves = Z.objects()
    cs = _comparisons(eps, site)
    for c in cs:
        assert validate_presheaf_morphism(c).ok and Z.is_iso(c)
    squares = caught = pairs = 0
    for F, cF in zip(sheaves, cs):
        for G, cG in zip(sheaves, cs):
            ts = Z.hom_prefix(F, G, 2)
            for t in ts:
                assert Z.equal_mor(Z.compose(t, cF), Z.compose(cG, tilde_extend_mor(eps, t)))
                squares += 1
            if len(ts) == 2:
                # c_F is an iso, so the square fails whenever the maps differ
                mutated = Z.compose(cG, tilde_extend_mor(eps, ts[1]))
                caught += not Z.equal_mor(Z.compose(ts[0], cF), mutated)
                pairs += 1
    assert squares > len(sheaves)
    assert caught == pairs > 0
