"""Lemma yoneda6 at its universal instance: epsilon classifies itself.

The sheafified Yoneda embedding epsilon: C -> Sh(C, J) is continuous and
flat, so ``build_ell`` accepts it as a handle functor into
``SheafCategory(site, 2)``.  The universal property of SGA4 IV 4.9.4,
applied to epsilon itself, says that the inverse image it induces is the
identity of Sh(C, J): extending epsilon along the representables sends
every sheaf F back to a sheaf isomorphic to F.  Checked on the four
corpus sites over every bound-2 sheaf.  The mutation precomposes epsilon
with the symmetry of the two-point discrete space, which swaps its legs
at the points a and b: the result is as continuous and flat as epsilon,
and its inverse image swaps F(a) and F(b), so it fails the identity
check exactly on the sheaves with |F(a)| != |F(b)|.

The isomorphism is natural: the canonical comparison c_F from the
inverse image of F to F, the colimit's factoring of the maps eps(X) -> F
that the elements of F classify, is an isomorphism, and every square
t . c_F = c_G . ell(t) commutes for sampled sheaf maps t: F -> G.  Its
mutation pairs one map with another map's extension.
"""

import pytest

from toposkit.fincat import HandleFunctor, validate_handle_functor
from toposkit.kan import build_ell, is_flat_bounded, tilde_extend_mor
from toposkit.presheaf import validate_presheaf_morphism, yoneda_backward, yoneda_embed
from toposkit.site import SheafCategory, factor_through_unit, is_continuous, sheafify
from toposkit.verify import fixture_categories, fixture_sites

from conftest import epsilon_handle_functor

SITES = fixture_sites(fixture_categories())


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
    assert is_flat_bounded(eps).verdict == "verified-up-to-budget"
    assert build_ell(eps, site).flatness.verdict == "verified-up-to-budget"


@pytest.mark.parametrize("name", sorted(SITES))
def test_the_inverse_image_of_epsilon_is_the_identity_on_sheaves(name):
    site, eps = _epsilon(name)
    assert len(eps.cod.objects()) >= 10
    assert _not_returned(eps, site) == []


def test_epsilon_with_swapped_legs_fails_the_identity_check():
    site, eps = _epsilon("two_point_discrete")
    swap = {"bot": "bot", "a": "b", "b": "a", "top": "top"}

    def swapped_mor(m):
        x, y = m.split(".")
        return f"{swap[x]}.{swap[y]}"

    swapped = HandleFunctor(
        "epsilon_swapped",
        eps.dom,
        eps.cod,
        {X: eps.obj_map[swap[X]] for X in eps.dom.objects},
        {m: eps.mor_map[swapped_mor(m)] for m in eps.dom.non_identities()},
    )
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
