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
"""

import pytest

from toposkit.fincat import HandleFunctor, validate_handle_functor
from toposkit.kan import build_ell, is_flat_bounded
from toposkit.site import SheafCategory, is_continuous
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
