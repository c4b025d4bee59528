"""Cocontinuity of the extension along representables (Lemma yoneda3).

The extension p~ of a functor p: C -> Z preserves colimits: for every
diagram D of presheaves on C, the canonical map colim(p~ D) -> p~(colim D)
is an isomorphism.  ``colimit_comparison`` builds that map from the
library's parts: the extension values and maps, the pointwise presheaf
colimit, and the codomain handle's colimit.  It is checked on seeded
coproducts, coequalizers and pushouts, and on the empty diagram, for
every corpus functor into finite sets or into presheaves on the arrow.
The same map built with a wrong leg must fail to be an isomorphism.
"""

import random

import pytest

from toposkit.fincat import (
    HandleDiagram,
    discrete_category,
    parallel_pair_category,
    span_category,
)
from toposkit.kan import tilde_extend, tilde_extend_mor
from toposkit.presheaf import enumerate_presheaf_morphisms, presheaf_colimit, yoneda_embed
from toposkit.verify import corpus_generate, random_presheaf

CORPUS = corpus_generate(0, "small")
CODOMAINS = ("finset", "psh_arrow")
FUNCTORS = [fx.functor for fx in CORPUS.functors if fx.codomain in CODOMAINS]
SEEDS = range(3)


def colimit_comparison(p, diagram, legs_of=lambda colim: colim.legs):
    """colim(p~ D) -> p~(colim D): the map out of the Z-colimit of the
    extended diagram whose legs extend the presheaf colimit's legs, as
    ``legs_of`` picks them (a test may pick wrong ones)."""
    pre = presheaf_colimit(diagram, p.dom)
    extended = HandleDiagram(
        diagram.index,
        {j: tilde_extend(p, P).obj for j, P in diagram.obs.items()},
        {m: tilde_extend_mor(p, t) for m, t in diagram.mors.items()},
    )
    legs = {j: tilde_extend_mor(p, t) for j, t in legs_of(pre).items()}
    return p.cod.colimit(extended).factor(tilde_extend(p, pre.apex).obj, legs)


def _presheaf(C, rng, name):
    return random_presheaf(C, rng, 2, name=name)


def _with_maps(C, rng, name, source, tries=20):
    """A seeded presheaf that ``source`` has maps into, with those maps."""
    for _ in range(tries):
        Q = _presheaf(C, rng, name)
        maps = enumerate_presheaf_morphisms(source, Q)
        if maps:
            return Q, maps
    raise AssertionError(f"no seeded presheaf on {C.name} receives a map")


def empty(C, rng):
    return HandleDiagram(discrete_category("none", []), {}, {})


def coproduct(C, rng):
    obs = {"1": _presheaf(C, rng, "P"), "2": _presheaf(C, rng, "Q")}
    return HandleDiagram(discrete_category("pair2", ["1", "2"]), obs, {})


def coequalizer(C, rng):
    P = _presheaf(C, rng, "P")
    Q, maps = _with_maps(C, rng, "Q", P)
    mors = {"u": rng.choice(maps), "v": rng.choice(maps)}
    return HandleDiagram(parallel_pair_category(), {"a": P, "b": Q}, mors)


def pushout(C, rng):
    M = _presheaf(C, rng, "M")
    L, to_l = _with_maps(C, rng, "L", M)
    R, to_r = _with_maps(C, rng, "R", M)
    mors = {"ml": rng.choice(to_l), "mr": rng.choice(to_r)}
    return HandleDiagram(span_category(), {"l": L, "m": M, "r": R}, mors)


def test_both_codomains_are_covered():
    assert {p.cod for p in FUNCTORS} == {CORPUS.handles[z] for z in CODOMAINS}


@pytest.mark.parametrize("shape", [empty, coproduct, coequalizer, pushout])
def test_the_extension_preserves_seeded_colimits(shape):
    for p in FUNCTORS:
        for seed in SEEDS:
            D = shape(p.dom, random.Random(f"{seed}:{p.name}:{shape.__name__}"))
            assert p.cod.is_iso(colimit_comparison(p, D)), (p.name, shape.__name__, seed)


def _first_leg_twice(colim):
    return dict.fromkeys(colim.legs, colim.legs["1"])


def test_a_comparison_with_a_wrong_leg_is_not_an_iso():
    """On h_X + h_X, sending both summands through the first leg folds two
    copies of p(X) onto one, which no isomorphism does when p(X) has a
    point; the true comparison is an isomorphism."""
    checked = set()
    for p in FUNCTORS:
        for X in sorted(p.dom.objects):
            h = yoneda_embed(p.dom, X)
            if not any(tilde_extend(p, h).obj.values.values()):
                continue
            D = HandleDiagram(discrete_category("pair2", ["1", "2"]), {"1": h, "2": h}, {})
            assert p.cod.is_iso(colimit_comparison(p, D))
            wrong = colimit_comparison(p, D, _first_leg_twice)
            assert not p.cod.is_iso(wrong), (p.name, X)
            checked.add(p.cod)
    assert checked == {CORPUS.handles[z] for z in CODOMAINS}
