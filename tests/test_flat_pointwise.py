"""Flatness into a presheaf topos is pointwise (Lemma yoneda7, into any topos).

A functor p from C into presheaves on the arrow is flat exactly when each
of its evaluations at an object X of the arrow, the finite-set functor
c -> p(c)(X), is flat (Mac Lane & Moerdijk, *Sheaves in Geometry and
Logic*, ch. VII).  So, for each corpus functor into ``psh_arrow``,
``is_flat_bounded`` may return a counterexample only if some evaluation
fails ``is_flat_setvalued``, and must return none when every evaluation
passes.  The suites read functors into finite sets only, so this is
checked here, at the small and at the default probe knobs.
"""

import pytest

from toposkit.fincat import HandleFunctor
from toposkit.kan import is_flat_bounded, is_flat_setvalued
from toposkit.presheaf import finset_category, finset_map, finset_obj
from toposkit.verify import budget_profile, corpus_generate

CORPUS = corpus_generate(0, "small")
FUNCTORS = {fx.name: fx.functor for fx in CORPUS.functors if fx.codomain == "psh_arrow"}
KNOBS = {
    name: {"max_probes": b.flat_probes, "max_pool": b.flat_pool}
    for name in ("small", "default")
    for b in (budget_profile(name),)
}


def evaluate(p, X):
    """p at the object X of its codomain's base, as a functor into finite sets."""
    obs = {c: finset_obj(P.values[X], name=f"{p.name}({c})({X})") for c, P in p.obj_map.items()}
    mors = {
        m: finset_map(obs[p.dom.src(m)], obs[p.dom.tgt(m)], t.components[X])
        for m, t in p.mor_map.items()
    }
    return HandleFunctor(f"{p.name}@{X}", p.dom, finset_category(3), obs, mors)


def pointwise_rule_holds(p, knobs, evaluations):
    """No counterexample to flatness while every evaluation is flat."""
    verdict = is_flat_bounded(p, **knobs).verdict
    return verdict != "counterexample" or not all(
        is_flat_setvalued(q).ok for q in evaluations
    )


def test_the_corpus_has_the_three_functors_into_presheaves_on_the_arrow():
    assert sorted(FUNCTORS) == ["segment_collapse", "segment_stalk", "yoneda_arrow"]


@pytest.mark.parametrize("knobs", sorted(KNOBS))
@pytest.mark.parametrize("name", sorted(FUNCTORS))
def test_flatness_into_presheaves_on_the_arrow_is_pointwise(name, knobs):
    p = FUNCTORS[name]
    evaluations = [evaluate(p, X) for X in sorted(p.cod.base.objects)]
    assert pointwise_rule_holds(p, KNOBS[knobs], evaluations)


@pytest.mark.parametrize("knobs", sorted(KNOBS))
def test_the_verdicts_and_evaluations_of_the_corpus_functors(knobs):
    flat = {n: is_flat_bounded(p, **KNOBS[knobs]) for n, p in FUNCTORS.items()}
    pointwise = {
        (n, X): is_flat_setvalued(evaluate(p, X)).ok
        for n, p in FUNCTORS.items()
        for X in ("s", "t")
    }
    assert flat["yoneda_arrow"].verdict == "verified-up-to-budget"
    assert flat["segment_collapse"].verdict == "verified-up-to-budget"
    assert flat["segment_stalk"].counterexample["shape"] == "terminal"
    assert pointwise == {
        ("segment_collapse", "s"): True,
        ("segment_collapse", "t"): True,
        ("segment_stalk", "s"): True,
        ("segment_stalk", "t"): False,
        ("yoneda_arrow", "s"): True,
        ("yoneda_arrow", "t"): True,
    }


def test_an_evaluation_at_one_object_misses_the_stalks_failure():
    # h_s is a point at s and empty at t: read at s alone, segment_stalk
    # looks flat, yet the extension of the terminal presheaf is not terminal
    p = FUNCTORS["segment_stalk"]
    assert not pointwise_rule_holds(p, KNOBS["default"], [evaluate(p, "s")])
