"""Lemma yoneda7 into a sheaf topos, by two routes.

A functor p: C -> Sh(C, J) is flat when its extension along the
representables preserves finite limits.  Route 1 is ``is_flat_bounded``:
it extends p to presheaves, whose colimits in ``SheafCategory`` are
sheafified colimits factored through the unit, and probes the terminal
presheaf, binary products and equalizers.  Route 2 asks p itself to be
left exact, which for a base with finite limits is the same property: the
terminal object, every binary product and every equalizer of C, taken
from ``FinCatHandle(C).limit``, go to limits of sheaves.  p's image of each
limit cone is compared with ``SheafCategory.limit`` of p's diagram by the
factoring between them, which must be an isomorphism.

The rule: route 1 finds no counterexample on any instance that route 2
passes.  The instances, on the four corpus sites: epsilon, which is left
exact; epsilon after the a <-> b symmetry of the two-point discrete space,
which is too; and the functor constant at the first bound-2 sheaf with
two elements at the base's terminal object, which both routes reject,
route 1 at the terminal shape.

Epsilon after an endofunctor u of the base that is not left exact tests
the converse: where route 2 fails, route 1 must fail too, at route 2's
first failing shape.  The endofunctors are every constant one, which is
left exact only at the terminal object, and on the diamond the fold of b
onto a, which keeps the terminal object but not the meet of a and b.
"""

import pytest

from toposkit import site as site_module
from toposkit.fincat import (
    FinCatHandle,
    HandleDiagram,
    HandleFunctor,
    discrete_category,
    parallel_pair_category,
    validate_handle_functor,
)
from toposkit.kan import is_flat_bounded
from toposkit.presheaf import is_presheaf_iso
from toposkit.site import SheafCategory
from toposkit.verify import fixture_categories, fixture_sites

from conftest import epsilon_handle_functor, swapped_legs

SITES = fixture_sites(fixture_categories())
NO_OBJECTS = HandleDiagram(discrete_category("none", []), {}, {})


def _finite_limits(C):
    """The terminal object, then the binary products, then the
    equalizers of C, each as (shape, diagram in C, its limit cone)."""
    base = FinCatHandle(C)
    objs = sorted(C.objects)
    pair, pp = discrete_category("pair2", ["1", "2"]), parallel_pair_category()
    diagrams = [("terminal", NO_OBJECTS)]
    diagrams += [
        ("binary-product", HandleDiagram(pair, {"1": X, "2": Y}, {}))
        for i, X in enumerate(objs)
        for Y in objs[i:]
    ]
    diagrams += [
        ("equalizer", HandleDiagram(pp, {"a": X, "b": Y}, {"u": u, "v": v}))
        for X in objs
        for Y in objs
        for u in C.hom(X, Y)
        for v in C.hom(X, Y)
    ]
    return [(shape, D, base.limit(D)) for shape, D in diagrams]


def _not_preserved(p):
    """Route 2: the shapes of the finite limits of p's base whose image
    under p is not a limit of sheaves, in the order of ``_finite_limits``."""
    Z = p.cod
    failed = []
    for shape, D, cone in _finite_limits(p.dom):
        image = HandleDiagram(
            D.index,
            {j: p.obj_map[X] for j, X in D.obs.items()},
            {m: p.on_mor(f) for m, f in D.mors.items()},
        )
        legs = {j: p.on_mor(f) for j, f in cone.legs.items()}
        if not is_presheaf_iso(Z.limit(image).factor(p.obj_map[cone.apex], legs)):
            failed.append(shape)
    return failed


def _constant(site, Z):
    """The functor constant at the first sheaf of Z with two elements at
    the base's terminal object."""
    C = site.base
    top = FinCatHandle(C).limit(NO_OBJECTS).apex
    S = next(F for F in Z.objects() if len(F.values[top]) == 2)
    return HandleFunctor(
        "constant", C, Z, {X: S for X in C.objects}, {m: Z.identity(S) for m in C.non_identities()}
    )


def _instances(name):
    site = SITES[name]
    Z = SheafCategory(site, 2)
    eps = epsilon_handle_functor(site, Z)
    out = {"epsilon": eps, "constant": _constant(site, Z)}
    if name == "two_point_discrete":
        out["epsilon_swapped"] = swapped_legs(eps)
    return out


@pytest.mark.parametrize("name", sorted(SITES))
def test_route_1_verifies_every_functor_that_route_2_finds_left_exact(name, monkeypatch):
    factored = []
    real = site_module.factor_through_unit
    monkeypatch.setattr(
        site_module, "factor_through_unit", lambda *args: factored.append(1) or real(*args)
    )
    for label, p in _instances(name).items():
        assert validate_handle_functor(p).ok
        route_2 = _not_preserved(p)
        route_1 = is_flat_bounded(p)
        if label == "constant":
            # p(X x Y) = S is not S x S, while S's equalizers are S
            assert route_2[0] == "terminal"
            assert set(route_2) == {"terminal", "binary-product"}
            assert route_1.verdict == "counterexample"
            assert route_1.counterexample["shape"] == "terminal"
        else:
            assert route_2 == []
            assert route_1.verdict == "verified-up-to-budget"
    # route 1 factors the extension's colimits through the sheafification unit
    assert factored


def _after(p, u, name):
    """p after the endofunctor of its base, a poset, given by u on objects."""
    C = p.dom

    def on_mor(m):
        (f,) = C.hom(u[C.src(m)], u[C.tgt(m)])
        return p.on_mor(f)

    return HandleFunctor(
        name, C, p.cod, {X: p.obj_map[u[X]] for X in C.objects},
        {m: on_mor(m) for m in C.non_identities()},
    )


FOLD = {"bot": "bot", "a": "a", "b": "a", "top": "top"}


@pytest.mark.parametrize("name", sorted(SITES))
def test_route_1_fails_at_route_2s_first_shape_after_a_non_lex_endofunctor(name):
    site = SITES[name]
    C = site.base
    eps = epsilon_handle_functor(site, SheafCategory(site, 2))
    top = FinCatHandle(C).limit(NO_OBJECTS).apex
    # each endofunctor on objects, and the first shape route 2 must fail
    endofunctors = {
        f"constant_{c}": ({X: c for X in C.objects}, None if c == top else "terminal")
        for c in sorted(C.objects)
    }
    if name == "two_point_discrete":
        endofunctors["fold"] = (FOLD, "binary-product")
    for label, (u, first) in endofunctors.items():
        p = _after(eps, u, f"epsilon_{label}")
        assert validate_handle_functor(p).ok
        route_2 = _not_preserved(p)
        route_1 = is_flat_bounded(p)
        assert (route_2[0] if route_2 else None) == first, label
        if route_2:
            assert route_1.verdict == "counterexample", label
            assert route_1.counterexample["shape"] == route_2[0], label
        else:
            assert route_1.verdict == "verified-up-to-budget", label
