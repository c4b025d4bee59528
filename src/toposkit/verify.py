"""Deterministic corpora and executable theorem suites.

A corpus bundles the fixture categories, their sites, a presheaf sample
per category, and a roster of functors into declared codomain handles.
Everything downstream of the seed is reproducible: random tables come
from ``random.Random`` streams keyed by seed and suite id, iteration
follows sorted names, and reports carry no timestamps, so identical
inputs serialize to identical bytes.

The suites are numbered I through VII.  Each quantifies one structural
statement over the corpus and returns a SuiteReport whose verdict is
backed by an explicit check count; a budget that cuts an enumeration
short is recorded in the report, never silently applied.

Fixtures whose mathematical status is known by hand carry intent tags
(exact, continuous).  Suites compare the library's verdicts against the
tags before relying on them, so the tags double as regression oracles
for is_continuous and the flatness probes.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .errors import ConsistencyError, ConstructionRefused, ResourceBudgetError, StructureError
from .fincat import (
    FinCategory,
    HandleDiagram,
    HandleFunctor,
    discrete_category,
    make_category,
    opposite,
    parallel_pair_category,
    poset_category,
    span_category,
    terminal_category,
    validate_handle_functor,
)
from .kan import (
    adjunction_phi,
    build_ell,
    hp_on_mor,
    is_flat_bounded,
    is_flat_setvalued,
    right_adjoint_hp,
    tilde_extend,
    tilde_extend_mor,
    eta_iso,
    extension_limit_comparison,
)
from .presheaf import (
    Presheaf,
    PresheafCategory,
    PresheafMorphism,
    compose_presheaf_morphisms,
    constant_presheaf,
    density_check,
    enumerate_presheaf_morphisms,
    finset_category,
    finset_functor,
    finset_obj,
    hom_candidates,
    iter_presheaves,
    make_presheaf,
    presheaf_category,
    short_key,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda_backward,
    yoneda_embed,
    yoneda_forward,
    yoneda_on_mor,
)
from .site import Site, epsilon, epsilon_on_mor, generate_topology, is_continuous, is_sheaf

SUITE_IDS = ("I", "II", "III", "IV", "V", "VI", "VII")

SUITE_STATEMENTS = {
    "I": "morphisms out of a representable are classified by elements",
    "II": "every presheaf is the colimit of its representables",
    "III": "extension along representables restricts back to the original functor",
    "IV": "the extension is left adjoint to the maps-out-of-p presheaf",
    "V": "element-category and exactness-probe flatness verdicts agree",
    "VI": "for flat functors, continuity is equivalent to sheaf-valued direct images",
    "VII": "exact functors have cofiltered elements",
    "controls": "curated broken inputs are rejected by their checkers",
}

# bases that have all finite meets and a top element; flatness via
# cofilteredness of the element category is meaningful there
FINITELY_COMPLETE_BASES = ("arrow", "chain3", "chain4", "diamond", "one")

_MAX_WITNESSES = 25
_CENSUS_BOUND_CAP = 3
# suite IV skips a pair (H, z) when maps extension(H) -> z could number more
HOM_POOL_BOUND = 3000
# suite IV skips a natural-map enumeration whose candidate product is larger
NAT_POOL_BOUND = 1_000_000
# draws random_presheaf makes before it gives up
RANDOM_PRESHEAF_ATTEMPTS = 1000


# ---------------------------------------------------------------------------
# budgets


@dataclass(frozen=True)
class Budget:
    """Quantifier sizes for one suite run; never applied silently."""

    name: str
    exhaustive_bound: int = 3
    density_bound: int = 2
    sample_bound: int = 3
    random_presheaves: int = 3
    random_functors: int = 2
    presheaf_samples: int = 4
    z_samples: int = 3
    hom_cap: int = 6
    commute_samples: int = 5
    flat_probes: int = 12
    flat_pool: int = 20


_BUDGETS = {
    "small": Budget(
        name="small",
        exhaustive_bound=2,
        density_bound=2,
        sample_bound=2,
        random_presheaves=2,
        random_functors=1,
        presheaf_samples=2,
        z_samples=2,
        hom_cap=4,
        commute_samples=2,
        flat_probes=6,
        flat_pool=10,
    ),
    "default": Budget(name="default"),
    "large": Budget(
        name="large",
        density_bound=3,
        random_presheaves=6,
        random_functors=3,
        presheaf_samples=6,
        z_samples=4,
        hom_cap=8,
        commute_samples=10,
        flat_probes=20,
        flat_pool=30,
    ),
}


def budget_profile(name: str) -> Budget:
    if name not in _BUDGETS:
        raise StructureError(f"unknown budget profile {name!r}; use small, default, or large")
    return _BUDGETS[name]


def _resolve_budget(budget: Union[str, Budget]) -> Budget:
    return budget_profile(budget) if isinstance(budget, str) else budget


# ---------------------------------------------------------------------------
# fixture categories and sites


def fixture_categories() -> dict[str, FinCategory]:
    """The named small categories every corpus contains."""
    return {
        "one": terminal_category(),
        "arrow": poset_category("arrow", ["s", "t"], [("s", "t")]),
        "chain3": poset_category("chain3", ["e", "u", "t"], [("e", "u"), ("u", "t"), ("e", "t")]),
        "chain4": poset_category(
            "chain4",
            ["c0", "c1", "c2", "c3"],
            [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c0", "c2"), ("c0", "c3"), ("c1", "c3")],
        ),
        "diamond": poset_category(
            "diamond",
            ["bot", "a", "b", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"), ("bot", "top")],
        ),
        "discrete2": discrete_category("discrete2", ["l", "r"]),
        "span": span_category(),
        "parallel": parallel_pair_category(),
        "z2": make_category("z2", ["*"], [("s", "*", "*")], {("s", "s"): "id_*"}),
    }


def fixture_sites(categories: Mapping[str, FinCategory]) -> dict[str, Site]:
    """Open-cover sites over the fixture posets plus a trivial control.

    chain3 carries the opens of the two-point space with one closed
    point, diamond the opens of the discrete two-point space, chain4 the
    opens of a three-point space whose opens form a chain.  In each case
    the empty open is covered by the empty family.
    """
    return {
        "arrow_trivial": generate_topology(categories["arrow"], {}, name="arrow_trivial"),
        "sierpinski": generate_topology(categories["chain3"], {"e": [[]]}, name="sierpinski"),
        "two_point_discrete": generate_topology(
            categories["diamond"],
            {"top": [["a.top", "b.top"]], "bot": [[]]},
            name="two_point_discrete",
        ),
        "three_point_chain": generate_topology(
            categories["chain4"], {"c0": [[]]}, name="three_point_chain"
        ),
    }


# hand-derived continuity of hom_from(W) on the base's site: covering an
# open forces every map out of W into it to factor through some cover
# member, which fails exactly when W itself sits in the covered open but
# in no member (W = the empty open, or W = top over the two-point cover)
_HOM_CONTINUITY = {
    ("arrow", "s"): True,
    ("arrow", "t"): True,
    ("chain3", "e"): False,
    ("chain3", "u"): True,
    ("chain3", "t"): True,
    ("chain4", "c0"): False,
    ("chain4", "c1"): True,
    ("chain4", "c2"): True,
    ("chain4", "c3"): True,
    ("diamond", "bot"): False,
    ("diamond", "a"): True,
    ("diamond", "b"): True,
    ("diamond", "top"): False,
}


# ---------------------------------------------------------------------------
# seeded random members


def _indecomposables(C: FinCategory) -> list[str]:
    non_ids = sorted(C.non_identities())
    composite = set()
    for g in non_ids:
        for f in non_ids:
            if C.src(g) == C.tgt(f):
                gf = C.compose(g, f)
                if not C.is_identity(gf):
                    composite.add(gf)
    return [m for m in non_ids if m not in composite]


def random_presheaf(
    C: FinCategory, rng: random.Random, bound: int = 3, name: str = ""
) -> Presheaf:
    """A uniformly drawn functorial table, by rejection.

    Actions are sampled on the indecomposable morphisms only.  Each
    composite takes the action of the first pair of known actions that
    composes to it, and ``validate_presheaf`` rejects a draw that breaks a
    functor law: two factorizations that disagree, or an identity composite
    whose action is not the identity.  Rejection keeps the sampler honest:
    no bias toward any particular completion.  On a category whose
    indecomposables do not generate it, the first draw that reaches the
    derivation raises ``StructureError``.
    """
    gens = _indecomposables(C)
    non_ids = sorted(C.non_identities())
    objs = sorted(C.objects)
    for _ in range(RANDOM_PRESHEAF_ATTEMPTS):
        values = {X: tuple(f"x{i}" for i in range(rng.randint(0, bound))) for X in objs}
        actions: dict[str, dict[str, str]] = {}
        for m in gens:
            dom = values[C.tgt(m)]
            cod = values[C.src(m)]
            if dom and not cod:
                break
            actions[m] = {e: rng.choice(cod) for e in dom}
        if len(actions) < len(gens):  # a generator had nowhere to send a section
            continue
        changed = True
        while changed:
            changed = False
            for g in non_ids:
                if g not in actions:
                    continue
                for f in non_ids:
                    if f not in actions or C.src(g) != C.tgt(f):
                        continue
                    gf = C.compose(g, f)
                    if gf not in actions and not C.is_identity(gf):
                        actions[gf] = {e: actions[f][actions[g][e]] for e in values[C.tgt(g)]}
                        changed = True
        if set(actions) != set(non_ids):
            raise StructureError(f"{C.name}: indecomposables do not generate")
        F = make_presheaf(C, values, actions, name=name)
        if validate_presheaf(F).ok:
            return F
    raise ResourceBudgetError(
        "random_presheaf", RANDOM_PRESHEAF_ATTEMPTS + 1, RANDOM_PRESHEAF_ATTEMPTS
    )


# ---------------------------------------------------------------------------
# the corpus


@dataclass(frozen=True)
class FunctorFixture:
    """One corpus functor with its hand-derived intent tags.

    ``exact`` and ``continuous`` are expectations, None when the fixture
    is random or unclassified; ``site`` names the corpus site the
    continuity tag refers to.
    """

    name: str
    functor: HandleFunctor
    base: str
    codomain: str
    exact: Optional[bool] = None
    site: Optional[str] = None
    continuous: Optional[bool] = None


@dataclass
class Corpus:
    seed: int
    categories: dict[str, FinCategory]
    presheaves: dict[str, list[Presheaf]]
    sites: dict[str, Site]
    handles: dict[str, Any]
    functors: list[FunctorFixture]

    def digest(self) -> str:
        spec = {
            "seed": self.seed,
            "categories": {
                n: {
                    "objects": sorted(C.objects),
                    "morphisms": sorted((m.name, m.src, m.tgt) for m in C.morphisms),
                }
                for n, C in self.categories.items()
            },
            "presheaves": {n: [short_key(F) for F in ps] for n, ps in self.presheaves.items()},
            "sites": sorted(self.sites),
            "handles": sorted(self.handles),
            "functors": [(f.name, f.base, f.codomain) for f in self.functors],
        }
        return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]


def corpus_generate(seed: int, budget: Union[str, Budget] = "default") -> Corpus:
    """The named fixtures plus seeded random members, validated.

    The fixture roster is independent of the seed; only the random
    presheaves and random functors vary with it.
    """
    budget = _resolve_budget(budget)
    if budget.sample_bound > _CENSUS_BOUND_CAP or budget.exhaustive_bound > _CENSUS_BOUND_CAP:
        raise ResourceBudgetError(
            "corpus_generate",
            max(budget.sample_bound, budget.exhaustive_bound),
            _CENSUS_BOUND_CAP,
        )
    categories = fixture_categories()
    opposites = {n: opposite(C) for n, C in categories.items()}
    sites = fixture_sites(categories)
    fs = finset_category(3)
    psh_arrow = presheaf_category(categories["arrow"], 3)
    handles: dict[str, Any] = {"finset": fs, "psh_arrow": psh_arrow}

    rng = random.Random(f"{seed}:corpus")
    presheaves: dict[str, list[Presheaf]] = {}
    for cname in sorted(categories):
        C = categories[cname]
        members = [yoneda_embed(C, X) for X in sorted(C.objects)]
        members.append(constant_presheaf(C, ["*"], name="one"))
        members.append(constant_presheaf(C, [], name="zero"))
        for i in range(budget.random_presheaves):
            members.append(
                random_presheaf(C, rng, budget.sample_bound, name=f"rand{i}_{cname}")
            )
        presheaves[cname] = members

    def fixture(
        functor: HandleFunctor, exact: Optional[bool] = None, continuous: Optional[bool] = None
    ) -> FunctorFixture:
        """Only the tags are stated by hand: the name is the functor's, the
        base and codomain are the corpus entries that are its domain and
        codomain, and a finite-set-valued functor's site is the corpus site
        on its base."""
        base = next(n for n, C in categories.items() if C is functor.dom)
        codomain = next(n for n, h in handles.items() if h is functor.cod)
        on_base = (n for n, S in sites.items() if S.base is functor.dom and functor.cod is fs)
        return FunctorFixture(
            functor.name, functor, base, codomain, exact, next(on_base, None), continuous
        )

    functors: list[FunctorFixture] = []
    for cname in sorted(categories):
        C = categories[cname]
        for W in sorted(C.objects):
            h_W = yoneda_embed(opposites[cname], W)
            functors.append(
                fixture(
                    finset_functor(f"hom_from_{W}_{cname}", C, h_W, fs),
                    exact=True,
                    continuous=_HOM_CONTINUITY.get((cname, W)),
                )
            )

    # characteristic functors of upsets, each the subterminal presheaf on the
    # opposite base that is the point on the upset: name, base, upset, tags
    for fx_name, cname, upset, exact, cont in (
        ("wedge_diamond", "diamond", {"a", "b", "top"}, False, True),
        ("empty_diamond", "diamond", set(), False, True),
        ("const_point_diamond", "diamond", {"bot", "a", "b", "top"}, True, False),
        ("const_point_discrete2", "discrete2", {"l", "r"}, False, None),
        ("const_point_z2", "z2", {"*"}, False, None),
    ):
        C = categories[cname]
        G = make_presheaf(
            opposites[cname],
            {X: ["q"] for X in upset},
            {m: {"q": "q"} for m in C.non_identities() if C.src(m) in upset},
        )
        functors.append(fixture(finset_functor(fx_name, C, G, fs), exact, cont))

    arrow = categories["arrow"]
    doubled = make_presheaf(
        opposites["arrow"], {"s": ["s0", "s1"], "t": ["q"]}, {"s.t": {"s0": "q", "s1": "q"}}
    )
    functors.append(
        fixture(finset_functor("doubled_stalk", arrow, doubled, fs), exact=False, continuous=True)
    )
    s2 = finset_obj(["s0", "s1"], name="S2")
    pt = finset_obj(["q"], name="pt")
    one = categories["one"]
    functors.append(fixture(HandleFunctor("two_point_stalk", one, fs, {"*": s2}, {}), exact=False))
    functors.append(fixture(HandleFunctor("point_stalk", one, fs, {"*": pt}, {}), exact=True))

    one_psh = psh_arrow.terminal()
    h_s = yoneda_embed(arrow, "s")
    functors.append(
        fixture(
            HandleFunctor(
                "yoneda_arrow",
                arrow,
                psh_arrow,
                {X: yoneda_embed(arrow, X) for X in arrow.objects},
                {m: yoneda_on_mor(arrow, m) for m in arrow.non_identities()},
            )
        )
    )
    functors.append(fixture(HandleFunctor("segment_stalk", one, psh_arrow, {"*": h_s}, {})))
    collapse = PresheafMorphism(
        h_s,
        one_psh,
        {X: {e: one_psh.values[X][0] for e in h_s.values[X]} for X in arrow.objects},
    )
    functors.append(
        fixture(
            HandleFunctor(
                "segment_collapse", arrow, psh_arrow, {"s": h_s, "t": one_psh}, {"s.t": collapse}
            )
        )
    )

    for cname in ("arrow", "chain3", "diamond", "z2"):
        C = categories[cname]
        for i in range(budget.random_functors):
            name = f"rand{i}_{cname}_fs"
            G = random_presheaf(opposites[cname], rng, budget.sample_bound, name=f"{name}_tab")
            functors.append(fixture(finset_functor(name, C, G, fs)))

    seen = set()
    for fx in functors:
        if fx.name in seen:
            raise ConsistencyError(f"duplicate fixture name {fx.name}")
        seen.add(fx.name)
        rep = validate_handle_functor(fx.functor)
        if not rep.ok:
            raise ConsistencyError(f"fixture {fx.name} fails validation: {rep.violations}")
    return Corpus(seed, categories, presheaves, sites, handles, functors)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SuiteReport:
    theorem: str
    inputs: str
    checks_run: int
    verdict: str
    witnesses: list[dict]
    budget_notes: list[str]

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "statement": SUITE_STATEMENTS.get(self.theorem, ""),
            "inputs": self.inputs,
            "checks_run": self.checks_run,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "budget_notes": self.budget_notes,
        }


class _Recorder:
    def __init__(self) -> None:
        self.checks = 0
        self.witnesses: list[dict] = []
        self.notes: list[str] = []
        self._truncated = 0
        # suite IV's instances whose hom or transform pool is above budget
        self.skipped = 0

    def check(self, ok: bool, witness: Union[dict, Callable[[], dict], None] = None) -> bool:
        self.checks += 1
        if not ok:
            payload = witness() if callable(witness) else (witness or {})
            if len(self.witnesses) < _MAX_WITNESSES:
                self.witnesses.append({"check": self.checks, **payload})
            else:
                self._truncated += 1
        return ok

    def note(self, msg: str) -> None:
        if msg not in self.notes:
            self.notes.append(msg)

    def absorb(self, other: _Recorder) -> None:
        """Append a later unit's recorder, as if its checks had run here."""
        for w in other.witnesses:
            if len(self.witnesses) < _MAX_WITNESSES:
                self.witnesses.append({**w, "check": w["check"] + self.checks})
            else:
                self._truncated += 1
        self._truncated += other._truncated
        self.skipped += other.skipped
        for msg in other.notes:
            self.note(msg)
        self.checks += other.checks

    def finish(self, theorem: str, digest: str) -> SuiteReport:
        if self.skipped:
            self.note(f"{self.skipped} instances skipped: hom or transform pool above budget")
        if self._truncated:
            self.note(f"witness list capped at {_MAX_WITNESSES}; {self._truncated} more failures")
        verdict = "pass" if not self.witnesses else "fail"
        if verdict == "pass" and self.checks == 0:
            raise ConsistencyError(f"suite {theorem} passed without running any check")
        return SuiteReport(theorem, digest, self.checks, verdict, self.witnesses, self.notes)


def _sample(rng: random.Random, pool: Sequence, k: int) -> list:
    if k >= len(pool):
        return list(pool)
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), k))]


# ---------------------------------------------------------------------------
# the suites


def _suite_I(corpus: Corpus, budget: Budget, rec: _Recorder, cname: str) -> None:
    """Suite I on the census of one base category; the suite is one unit
    per category, in sorted order."""
    bound = budget.exhaustive_bound
    rec.note(f"exhaustive presheaf census at value bound {bound}")
    C = corpus.categories[cname]
    reps = {X: yoneda_embed(C, X) for X in C.objects}
    for F in iter_presheaves(C, bound):
        for X in C.objects:
            nats = enumerate_presheaf_morphisms(reps[X], F)
            rec.check(
                len(nats) == len(F.values[X]),
                lambda: {
                    "category": cname,
                    "object": X,
                    "presheaf": short_key(F),
                    "nat_count": len(nats),
                    "value_count": len(F.values[X]),
                },
            )
            for t in nats:
                e = yoneda_forward(C, X, t)
                back = yoneda_backward(C, X, F, e)
                rec.check(
                    back.components == t.components,
                    lambda: {
                        "category": cname,
                        "object": X,
                        "presheaf": short_key(F),
                        "element": e,
                        "detail": "classify-then-rebuild changed the morphism",
                    },
                )
            for e in F.values[X]:
                t = yoneda_backward(C, X, F, e)
                rec.check(
                    yoneda_forward(C, X, t) == e,
                    lambda: {
                        "category": cname,
                        "object": X,
                        "presheaf": short_key(F),
                        "element": e,
                        "detail": "rebuild-then-classify changed the element",
                    },
                )


def _suite_II(corpus: Corpus, budget: Budget, rec: _Recorder, cname: str) -> None:
    """Suite II on one base category; the suite is one unit per category,
    in sorted order."""
    rec.note(
        f"exhaustive census at value bound {budget.density_bound} "
        "plus the corpus presheaf samples"
    )
    census = iter_presheaves(corpus.categories[cname], budget.density_bound)
    for F in itertools.chain(census, corpus.presheaves[cname]):
        d = density_check(F)
        rec.check(
            d.ok,
            lambda: {"category": cname, "presheaf": short_key(F), "detail": d.detail},
        )


def _check_extension_along(
    corpus: Corpus,
    budget: Budget,
    rec: _Recorder,
    fx: FunctorFixture,
    suite: str,
    on_obj: Callable[[str], Presheaf],
    on_mor: Callable[[str], PresheafMorphism],
    details: tuple[str, str],
) -> None:
    """q = the extension of p composed with the functor C -> PSh(C) given
    by on_obj and on_mor: check that q is a functor, then that its
    extension agrees with p's on the seeded presheaf sample.  ``details``
    are the two failure details.
    """
    p = fx.functor
    C = p.dom
    q = HandleFunctor(
        f"{fx.name}~{suite}",
        C,
        p.cod,
        {X: tilde_extend(p, on_obj(X)).obj for X in C.objects},
        {m: tilde_extend_mor(p, on_mor(m)) for m in C.non_identities()},
    )
    rec.check(
        validate_handle_functor(q).ok,
        lambda: {"fixture": fx.name, "detail": details[0]},
    )
    rng = random.Random(f"{corpus.seed}:{suite}:{fx.name}")
    for H in _sample(rng, corpus.presheaves[fx.base], budget.presheaf_samples):
        lhs = tilde_extend(q, H).obj
        rhs = tilde_extend(p, H).obj
        rec.check(
            p.cod.find_iso(lhs, rhs) is not None,
            lambda: {"fixture": fx.name, "presheaf": short_key(H), "detail": details[1]},
        )


def _suite_III(corpus: Corpus, budget: Budget, rec: _Recorder) -> None:
    rec.note("cocontinuous functors are presented as extensions of corpus fixtures")
    for fx in corpus.functors:
        C = fx.functor.dom
        res = eta_iso(fx.functor)
        rec.check(
            res.report.ok,
            lambda: {
                "fixture": fx.name,
                "violations": [v.to_dict() for v in res.report.violations],
            },
        )
        _check_extension_along(
            corpus, budget, rec, fx, "III",
            lambda X: yoneda_embed(C, X), lambda m: yoneda_on_mor(C, m),
            (
                "restricted extension is not a functor",
                "extension of the restriction disagrees with the extension",
            ),
        )


def _suite_IV(corpus: Corpus, budget: Budget, rec: _Recorder, cname: str) -> None:
    """Suite IV on the functors of one base category, in roster order, and
    its currying pin after the last category; the suite is one unit per
    category, in sorted order.  Instances skipped for their pool size are
    counted in ``rec.skipped``."""
    for fx in corpus.functors:
        if fx.base != cname:
            continue
        p = fx.functor
        Z = p.cod
        rng = random.Random(f"{corpus.seed}:IV:{fx.name}")
        zs = _sample(rng, Z.objects(), budget.z_samples)
        Hs = _sample(rng, corpus.presheaves[fx.base], budget.presheaf_samples)
        for H in Hs:
            ext = tilde_extend(p, H).obj
            for z in zs:
                hp = right_adjoint_hp(p, z)
                if hom_candidates(ext, z) > HOM_POOL_BOUND:
                    rec.skipped += 1
                    continue
                phi = adjunction_phi(p, H, z)
                # one map past the cap tells whether the set was truncated
                homs = Z.hom_prefix(ext, z, budget.hom_cap + 1)
                if len(homs) > budget.hom_cap:
                    rec.note(f"hom sets truncated to {budget.hom_cap} maps")
                for w in homs[: budget.hom_cap]:
                    t = phi.forward(w)
                    rec.check(
                        validate_presheaf_morphism(t).ok,
                        lambda: {"fixture": fx.name, "detail": "transpose is not natural"},
                    )
                    rec.check(
                        Z.equal_mor(phi.backward(t), w),
                        lambda: {
                            "fixture": fx.name,
                            "presheaf": short_key(H),
                            "target": Z.obj_key(z),
                            "detail": "backward(forward(w)) is not w",
                        },
                    )
                if hom_candidates(H, hp) > NAT_POOL_BOUND:
                    rec.skipped += 1
                    continue
                nats = enumerate_presheaf_morphisms(H, hp)
                for t in nats[: budget.hom_cap]:
                    rt = phi.forward(phi.backward(t))
                    rec.check(
                        rt.components == t.components,
                        lambda: {
                            "fixture": fx.name,
                            "presheaf": short_key(H),
                            "target": Z.obj_key(z),
                            "detail": "forward(backward(t)) is not t",
                        },
                    )
        # naturality in the presheaf argument
        for H1 in Hs:
            for H2 in Hs:
                if hom_candidates(H1, H2) > NAT_POOL_BOUND:
                    rec.skipped += 1
                    continue
                maps = enumerate_presheaf_morphisms(H1, H2)
                for s in maps[:2]:
                    for z in zs[:1]:
                        ext2 = tilde_extend(p, H2).obj
                        if hom_candidates(ext2, z) > HOM_POOL_BOUND:
                            rec.skipped += 1
                            continue
                        phi1 = adjunction_phi(p, H1, z)
                        phi2 = adjunction_phi(p, H2, z)
                        lifted = tilde_extend_mor(p, s)
                        for w in Z.hom_prefix(ext2, z, 2):
                            lhs = compose_presheaf_morphisms(phi2.forward(w), s)
                            rhs = phi1.forward(Z.compose(w, lifted))
                            rec.check(
                                lhs.components == rhs.components,
                                lambda: {
                                    "fixture": fx.name,
                                    "detail": "transpose not natural in the presheaf",
                                },
                            )
        # naturality in the codomain argument
        for z1 in zs:
            for z2 in zs:
                for w0 in Z.hom_prefix(z1, z2, 2):
                    post = hp_on_mor(p, w0)
                    for H in Hs[:2]:
                        ext = tilde_extend(p, H).obj
                        if hom_candidates(ext, z2) > HOM_POOL_BOUND:
                            rec.skipped += 1
                            continue
                        phi1 = adjunction_phi(p, H, z1)
                        phi2 = adjunction_phi(p, H, z2)
                        for w in Z.hom_prefix(ext, z1, 2):
                            lhs = phi2.forward(Z.compose(w0, w))
                            rhs = compose_presheaf_morphisms(post, phi1.forward(w))
                            rec.check(
                                lhs.components == rhs.components,
                                lambda: {
                                    "fixture": fx.name,
                                    "detail": "transpose not natural in the codomain",
                                },
                            )
    if cname == max(corpus.categories):
        _currying_pin(corpus, rec)


def _currying_pin(corpus: Corpus, rec: _Recorder) -> None:
    """Sets S, A, Z of size two give 16 maps both ways."""
    p = next(f for f in corpus.functors if f.name == "two_point_stalk").functor
    FSH = corpus.handles["finset"]
    S = constant_presheaf(corpus.categories["one"], ["s0", "s1"], name="S")
    z = finset_obj(["z0", "z1"], name="Z")
    ext = tilde_extend(p, S).obj
    homs = FSH.hom(ext, z)
    nats = enumerate_presheaf_morphisms(S, right_adjoint_hp(p, z))
    rec.check(
        len(homs) == 16 and len(nats) == 16,
        lambda: {"detail": "currying counts", "maps": len(homs), "transposes": len(nats)},
    )
    phi = adjunction_phi(p, S, z)
    keys = {FSH.mor_key(phi.backward(t)) for t in nats}
    rec.check(len(keys) == 16, lambda: {"detail": "transposition is not injective"})


def flat_knobs(budget: Budget) -> dict:
    """The keywords of ``is_flat_bounded`` that a budget profile sets."""
    return {
        "max_probes": budget.flat_probes,
        "max_pool": budget.flat_pool,
    }


def _suite_V(corpus: Corpus, budget: Budget, rec: _Recorder, cname: str) -> None:
    """Suite V on the functors of one base category, in roster order; the
    suite is one unit per category, in sorted order."""
    for fx in corpus.functors:
        if fx.base != cname or fx.codomain != "finset":
            continue
        p = fx.functor
        setwise = is_flat_setvalued(p)
        bounded = is_flat_bounded(p, **flat_knobs(budget))
        if fx.exact is True:
            rec.check(
                setwise.ok,
                lambda: {"fixture": fx.name, "detail": "expected cofiltered elements"},
            )
            rec.check(
                bounded.verdict == "verified-up-to-budget",
                lambda: {"fixture": fx.name, "counterexample": bounded.counterexample},
            )
        elif fx.exact is False:
            rec.check(
                not setwise.ok,
                lambda: {"fixture": fx.name, "detail": "expected non-cofiltered elements"},
            )
            rec.check(
                bounded.verdict == "counterexample",
                lambda: {"fixture": fx.name, "detail": "expected an exactness counterexample"},
            )
        if setwise.ok:
            rec.check(
                bounded.verdict == "verified-up-to-budget",
                lambda: {
                    "fixture": fx.name,
                    "detail": "cofiltered elements but exactness probe found a failure",
                    "counterexample": bounded.counterexample,
                },
            )
        if bounded.verdict == "counterexample":
            rec.check(
                not setwise.ok,
                lambda: {
                    "fixture": fx.name,
                    "detail": "exactness counterexample on cofiltered elements",
                },
            )
        if fx.site is not None:
            site = corpus.sites[fx.site]
            if not is_continuous(p, site).ok:
                continue
            if bounded.verdict == "verified-up-to-budget":
                data = build_ell(p, site, **flat_knobs(budget))
                rec.check(
                    data.flatness.verdict == "verified-up-to-budget",
                    lambda: {"fixture": fx.name, "detail": "assembled data degraded"},
                )
            else:
                try:
                    build_ell(p, site, **flat_knobs(budget))
                    rec.check(False, {"fixture": fx.name, "detail": "refusal expected"})
                except ConstructionRefused:
                    rec.check(True)


def _suite_VI(corpus: Corpus, budget: Budget, rec: _Recorder) -> None:
    FSH = corpus.handles["finset"]
    zs = FSH.objects()
    rec.note(f"direct images probed against {len(zs)} enumerated codomain objects")
    for fx in corpus.functors:
        if fx.codomain != "finset" or fx.site is None:
            continue
        p = fx.functor
        site = corpus.sites[fx.site]
        cont = is_continuous(p, site)
        if fx.continuous is not None:
            rec.check(
                cont.ok == fx.continuous,
                lambda: {
                    "fixture": fx.name,
                    "computed": cont.ok,
                    "expected": fx.continuous,
                },
            )
        bad_z = None
        all_sheaf = True
        for z in zs:
            if not is_sheaf(right_adjoint_hp(p, z), site).ok:
                all_sheaf = False
                if bad_z is None:
                    bad_z = FSH.obj_key(z)
        # the equivalence is stated for flat functors only: without
        # flatness the image of a cover can be strictly epimorphic while
        # the sieve-level matching condition still fails (the wedge over
        # the two-point cover is the standing example)
        flat = is_flat_setvalued(p).ok
        if flat:
            rec.check(
                cont.ok == all_sheaf,
                lambda: {
                    "fixture": fx.name,
                    "continuous": cont.ok,
                    "first_non_sheaf_target": bad_z,
                    "detail": "continuity and sheaf-valued direct images must coincide",
                },
            )
        else:
            rec.note("equivalence with sheaf-valued direct images quantified over flat fixtures")
        if not cont.ok:
            continue
        try:
            ell = build_ell(p, site, **flat_knobs(budget))
        except ConstructionRefused:
            rec.check(
                not flat,
                lambda: {"fixture": fx.name, "detail": "refused although elements cofiltered"},
            )
            continue
        for X in sorted(p.dom.objects):
            val = ell.inverse_image(epsilon(site, X))
            rec.check(
                FSH.find_iso(val.obj, p.obj_map[X]) is not None,
                lambda: {
                    "fixture": fx.name,
                    "object": X,
                    "detail": "inverse image of the sheafified representable missed p",
                },
            )
        _check_extension_along(
            corpus, budget, rec, fx, "VI",
            lambda X: epsilon(site, X), lambda m: epsilon_on_mor(site, m),
            (
                "restriction along sheafification broke",
                "rebuilt inverse image disagrees on a sample",
            ),
        )
        if fx.site == "arrow_trivial":
            rec.note("trivial-topology fixtures reduce to the adjunction suite")


def _suite_VII(corpus: Corpus, budget: Budget, rec: _Recorder) -> None:
    for fx in corpus.functors:
        if fx.codomain != "finset":
            continue
        p = fx.functor
        if fx.exact is True and fx.base in FINITELY_COMPLETE_BASES:
            cof = is_flat_setvalued(p)
            rec.check(
                cof.ok,
                lambda: {
                    "fixture": fx.name,
                    "violations": [v.to_dict() for v in cof.violations],
                },
            )
            bounded = is_flat_bounded(p, **flat_knobs(budget))
            rec.check(
                bounded.verdict == "verified-up-to-budget"
                and bounded.counterexample is None,
                lambda: {"fixture": fx.name, "counterexample": bounded.counterexample},
            )
        elif fx.exact is False:
            bounded = is_flat_bounded(p, **flat_knobs(budget))
            rec.check(
                bounded.verdict == "counterexample"
                and bounded.counterexample is not None
                and bounded.counterexample.get("shape")
                in ("terminal", "binary-product", "equalizer"),
                lambda: {
                    "fixture": fx.name,
                    "verdict": bounded.verdict,
                    "counterexample": bounded.counterexample,
                },
            )
    # directed colimits of finite sets commute with binary products: a
    # diagram J -> sets is a presheaf on J^op, and its colimit is the
    # extension of the point functor J^op -> sets at it
    FSH = corpus.handles["finset"]
    J = corpus.categories["chain3"]
    Jop = opposite(J)
    point = finset_functor("point", Jop, constant_presheaf(J, ["*"]), FSH)
    pair = discrete_category("pair2", ["1", "2"])
    rng = random.Random(f"{corpus.seed}:VII:commute")
    rec.note(f"{budget.commute_samples} seeded directed diagrams over chain3")
    for i in range(budget.commute_samples):
        D1 = random_presheaf(Jop, rng, 2, name=f"D{i}a")
        D2 = random_presheaf(Jop, rng, 2, name=f"D{i}b")
        product = HandleDiagram(pair, {"1": D1, "2": D2}, {})
        rec.check(
            FSH.is_iso(extension_limit_comparison(point, product)),
            lambda: {
                "instance": i,
                "detail": "directed colimit does not commute with the product",
            },
        )


def negative_controls(corpus: Corpus) -> SuiteReport:
    """Curated broken inputs; every checker must reject its control.

    One unit, so it runs in-process, in one memo scope like a suite.
    """
    return _run(corpus, budget_profile("default"), ("controls",))[0]


def _controls(corpus: Corpus, budget: Budget, rec: _Recorder) -> None:
    arrow = corpus.categories["arrow"]
    F = yoneda_embed(arrow, "t")
    G = constant_presheaf(arrow, ["g0", "g1"], name="G2")
    twisted = PresheafMorphism(F, G, {"t": {"id_t": "g0"}, "s": {"s.t": "g1"}})
    rec.check(
        not validate_presheaf_morphism(twisted).ok,
        {"control": "twisted components", "detail": "naturality violation not caught"},
    )

    diamond = corpus.categories["diamond"]
    site = corpus.sites["two_point_discrete"]
    doubled_empty = make_presheaf(
        diamond,
        {"bot": ("x0", "x1"), "a": ("y0",), "b": ("z0",), "top": ("w0",)},
        {
            "a.top": {"w0": "y0"},
            "b.top": {"w0": "z0"},
            "bot.a": {"y0": "x0"},
            "bot.b": {"z0": "x0"},
            "bot.top": {"w0": "x0"},
        },
        name="doubled_empty",
    )
    rec.check(
        validate_presheaf(doubled_empty).ok,
        {"control": "doubled empty-open sections", "detail": "control is malformed"},
    )
    rec.check(
        not is_sheaf(doubled_empty, site).ok,
        {"control": "doubled empty-open sections", "detail": "sheaf check accepted it"},
    )

    const = next(f for f in corpus.functors if f.name == "const_point_diamond")
    rec.check(
        not is_continuous(const.functor, site).ok,
        {"control": "sections over the empty open", "detail": "continuity check accepted it"},
    )

    wedge = next(f for f in corpus.functors if f.name == "wedge_diamond")
    rec.check(
        not is_flat_setvalued(wedge.functor).ok,
        {"control": "no common source over the two points", "detail": "claimed cofiltered"},
    )
    rec.check(
        is_flat_bounded(wedge.functor, **flat_knobs(budget)).verdict == "counterexample",
        {"control": "no common source over the two points", "detail": "no counterexample"},
    )


def _drop_run_memos(corpus: Corpus) -> None:
    """End a run's memo scope: clear each corpus functor's ``_memo`` and
    each handle's ``_hom_memo``, which live for one run.

    ``_run`` calls this once, in the caller, even when a unit raises, so
    memory is bounded by the run in hand.  Each functor's ``_flat``
    outlives the run: its verdicts are small, and later suites read them.
    On workers, the pool's end drops the memos.
    """
    for fx in corpus.functors:
        fx.functor._memo.clear()
    for handle in corpus.handles.values():
        if isinstance(handle, PresheafCategory):
            handle._hom_memo.clear()


_SUITES = {
    "I": _suite_I,
    "II": _suite_II,
    "III": _suite_III,
    "IV": _suite_IV,
    "V": _suite_V,
    "VI": _suite_VI,
    "VII": _suite_VII,
    "controls": _controls,
}


# ---------------------------------------------------------------------------
# the runner: units on worker processes, recorders merged in unit order

# a unit: the suite id ("controls" for the negative controls) and the
# extra arguments of its body: the category name for suites I, II, IV
# and V, and none for the others
_Unit = tuple[str, tuple]


def _run_unit(corpus: Corpus, budget: Budget, unit: _Unit) -> tuple[_Recorder, list[dict]]:
    """The unit's recorder, and each corpus functor's ``_flat`` memo, the
    verdicts the unit probed among them; ``_memo`` and ``_hom_memo``
    entries are left for its run's end."""
    theorem, args = unit
    rec = _Recorder()
    _SUITES[theorem](corpus, budget, rec, *args)
    return rec, [fx.functor._flat for fx in corpus.functors]


# the corpus and budget of the run, set in each worker when it starts
_WORKER_RUN: tuple = ()


def _init_worker(corpus: Corpus, budget: Budget) -> None:
    global _WORKER_RUN
    _WORKER_RUN = (corpus, budget)


def _worker_unit(unit: _Unit) -> tuple[_Recorder, list[dict]]:
    return _run_unit(*_WORKER_RUN, unit)


def _worker_count(units: int) -> int:
    """One worker per CPU the process may run on, and no more than units."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, units)


def _map_units(
    corpus: Corpus, budget: Budget, units: list[_Unit]
) -> list[tuple[_Recorder, list[dict]]]:
    """Each unit's ``_run_unit`` result, in unit order.

    Units run on forked workers, which inherit the corpus and the hash
    seed, so nothing is pickled on the way in and set iteration orders
    are those of the caller.  They run in-process instead when there is
    one worker, when fork is not available, or when the caller has other
    threads, which a fork can deadlock.  On an error, the units not yet
    queued to a worker are cancelled and the others finish before it is
    raised; a worker that dies raises ChildProcessError.  No worker
    outlives the call.
    """
    n = _worker_count(len(units))
    if n > 1 and threading.active_count() == 1:
        import multiprocessing  # deferred: the pool is off the import path
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(n, fork, _init_worker, (corpus, budget)) as pool:
                # when a result raises, map cancels the units not yet queued,
                # and leaving the block waits for the others
                try:
                    return list(pool.map(_worker_unit, units))
                except BrokenProcessPool as e:
                    raise ChildProcessError("a suite worker died without a result") from e
    return list(map(functools.partial(_run_unit, corpus, budget), units))


def _run(corpus: Corpus, budget: Budget, theorems: Sequence[str]) -> list[SuiteReport]:
    """The reports of ``theorems``, in order.  Suites I, II, IV and V run
    as one unit per base category, in sorted order, and every other suite
    and the controls as one unit each, so the units depend on the corpus
    alone.  A suite's recorders merge in unit order, so its checks,
    witnesses and notes are those of one serial run.  The run is one memo
    scope: ``_memo`` and ``_hom_memo`` live until it ends, ``_flat``
    outlives it, and on workers the pool's end drops the memos.  The
    units' ``_flat`` verdicts go into the caller's in unit order, so a run
    on workers leaves the memo a serial run would."""
    categories = [(c,) for c in sorted(corpus.categories)]
    units = [
        (t, args)
        for t in theorems
        for args in (categories if t in ("I", "II", "IV", "V") else [()])
    ]
    try:
        results = _map_units(corpus, budget, units)
    finally:
        _drop_run_memos(corpus)
    merged = {t: _Recorder() for t in theorems}
    for (theorem, _), (rec, flats) in zip(units, results):
        merged[theorem].absorb(rec)
        for fx, flat in zip(corpus.functors, flats):
            for key, verdict in flat.items():
                fx.functor._flat.setdefault(key, verdict)
    digest = corpus.digest()
    return [rec.finish(theorem, digest) for theorem, rec in merged.items()]


def run_theorem_suite(
    theorem: str, corpus: Corpus, budget: Union[str, Budget] = "default"
) -> SuiteReport:
    """One suite's report.  Suites I, II, IV and V run one unit per base
    category, on a process pool when the process may use more than one
    CPU; suites III, VI and VII are one unit, run in-process.  The call
    is one memo scope: ``_memo`` and ``_hom_memo`` live until it returns,
    the ``_flat`` verdicts it probed outlive it, handed back by the
    workers, and the pool's end drops the workers' memos.  When a unit
    raises, the units not yet queued to a worker are cancelled and the
    others finish before the error is raised in the caller; a worker that
    dies raises ``ChildProcessError``.  No worker outlives the call."""
    if theorem not in SUITE_IDS:
        raise StructureError(f"unknown suite {theorem!r}; expected one of {SUITE_IDS}")
    return _run(corpus, _resolve_budget(budget), (theorem,))[0]


def suite_all(corpus: Corpus, budget: Union[str, Budget] = "default") -> dict:
    """All seven suites plus the negative controls, in fixed order.

    The units of all eight run together, on a process pool when the
    process may use more than one CPU.  The report is byte-identical to a
    serial run's, and so is the flatness memo the run leaves on
    ``corpus``: units on workers hand their verdicts back.  Suites VI,
    VII and the controls run beside suite V there, so they probe the
    verdicts they read again rather than wait for V's.  The memo scope,
    errors, dead workers and the pool's end are as for
    ``run_theorem_suite``.
    """
    budget = _resolve_budget(budget)
    reports = _run(corpus, budget, SUITE_IDS + ("controls",))
    return {
        "seed": corpus.seed,
        "budget": budget.name,
        "corpus": reports[0].inputs,
        "verdict": "pass" if all(r.verdict == "pass" for r in reports) else "fail",
        "suites": [r.to_dict() for r in reports],
    }
