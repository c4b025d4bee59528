"""Sites: finite categories with declared covers and a saturated topology.

A cover is a finite family of arrows into a common object.  From declared
covers, ``generate_topology`` computes the smallest system of sieves that
contains them and is closed under the maximal sieve, pullback along every
arrow, and the transitivity rule; the closure runs over the full (finite)
sieve lattice, so no axioms are assumed of the declared covers themselves.

Internally the sheaf theory is sieve-based: a presheaf is a sheaf when for
every covering sieve the restriction map from values to matching families
is a bijection.  A cover-form check (compatible families over the declared
covers, compatibility quantified over spans) is implemented independently;
the two routes agree by construction of the saturation and the test suite
holds them to that.

Sheafification is the plus construction applied exactly twice.  Because a
finite topology is closed under intersection of covering sieves, every
object has a minimal covering sieve and matching-family classes are
canonically labeled by their restriction to it; a naive common-refinement
comparison is kept in the test suite as an oracle.  Wherever F(X) maps
bijectively onto those classes, as at every object of a sheaf, the plus
construction passes F through and shares F's tables instead of copying
them; an object whose minimal sieve is maximal needs no search for that.
When F passes through at every object, F is a sheaf and sheafification
builds its second step from the first one's tables, with no search.  So
a sheaf T is aT under its own labels, and a map t: F -> T factors through
the unit of F as a(t) read into T.

Both sheaf checks and the plus construction read a ``SitePlan`` instead
of re-deriving the site on every call: the minimal and the covering
sieves as arrow tuples with their constraints, the position of m.g in the
minimal sieve for every arrow m, and the spans of the declared covers.
It is compiled on first use and kept in the site's cache, so it lives as
long as the site.

The same file hosts the epi-family machinery: the strict epimorphic family
check against the targets of a computational-category handle, universality
by base change, the canonical pretopology of a finite category, continuity
of a handle-valued functor, and subcanonicity via its two equivalent
criteria.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from .errors import (
    ConsistencyError,
    FactorizationError,
    ResourceBudgetError,
    StructureError,
)
from .fincat import (
    ComputationalCategory,
    FinCatHandle,
    FinCategory,
    HandleDiagram,
    HandleFunctor,
    LimitData,
    ValidationReport,
)
from .presheaf import (
    MAX_PRESHEAVES,
    Presheaf,
    PresheafCategory,
    PresheafMorphism,
    compose_presheaf_morphisms,
    enumerate_presheaves,
    is_presheaf_iso,
    limit_comparison,
    presheaf_key,
    yoneda_embed,
    yoneda_on_mor,
)
from .search import backtrack

# the most principal sieves on one object whose unions are enumerated
MAX_SIEVE_GENERATORS = 16
# the most arrows into one object whose subsets the canonical pretopology tries
MAX_PRETOPOLOGY_ARROWS = 12

# ---------------------------------------------------------------------------
# sieves


@dataclass(frozen=True)
class Sieve:
    """A set of arrows into a common target, closed under precomposition."""

    target: str
    arrows: frozenset[str]

    def sorted_arrows(self) -> tuple[str, ...]:
        return tuple(sorted(self.arrows))

    def key(self) -> tuple[int, tuple[str, ...]]:
        return (len(self.arrows), self.sorted_arrows())


def sieve_generated(C: FinCategory, X: str, family: Iterable[str]) -> Sieve:
    members: set[str] = set()
    for f in family:
        if C.tgt(f) != X:
            raise StructureError(f"sieve_generated: {f} does not target {X}")
        for g in C.morphisms:
            if g.tgt == C.src(f):
                members.add(C.compose(f, g.name))
    return Sieve(X, frozenset(members))


def maximal_sieve(C: FinCategory, X: str) -> Sieve:
    return Sieve(X, frozenset(C.arrows_into(X)))


def pullback_sieve(C: FinCategory, S: Sieve, f: str) -> Sieve:
    """Arrows g into src(f) with f.g in S; f must target S.target."""
    if C.tgt(f) != S.target:
        raise StructureError(f"pullback_sieve: {f} does not target {S.target}")
    Y = C.src(f)
    return Sieve(
        Y, frozenset(g for g in C.arrows_into(Y) if C.compose(f, g) in S.arrows)
    )


def is_sieve_closed(C: FinCategory, S: Sieve) -> bool:
    for f in S.arrows:
        for g in C.morphisms:
            if g.tgt == C.src(f) and C.compose(f, g.name) not in S.arrows:
                return False
    return True


def enumerate_sieves(C: FinCategory, X: str) -> tuple[Sieve, ...]:
    """The full sieve lattice on X: all unions of principal sieves."""
    principals = sorted(
        {sieve_generated(C, X, [f]).arrows for f in C.arrows_into(X)},
        key=sorted,
    )
    if len(principals) > MAX_SIEVE_GENERATORS:
        raise ResourceBudgetError(
            "enumerate_sieves", 2 ** len(principals), 2 ** MAX_SIEVE_GENERATORS
        )
    seen: set[frozenset[str]] = set()
    for r in range(len(principals) + 1):
        for combo in itertools.combinations(principals, r):
            u = frozenset().union(*combo) if combo else frozenset()
            seen.add(u)
    return tuple(Sieve(X, arrows) for arrows in sorted(seen, key=lambda a: (len(a), sorted(a))))


# ---------------------------------------------------------------------------
# sites


@dataclass(frozen=True)
class Site:
    """A base category, declared covers, and the saturated topology.

    ``topology`` maps each object to the covering sieves in deterministic
    order; ``minimal`` holds the intersection of the covering sieves of
    each object, which the saturation guarantees is itself covering.
    """

    base: FinCategory
    covers: Mapping[str, tuple[tuple[str, ...], ...]]
    topology: Mapping[str, tuple[Sieve, ...]]
    minimal: Mapping[str, Sieve]
    name: str = field(default="", compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


def generate_topology(
    C: FinCategory,
    covers: Mapping[str, Sequence[Sequence[str]]],
    name: str = "",
) -> Site:
    """Saturate declared covers into a topology over the full sieve lattice.

    Closure operations, iterated to a fixpoint: the maximal sieve covers;
    pullbacks of covering sieves cover; and a sieve covers if some covering
    sieve pulls it back to a covering sieve along each of its arrows.
    """
    norm: dict[str, tuple[tuple[str, ...], ...]] = {}
    for X, fams in covers.items():
        if X not in C.objects:
            raise StructureError(f"covers declared for unknown object {X}")
        out = []
        for fam in fams:
            fam_t = tuple(sorted(set(fam)))
            for f in fam_t:
                if not C.has_mor(f):
                    raise StructureError(f"cover of {X} uses unknown arrow {f}")
                if C.tgt(f) != X:
                    raise StructureError(f"cover arrow {f} does not target {X}")
            out.append(fam_t)
        norm[X] = tuple(out)
    lattice = {X: enumerate_sieves(C, X) for X in C.objects}
    J: dict[str, set[Sieve]] = {X: {maximal_sieve(C, X)} for X in C.objects}
    for X, fams in norm.items():
        for fam in fams:
            J[X].add(sieve_generated(C, X, fam))
    changed = True
    while changed:
        changed = False
        for X in C.objects:
            for S in list(J[X]):
                for f in C.arrows_into(X):
                    P = pullback_sieve(C, S, f)
                    Y = C.src(f)
                    if P not in J[Y]:
                        J[Y].add(P)
                        changed = True
        for X in C.objects:
            for R in lattice[X]:
                if R in J[X]:
                    continue
                for S in list(J[X]):
                    if all(
                        pullback_sieve(C, R, f) in J[C.src(f)] for f in S.arrows
                    ):
                        J[X].add(R)
                        changed = True
                        break
    topology = {X: tuple(sorted(J[X], key=Sieve.key)) for X in C.objects}
    minimal: dict[str, Sieve] = {}
    for X in C.objects:
        inter = frozenset(C.arrows_into(X))
        for S in topology[X]:
            inter &= S.arrows
        m = Sieve(X, inter)
        if m not in J[X]:
            raise ConsistencyError(
                f"saturation of site {name or C.name}: intersection of covering "
                f"sieves on {X} is not covering; closure is broken"
            )
        minimal[X] = m
    return Site(C, norm, topology, minimal, name or f"site({C.name})")


def validate_site(site: Site) -> ValidationReport:
    """Re-check the topology axioms on the stored sieve system."""
    rep = ValidationReport()
    C = site.base
    for X in C.objects:
        sieves = set(site.topology[X])
        if maximal_sieve(C, X) not in sieves:
            rep.add("maximal", (X,), f"maximal sieve on {X} is not covering")
        for S in sieves:
            if not is_sieve_closed(C, S):
                rep.add("closure", (X,), f"a stored sieve on {X} is not closed")
            for f in C.arrows_into(X):
                if pullback_sieve(C, S, f) not in set(site.topology[C.src(f)]):
                    rep.add("stability", (X, f), f"pullback along {f} leaves the topology")
        for S in sieves:
            for T in sieves:
                if Sieve(X, S.arrows & T.arrows) not in sieves:
                    rep.add("intersection", (X,), "covering sieves not closed under meet")
    for X in C.objects:
        for R in enumerate_sieves(C, X):
            if R in set(site.topology[X]):
                continue
            for S in site.topology[X]:
                if all(pullback_sieve(C, R, f) in set(site.topology[C.src(f)]) for f in S.arrows):
                    rep.add("transitivity", (X,), "a locally-covering sieve is missing")
                    break
    return rep


# ---------------------------------------------------------------------------
# the compiled site plan


@dataclass(frozen=True)
class SievePlan:
    """One sieve compiled for the matching-family search.

    ``arrows`` are the sieve's arrows in sorted order, ``sources`` their
    sources, and ``by_pos[k]`` the constraint triples (position of f, g,
    position of f.g) whose later position is k.
    """

    arrows: tuple[str, ...]
    sources: tuple[str, ...]
    by_pos: tuple[tuple[tuple[int, str, int], ...], ...]


def _compile_sieve(C: FinCategory, S: Sieve) -> SievePlan:
    arrows = S.sorted_arrows()
    pos = {f: i for i, f in enumerate(arrows)}
    by_pos: list[list[tuple[int, str, int]]] = [[] for _ in arrows]
    for f in arrows:
        for g in C.non_identities():
            if C.tgt(g) == C.src(f):
                f_pos, fg_pos = pos[f], pos[C.compose(f, g)]
                by_pos[max(f_pos, fg_pos)].append((f_pos, g, fg_pos))
    return SievePlan(arrows, tuple(C.src(f) for f in arrows), tuple(map(tuple, by_pos)))


@dataclass(frozen=True)
class CoverPlan:
    """One declared cover compiled for the compatible-family search.

    ``by_later[j]`` holds the spans (i, g, h) with fam[i].g == fam[j].h
    and i <= j, up to symmetry.
    """

    fam: tuple[str, ...]
    sources: tuple[str, ...]
    by_later: tuple[tuple[tuple[int, str, str], ...], ...]


def _compile_cover(C: FinCategory, fam: tuple[str, ...]) -> CoverPlan:
    by_later: list[list[tuple[int, str, str]]] = [[] for _ in fam]
    for i, fi in enumerate(fam):
        for j in range(i, len(fam)):
            fj = fam[j]
            for W in C.objects:
                for g in C.hom(W, C.src(fi)):
                    for h in C.hom(W, C.src(fj)):
                        if C.compose(fi, g) == C.compose(fj, h):
                            by_later[j].append((i, g, h))
    return CoverPlan(fam, tuple(C.src(f) for f in fam), tuple(map(tuple, by_later)))


class SitePlan:
    """Everything the sheaf checks and the plus construction read off a site.

    ``minimal[X]`` is the compiled minimal covering sieve of X, and
    ``covering[X]`` the compiled non-maximal covering sieves of X in
    topology order.  ``restrict[m]``, for m: W -> X, lists for each arrow
    g of the minimal sieve on W the position of m.g in the minimal sieve
    on X.  ``covers[X]`` holds the compiled declared covers of X, in
    declared order.  ``sieves`` holds every sieve compiled so far; other
    sieves are added on first request.  Built by ``site_plan`` once per
    site.
    """

    def __init__(self, site: Site) -> None:
        C = self.base = site.base
        self.sieves: dict[Sieve, SievePlan] = {}
        self.minimal = {X: self.sieve(site.minimal[X]) for X in C.objects}
        self.covering: dict[str, tuple[SievePlan, ...]] = {}
        for X in C.objects:
            mx = maximal_sieve(C, X)
            self.covering[X] = tuple(self.sieve(S) for S in site.topology[X] if S != mx)
        self.restrict: dict[str, tuple[int, ...]] = {}
        for m in C.morphisms:
            x_pos = {f: i for i, f in enumerate(self.minimal[m.tgt].arrows)}
            self.restrict[m.name] = tuple(
                x_pos[C.compose(m.name, g)] for g in self.minimal[m.src].arrows
            )
        self.covers = {
            X: tuple(_compile_cover(C, fam) for fam in fams)
            for X, fams in sorted(site.covers.items())
        }

    def sieve(self, S: Sieve) -> SievePlan:
        """The compiled form of S, compiled on first request."""
        sp = self.sieves.get(S)
        if sp is None:
            sp = self.sieves[S] = _compile_sieve(self.base, S)
        return sp


def site_plan(site: Site) -> SitePlan:
    """The plan of a site, compiled on first use and kept in its cache."""
    plan = site._cache.get("plan")
    if plan is None:
        plan = site._cache["plan"] = SitePlan(site)
    return plan


# ---------------------------------------------------------------------------
# matching families


def matching_families(sp: SievePlan, F: Presheaf) -> list[tuple[str, ...]]:
    """All matching families for the compiled sieve sp in F, as value
    tuples in arrow order.

    A family assigns to each arrow f in the sieve an element of F(src f)
    such that restricting along any g lands on the assignment of f.g.  One
    search variable per arrow in sorted order, ranging over F(src f); a
    restriction is checked at the later of f and f.g, so the families come
    in the order of filtering the product of the value sets.  Any sieve S
    of a site compiles through ``site_plan(site).sieve(S)``.
    """
    acts = F.actions
    by_pos = [[(i, acts[g], j) for i, g, j in cons] for cons in sp.by_pos]

    def ok(k: int, assign: list) -> bool:
        for f_pos, g_act, fg_pos in by_pos[k]:
            if g_act[assign[f_pos]] != assign[fg_pos]:
                return False
        return True

    return list(backtrack([F.values[Y] for Y in sp.sources], ok))


# ---------------------------------------------------------------------------
# sheaf checks


@dataclass
class CheckReport:
    """Whether a sheaf or strict-epi check holds, and its first failure."""

    ok: bool
    witness: Optional[dict]


def _restrictions(F: Presheaf, X: str, arrows: Sequence[str]) -> list[tuple[str, ...]]:
    """For each element of F(X), in value order, its restrictions along arrows."""
    rows = [F.actions[f] for f in arrows]
    return [tuple([r[x] for r in rows]) for x in F.values[X]]


def is_sheaf(F: Presheaf, site: Site) -> CheckReport:
    """Sieve-form sheaf condition over the saturated topology.

    The maximal sieve is skipped: it contains the identity, and a matching
    family is then freely and uniquely determined by its value there.
    """
    plan = site_plan(site)
    for X in sorted(site.base.objects):
        for sp in plan.covering[X]:
            families = matching_families(sp, F)
            family_set = set(families)
            if len(family_set) != len(families):
                raise ConsistencyError("matching family enumeration repeated a family")
            seen: dict[tuple[str, ...], str] = {}
            for x, fam in zip(F.values[X], _restrictions(F, X, sp.arrows)):
                if fam in seen:
                    return CheckReport(
                        False,
                        {
                            "object": X,
                            "sieve": list(sp.arrows),
                            "kind": "not-separated",
                            "elements": [seen[fam], x],
                        },
                    )
                if fam not in family_set:
                    raise ConsistencyError("restriction of an element is not matching")
                seen[fam] = x
            if len(seen) != len(family_set):
                missing = sorted(family_set - set(seen))[0]
                return CheckReport(
                    False,
                    {
                        "object": X,
                        "sieve": list(sp.arrows),
                        "kind": "no-amalgamation",
                        "family": list(missing),
                    },
                )
    return CheckReport(True, None)


def is_sheaf_coverform(F: Presheaf, site: Site) -> CheckReport:
    """Cover-form sheaf condition over the declared covers.

    A compatible family picks one element over each cover member, agreeing
    on every span between two members; the condition demands exactly one
    common extension.  Agrees with the sieve form by saturation.
    Compatible families are scanned in the order of filtering the product
    of the value sets, each span checked at its later member, so the
    witness is the first failing family in that order.
    """
    acts = F.actions
    for X, covers in site_plan(site).covers.items():
        for cp in covers:
            by_later = [[(a, acts[g], acts[h]) for a, g, h in spans] for spans in cp.by_later]

            def ok(i: int, assign: list) -> bool:
                for a, g_act, h_act in by_later[i]:
                    if g_act[assign[a]] != h_act[assign[i]]:
                        return False
                return True

            # the elements of F(X) grouped by their restrictions to the cover
            amalgamations: dict[tuple[str, ...], list[str]] = {}
            for x, fam in zip(F.values[X], _restrictions(F, X, cp.fam)):
                amalgamations.setdefault(fam, []).append(x)
            for tup in backtrack([F.values[Y] for Y in cp.sources], ok):
                hits = amalgamations.get(tup, [])
                if len(hits) != 1:
                    return CheckReport(
                        False,
                        {
                            "object": X,
                            "cover": list(cp.fam),
                            "kind": "no-amalgamation" if not hits else "not-unique",
                            "family": list(tup),
                            "amalgamations": hits,
                        },
                    )
    return CheckReport(True, None)


# ---------------------------------------------------------------------------
# plus construction and sheafification


@dataclass
class PlusResult:
    """One application of the plus construction.

    Classes at X are matching families over the minimal covering sieve.
    A class hit by the canonical map keeps the label of its first
    preimage, so sheaf inputs (and any input over a trivial topology)
    reproduce their own labels; unhit classes get fresh p0, p1, ...
    Where every class is hit exactly once, F(X) passes through unchanged,
    and the presheaf and unit may share F's own tables there.
    ``decode`` recovers the family tuple behind a label, ``encode``
    inverts it; both list the classes in sorted-family order.
    """

    presheaf: Presheaf
    unit: PresheafMorphism
    decode: Mapping[str, Mapping[str, tuple[str, ...]]]
    encode: Mapping[str, Mapping[tuple[str, ...], str]]


def plus_construction(F: Presheaf, site: Site) -> PlusResult:
    """One plus step: classes of matching families over minimal sieves.

    Where F(X) -> Match(minimal sieve) is a bijection, as the count of
    searched families against distinct restriction families shows, F
    passes through: values F(X) sorted, identity unit, decode and encode
    in sorted-family order, as the labeling would give, and F's action on
    arrows between two such objects.  A sieve holding id_X is maximal and
    needs no search: Match(h_X, F) = F(X) by Yoneda.  There F's own tables
    are reused, not copied, wherever their order already fits.  This rests
    on F satisfying the functor laws, which ``validate_presheaf`` checks.
    """
    plan = site_plan(site)
    C = site.base
    values: dict[str, tuple[str, ...]] = {}
    decode: dict[str, dict[str, tuple[str, ...]]] = {}
    encode: dict[str, dict[tuple[str, ...], str]] = {}
    unit_comps: dict[str, Mapping[str, str]] = {}
    through: set[str] = set()
    for X in C.objects:
        sp, vals = plan.minimal[X], F.values[X]
        restricted = _restrictions(F, X, sp.arrows)
        preimage: dict[tuple[str, ...], str] = {}
        for x, fam in zip(vals, restricted):
            preimage.setdefault(fam, x)
        fams = None if C.id_of(X) in sp.arrows else sorted(matching_families(sp, F))
        if fams is None or len(fams) == len(preimage) == len(vals):
            through.add(X)
            pairs = sorted(preimage.items())
            srt = tuple(sorted(vals))
            values[X] = vals if srt == vals else srt
            decode[X] = {x: fam for fam, x in pairs}
            encode[X] = dict(pairs)
            ident = F.actions[C.id_of(X)]
            unit_comps[X] = ident if tuple(ident) == vals else {x: x for x in vals}
            continue
        used = set(preimage.values())
        labels = []
        fresh = 0
        for fam in fams:
            if fam in preimage:
                labels.append(preimage[fam])
            else:
                while f"p{fresh}" in used:
                    fresh += 1
                labels.append(f"p{fresh}")
                used.add(f"p{fresh}")
        values[X] = tuple(sorted(labels))
        decode[X] = dict(zip(labels, fams))
        encode[X] = enc = dict(zip(fams, labels))
        unit_comps[X] = {x: enc[fam] for x, fam in zip(vals, restricted)}
    actions: dict[str, Mapping[str, str]] = {}
    for m in C.morphisms:
        if m.src in through and m.tgt in through:
            act, keys = F.actions[m.name], values[m.tgt]
            actions[m.name] = act if tuple(act) == keys else {x: act[x] for x in keys}
            continue
        # restrict along m: m.g for g in the minimal sieve on the source
        # sits in the minimal sieve on the target, at the indexed position
        idx = plan.restrict[m.name]
        enc, dec = encode[m.src], decode[m.tgt]
        actions[m.name] = {
            label: enc[tuple([dec[label][i] for i in idx])] for label in values[m.tgt]
        }
    plus = Presheaf(C, _shared(values, F.values), _shared(actions, F.actions),
                    f"{F.name}+" if F.name else "+")
    unit = PresheafMorphism(F, plus, unit_comps)
    return PlusResult(plus, unit, decode, encode)


def _shared(new: dict, old: Mapping) -> Mapping:
    """old itself when new holds old's very entries in old's key order."""
    return old if list(new) == list(old) and all(new[k] is old[k] for k in new) else new


def _push(t: PresheafMorphism, sp: SievePlan, fam: tuple[str, ...]) -> tuple[str, ...]:
    """The family t sends fam to, fam being over the arrows of sp."""
    return tuple([t.components[Y][v] for Y, v in zip(sp.sources, fam)])


def plus_on_morphism(site: Site, pf: PlusResult, pg: PlusResult, t: PresheafMorphism) -> PresheafMorphism:
    """Functorial action of one plus step on a presheaf morphism."""
    plan = site_plan(site)
    comps: dict[str, dict[str, str]] = {}
    for X in site.base.objects:
        sp, dec, enc = plan.minimal[X], pf.decode[X], pg.encode[X]
        comps[X] = {label: enc[_push(t, sp, dec[label])] for label in pf.presheaf.values[X]}
    return PresheafMorphism(pf.presheaf, pg.presheaf, comps)


@dataclass
class SheafificationResult:
    """Two plus steps and the unit F -> aF."""

    sheaf: Presheaf
    unit: PresheafMorphism
    stage1: PlusResult
    stage2: PlusResult


def sheafify(F: Presheaf, site: Site) -> SheafificationResult:
    """Two plus steps.  The unit is the first step's: F+ is separated, so
    the second step labels every class by its one preimage and its unit is
    the identity on labels.

    The first unit is an isomorphism exactly where the first step passed
    F through, and one that is an isomorphism everywhere makes F a sheaf.
    Then F+ has F's restriction families, and a second search would find
    the same bijections: the second step is built from the first one's
    tables, decode and encode, with F+'s identity actions as its unit.
    """
    p1 = plus_construction(F, site)
    P = p1.presheaf
    if is_presheaf_iso(p1.unit):
        C = site.base
        again = Presheaf(C, P.values, P.actions, f"{P.name}+")
        ident = {X: P.actions[C.id_of(X)] for X in C.objects}
        p2 = PlusResult(again, PresheafMorphism(P, again, ident), p1.decode, p1.encode)
    else:
        p2 = plus_construction(P, site)
    sheaf = Presheaf(
        p2.presheaf.base, p2.presheaf.values, p2.presheaf.actions,
        f"a({F.name})" if F.name else "a(F)",
    )
    return SheafificationResult(sheaf, PresheafMorphism(F, sheaf, p1.unit.components), p1, p2)


def sheafify_morphism(
    site: Site, rf: SheafificationResult, rg: SheafificationResult, t: PresheafMorphism
) -> PresheafMorphism:
    t1 = plus_on_morphism(site, rf.stage1, rg.stage1, t)
    t2 = plus_on_morphism(site, rf.stage2, rg.stage2, t1)
    return PresheafMorphism(rf.sheaf, rg.sheaf, t2.components)


def factor_through_unit(
    site: Site, res: SheafificationResult, T: Presheaf, t: PresheafMorphism
) -> PresheafMorphism:
    """The unique u with u . unit = t, for T a sheaf and t: F -> T.

    u is a(t) read into T: T's unit is an isomorphism exactly when T is a
    sheaf, and the plus steps then pass T through with the identity on
    labels, so aT is T under T's own labels.  Any other T is refused.
    """
    rT = sheafify(T, site)
    if not is_presheaf_iso(rT.unit):
        raise FactorizationError(f"factoring through the unit into a non-sheaf {T.name!r}")
    return PresheafMorphism(res.sheaf, T, sheafify_morphism(site, res, rT, t).components)


# ---------------------------------------------------------------------------
# sheafified representables


def epsilon(site: Site, X: str) -> Presheaf:
    """The sheafified representable of X, named ``e_X``.

    Its sheafification result, unit included, is kept in the site's cache
    for ``epsilon_on_mor``, so each lives as long as the site.
    """
    memo = site._cache.setdefault("epsilon", {})
    if X not in memo:
        res = sheafify(yoneda_embed(site.base, X), site)
        sheaf = Presheaf(res.sheaf.base, res.sheaf.values, res.sheaf.actions, f"e_{X}")
        memo[X] = SheafificationResult(
            sheaf,
            PresheafMorphism(res.unit.dom, sheaf, res.unit.components),
            res.stage1,
            res.stage2,
        )
    return memo[X].sheaf


def epsilon_on_mor(site: Site, f: str) -> PresheafMorphism:
    """The sheafification of the representable morphism of f."""
    memo = site._cache.setdefault("epsilon_mor", {})
    if f not in memo:
        C = site.base
        # epsilon caches the sheafification results whose units factor here
        epsilon(site, C.src(f))
        epsilon(site, C.tgt(f))
        rf, rg = site._cache["epsilon"][C.src(f)], site._cache["epsilon"][C.tgt(f)]
        memo[f] = sheafify_morphism(site, rf, rg, yoneda_on_mor(C, f))
    return memo[f]


# ---------------------------------------------------------------------------
# strict epimorphic families


def is_strict_epi_family(
    Z: ComputationalCategory,
    family: Sequence[Any],
    *,
    target: Any = None,
) -> CheckReport:
    """Decide whether a family with common target is strictly epimorphic.

    For every enumerated object Y and every family of maps out of the
    sources that agrees on all probe-relations, there must be exactly one
    map out of the target restricting to it.  ``target`` is only needed
    for the empty family, where it cannot be read off the members; given
    with members, it must be theirs.
    Per target, agreeing families are scanned in the order of filtering
    the product of the hom pools, each relation checked at its later
    member; the witness is the first family without exactly one
    factoring.
    """
    if family:
        given = [] if target is None else [target]
        target = Z.target(family[0])
        for X in [Z.target(m) for m in family[1:]] + given:
            # by content too: a presheaf's key is its name, which may be shared
            if Z.obj_key(X) != Z.obj_key(target) or X != target:
                raise StructureError("is_strict_epi_family: mixed targets")
    elif target is None:
        raise StructureError("is_strict_epi_family: empty family needs an explicit target")
    sources = [Z.source(m) for m in family]
    # probe relations: pairs of generalized elements the family identifies,
    # filed under the later of the two members they relate
    relations: list[list[tuple[int, Any, Any]]] = [[] for _ in family]
    for W in Z.probe_objects():
        elems = [(i, x) for i, src in enumerate(sources) for x in Z.hom(W, src)]
        for a in range(len(elems)):
            i, x = elems[a]
            li_x = Z.compose(family[i], x)
            for b in range(a, len(elems)):
                j, z = elems[b]
                if Z.equal_mor(li_x, Z.compose(family[j], z)):
                    relations[j].append((i, x, z))

    def ok(j: int, assign: list) -> bool:
        return all(
            Z.equal_mor(Z.compose(assign[i], x), Z.compose(assign[j], z))
            for i, x, z in relations[j]
        )

    for Y in Z.objects():
        pools = [Z.hom(src, Y) for src in sources]
        hom_xy = Z.hom(target, Y)
        for assign in backtrack(pools, ok):
            hits = [
                w
                for w in hom_xy
                if all(
                    Z.equal_mor(Z.compose(w, family[k]), assign[k])
                    for k in range(len(family))
                )
            ]
            if len(hits) != 1:
                witness = {
                    "target": Z.obj_key(Y),
                    "family": [Z.mor_key(a) for a in assign],
                    "factorings": len(hits),
                }
                return CheckReport(False, witness)
    return CheckReport(True, None)


@dataclass
class UniversalStrictEpiReport:
    ok: bool
    witness: Optional[dict]
    gaps: list[dict]


def is_universal_strict_epi(
    C: FinCategory, family: Sequence[str], *, target: Optional[str] = None
) -> UniversalStrictEpiReport:
    """Strict epi after every base change that exists in C.

    For each arrow g into the common target the family is pulled back
    member-by-member; if some pullback square does not exist the base
    change is recorded as a gap and skipped.  The identity base change
    covers the plain check.  ``target`` is only needed when the family is
    empty.
    """
    from .fincat import cospan_category

    if family:
        X = C.tgt(family[0])
    elif target is None:
        raise StructureError("is_universal_strict_epi: empty family needs an explicit target")
    else:
        X = target
    if target is not None and family and C.tgt(family[0]) != target:
        raise StructureError("is_universal_strict_epi: family does not match target")
    for f in family:
        if C.tgt(f) != X:
            raise StructureError(f"is_universal_strict_epi: {f} does not target {X}")
    handle = FinCatHandle(C)
    cospan = cospan_category()
    gaps: list[dict] = []
    witness: Optional[dict] = None
    for g in C.arrows_into(X):
        Y = C.src(g)
        pulled: list[str] = []
        missing = False
        for f in family:
            lim = handle.try_limit(
                HandleDiagram(cospan, {"l": Y, "m": X, "r": C.src(f)}, {"lm": g, "rm": f})
            )
            if lim is None:
                gaps.append({"base_change": g, "member": f})
                missing = True
                break
            pulled.append(lim.legs["l"])
        if missing:
            continue
        if witness is None:
            rep = is_strict_epi_family(handle, pulled, target=Y)
            if not rep.ok:
                witness = {
                    "base_change": g,
                    "pulled_family": pulled,
                    "failure": rep.witness,
                }
    return UniversalStrictEpiReport(witness is None, witness, gaps)


def canonical_pretopology(C: FinCategory) -> dict[str, tuple[tuple[str, ...], ...]]:
    """All universal strict epimorphic families, up to sieve redundancy.

    Families are subsets of the arrows into each object; two families
    generating the same sieve are redundant and only the smallest survives.
    """
    out: dict[str, tuple[tuple[str, ...], ...]] = {}
    for X in sorted(C.objects):
        arrows = C.arrows_into(X)
        if len(arrows) > MAX_PRETOPOLOGY_ARROWS:
            raise ResourceBudgetError(
                "canonical_pretopology", 2 ** len(arrows), 2 ** MAX_PRETOPOLOGY_ARROWS
            )
        by_sieve: dict[frozenset[str], tuple[str, ...]] = {}
        for r in range(len(arrows) + 1):
            for fam in itertools.combinations(arrows, r):
                rep = is_universal_strict_epi(C, fam, target=X)
                if not rep.ok:
                    continue
                sieve = sieve_generated(C, X, fam).arrows
                prev = by_sieve.get(sieve)
                if prev is None or (len(fam), fam) < (len(prev), prev):
                    by_sieve[sieve] = fam
        out[X] = tuple(sorted(by_sieve.values(), key=lambda f: (len(f), f)))
    return out


# ---------------------------------------------------------------------------
# continuity and subcanonicity


@dataclass
class ContinuityReport:
    ok: bool
    failures: list[dict]
    covers_checked: int


def is_continuous(p: HandleFunctor, site: Site) -> ContinuityReport:
    """Does p send every declared cover to a strict epimorphic family?"""
    if p.dom != site.base:
        raise StructureError("is_continuous: functor domain is not the site base")
    failures: list[dict] = []
    checked = 0
    for X in sorted(site.covers):
        for fam in site.covers[X]:
            checked += 1
            images = [p.on_mor(f) for f in fam]
            rep = is_strict_epi_family(p.cod, images, target=p.obj_map[X])
            if not rep.ok:
                failures.append(
                    {"object": X, "cover": list(fam), "witness": rep.witness}
                )
    return ContinuityReport(not failures, failures, checked)


@dataclass
class SubcanonicalReport:
    value: bool
    covers_strict_epi: list[dict]
    representable_sheaves: list[dict]


def is_subcanonical(site: Site) -> SubcanonicalReport:
    """Two equivalent criteria, both computed, compared, and reported.

    (1) every declared cover is a strict epimorphic family in the base;
    (2) every representable passes the sheaf check.
    A mismatch would mean the saturation or the epi check is broken, so it
    raises rather than picking a side.
    """
    C = site.base
    handle = FinCatHandle(C)
    via_covers: list[dict] = []
    ok1 = True
    for X in sorted(site.covers):
        for fam in site.covers[X]:
            rep = is_strict_epi_family(handle, list(fam), target=X)
            via_covers.append({"object": X, "cover": list(fam), "ok": rep.ok})
            ok1 = ok1 and rep.ok
    via_reps: list[dict] = []
    ok2 = True
    for X in sorted(C.objects):
        rep = is_sheaf(yoneda_embed(C, X), site)
        via_reps.append({"object": X, "ok": rep.ok})
        ok2 = ok2 and rep.ok
    if ok1 != ok2:
        raise ConsistencyError(
            f"subcanonicity criteria disagree on {site.name}: "
            f"covers-strict-epi={ok1} representables-sheaves={ok2}"
        )
    return SubcanonicalReport(ok1, via_covers, via_reps)


# ---------------------------------------------------------------------------
# the sheaf category handle


class SheafCategory(PresheafCategory):
    """Sheaves on a site: the full subcategory of bounded presheaves that
    pass the sheaf check.

    Homs, identities, composition, keys and isomorphisms are those of
    presheaves.  Limits are computed pointwise (a limit of sheaves is a
    sheaf); colimits are presheaf colimits followed by sheafification, with
    the mediating morphism factored through the unit.  Probes are the
    sheafified representables, a separating family by the unit's universal
    property.
    """

    def __init__(self, site: Site, bound: int = 2) -> None:
        super().__init__(site.base, bound)
        self.site = site

    def objects(self) -> list[Presheaf]:
        if self._objects is None:
            census = enumerate_presheaves(self.base, self.bound, max_count=MAX_PRESHEAVES)
            self._objects = [P for P in census if is_sheaf(P, self.site).ok]
        return self._objects

    def probe_objects(self) -> list[Presheaf]:
        return [epsilon(self.site, X) for X in sorted(self.site.base.objects)]

    def limit(self, diagram: HandleDiagram) -> LimitData:
        data = super().limit(diagram)
        rep = is_sheaf(data.apex, self.site)
        if not rep.ok:
            raise ConsistencyError("limit of sheaves failed the sheaf check")
        return data

    def colimit(self, diagram: HandleDiagram) -> LimitData:
        pre = super().colimit(diagram)
        res = sheafify(pre.apex, self.site)
        legs = {
            j: compose_presheaf_morphisms(res.unit, leg) for j, leg in pre.legs.items()
        }

        def factor(apex2: Presheaf, legs2: Mapping[str, PresheafMorphism]) -> PresheafMorphism:
            t = pre.factor(apex2, legs2)
            return factor_through_unit(self.site, res, apex2, t)

        return LimitData(res.sheaf, legs, factor)


def sheafification_limit_comparison(site: Site, diagram: HandleDiagram) -> PresheafMorphism:
    """The mediating map a(lim D) -> lim a(D) for a presheaf diagram.

    Sheafifying the limit cone gives a cone over the sheafified diagram;
    the map is its factoring through the pointwise limit of sheaves.
    Left exactness of sheafification says it is an isomorphism.
    """
    # each presheaf of the diagram and of its limit cone is sheafified once
    results: dict[tuple[str, str], SheafificationResult] = {}

    def a(P: Presheaf) -> SheafificationResult:
        key = (P.name, presheaf_key(P))
        if key not in results:
            results[key] = sheafify(P, site)
        return results[key]

    return limit_comparison(
        PresheafCategory(site.base), diagram, site.base,
        lambda P: a(P).sheaf, lambda t: sheafify_morphism(site, a(t.dom), a(t.cod), t),
    )
