"""Presheaves on a finite category, as explicit value and action tables.

A presheaf F assigns to each object a finite set of string labels and to
each morphism f: X -> Y a function F(f): F(Y) -> F(X); composites act in
reversed order, F(g.f) = F(f) after F(g).  The module provides:

* validation, morphism enumeration, and isomorphism search;
* the representable embedding (one presheaf per object, one morphism per
  arrow) together with the two directions of the evaluation bijection
  between morphisms out of a representable and elements of the target;
* the category of elements of a presheaf with its projection to the base;
* pointwise limits and colimits with constructive mediating morphisms,
  quotients taken by union-find with smallest-member class labels, and
  the comparison map of a functor at a limit cone;
* the density check: the representable diagram over the category of
  elements, its canonical cocone back to the presheaf, and the map from
  its colimit, verified invertible;
* a bounded presheaf-category handle implementing the computational
  category interface, and finite sets as the special case of presheaves
  on the one-object, one-morphism category, with functors into them read
  as presheaves on the opposite base and back.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .errors import FactorizationError, ResourceBudgetError, StructureError
from .fincat import (
    ComputationalCategory,
    FinCategory,
    FinFunctor,
    HandleDiagram,
    HandleFunctor,
    LimitData,
    ValidationReport,
    make_category,
    opposite,
    terminal_category,
)
from .search import backtrack

# the most presheaves a presheaf-category handle enumerates as its objects,
# and the largest candidate product one of its hom searches may face
MAX_PRESHEAVES = 200_000
HOM_BUDGET = 2_000_000

# ---------------------------------------------------------------------------
# presheaves and their morphisms


@dataclass(frozen=True)
class Presheaf:
    """Value sets indexed by objects, actions indexed by morphisms.

    ``actions[f]`` maps each element of values[tgt f] to an element of
    values[src f]; the table covers every morphism, identities included.
    Presheaves share tables: census presheaves share value tuples,
    ``values`` dicts and action dicts with each other, and the plus
    construction and sheafification hand on their input's value tuples,
    action dicts and identity actions as their own, so no table may be
    mutated once it is in a presheaf.
    """

    base: FinCategory
    values: Mapping[str, tuple[str, ...]]
    actions: Mapping[str, Mapping[str, str]]
    name: str = field(default="", compare=False)
    # presheaf_key and short_key, computed on first use; the tables are
    # never changed after construction, so each lives as long as the instance
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _short: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def act(self, f: str, e: str) -> str:
        return self.actions[f][e]


def make_presheaf(
    base: FinCategory,
    values: Mapping[str, Sequence[str]],
    actions: Mapping[str, Mapping[str, str]] | None = None,
    name: str = "",
) -> Presheaf:
    """Sort value tuples and fill in the identity actions; a table at an
    object or morphism the base lacks, or an identity action that is not
    the identity, raises ``StructureError``."""
    actions = actions or {}
    unknown = [x for x in values if x not in base.objects]
    unknown += [m for m in actions if not base.has_mor(m)]
    if unknown:
        raise StructureError(f"make_presheaf: {base.name} has no {unknown[0]}")
    vals = {x: tuple(sorted(values.get(x, ()))) for x in base.objects}
    acts: dict[str, dict[str, str]] = {}
    for m in base.morphisms:
        if base.is_identity(m.name):
            acts[m.name] = {e: e for e in vals[m.src]}
            if actions.get(m.name, acts[m.name]) != acts[m.name]:
                raise StructureError(f"make_presheaf: action of {m.name} is not the identity")
        else:
            acts[m.name] = dict(actions.get(m.name, {}))
    return Presheaf(base, vals, acts, name)


def validate_presheaf(F: Presheaf) -> ValidationReport:
    rep = ValidationReport()
    C = F.base
    for x in C.objects:
        if x not in F.values:
            rep.add("values-missing", (x,), f"no value set at {x}")
            continue
        vs = F.values[x]
        if len(set(vs)) != len(vs):
            rep.add("labels-unique", (x,), f"duplicate labels at {x}")
    for k in F.values:
        if k not in C.objects:
            rep.add("values-extra", (k,), f"value set at unknown object {k}")
    if not rep.ok:
        return rep
    for m in C.morphisms:
        act = F.actions.get(m.name)
        if act is None:
            rep.add("action-missing", (m.name,), f"no action for {m.name}")
            continue
        dom, cod = set(F.values[m.tgt]), set(F.values[m.src])
        if set(act) != dom:
            rep.add("action-total", (m.name,), f"action of {m.name} not defined on exactly F({m.tgt})")
            continue
        if not set(act.values()) <= cod:
            rep.add("action-typing", (m.name,), f"action of {m.name} leaves F({m.src})")
    if not rep.ok:
        return rep
    for x in C.objects:
        i = C.id_of(x)
        if any(F.actions[i][e] != e for e in F.values[x]):
            rep.add("identity-action", (x,), f"action of id_{x} is not the identity")
    for g, f in C.composable_pairs():
        c = C.compose(g, f)
        gm = C.mor(g)
        for e in F.values[gm.tgt]:
            if F.actions[c][e] != F.actions[f][F.actions[g][e]]:
                rep.add(
                    "contravariance", (g, f, e),
                    f"F({g}.{f})({e}) differs from F({f})(F({g})({e}))",
                )
    return rep


@dataclass(frozen=True)
class PresheafMorphism:
    """A natural family of functions dom(X) -> cod(X)."""

    dom: Presheaf
    cod: Presheaf
    components: Mapping[str, Mapping[str, str]]
    # PresheafCategory.mor_key, computed on first use
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)


def validate_presheaf_morphism(t: PresheafMorphism) -> ValidationReport:
    rep = ValidationReport()
    if t.dom.base != t.cod.base:
        rep.add("frame", (), "domain and codomain live on different base categories")
        return rep
    C = t.dom.base
    for x in C.objects:
        comp = t.components.get(x)
        if comp is None:
            rep.add("component-missing", (x,), f"no component at {x}")
            continue
        if set(comp) != set(t.dom.values[x]):
            rep.add("component-total", (x,), f"component at {x} not defined on exactly dom({x})")
            continue
        if not set(comp.values()) <= set(t.cod.values[x]):
            rep.add("component-typing", (x,), f"component at {x} leaves cod({x})")
    if not rep.ok:
        return rep
    for m in C.non_identities():
        x, y = C.src(m), C.tgt(m)
        for e in t.dom.values[y]:
            if t.components[x][t.dom.act(m, e)] != t.cod.act(m, t.components[y][e]):
                rep.add("naturality", (m, e), f"square at {m} fails on {e}")
    return rep


def presheaf_identity(F: Presheaf) -> PresheafMorphism:
    return PresheafMorphism(F, F, {x: {e: e for e in F.values[x]} for x in F.base.objects})


def compose_presheaf_morphisms(g: PresheafMorphism, f: PresheafMorphism) -> PresheafMorphism:
    if f.cod != g.dom:
        raise StructureError("compose_presheaf_morphisms: middle presheaf differs")
    return PresheafMorphism(
        f.dom, g.cod,
        {
            x: {e: g.components[x][f.components[x][e]] for e in f.dom.values[x]}
            for x in f.dom.base.objects
        },
    )


def is_presheaf_iso(t: PresheafMorphism) -> bool:
    for x in t.dom.base.objects:
        comp = t.components[x]
        if len(set(comp.values())) != len(comp) or len(comp) != len(t.cod.values[x]):
            return False
    return True


def hom_candidates(F: Presheaf, G: Presheaf) -> int:
    """The candidate count of a hom search F -> G: the product over objects
    of max(1, |G(X)|) ** |F(X)|, the unpruned range of its variables.  An
    empty G(X) counts as 1, so it does not cancel the other factors."""
    n = 1
    for x, fv in F.values.items():
        n *= max(1, len(G.values[x])) ** len(fv)
    return n


def enumerate_presheaf_morphisms(
    F: Presheaf, G: Presheaf, *, budget: Optional[int] = None, limit: Optional[int] = None
) -> tuple[PresheafMorphism, ...]:
    """All natural families F -> G, in lexicographic order.

    The order is that of filtering, for objects in sorted order, the
    product over each object of itertools.product(G(X), repeat=|F(X)|).
    If a budget is given and ``hom_candidates(F, G)`` exceeds it the
    search refuses up front, reporting that count, rather than
    truncating.  With a limit the search stops after that many families,
    so the result is the first ``limit`` of the full tuple.
    """
    if F.base != G.base:
        raise StructureError("enumerate_presheaf_morphisms: different base categories")
    if budget is not None:
        total = hom_candidates(F, G)
        if total > budget:
            raise ResourceBudgetError("enumerate_presheaf_morphisms", total, budget)
    return tuple(itertools.islice(_natural_families(F, G, bijective=False), limit))


def find_presheaf_iso(F: Presheaf, G: Presheaf) -> Optional[PresheafMorphism]:
    """First natural isomorphism F -> G in lexicographic order, or None.

    The order is that of filtering, for objects in sorted order, the
    product over each object of itertools.permutations(G(X)); the result
    is the first isomorphism in ``enumerate_presheaf_morphisms(F, G)``.
    """
    if F.base != G.base:
        return None
    if any(len(F.values[x]) != len(G.values[x]) for x in F.base.objects):
        return None
    return next(_natural_families(F, G, bijective=True), None)


def _natural_families(F: Presheaf, G: Presheaf, *, bijective: bool) -> Iterator[PresheafMorphism]:
    """Natural families F -> G by search over the elements (X, e) of F.

    Elements are ordered by object (sorted) and then by position in F(X);
    the variable (X, e) ranges over G(X).  The naturality square of m on e
    relates (src m, F(m)(e)) to (tgt m, e) and is checked at the later of
    the two.  ``bijective`` adds "not yet used in this object".
    """
    C = F.base
    objs = sorted(C.objects)
    var: dict[tuple[str, str], int] = {}
    first: list[int] = []
    domains: list[tuple[str, ...]] = []
    blocks: list[tuple[str, tuple[str, ...], int, int]] = []
    for x in objs:
        start = len(domains)
        for e in F.values[x]:
            var[(x, e)] = len(domains)
            first.append(start)
            domains.append(G.values[x])
        blocks.append((x, F.values[x], start, len(domains)))
    squares: list[list[tuple[int, Mapping[str, str], int]]] = [[] for _ in domains]
    for m in C.non_identities():
        x, y = C.src(m), C.tgt(m)
        fm, gm = F.actions[m], G.actions[m]
        for e in F.values[y]:
            a, b = var[(x, fm[e])], var[(y, e)]
            squares[max(a, b)].append((a, gm, b))

    def ok(i: int, assign: list) -> bool:
        if bijective and assign[i] in assign[first[i]:i]:
            return False
        for a, gm, b in squares[i]:
            if assign[a] != gm[assign[b]]:
                return False
        return True

    for images in backtrack(domains, ok):
        yield PresheafMorphism(
            F, G, {x: dict(zip(elems, images[s:t])) for x, elems, s, t in blocks}
        )


def table_key(tables: Mapping[str, Mapping[str, str]]) -> str:
    """``x:e>v,...;...`` over sorted outer and inner keys."""
    return ";".join(
        f"{x}:{','.join(f'{e}>{t[e]}' for e in sorted(t))}"
        for x, t in sorted(tables.items())
    )


def presheaf_key(F: Presheaf) -> str:
    """Canonical content string; names do not contribute."""
    if F._key is None:
        vs = ";".join(f"{x}:{','.join(F.values[x])}" for x in sorted(F.values))
        object.__setattr__(F, "_key", f"{F.base.name}|{vs}|{table_key(F.actions)}")
    return F._key


def short_key(F: Presheaf) -> str:
    if F.name:
        return F.name
    if F._short is None:
        digest = hashlib.sha256(presheaf_key(F).encode()).hexdigest()[:10]
        object.__setattr__(F, "_short", f"P#{digest}")
    return F._short


# ---------------------------------------------------------------------------
# representables


def yoneda_embed(C: FinCategory, X: str) -> Presheaf:
    """The presheaf of arrows into X; elements are the arrow names."""
    # requested in every enumeration loop; immutable, so share per base
    hit = C._derived.get(("repr", X))
    if hit is not None:
        return hit
    values = {Y: tuple(sorted(C.hom(Y, X))) for Y in C.objects}
    actions: dict[str, dict[str, str]] = {}
    for m in C.morphisms:
        actions[m.name] = {g: C.compose(g, m.name) for g in values[m.tgt]}
    F = Presheaf(C, values, actions, f"h_{X}")
    C._derived[("repr", X)] = F
    return F


def yoneda_on_mor(C: FinCategory, u: str) -> PresheafMorphism:
    """Postcomposition with u, as a morphism of representables."""
    # density_check asks for it once per arrow of every element category
    hit = C._derived.get(("repr-mor", u))
    if hit is not None:
        return hit
    hx = yoneda_embed(C, C.src(u))
    hy = yoneda_embed(C, C.tgt(u))
    comps = {
        Y: {g: C.compose(u, g) for g in hx.values[Y]} for Y in C.objects
    }
    t = PresheafMorphism(hx, hy, comps)
    C._derived[("repr-mor", u)] = t
    return t


def yoneda_forward(C: FinCategory, X: str, t: PresheafMorphism) -> str:
    """Evaluate a morphism out of the representable of X at the identity."""
    return t.components[X][C.id_of(X)]


def yoneda_backward(C: FinCategory, X: str, F: Presheaf, elem: str) -> PresheafMorphism:
    """The morphism out of the representable of X classified by an element.

    Component at Y sends g: Y -> X to the action of g on the element.
    """
    hx = yoneda_embed(C, X)
    comps = {Y: {g: F.actions[g][elem] for g in hx.values[Y]} for Y in C.objects}
    return PresheafMorphism(hx, F, comps)


# ---------------------------------------------------------------------------
# category of elements


@dataclass(frozen=True)
class ElementsCategory:
    """The category of elements of a presheaf.

    Objects are ``elem@obj`` pairs; an arrow from (x, X) to (y, Y) is a base
    arrow f: X -> Y whose action sends y back to x, named ``f|y``.
    ``projection`` sends each pair to its object and each arrow to its base
    arrow; ``obj_elem`` decodes each node into its (element, object) pair.
    The representable diagram and cocone over it are built where they are
    read, in ``density_check``.
    """

    gamma: FinCategory
    projection: FinFunctor
    obj_elem: Mapping[str, tuple[str, str]]


def element_node(elem: str, obj: str) -> str:
    return f"{elem}@{obj}"


def category_of_elements(F: Presheaf) -> ElementsCategory:
    C = F.base
    nodes: list[str] = []
    obj_elem: dict[str, tuple[str, str]] = {}
    for X in C.objects:
        for e in F.values[X]:
            n = element_node(e, X)
            nodes.append(n)
            obj_elem[n] = (e, X)
    arrows: list[tuple[str, str, str]] = []
    arrow_data: dict[str, tuple[str, str]] = {}
    # the element arrows into each (object, element) pair, in arrow order
    into: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for f in C.non_identities():
        X, Y = C.src(f), C.tgt(f)
        for y in F.values[Y]:
            name = f"{f}|{y}"
            arrows.append((name, element_node(F.actions[f][y], X), element_node(y, Y)))
            arrow_data[name] = (f, y)
            into.setdefault((Y, y), []).append((name, f))
    compose: dict[tuple[str, str], str] = {}
    for gname, (g, y2) in arrow_data.items():
        # g-arrow after f-arrow: target pair of f-arrow is source pair of g-arrow
        y1 = F.actions[g][y2]
        for fname, f in into.get((C.src(g), y1), ()):
            c = C.compose(g, f)
            if C.is_identity(c):
                src_node = element_node(F.actions[f][y1], C.src(f))
                compose[(gname, fname)] = f"id_{src_node}"
            else:
                compose[(gname, fname)] = f"{c}|{y2}"
    gamma = make_category(f"el({F.name or 'F'})", nodes, arrows, compose)
    proj_obj = {n: obj_elem[n][1] for n in nodes}
    proj_mor = {f"id_{n}": C.id_of(obj_elem[n][1]) for n in nodes}
    for name, (f, _) in arrow_data.items():
        proj_mor[name] = f
    projection = FinFunctor(gamma, C, proj_obj, proj_mor)
    return ElementsCategory(gamma, projection, obj_elem)


# ---------------------------------------------------------------------------
# union-find


class UnionFind:
    """Disjoint sets over strings with path compression."""

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def add(self, x: str) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> dict[str, list[str]]:
        """Members grouped under the smallest member as canonical label."""
        groups: dict[str, list[str]] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return {min(members): sorted(members) for members in groups.values()}


# ---------------------------------------------------------------------------
# pointwise limits and colimits


def presheaf_colimit(diagram: HandleDiagram, base: FinCategory) -> LimitData:
    """Pointwise colimit of presheaves on base: disjoint union quotiented
    by the arrow actions.

    Class labels are the smallest member strings ``j:e``; legs send each
    element to its class, and the mediating morphism out of the apex is
    read off class representatives (checked for cocone consistency).  The
    empty diagram gives the empty presheaf.
    """
    J = diagram.index
    obs = {j: diagram.obs[j] for j in J.objects}
    # union-find per base object
    class_of: dict[str, dict[tuple[str, str], str]] = {}
    members_of: dict[str, dict[str, list[tuple[str, str]]]] = {}
    values: dict[str, tuple[str, ...]] = {}
    for A in base.objects:
        uf = UnionFind()
        decode: dict[str, tuple[str, str]] = {}
        for j in sorted(obs):
            for e in obs[j].values[A]:
                key = f"{j}:{e}"
                uf.add(key)
                decode[key] = (j, e)
        for m in J.non_identities():
            j, k = J.src(m), J.tgt(m)
            t = diagram.mors[m]
            for e in obs[j].values[A]:
                uf.union(f"{j}:{e}", f"{k}:{t.components[A][e]}")
        groups = uf.classes()
        values[A] = tuple(sorted(groups))
        cls: dict[tuple[str, str], str] = {}
        mems: dict[str, list[tuple[str, str]]] = {}
        for label, members in groups.items():
            mems[label] = [decode[m] for m in members]
            for m in members:
                cls[decode[m]] = label
        class_of[A] = cls
        members_of[A] = mems
    actions: dict[str, dict[str, str]] = {}
    for m in base.morphisms:
        X, Y = m.src, m.tgt
        act: dict[str, str] = {}
        for label in values[Y]:
            j, e = members_of[Y][label][0]
            act[label] = class_of[X][(j, obs[j].actions[m.name][e])]
        actions[m.name] = act
    apex = Presheaf(base, values, actions, "colim")
    legs = {
        j: PresheafMorphism(
            obs[j], apex,
            {A: {e: class_of[A][(j, e)] for e in obs[j].values[A]} for A in base.objects},
        )
        for j in sorted(obs)
    }

    def factor(apex2: Presheaf, legs2: Mapping[str, PresheafMorphism]) -> PresheafMorphism:
        comps: dict[str, dict[str, str]] = {}
        for A in base.objects:
            comp: dict[str, str] = {}
            for label in values[A]:
                images = {legs2[j].components[A][e] for j, e in members_of[A][label]}
                if len(images) != 1:
                    raise FactorizationError(
                        f"colimit factoring: cocone legs disagree on class {label} at {A}"
                    )
                comp[label] = images.pop()
            comps[A] = comp
        return PresheafMorphism(apex, apex2, comps)

    return LimitData(apex, legs, factor)


def presheaf_limit(diagram: HandleDiagram, base: FinCategory) -> LimitData:
    """Pointwise limit of presheaves on base: compatible tuples, labeled by
    their coordinates.

    At each base object the tuples are searched with one variable per
    index object in sorted order, each arrow of the index checked at the
    later of its ends, so they come in the order of filtering the product
    of the value sets; the apex lists their labels sorted.  The empty
    diagram gives the one-point presheaf on the empty tuple ``()``.
    """
    J = diagram.index
    obs = {j: diagram.obs[j] for j in J.objects}
    jobjs = sorted(obs)
    pos = {j: i for i, j in enumerate(jobjs)}
    tuples: dict[str, list[dict[str, str]]] = {}
    for A in base.objects:
        # a tuple is compatible when D(m)(t[j]) == t[k] for every m: j -> k
        arrows: list[list[tuple[int, Mapping[str, str], int]]] = [[] for _ in jobjs]
        for m in J.non_identities():
            j, k = pos[J.src(m)], pos[J.tgt(m)]
            arrows[max(j, k)].append((j, diagram.mors[m].components[A], k))

        def ok(i: int, t: list) -> bool:
            return all(dm[t[j]] == t[k] for j, dm, k in arrows[i])

        domains = [obs[j].values[A] for j in jobjs]
        tuples[A] = [dict(zip(jobjs, t)) for t in backtrack(domains, ok)]

    def label_of(t: Mapping[str, str]) -> str:
        return "(" + ",".join(f"{j}={t[j]}" for j in jobjs) + ")"

    values = {A: tuple(sorted(label_of(t) for t in tuples[A])) for A in base.objects}
    decode = {
        A: {label_of(t): t for t in tuples[A]} for A in base.objects
    }
    actions: dict[str, dict[str, str]] = {}
    for m in base.morphisms:
        X, Y = m.src, m.tgt
        act = {}
        for label in values[Y]:
            t = decode[Y][label]
            act[label] = label_of({j: obs[j].actions[m.name][t[j]] for j in jobjs})
        actions[m.name] = act
    apex = Presheaf(base, values, actions, "lim")
    legs = {
        j: PresheafMorphism(
            apex, obs[j],
            {A: {label: decode[A][label][j] for label in values[A]} for A in base.objects},
        )
        for j in jobjs
    }

    def factor(apex2: Presheaf, legs2: Mapping[str, PresheafMorphism]) -> PresheafMorphism:
        comps: dict[str, dict[str, str]] = {}
        for A in base.objects:
            comp = {}
            for e in apex2.values[A]:
                t = {j: legs2[j].components[A][e] for j in jobjs}
                lab = label_of(t)
                if lab not in decode[A]:
                    raise FactorizationError(
                        f"limit factoring: cone legs give an incompatible tuple at {A}"
                    )
                comp[e] = lab
            comps[A] = comp
        return PresheafMorphism(apex2, apex, comps)

    return LimitData(apex, legs, factor)


def limit_comparison(
    Z: ComputationalCategory, diagram: HandleDiagram, base: FinCategory,
    on_obj: Callable[[Presheaf], Any], on_mor: Callable[[PresheafMorphism], Any],
) -> Any:
    """The canonical map T(lim D) -> lim T(D) for T, from presheaves on base
    into Z, given by ``on_obj`` and ``on_mor``: the image of the pointwise
    limit cone, factored through the limit in Z."""
    pre = presheaf_limit(diagram, base)
    image = HandleDiagram(
        diagram.index,
        {j: on_obj(P) for j, P in diagram.obs.items()},
        {m: on_mor(t) for m, t in diagram.mors.items()},
    )
    post = Z.limit(image)
    return post.factor(on_obj(pre.apex), {j: on_mor(pre.legs[j]) for j in diagram.obs})


# ---------------------------------------------------------------------------
# density


@dataclass
class DensityReport:
    ok: bool
    comparison: Optional[PresheafMorphism]
    detail: str


def density_check(F: Presheaf) -> DensityReport:
    """Rebuild F as the colimit of representables over its elements.

    Sends each element (e, X) to the representable of X and each arrow to
    its base arrow under Yoneda, takes the colimit of that diagram, factors
    the canonical cocone (the morphism out of h_X classified by e, at each
    element) through it, and checks the mediating morphism is an
    isomorphism.
    """
    C = F.base
    els = category_of_elements(F)
    proj = els.projection
    diagram = HandleDiagram(
        els.gamma,
        {n: yoneda_embed(C, X) for n, (_, X) in els.obj_elem.items()},
        {a: yoneda_on_mor(C, proj.mor_map[a]) for a in els.gamma.non_identities()},
    )
    cocone = {n: yoneda_backward(C, X, F, e) for n, (e, X) in els.obj_elem.items()}
    comparison = presheaf_colimit(diagram, C).factor(F, cocone)
    if not is_presheaf_iso(comparison):
        return DensityReport(False, comparison, "comparison is not invertible")
    rep = validate_presheaf_morphism(comparison)
    if not rep.ok:
        return DensityReport(False, comparison, "comparison is not natural")
    return DensityReport(True, comparison, "comparison is a natural bijection")


# ---------------------------------------------------------------------------
# bounded enumeration of presheaves


def iter_presheaves(C: FinCategory, bound: int) -> Iterator[Presheaf]:
    """Every presheaf with value sets of size <= bound, canonically labeled,
    yielded one at a time as the search finds it.

    Value labels are e0, e1, ... per object.  The search variables are the
    value-set sizes, objects in sorted order, then the identity actions,
    then the non-identity actions in sorted order as integer tuples over
    itertools.product(range(|F(src)|), repeat=|F(tgt)|).  An identity, or
    a composite of two earlier non-identities, has a one-value domain; the
    remaining composition laws are checked pointwise at their latest
    arrow.  Results come in lexicographic order of that variable sequence.

    The presheaves of one call share their tables: one value tuple per
    size, one ``values`` dict per size vector and one action dict per
    action tuple, each built the first time it occurs.  A caller that
    reads the census once, in order, holds one presheaf at a time.
    """
    objs = sorted(C.objects)
    mors = sorted(C.non_identities())
    n = len(objs)
    size_var = {x: k for k, x in enumerate(objs)}
    names = [C.id_of(x) for x in objs] + mors
    act_var = {m: n + k for k, m in enumerate(names)}
    triples = [
        (act_var[g], act_var[f], act_var[C.compose(g, f)])
        for g, f in C.composable_pairs()
        if not (C.is_identity(g) or C.is_identity(f))
    ]
    domains: list = [range(bound + 1)] * n
    domains += [lambda a, k=k: (tuple(range(a[k])),) for k in range(n)]
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n + len(names))]
    for i in range(2 * n, n + len(names)):
        # first factorization by two earlier non-identities derives the action
        law = next((t for t in triples if t[2] == i and max(t[0], t[1]) < i), None)
        if law is None:
            m = names[i - n]
            d, c = size_var[C.tgt(m)], size_var[C.src(m)]
            domains.append(lambda a, d=d, c=c: itertools.product(range(a[c]), repeat=a[d]))
        else:
            domains.append(lambda a, g=law[0], f=law[1]: (tuple(map(a[f].__getitem__, a[g])),))
        checks[i].extend(t for t in triples if max(t) == i and t != law)

    def ok(i: int, a: list) -> bool:
        for g, f, c in checks[i]:
            if tuple(map(a[f].__getitem__, a[g])) != a[c]:
                return False
        return True

    labels = [f"e{k}" for k in range(bound + 1)]
    value_tuples = [tuple(labels[:k]) for k in range(bound + 1)]
    value_dicts: dict[tuple, dict[str, tuple[str, ...]]] = {}
    action_dicts: dict[tuple[int, ...], dict[str, str]] = {}
    for sol in backtrack(domains, ok):
        sizes = sol[:n]
        values = value_dicts.get(sizes)
        if values is None:
            values = value_dicts[sizes] = {x: value_tuples[k] for x, k in zip(objs, sizes)}
        actions = {}
        for m, t in zip(names, sol[n:]):
            act = action_dicts.get(t)
            if act is None:
                act = action_dicts[t] = {labels[k]: labels[v] for k, v in enumerate(t)}
            actions[m] = act
        yield Presheaf(C, values, actions)


def enumerate_presheaves(
    C: FinCategory, bound: int, *, max_count: Optional[int] = None
) -> list[Presheaf]:
    """The census of ``iter_presheaves`` as a list, in the same order and
    with the same shared tables.

    Raises rather than truncates when max_count is exceeded, so a caller
    never holds part of a census.
    """
    results: list[Presheaf] = []
    for F in iter_presheaves(C, bound):
        if max_count is not None and len(results) >= max_count:
            raise ResourceBudgetError("enumerate_presheaves", len(results) + 1, max_count)
        results.append(F)
    return results


# ---------------------------------------------------------------------------
# the presheaf category handle


class PresheafCategory(ComputationalCategory):
    """Presheaves on a fixed base with value sets of size <= bound.

    Enumeration of objects and homs is exact within the declared bounds;
    exceeding ``MAX_PRESHEAVES`` or ``HOM_BUDGET`` raises ResourceBudgetError.
    Probe objects are the representables: a separating family, since
    morphisms are determined pointwise by their values on elements and
    every element is classified by a map out of a representable.
    """

    def __init__(self, base: FinCategory, bound: int = 2) -> None:
        self.base = base
        self.bound = bound
        self._objects: Optional[list[Presheaf]] = None
        # per pair: the maps searched so far, and whether they are the whole set
        self._hom_memo: dict[
            tuple[str, str, str, str], tuple[tuple[PresheafMorphism, ...], bool]
        ] = {}

    def objects(self) -> list[Presheaf]:
        if self._objects is None:
            self._objects = enumerate_presheaves(
                self.base, self.bound, max_count=MAX_PRESHEAVES
            )
        return self._objects

    def probe_objects(self) -> list[Presheaf]:
        return [yoneda_embed(self.base, X) for X in sorted(self.base.objects)]

    def _hom_key(self, a: Presheaf, b: Presheaf) -> tuple[str, str, str, str]:
        # names feed mor_key, so same-content objects must not share a slot
        return (a.name, presheaf_key(a), b.name, presheaf_key(b))

    def hom(self, a: Presheaf, b: Presheaf) -> list[PresheafMorphism]:
        return self.hom_prefix(a, b, None)

    def hom_prefix(self, a: Presheaf, b: Presheaf, n: Optional[int]) -> list[PresheafMorphism]:
        """The first n maps of ``hom(a, b)``, or all of them when n is
        None; the search stops after them.

        The budget is checked as for ``hom``.  A search that stops early
        leaves an incomplete slot, which a later read of more maps
        replaces and a later read of at most n maps slices.
        """
        k = self._hom_key(a, b)
        slot = self._hom_memo.get(k)
        if slot is None or (not slot[1] and (n is None or len(slot[0]) < n)):
            maps = enumerate_presheaf_morphisms(a, b, budget=HOM_BUDGET, limit=n)
            slot = self._hom_memo[k] = (maps, n is None or len(maps) < n)
        return list(slot[0][:n])

    def identity(self, a: Presheaf) -> PresheafMorphism:
        return presheaf_identity(a)

    def compose(self, g: PresheafMorphism, f: PresheafMorphism) -> PresheafMorphism:
        return compose_presheaf_morphisms(g, f)

    def source(self, m: PresheafMorphism) -> Presheaf:
        return m.dom

    def target(self, m: PresheafMorphism) -> Presheaf:
        return m.cod

    def obj_key(self, a: Presheaf) -> str:
        return short_key(a)

    def mor_key(self, m: PresheafMorphism) -> str:
        if m._key is None:
            key = f"{short_key(m.dom)}->{short_key(m.cod)}[{table_key(m.components)}]"
            object.__setattr__(m, "_key", key)
        return m._key

    def equal_mor(self, f: PresheafMorphism, g: PresheafMorphism) -> bool:
        return f.components == g.components

    def limit(self, diagram: HandleDiagram) -> LimitData:
        return presheaf_limit(diagram, self.base)

    def colimit(self, diagram: HandleDiagram) -> LimitData:
        return presheaf_colimit(diagram, self.base)

    def is_iso(self, m: PresheafMorphism) -> bool:
        return is_presheaf_iso(m)

    def find_iso(self, a: Presheaf, b: Presheaf) -> Optional[PresheafMorphism]:
        return find_presheaf_iso(a, b)


def presheaf_category(C: FinCategory, bound: int = 2) -> PresheafCategory:
    return PresheafCategory(C, bound)


# ---------------------------------------------------------------------------
# finite sets as presheaves on the point


def finset_category(bound: int = 3) -> PresheafCategory:
    return PresheafCategory(terminal_category(), bound)


def finset_obj(labels: Sequence[str], name: str = "") -> Presheaf:
    return make_presheaf(terminal_category(), {"*": tuple(labels)}, name=name)


def finset_map(dom: Presheaf, cod: Presheaf, mapping: Mapping[str, str]) -> PresheafMorphism:
    return PresheafMorphism(dom, cod, {"*": dict(mapping)})


def finset_value(P: Presheaf) -> tuple[str, ...]:
    return P.values["*"]


def finset_functor(
    name: str, C: FinCategory, G: Presheaf, handle: ComputationalCategory
) -> HandleFunctor:
    """The functor C -> finite sets with the tables of G, a presheaf on
    ``opposite(C)``, its value at X named ``name(X)``; the inverse of
    ``finset_transpose``."""
    obs = {X: finset_obj(G.values[X], name=f"{name}({X})") for X in C.objects}
    mors = {
        m: finset_map(obs[C.src(m)], obs[C.tgt(m)], G.actions[m]) for m in C.non_identities()
    }
    return HandleFunctor(name, C, handle, obs, mors)


def finset_transpose(p: HandleFunctor) -> Presheaf:
    """The presheaf on ``opposite(p.dom)`` with the tables of p, named as p.

    p's codomain must be exactly a ``PresheafCategory`` on one object; a
    sheaf handle is one too, but its objects are not plain finite sets.
    """
    Z = p.cod
    if type(Z) is not PresheafCategory or len(Z.base.objects) != 1:
        raise StructureError("set-valued flatness needs finite-set objects")
    point = Z.base.objects[0]
    C = p.dom
    return Presheaf(
        opposite(C),
        {X: p.obj_map[X].values[point] for X in C.objects},
        {m.name: p.on_mor(m.name).components[point] for m in C.morphisms},
        p.name,
    )


def constant_presheaf(C: FinCategory, labels: Sequence[str], name: str = "") -> Presheaf:
    vals = {x: tuple(sorted(labels)) for x in C.objects}
    acts = {m.name: {e: e for e in vals[m.tgt]} for m in C.morphisms}
    return Presheaf(C, vals, acts, name)
