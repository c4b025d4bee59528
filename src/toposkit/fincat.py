"""Finite categories presented by explicit composition tables.

A category here is nominal data: object names, morphism names with source
and target, a chosen identity morphism per object, and a total composition
table on composable pairs.  Everything downstream (presheaves, sites, Kan
extensions) reduces to exact finite computations over these tables, so this
module also fixes the conventions the rest of the package relies on:

* ``compose(g, f)`` means "g after f" and is defined iff src(g) == tgt(f);
* all enumerations iterate in sorted name order, so results are
  deterministic functions of the input data;
* validators report law violations with witnesses instead of raising.

The second half of the module defines the computational-category handle
interface: a uniform way to treat a finite category, a presheaf category,
or a sheaf category as "a category whose objects and homs can be listed and
whose (co)limits can be computed", which is what the extension and flatness
machinery is written against.  Only limits are searched for: a colimit in
C is a limit in ``opposite(C)`` over the opposite index, which is how
``FinCatHandle.colimit`` computes it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .errors import FactorizationError, StructureError
from .search import backtrack

# Hard size caps for user-supplied categories, reported by
# validate_category as "size-bound" violations.  Internal constructions
# (categories of elements, for instance) may exceed them.
MAX_OBJECTS = 6
MAX_NON_IDENTITY = 24

Obj = Any
Mor = Any


# ---------------------------------------------------------------------------
# validation reports


@dataclass(frozen=True)
class Violation:
    """One broken law, with the names that witness the breakage."""

    law: str
    witness: tuple
    detail: str

    def to_dict(self) -> dict:
        return {"law": self.law, "witness": list(self.witness), "detail": self.detail}


@dataclass
class ValidationReport:
    """Outcome of a validator: empty violation list means the laws hold."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, witness: tuple, detail: str) -> None:
        self.violations.append(Violation(law, witness, detail))


# ---------------------------------------------------------------------------
# categories


@dataclass(frozen=True)
class Morphism:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class FinCategory:
    """A finite category as explicit tables.

    ``composition`` maps every composable pair (g, f) with src(g) == tgt(f)
    to the name of g after f, identities included.  Use ``make_category`` to
    build instances without spelling out the identity rows.
    """

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[Morphism, ...]
    identity: Mapping[str, str]
    composition: Mapping[tuple[str, str], str]
    _by_name: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _hom: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _non_ids: tuple = field(init=False, repr=False, compare=False, default=())
    # scratch for derived structures other modules key on this instance
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        by_name: dict[str, Morphism] = {}
        hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            by_name[m.name] = m
            hom.setdefault((m.src, m.tgt), []).append(m.name)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(
            self, "_hom", {k: tuple(sorted(v)) for k, v in hom.items()}
        )
        object.__setattr__(
            self,
            "_non_ids",
            tuple(
                m.name
                for m in self.morphisms
                if self.identity.get(m.src) != m.name
            ),
        )

    # -- lookups ------------------------------------------------------------

    def mor(self, name: str) -> Morphism:
        return self._by_name[name]

    def has_mor(self, name: str) -> bool:
        return name in self._by_name

    def src(self, name: str) -> str:
        return self._by_name[name].src

    def tgt(self, name: str) -> str:
        return self._by_name[name].tgt

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def id_of(self, x: str) -> str:
        return self.identity[x]

    def is_identity(self, name: str) -> bool:
        m = self._by_name[name]
        return self.identity.get(m.src) == name

    def compose(self, g: str, f: str) -> str:
        """g after f; raises KeyError on non-composable pairs."""
        return self.composition[(g, f)]

    def non_identities(self) -> tuple[str, ...]:
        return self._non_ids

    def arrows_into(self, x: str) -> tuple[str, ...]:
        return tuple(sorted(m.name for m in self.morphisms if m.tgt == x))

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        for g in self.morphisms:
            for f in self.morphisms:
                if g.src == f.tgt:
                    yield (g.name, f.name)


def make_category(
    name: str,
    objects: Sequence[str],
    morphisms: Sequence[tuple[str, str, str]] = (),
    compose: Mapping[tuple[str, str], str] | None = None,
) -> FinCategory:
    """Assemble a category from non-identity data.

    ``morphisms`` lists (name, src, tgt) for non-identity arrows; identities
    are added as ``id_<object>`` and the composition table is completed with
    the identity rows.  ``compose`` must cover exactly the composable pairs
    of non-identity arrows.
    """
    compose = dict(compose or {})
    objects = tuple(objects)
    idmap = {x: f"id_{x}" for x in objects}
    mors = [Morphism(idmap[x], x, x) for x in objects]
    for mname, s, t in morphisms:
        if mname in idmap.values():
            raise StructureError(f"{name}: morphism name {mname!r} collides with an identity")
        if s not in objects or t not in objects:
            raise StructureError(f"{name}: morphism {mname!r} has unknown endpoint")
        mors.append(Morphism(mname, s, t))
    # the arrows into each object, in declaration order: g composes with
    # exactly those into its source
    into: dict[str, list[Morphism]] = {}
    for f in mors:
        into.setdefault(f.tgt, []).append(f)
    table: dict[tuple[str, str], str] = {}
    for g in mors:
        for f in into.get(g.src, ()):
            key = (g.name, f.name)
            if f.name == idmap[f.src]:
                table[key] = g.name
            elif g.name == idmap[g.src]:
                table[key] = f.name
            elif key in compose:
                table[key] = compose[key]
            else:
                raise StructureError(
                    f"{name}: composition table is missing ({g.name}, {f.name})"
                )
    extra = set(compose) - set(table)
    if extra:
        raise StructureError(f"{name}: composition entries for non-composable pairs {sorted(extra)}")
    return FinCategory(name, objects, tuple(mors), idmap, table)


def poset_category(name: str, objects: Sequence[str], leq: Sequence[tuple[str, str]]) -> FinCategory:
    """Thin category of a finite preorder.

    ``leq`` lists the related pairs (a, b) with a <= b; reflexive pairs are
    implied, transitive closure is taken.  The arrow for a < b is named
    ``a.b``.
    """
    objs = tuple(objects)
    rel = {(a, b) for a, b in leq}
    rel |= {(x, x) for x in objs}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    mors = [(f"{a}.{b}", a, b) for a, b in sorted(rel) if a != b]
    compose: dict[tuple[str, str], str] = {}
    for gname, gs, gt in mors:
        for fname, fs, ft in mors:
            if gs == ft:
                compose[(gname, fname)] = f"{fs}.{gt}"
    return make_category(name, objs, mors, compose)


def terminal_category(name: str = "unit") -> FinCategory:
    return make_category(name, ("*",))


def discrete_category(name: str, objects: Sequence[str]) -> FinCategory:
    return make_category(name, objects)


def parallel_pair_category() -> FinCategory:
    """Index shape for equalizers: two objects, two parallel arrows."""
    return make_category("pair", ("a", "b"), [("u", "a", "b"), ("v", "a", "b")], {})


def cospan_category() -> FinCategory:
    """Index shape for pullbacks: l -> m <- r."""
    return make_category("cospan", ("l", "m", "r"), [("lm", "l", "m"), ("rm", "r", "m")], {})


def span_category() -> FinCategory:
    """Index shape for pushouts: l <- m -> r."""
    return make_category("span", ("l", "m", "r"), [("ml", "m", "l"), ("mr", "m", "r")], {})


def validate_category(C: FinCategory) -> ValidationReport:
    """Check the category laws and size caps, reporting every violation.

    Works on arbitrary FinCategory data, malformed or not; nothing raises.
    """
    rep = ValidationReport()
    names = [m.name for m in C.morphisms]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        rep.add("unique-names", tuple(dup), f"duplicate morphism names {dup}")
    if len(set(C.objects)) != len(C.objects):
        rep.add("unique-names", C.objects, "duplicate object names")
    known = set(names)
    for m in C.morphisms:
        if m.src not in C.objects or m.tgt not in C.objects:
            rep.add("endpoints", (m.name,), f"{m.name}: endpoint not an object")
    for x in C.objects:
        i = C.identity.get(x)
        if i is None or i not in known:
            rep.add("identity-missing", (x,), f"object {x} has no identity morphism")
        else:
            m = C.mor(i)
            if m.src != x or m.tgt != x:
                rep.add("identity-endpoints", (x, i), f"identity of {x} is not an endomorphism")
    for k in C.identity:
        if k not in C.objects:
            rep.add("identity-extra", (k,), f"identity assigned to unknown object {k}")
    # totality and typing of the composition table
    for g, f in C.composable_pairs():
        key = (g, f)
        h = C.composition.get(key)
        if h is None:
            rep.add("compose-total", key, f"no entry for ({g}, {f})")
            continue
        if h not in known:
            rep.add("compose-typing", key + (h,), f"({g}, {f}) maps to unknown {h}")
            continue
        if C.src(h) != C.src(f) or C.tgt(h) != C.tgt(g):
            rep.add("compose-typing", key + (h,), f"({g}, {f}) = {h} has wrong endpoints")
    for (g, f) in C.composition:
        if g not in known or f not in known or C.src(g) != C.tgt(f):
            rep.add("compose-extra", (g, f), f"table entry ({g}, {f}) is not a composable pair")
    if not rep.ok:
        return rep
    # identity and associativity laws need a well-typed table
    for m in C.morphisms:
        if C.compose(m.name, C.id_of(m.src)) != m.name:
            rep.add("unit-right", (m.name,), f"{m.name} . id != {m.name}")
        if C.compose(C.id_of(m.tgt), m.name) != m.name:
            rep.add("unit-left", (m.name,), f"id . {m.name} != {m.name}")
    for h in C.morphisms:
        for g in C.morphisms:
            if g.src != h.tgt:
                continue
            for f in C.morphisms:
                if h.src != f.tgt:
                    continue
                left = C.compose(C.compose(g.name, h.name), f.name)
                right = C.compose(g.name, C.compose(h.name, f.name))
                if left != right:
                    rep.add(
                        "associativity",
                        (g.name, h.name, f.name),
                        f"(g.h).f = {left} but g.(h.f) = {right}",
                    )
    if len(C.objects) > MAX_OBJECTS:
        rep.add(
            "size-bound",
            (len(C.objects),),
            f"{len(C.objects)} objects exceeds the cap of {MAX_OBJECTS}",
        )
    n = len(C.morphisms) - len(C.objects)
    if n > MAX_NON_IDENTITY:
        rep.add(
            "size-bound",
            (n,),
            f"{n} non-identity morphisms exceeds the cap of {MAX_NON_IDENTITY}",
        )
    return rep


def opposite(C: FinCategory) -> FinCategory:
    """Reverse all arrows.  Involutive on the nose: opposite(opposite(C)) == C."""
    name = C.name[: -len("^op")] if C.name.endswith("^op") else C.name + "^op"
    mors = tuple(Morphism(m.name, m.tgt, m.src) for m in C.morphisms)
    comp = {(f, g): h for (g, f), h in C.composition.items()}
    return FinCategory(name, C.objects, mors, dict(C.identity), comp)


# ---------------------------------------------------------------------------
# functors


@dataclass(frozen=True)
class FinFunctor:
    dom: FinCategory
    cod: FinCategory
    obj_map: Mapping[str, str]
    mor_map: Mapping[str, str]


def validate_functor(F: FinFunctor) -> ValidationReport:
    rep = ValidationReport()
    for x in F.dom.objects:
        fx = F.obj_map.get(x)
        if fx is None or fx not in F.cod.objects:
            rep.add("object-map", (x,), f"no codomain object for {x}")
    for m in F.dom.morphisms:
        fm = F.mor_map.get(m.name)
        if fm is None or not F.cod.has_mor(fm):
            rep.add("morphism-map", (m.name,), f"no codomain morphism for {m.name}")
            continue
        if F.cod.src(fm) != F.obj_map.get(m.src) or F.cod.tgt(fm) != F.obj_map.get(m.tgt):
            rep.add("endpoints", (m.name, fm), f"F({m.name}) = {fm} has wrong endpoints")
    if not rep.ok:
        return rep
    for x in F.dom.objects:
        if F.mor_map[F.dom.id_of(x)] != F.cod.id_of(F.obj_map[x]):
            rep.add("identity", (x,), f"F(id_{x}) is not the identity of F({x})")
    for g, f in F.dom.composable_pairs():
        lhs = F.mor_map[F.dom.compose(g, f)]
        rhs = F.cod.compose(F.mor_map[g], F.mor_map[f])
        if lhs != rhs:
            rep.add("composition", (g, f), f"F({g}.{f}) = {lhs} != F({g}).F({f}) = {rhs}")
    return rep


# ---------------------------------------------------------------------------
# cones and universal cone search; a cocone is a cone in the opposite
# category, so there is no separate cocone search


@dataclass(frozen=True)
class Cone:
    apex: str
    legs: Mapping[str, str]


def enumerate_cones(D: FinFunctor) -> tuple[Cone, ...]:
    """All cones over D, sorted by (apex, legs) lexicographically.

    The apex is search variable 0, ranging over the sorted objects; then
    one leg per index object in sorted order, ranging over hom(apex, D j)
    in hom order.  A triangle is checked at the later of its two legs.
    """
    C = D.cod
    J = D.dom
    jobjs = sorted(J.objects)
    pos = {j: i + 1 for i, j in enumerate(jobjs)}
    triangles: list[list[tuple[str, int, int]]] = [[] for _ in range(len(jobjs) + 1)]
    for m in J.non_identities():
        j, k = pos[J.src(m)], pos[J.tgt(m)]
        triangles[max(j, k)].append((D.mor_map[m], j, k))

    def ok(i: int, chosen: list) -> bool:
        return all(C.compose(dm, chosen[j]) == chosen[k] for dm, j, k in triangles[i])

    domains = [sorted(C.objects)] + [
        lambda chosen, d=D.obj_map[j]: C.hom(chosen[0], d) for j in jobjs
    ]
    return tuple(
        Cone(apex, dict(zip(jobjs, legs)))
        for apex, *legs in backtrack(domains, ok)
    )


def universal_cone_search(D: FinFunctor) -> Optional[Cone]:
    """Limit cone of D, or None.

    Candidates are scanned in sorted (apex, legs) order and the first
    universal one is returned, so the chosen cone is the lexicographically
    smallest among the (mutually isomorphic) universal cones.
    """
    C = D.cod
    cones = enumerate_cones(D)
    jobjs = sorted(D.dom.objects)
    for cand in cones:
        universal = True
        for other in cones:
            n = 0
            for f in C.hom(other.apex, cand.apex):
                if all(C.compose(cand.legs[j], f) == other.legs[j] for j in jobjs):
                    n += 1
                    if n > 1:
                        break
            if n != 1:
                universal = False
                break
        if universal:
            return cand
    return None


def is_cofiltered(C: FinCategory) -> ValidationReport:
    """Nonempty, every object pair admits a span into it, and every
    parallel pair admits an incoming equalizing arrow."""
    rep = ValidationReport()
    if not C.objects:
        rep.add("nonempty", (), "category has no objects")
        return rep
    for x in C.objects:
        for y in C.objects:
            if not any(
                C.hom(w, x) and C.hom(w, y) for w in C.objects
            ):
                rep.add("span", (x, y), f"no object maps to both {x} and {y}")
    for x in C.objects:
        for y in C.objects:
            arrows = C.hom(x, y)
            for i, f in enumerate(arrows):
                for g in arrows[i + 1:]:
                    if not any(
                        C.compose(f, e) == C.compose(g, e)
                        for w in C.objects
                        for e in C.hom(w, x)
                    ):
                        rep.add(
                            "equalizing-arrow", (f, g),
                            f"parallel pair {f}, {g} is never equalized from the left",
                        )
    return rep


# ---------------------------------------------------------------------------
# computational-category handles


@dataclass(frozen=True)
class HandleDiagram:
    """A diagram in a handle: index category plus value assignments.

    ``mors`` covers only the non-identity morphisms of the index; the
    (co)limit routines take an index identity to the identity of its value.
    """

    index: FinCategory
    obs: Mapping[str, Obj]
    mors: Mapping[str, Mor]


@dataclass
class LimitData:
    """A universal cone or cocone: apex, legs, and the mediating morphism
    for any other (co)cone given by its apex and legs."""

    apex: Obj
    legs: dict[str, Mor]
    factor: Callable[[Obj, Mapping[str, Mor]], Mor]


class ComputationalCategory(ABC):
    """A category whose objects and homs can be enumerated on demand.

    Enumerations are bounded and deterministic; implementations raise
    ResourceBudgetError rather than truncate.  ``probe_objects`` returns a
    family sufficient for testing equality of generalized elements (a
    separating family); by default that is every enumerated object.
    """

    @abstractmethod
    def objects(self) -> list[Obj]: ...

    @abstractmethod
    def hom(self, a: Obj, b: Obj) -> list[Mor]: ...

    @abstractmethod
    def identity(self, a: Obj) -> Mor: ...

    @abstractmethod
    def compose(self, g: Mor, f: Mor) -> Mor: ...

    @abstractmethod
    def source(self, m: Mor) -> Obj: ...

    @abstractmethod
    def target(self, m: Mor) -> Obj: ...

    @abstractmethod
    def obj_key(self, a: Obj) -> str: ...

    @abstractmethod
    def mor_key(self, m: Mor) -> str: ...

    @abstractmethod
    def limit(self, diagram: HandleDiagram) -> LimitData: ...

    @abstractmethod
    def colimit(self, diagram: HandleDiagram) -> LimitData: ...

    def probe_objects(self) -> list[Obj]:
        return self.objects()

    def hom_prefix(self, a: Obj, b: Obj, n: int) -> list[Mor]:
        """The first n maps of ``hom(a, b)``, in the same order."""
        return self.hom(a, b)[:n]

    def equal_mor(self, f: Mor, g: Mor) -> bool:
        return f == g

    def try_limit(self, diagram: HandleDiagram) -> Optional[LimitData]:
        try:
            return self.limit(diagram)
        except FactorizationError:
            return None

    def is_iso(self, m: Mor) -> bool:
        a, b = self.source(m), self.target(m)
        for g in self.hom(b, a):
            if self.equal_mor(self.compose(g, m), self.identity(a)) and self.equal_mor(
                self.compose(m, g), self.identity(b)
            ):
                return True
        return False

    def find_iso(self, a: Obj, b: Obj) -> Optional[Mor]:
        for m in self.hom(a, b):
            if self.is_iso(m):
                return m
        return None

    def terminal(self) -> Obj:
        empty = make_category("empty", ())
        return self.limit(HandleDiagram(empty, {}, {})).apex


class FinCatHandle(ComputationalCategory):
    """A finite category viewed through the handle interface."""

    def __init__(self, C: FinCategory) -> None:
        self.C = C

    def objects(self) -> list[str]:
        return sorted(self.C.objects)

    def hom(self, a: str, b: str) -> list[str]:
        return list(self.C.hom(a, b))

    def identity(self, a: str) -> str:
        return self.C.id_of(a)

    def compose(self, g: str, f: str) -> str:
        return self.C.compose(g, f)

    def source(self, m: str) -> str:
        return self.C.src(m)

    def target(self, m: str) -> str:
        return self.C.tgt(m)

    def obj_key(self, a: str) -> str:
        return a

    def mor_key(self, m: str) -> str:
        return m

    def _diagram_functor(self, diagram: HandleDiagram) -> FinFunctor:
        mor_map = dict(diagram.mors)
        for x in diagram.index.objects:
            mor_map[diagram.index.id_of(x)] = self.C.id_of(diagram.obs[x])
        return FinFunctor(diagram.index, self.C, dict(diagram.obs), mor_map)

    def limit(self, diagram: HandleDiagram) -> LimitData:
        cone = universal_cone_search(self._diagram_functor(diagram))
        if cone is None:
            raise FactorizationError(f"{self.C.name}: diagram has no limit")
        legs = dict(cone.legs)

        def factor(apex2: str, legs2: Mapping[str, str]) -> str:
            hits = [
                f
                for f in self.C.hom(apex2, cone.apex)
                if all(self.C.compose(legs[j], f) == legs2[j] for j in legs)
            ]
            if len(hits) != 1:
                raise FactorizationError(
                    f"{self.C.name}: expected one mediating morphism, found {len(hits)}"
                )
            return hits[0]

        return LimitData(cone.apex, legs, factor)

    def colimit(self, diagram: HandleDiagram) -> LimitData:
        """The limit of the same diagram over the opposite index in C^op."""
        dual = HandleDiagram(opposite(diagram.index), diagram.obs, diagram.mors)
        return FinCatHandle(opposite(self.C)).limit(dual)


@dataclass(frozen=True)
class HandleFunctor:
    """A functor from a finite category into a handle."""

    name: str
    dom: FinCategory
    cod: ComputationalCategory
    obj_map: Mapping[str, Obj]
    mor_map: Mapping[str, Mor]
    # its extensions and right-adjoint tables, which live for one theorem
    # suite run over its corpus: the run clears this when it ends
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # its flatness verdict per pair of probe knobs, which outlives the runs
    _flat: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def on_mor(self, m: str) -> Mor:
        if self.dom.is_identity(m):
            return self.cod.identity(self.obj_map[self.dom.src(m)])
        return self.mor_map[m]


def validate_handle_functor(p: HandleFunctor) -> ValidationReport:
    rep = ValidationReport()
    Z = p.cod
    for x in p.dom.objects:
        if x not in p.obj_map:
            rep.add("object-map", (x,), f"no value for object {x}")
    for m in p.dom.non_identities():
        if m not in p.mor_map:
            rep.add("morphism-map", (m,), f"no value for morphism {m}")
    if not rep.ok:
        return rep
    for m in p.dom.non_identities():
        pm = p.mor_map[m]
        # a presheaf's key is its name, which presheaves that differ may share
        src, tgt = p.obj_map[p.dom.src(m)], p.obj_map[p.dom.tgt(m)]
        if Z.obj_key(Z.source(pm)) != Z.obj_key(src) or Z.source(pm) != src:
            rep.add("endpoints", (m,), f"value of {m} has wrong source")
        if Z.obj_key(Z.target(pm)) != Z.obj_key(tgt) or Z.target(pm) != tgt:
            rep.add("endpoints", (m,), f"value of {m} has wrong target")
    if not rep.ok:
        return rep
    for g, f in p.dom.composable_pairs():
        lhs = p.on_mor(p.dom.compose(g, f))
        rhs = Z.compose(p.on_mor(g), p.on_mor(f))
        if not Z.equal_mor(lhs, rhs):
            rep.add("composition", (g, f), f"value of {g}.{f} differs from composite")
    return rep

