"""Cocontinuous extension along representables and its right adjoint.

A functor p from a finite category into a cocomplete handle Z extends to
presheaves: the value on H is the colimit of p over the category of
elements of H, and the value on a presheaf morphism is the mediating map
between the two colimits.  ``tilde_extend`` and ``tilde_extend_mor`` memoize
their values on p, per canonical presheaf key and per morphism table.  A
theorem suite run drops these memos, and the right-adjoint tables, from
its corpus functors when it returns; flatness verdicts are small and stay
memoized on p, one per pair of probe knobs.

The extension restricted along the representables is naturally isomorphic
to p itself; the isomorphism components are the colimit legs at the
identity elements, which are terminal in their element categories.

The right adjoint sends a Z-object to the presheaf of maps out of p, with
actions by precomposition; its table for each target is built once and
kept on p until a suite run drops it.  The adjunction bijection is
executable both ways.  Flatness is decided two ways: for set-valued
functors by cofilteredness of the category of elements, and in general
by building finite-limit comparison maps up to an explicit budget, where
only a counterexample is a definitive verdict.  The elements of a
set-valued functor are read as the opposite of the category of elements
of its transpose, a presheaf on the opposite base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from .errors import (
    ConsistencyError,
    ConstructionRefused,
    ResourceBudgetError,
    StructureError,
)
from .fincat import (
    FinCategory,
    HandleDiagram,
    HandleFunctor,
    LimitData,
    ValidationReport,
    discrete_category,
    is_cofiltered,
    opposite,
    parallel_pair_category,
)
from .presheaf import (
    Presheaf,
    PresheafCategory,
    PresheafMorphism,
    category_of_elements,
    element_node,
    enumerate_presheaf_morphisms,
    enumerate_presheaves,
    presheaf_key,
    presheaf_limit,
    short_key,
    table_key,
    yoneda_embed,
    yoneda_on_mor,
)
from .site import Site, is_continuous, is_sheaf

Obj = Any
Mor = Any

# value-set size of the presheaves enumerated into the exactness probe pool
FLAT_VALUE_BOUND = 2


# ---------------------------------------------------------------------------
# the extension functor


@dataclass
class ExtensionValue:
    """One evaluated extension, as much of it as its readers use.

    ``obj_elem`` decodes each colimit leg's node into its (element,
    object) pair, and ``colimit`` holds the apex, the legs and the
    factoring.  The element category and the input presheaf are not kept:
    nothing reads them once the colimit is built.
    """

    obj_elem: Mapping[str, tuple[str, str]]
    colimit: LimitData

    @property
    def obj(self) -> Obj:
        return self.colimit.apex


def tilde_extend(p: HandleFunctor, H: Presheaf) -> ExtensionValue:
    """The extension value on one presheaf, cocone included.

    The domain of presheaves is unbounded, so values are computed per
    input and kept on p, keyed by canonical presheaf key, until a theorem
    suite run over p's corpus drops them on return; the contract is the
    universal property of each colimit.  The category of elements is
    built to index the colimit's diagram and dropped afterwards, so the
    memo holds neither it nor H.
    """
    memo = p._memo.setdefault("extension", {})
    key = presheaf_key(H)
    if key not in memo:
        if H.base != p.dom:
            raise StructureError("extension applied to a presheaf on the wrong base")
        els = category_of_elements(H)
        proj = els.projection
        diagram = HandleDiagram(
            els.gamma,
            {n: p.obj_map[proj.obj_map[n]] for n in els.gamma.objects},
            {a: p.on_mor(proj.mor_map[a]) for a in els.gamma.non_identities()},
        )
        memo[key] = ExtensionValue(els.obj_elem, p.cod.colimit(diagram))
    return memo[key]


def tilde_extend_mor(p: HandleFunctor, t: PresheafMorphism) -> Mor:
    """The mediating map between the extension colimits of t's ends, kept
    on p per (domain key, codomain key, component table)."""
    memo = p._memo.setdefault("extension_mor", {})
    key = (presheaf_key(t.dom), presheaf_key(t.cod), table_key(t.components))
    if key not in memo:
        vf, vg = tilde_extend(p, t.dom), tilde_extend(p, t.cod)
        legs = {
            n: vg.colimit.legs[element_node(t.components[X][e], X)]
            for n, (e, X) in vf.obj_elem.items()
        }
        memo[key] = vf.colimit.factor(vg.obj, legs)
    return memo[key]


# ---------------------------------------------------------------------------
# the unit isomorphism on representables


@dataclass
class EtaResult:
    components: Mapping[str, Mor]
    report: ValidationReport


def eta_component(p: HandleFunctor, X: str) -> Mor:
    """The leg of the extension colimit at the identity element of X.

    The pair (id_X, X) is terminal in the elements of the representable,
    so its leg is an isomorphism p(X) -> extension(h_X).
    """
    value = tilde_extend(p, yoneda_embed(p.dom, X))
    return value.colimit.legs[element_node(f"id_{X}", X)]


def eta_iso(p: HandleFunctor) -> EtaResult:
    """All components of the natural isomorphism, with the law checks."""
    C = p.dom
    Z = p.cod
    rep = ValidationReport()
    comps = {X: eta_component(p, X) for X in C.objects}
    for X in C.objects:
        if not Z.is_iso(comps[X]):
            rep.add("iso", (X,), f"component at {X} is not an isomorphism")
    for m in C.non_identities():
        X, Y = C.src(m), C.tgt(m)
        lhs = Z.compose(tilde_extend_mor(p, yoneda_on_mor(C, m)), comps[X])
        rhs = Z.compose(comps[Y], p.on_mor(m))
        if not Z.equal_mor(lhs, rhs):
            rep.add("naturality", (m,), f"square at {m} does not commute")
    return EtaResult(comps, rep)


# ---------------------------------------------------------------------------
# the right adjoint


@dataclass
class HpValue:
    """The presheaf of maps out of p into a fixed Z-object, with tables."""

    presheaf: Presheaf
    decode: Mapping[str, Mapping[str, Mor]]
    encode: Mapping[str, Mapping[str, str]]


def _hp_value(p: HandleFunctor, z: Obj) -> HpValue:
    """The table for one target, built once and kept on p until a suite
    run over p's corpus drops it on return."""
    C = p.dom
    Z = p.cod
    # obj_key names the table and the hom sets depend on content, so
    # targets that share only one of the two must not share a slot
    key = (Z.obj_key(z), presheaf_key(z) if isinstance(z, Presheaf) else None)
    tables = p._memo.setdefault("hp", {})
    if key in tables:
        return tables[key]
    values: dict[str, tuple[str, ...]] = {}
    decode: dict[str, dict[str, Mor]] = {}
    encode: dict[str, dict[str, str]] = {}
    for X in C.objects:
        homs = sorted(Z.hom(p.obj_map[X], z), key=Z.mor_key)
        labels = tuple(f"m{i}" for i in range(len(homs)))
        values[X] = labels
        decode[X] = dict(zip(labels, homs))
        encode[X] = {Z.mor_key(h): lab for lab, h in zip(labels, homs)}
    actions: dict[str, dict[str, str]] = {}
    for m in C.morphisms:
        act = {}
        for lab in values[m.tgt]:
            u = decode[m.tgt][lab]
            act[lab] = encode[m.src][Z.mor_key(Z.compose(u, p.on_mor(m.name)))]
        actions[m.name] = act
    name = f"h_{p.name}({Z.obj_key(z)})"
    tables[key] = HpValue(Presheaf(C, values, actions, name), decode, encode)
    return tables[key]


def right_adjoint_hp(p: HandleFunctor, z: Obj) -> Presheaf:
    """values(X) = maps p(X) -> z, restriction by precomposition."""
    return _hp_value(p, z).presheaf


def hp_on_mor(p: HandleFunctor, w: Mor) -> PresheafMorphism:
    """Functorial action of the right adjoint: postcomposition with w."""
    Z = p.cod
    src_v = _hp_value(p, Z.source(w))
    tgt_v = _hp_value(p, Z.target(w))
    comps = {
        X: {
            lab: tgt_v.encode[X][Z.mor_key(Z.compose(w, src_v.decode[X][lab]))]
            for lab in src_v.presheaf.values[X]
        }
        for X in p.dom.objects
    }
    return PresheafMorphism(src_v.presheaf, tgt_v.presheaf, comps)


# ---------------------------------------------------------------------------
# the adjunction


@dataclass
class PhiResult:
    """Executable adjunction bijection for one presheaf and one Z-object."""

    forward: Callable[[Mor], PresheafMorphism]
    backward: Callable[[PresheafMorphism], Mor]


def adjunction_phi(p: HandleFunctor, H: Presheaf, z: Obj) -> PhiResult:
    """maps(extension(H), z) in Z against Nat(H, maps-out-of-p into z).

    Forward composes with the colimit legs; backward rebuilds the cocone
    from the component labels and factors it through the colimit.
    """
    Z = p.cod
    value = tilde_extend(p, H)
    hp = _hp_value(p, z)

    def forward(w: Mor) -> PresheafMorphism:
        comps = {
            X: {
                e: hp.encode[X][
                    Z.mor_key(Z.compose(w, value.colimit.legs[element_node(e, X)]))
                ]
                for e in H.values[X]
            }
            for X in H.base.objects
        }
        return PresheafMorphism(H, hp.presheaf, comps)

    def backward(t: PresheafMorphism) -> Mor:
        legs = {
            n: hp.decode[X][t.components[X][e]]
            for n, (e, X) in value.obj_elem.items()
        }
        return value.colimit.factor(z, legs)

    return PhiResult(forward, backward)


# ---------------------------------------------------------------------------
# comparison maps for exactness


def extension_terminal_comparison(p: HandleFunctor) -> Mor:
    """The unique map extension(terminal presheaf) -> terminal of Z."""
    C = p.dom
    Z = p.cod
    one = PresheafCategory(C, 1).terminal()
    value = tilde_extend(p, one)
    empty = HandleDiagram(discrete_category("none", []), {}, {})
    return Z.limit(empty).factor(value.obj, {})


def extension_limit_comparison(p: HandleFunctor, diagram: HandleDiagram) -> Mor:
    """The canonical map extension(lim D) -> lim(extension of D)."""
    Z = p.cod
    pre = presheaf_limit(diagram, p.dom)
    nodes = {j: tilde_extend(p, P) for j, P in diagram.obs.items()}
    z_diagram = HandleDiagram(
        diagram.index,
        {j: nodes[j].obj for j in diagram.obs},
        {m: tilde_extend_mor(p, diagram.mors[m]) for m in diagram.mors},
    )
    post = Z.limit(z_diagram)
    apex = tilde_extend(p, pre.apex)
    legs = {j: tilde_extend_mor(p, pre.legs[j]) for j in diagram.obs}
    return post.factor(apex.obj, legs)


# ---------------------------------------------------------------------------
# flatness


def covariant_elements(p: HandleFunctor) -> tuple[FinCategory, Mapping[str, tuple[str, str]]]:
    """Elements of a set-valued functor: pairs (x, X), x in p(X); an arrow
    (x, X) -> (y, Y) is f: X -> Y with p(f)(x) = y, named f|x.

    p is a presheaf on the opposite base, and reversing the arrows of that
    presheaf's category of elements gives exactly these pairs and arrows.
    """
    C = p.dom
    point = {X: _finset_point(p.obj_map[X]) for X in C.objects}
    transpose = Presheaf(
        opposite(C),
        {X: p.obj_map[X].values[point[X]] for X in C.objects},
        {m.name: p.on_mor(m.name).components[point[m.src]] for m in C.morphisms},
        p.name,
    )
    els = category_of_elements(transpose)
    return opposite(els.gamma), els.obj_elem


def _finset_point(obj: Obj) -> str:
    """The sole object of the one-object base a finite set lives over."""
    if not isinstance(obj, Presheaf) or len(obj.base.objects) != 1:
        raise StructureError("set-valued flatness needs finite-set objects")
    return obj.base.objects[0]


def is_flat_setvalued(p: HandleFunctor) -> ValidationReport:
    """Cofilteredness of the element category decides flatness here."""
    gamma, _ = covariant_elements(p)
    return is_cofiltered(gamma)


def _refuse_edit(self, *args, **kwargs):
    raise TypeError("flatness verdicts are shared: edit a copy of the counterexample")


class _ReadOnlyList(list):
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse_edit
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse_edit

    def __reduce__(self):  # copies and unpickled values are plain lists
        return list, (list(self),)


class _ReadOnlyDict(dict):
    __setitem__ = __delitem__ = __ior__ = _refuse_edit
    clear = pop = popitem = setdefault = update = _refuse_edit

    def __reduce__(self):  # copies and unpickled values are plain dicts
        return dict, (dict(self),)


@dataclass(frozen=True)
class FlatVerdict:
    """Memoized and shared, so frozen, with the notes as a tuple and the
    counterexample a dict and lists that refuse edits; copies of the
    counterexample, by ``copy`` or pickle, are plain and editable."""

    verdict: str
    counterexample: Optional[dict]
    instances: int
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.counterexample is not None:
            frozen = _ReadOnlyDict(
                (k, _ReadOnlyList(v) if isinstance(v, list) else v)
                for k, v in self.counterexample.items()
            )
            object.__setattr__(self, "counterexample", frozen)


def _limit_probes(pool: list[Presheaf], max_probes: int):
    """The binary products, then the equalizers, that ``is_flat_bounded``
    probes, in order, at most ``max_probes`` of each shape: each as
    (diagram, shape, counterexample key, the two pool members).  The hom
    set of a pair is searched only when the first equalizer over it is
    reached.
    """
    pair = discrete_category("pair2", ["1", "2"])
    products = (
        (HandleDiagram(pair, {"1": P, "2": Q}, {}), "binary-product", "factors", P, Q)
        for i, P in enumerate(pool)
        for Q in pool[i:]
    )
    pp = parallel_pair_category()
    equalizers = (
        (HandleDiagram(pp, {"a": P, "b": Q}, {"u": t1, "v": t2}), "equalizer", "objects", P, Q)
        for P in pool
        for Q in pool
        for ts in (enumerate_presheaf_morphisms(P, Q),)
        for t1 in ts
        for t2 in ts
    )
    return itertools.chain(
        itertools.islice(products, max_probes), itertools.islice(equalizers, max_probes)
    )


def is_flat_bounded(
    p: HandleFunctor,
    *,
    max_probes: int = 12,
    max_pool: int = 20,
) -> FlatVerdict:
    """Exactness of the extension, probed up to an explicit budget.

    Instances are the terminal presheaf, then up to ``max_probes`` binary
    products and up to ``max_probes`` equalizers, drawn from the
    representables followed by the bounded enumeration.
    These shapes generate all finite limits.  A non-iso comparison map is
    a definitive counterexample; exhausting the budget is only ever
    "verified-up-to-budget".  When the enumeration has more than
    ``max_pool`` members, the pool is the representables alone and a note
    says so.  The verdict is memoized on p per ``(max_probes, max_pool)``.
    """
    memo = p._memo.setdefault("flat", {})
    key = (max_probes, max_pool)
    if key not in memo:
        memo[key] = _flat_verdict(p, max_probes, max_pool)
    return memo[key]


def _flat_verdict(p: HandleFunctor, max_probes: int, max_pool: int) -> FlatVerdict:
    """The probing behind ``is_flat_bounded``, uncached."""
    C = p.dom
    Z = p.cod
    notes: tuple[str, ...] = ()
    instances = 1
    if not Z.is_iso(extension_terminal_comparison(p)):
        return FlatVerdict(
            "counterexample",
            {"shape": "terminal", "detail": "extension of the terminal presheaf is not terminal"},
            instances,
            notes,
        )

    pool: list[Presheaf] = [yoneda_embed(C, X) for X in sorted(C.objects)]
    try:
        census = enumerate_presheaves(C, FLAT_VALUE_BOUND, max_count=max_pool)
    except ResourceBudgetError:
        notes = (
            f"presheaf census at value bound {FLAT_VALUE_BOUND} has more than {max_pool} "
            f"members; the pool holds only the {len(pool)} representables",
        )
    else:
        for F in census:
            pool.append(F)
            if len(pool) >= max_pool:
                break

    for D, shape, key, P, Q in _limit_probes(pool, max_probes):
        instances += 1
        if not Z.is_iso(extension_limit_comparison(p, D)):
            return FlatVerdict(
                "counterexample", {"shape": shape, key: [short_key(P), short_key(Q)]},
                instances, notes,
            )
    return FlatVerdict("verified-up-to-budget", None, instances, notes)


# ---------------------------------------------------------------------------
# the geometric morphism


@dataclass
class GeometricMorphismData:
    """Inverse image, direct image, and the flatness verdict behind them.

    ``inverse_image`` evaluates the extension on a presheaf (for a sheaf
    this is the restriction along sheafification, since extension and
    sheafified extension agree for continuous flat p); ``direct_image``
    lands in sheaves, verified per call.  The adjunction between them is
    ``adjunction_phi`` on p.
    """

    inverse_image: Callable[[Presheaf], ExtensionValue]
    direct_image: Callable[[Obj], Presheaf]
    flatness: FlatVerdict


def build_ell(p: HandleFunctor, site: Site, **flat_budget) -> GeometricMorphismData:
    """Assemble the geometric morphism induced by a continuous flat p.

    Refused, with the witness attached, when continuity fails or when
    exactness probing finds a counterexample; a verified-up-to-budget
    flatness verdict is recorded rather than upgraded to a claim.
    """
    if p.dom != site.base:
        raise StructureError("build_ell: functor domain must be the site base")
    cont = is_continuous(p, site)
    if not cont.ok:
        raise ConstructionRefused(
            "functor does not send covers to strict epimorphic families",
            witness=cont.failures[0],
        )
    flat = is_flat_bounded(p, **flat_budget)
    if flat.verdict == "counterexample":
        raise ConstructionRefused(
            "extension fails finite-limit preservation", witness=flat.counterexample
        )

    def inverse_image(F: Presheaf) -> ExtensionValue:
        return tilde_extend(p, F)

    def direct_image(z: Obj) -> Presheaf:
        hp = right_adjoint_hp(p, z)
        rep = is_sheaf(hp, site)
        if not rep.ok:
            raise ConsistencyError(
                "direct image of a continuous functor failed the sheaf check"
            )
        return hp

    return GeometricMorphismData(inverse_image, direct_image, flat)
