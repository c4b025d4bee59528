"""Line-oriented workspace files: the hand-editable input format.

A workspace declares named categories, presheaves, sites, codomain
handles, functors into those handles, and a config block.  The grammar
is deliberately flat: one fact per line, whitespace-separated tokens,
full-line comments with ``#``.  Blocks start with a keyword line and own
everything until the next block:

    category arrow
      objects s t
      morphisms
        s.t : s -> t
      compose
        # g f = gf lines; omitted entries are inferred when only one
        # candidate morphism has the right endpoints

    presheaf P on arrow
      values
        s = x0 x1
        t = y0
      actions
        # f : e -> e' restricts the section e over the target of f
        # to e' over its source
        s.t : y0 -> x0

    site S on arrow
      covers
        t <- s.t          # one cover per line; 'X <-' is the empty cover

    handle fin = presheaves on one bound 3
    handle shv = sheaves on S bound 2

    functor p from arrow into fin
      objects
        s = a0 a1         # inline finite set (single-object handle base)
        t = presheaf Q    # or a reference to a declared presheaf
      maps
        s.t @ * : a0 -> q0

    config
      seed = 0

A name is declared once across all kinds: a site may not share its name
with a category, nor a functor with a handle.  A block may refer to one
declared later in the file, since the declarations are resolved kind by
kind (categories, presheaves, sites, handles, functors), each kind in
file order.

Parsing collects every located error (line, entity, reason) before
raising the first one; the full list rides on the exception's ``errors``
attribute.  Printing a parsed workspace and re-parsing it yields an
equal workspace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import StructureError, ToposkitError, WorkspaceParseError
from .fincat import FinCategory, HandleFunctor, make_category, validate_category, validate_handle_functor
from .presheaf import (
    Presheaf,
    PresheafCategory,
    PresheafMorphism,
    make_presheaf,
    validate_presheaf,
)
from .site import SheafCategory, Site, generate_topology, validate_site

_NAME = re.compile(r"^[A-Za-z0-9_.*|'+()-]+$")
_MAX_HANDLE_BOUND = 3
SCHEMA = "toposkit-report/1"


@dataclass(frozen=True)
class HandleDecl:
    kind: str  # "presheaves" or "sheaves"
    ref: str  # category name or site name
    bound: int


@dataclass(frozen=True)
class FunctorDecl:
    """A functor plus how its object values were written down."""

    name: str
    base: str
    handle: str
    objects: Mapping[str, tuple]  # X -> ("inline", labels) | ("ref", presheaf name)
    maps: Mapping[str, Mapping[str, Mapping[str, str]]]  # m -> X -> e -> e'


@dataclass
class Workspace:
    categories: dict[str, FinCategory] = field(default_factory=dict)
    presheaves: dict[str, Presheaf] = field(default_factory=dict)
    sites: dict[str, Site] = field(default_factory=dict)
    handle_decls: dict[str, HandleDecl] = field(default_factory=dict)
    functor_decls: dict[str, FunctorDecl] = field(default_factory=dict)
    config: dict[str, str] = field(default_factory=dict)
    _materialized: dict = field(default_factory=dict, repr=False)

    def handle(self, name: str):
        """The live codomain category for a handle declaration."""
        if name not in self.handle_decls:
            raise StructureError(f"unknown handle {name!r}")
        if name not in self._materialized:
            decl = self.handle_decls[name]
            if decl.kind == "presheaves":
                self._materialized[name] = PresheafCategory(self.categories[decl.ref], decl.bound)
            else:
                self._materialized[name] = SheafCategory(self.sites[decl.ref], decl.bound)
        return self._materialized[name]

    def functor(self, name: str) -> HandleFunctor:
        if name not in self.functor_decls:
            raise StructureError(f"unknown functor {name!r}")
        key = ("functor", name)
        if key not in self._materialized:
            self._materialized[key] = _materialize_functor(self, self.functor_decls[name])
        return self._materialized[key]

    def canonical(self) -> dict:
        """Name-stable content rendering; the round-trip equality witness."""
        cats = {}
        for n, C in self.categories.items():
            non_ids = sorted(C.non_identities())
            cats[n] = {
                "objects": sorted(C.objects),
                "morphisms": sorted((m, C.src(m), C.tgt(m)) for m in non_ids),
                "compose": sorted(
                    (g, f, C.compose(g, f))
                    for g in non_ids
                    for f in non_ids
                    if C.src(g) == C.tgt(f)
                ),
            }
        phs = {
            n: {
                "base": F.base.name,
                "values": {x: list(F.values[x]) for x in sorted(F.values)},
                "actions": {
                    m: dict(sorted(F.actions[m].items()))
                    for m in sorted(F.base.non_identities())
                },
            }
            for n, F in self.presheaves.items()
        }
        sts = {
            n: {
                "base": s.base.name,
                "covers": {x: [list(c) for c in s.covers[x]] for x in sorted(s.covers)},
            }
            for n, s in self.sites.items()
        }
        return {
            "categories": cats,
            "presheaves": phs,
            "sites": sts,
            "handles": {
                n: [d.kind, d.ref, d.bound] for n, d in self.handle_decls.items()
            },
            "functors": {
                n: {
                    "base": d.base,
                    "handle": d.handle,
                    "objects": {x: list(spec) for x, spec in sorted(d.objects.items())},
                    "maps": {
                        m: {x: dict(sorted(c.items())) for x, c in sorted(comp.items())}
                        for m, comp in sorted(d.maps.items())
                    },
                }
                for n, d in self.functor_decls.items()
            },
            "config": dict(sorted(self.config.items())),
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Workspace) and self.canonical() == other.canonical()


def _handle_base(ws: Workspace, handle: str) -> FinCategory:
    """The category a declared handle's presheaves live on."""
    hdecl = ws.handle_decls[handle]
    if hdecl.kind == "presheaves":
        return ws.categories[hdecl.ref]
    return ws.sites[hdecl.ref].base


def _materialize_functor(ws: Workspace, decl: FunctorDecl) -> HandleFunctor:
    C = ws.categories[decl.base]
    Z = ws.handle(decl.handle)
    hbase = _handle_base(ws, decl.handle)
    obj_map = {}
    for X, spec in decl.objects.items():
        if spec[0] == "inline":
            # inline sets live over the handle's own base, not the
            # library's built-in point, or nothing downstream composes
            sole = next(iter(hbase.objects))
            obj_map[X] = make_presheaf(
                hbase, {sole: tuple(spec[1])}, name=f"{decl.name}({X})"
            )
            rep = validate_presheaf(obj_map[X])
            if not rep.ok:
                raise StructureError(f"object {X}: {rep.violations[0].detail}")
        else:
            obj_map[X] = ws.presheaves[spec[1]]
    mor_map = {}
    for m, comps in decl.maps.items():
        dom = obj_map[C.src(m)]
        cod = obj_map[C.tgt(m)]
        components = {
            x: dict(comps.get(x, {})) for x in dom.values
        }
        mor_map[m] = PresheafMorphism(dom, cod, components)
    return HandleFunctor(decl.name, C, Z, obj_map, mor_map)


# ---------------------------------------------------------------------------
# parsing


def _fits(tokens: list[str], shape: str) -> bool:
    """Whether a line's tokens have ``shape``: ``_`` stands for any one
    token, ``a|b`` for either word, any other word for itself, and a final
    ``...`` for any number of further tokens."""
    words = shape.split()
    if words[-1] == "...":
        words.pop()
        tokens = tokens[: len(words)]
    return len(tokens) == len(words) and all(
        w == "_" or t in w.split("|") for w, t in zip(words, tokens)
    )


# block keyword -> (header shape, the error when a header has another shape,
# section names); the header's tokens 3, 5, ... are the names it refers to
_HEADERS = {
    "category": ("category _", "expected: category <name>", ("morphisms", "compose")),
    "presheaf": (
        "presheaf _ on _", "expected: presheaf <name> on <category>", ("values", "actions")
    ),
    "site": ("site _ on _", "expected: site <name> on <category>", ("covers",)),
    "functor": (
        "functor _ from _ into _",
        "expected: functor <name> from <category> into <handle>",
        ("objects", "maps"),
    ),
}
_BLOCK_KEYWORDS = {*_HEADERS, "handle", "config"}


class _Parser:
    def __init__(self, text: str) -> None:
        self.errors: list[WorkspaceParseError] = []
        self.lines = text.splitlines()
        # every declared name, of any kind, to its raw declaration; resolved
        # after the whole file is read
        self.decls: dict[str, dict] = {}
        self.config: dict[str, str] = {}
        self.config_line: Optional[int] = None

    def err(self, line_no: int, entity: str, reason: str) -> None:
        self.errors.append(WorkspaceParseError(line_no, entity, reason))

    # -- pass 1: lines into declarations ------------------------------------

    def scan(self) -> None:
        block: Optional[tuple] = None  # (name, decl dict), decl None in config
        section: Optional[str] = None
        for i, raw in enumerate(self.lines, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            head = tokens[0]
            if head in _BLOCK_KEYWORDS:
                block = self._open_block(i, head, tokens)
                section = None
                continue
            if block is None:
                self.err(i, "workspace", f"content before any block: {stripped!r}")
                continue
            name, decl = block
            if decl is None:
                self._config_line(i, tokens)
            elif len(tokens) == 1 and head in decl["sections"]:
                section = head
            elif decl["kind"] == "category" and head == "objects":
                self._names(i, name, tokens[1:], decl["objects"])
            elif section is None:
                self.err(i, name, f"line outside any section: {stripped!r}")
            else:
                decl["sections"][section].append((i, tokens))

    def _open_block(self, i: int, head: str, tokens: list[str]) -> Optional[tuple]:
        if head == "config":
            if self.config_line is not None:
                self.err(i, "config", "duplicate config block")
            self.config_line = i
            return ("config", None)
        if len(tokens) < 2 or not _NAME.match(tokens[1]):
            self.err(i, head, "block needs a name")
            return None
        if head == "handle":
            self._handle_line(i, tokens)
            return None
        name = tokens[1]
        shape, expected, sections = _HEADERS[head]
        if not _fits(tokens, shape):
            self.err(i, name, expected)
            return None
        if not self._claim(i, name):
            return None
        decl = {
            "kind": head,
            "line": i,
            "refs": tokens[3::2],
            "objects": [],
            "sections": {s: [] for s in sections},
        }
        self.decls[name] = decl
        return (name, decl)

    def _claim(self, i: int, name: str) -> bool:
        if name in self.decls:
            self.err(i, name, "duplicate name")
            return False
        return True

    def _names(self, i: int, entity: str, tokens: list[str], out: list[str]) -> None:
        for t in tokens:
            if not _NAME.match(t):
                self.err(i, entity, f"bad name {t!r}")
            elif t in out:
                self.err(i, entity, f"duplicate object {t!r}")
            else:
                out.append(t)

    def _handle_line(self, i: int, tokens: list[str]) -> None:
        name = tokens[1]
        if not _fits(tokens, "handle _ = presheaves|sheaves on _ bound _"):
            self.err(i, name, "expected: handle <name> = presheaves|sheaves on <ref> bound <n>")
            return
        if not self._claim(i, name):
            return
        try:
            bound = int(tokens[7])
        except ValueError:
            self.err(i, name, f"bound is not an integer: {tokens[7]!r}")
            return
        if not 1 <= bound <= _MAX_HANDLE_BOUND:
            self.err(i, name, f"bound {bound} outside 1..{_MAX_HANDLE_BOUND}")
            return
        # a handle claims its name only once its bound is known to be good
        handle = HandleDecl(tokens[3], tokens[5], bound)
        self.decls[name] = {"kind": "handle", "line": i, "handle": handle}

    def _config_line(self, i: int, tokens: list[str]) -> None:
        if not _fits(tokens, "_ = _ ..."):
            self.err(i, "config", "expected: <key> = <value...>")
            return
        self.config[tokens[0]] = " ".join(tokens[2:])

    # -- pass 2: declarations into live objects -----------------------------

    def build(self) -> Workspace:
        """Resolve kind by kind, each in declaration order, so a block may
        refer to any declaration of an earlier kind, wherever it stands."""
        ws = Workspace(config=dict(self.config))
        steps = (
            ("category", self._build_category, ws.categories),
            ("presheaf", self._build_presheaf, ws.presheaves),
            ("site", self._build_site, ws.sites),
            ("handle", self._build_handle, ws.handle_decls),
            ("functor", self._build_functor, ws.functor_decls),
        )
        for kind, build, out in steps:
            for name, decl in self.decls.items():
                if decl["kind"] == kind:
                    built = build(name, decl, ws)
                    if built is not None:
                        out[name] = built
        return ws

    def _checked(self, name: str, decl: dict, make, validate):
        """``make()``, unless it raises or ``validate`` finds a violation:
        then None, with the first problem reported at the block's line."""
        try:
            built = make()
            problem = next((v.detail for v in validate(built).violations), None)
        except ToposkitError as e:
            problem = str(e)
        if problem is not None:
            self.err(decl["line"], name, problem)
            return None
        return built

    def _base(self, name: str, decl: dict, ws: Workspace) -> Optional[FinCategory]:
        """The category a block's header names first, if it is declared."""
        C = ws.categories.get(decl["refs"][0])
        if C is None:
            self.err(decl["line"], name, f"unknown category {decl['refs'][0]!r}")
        return C

    def _build_category(self, name: str, decl: dict, ws: Workspace) -> Optional[FinCategory]:
        objects = decl["objects"]
        if not objects:
            self.err(decl["line"], name, "category has no objects")
            return None
        morphisms = []
        seen_m = set()
        for i, tokens in decl["sections"]["morphisms"]:
            if not _fits(tokens, "_ : _ -> _"):
                self.err(i, name, "expected: <morphism> : <src> -> <tgt>")
                continue
            m, _, src, _, tgt = tokens
            if m in seen_m:
                self.err(i, name, f"duplicate morphism {m!r}")
                continue
            if src not in objects or tgt not in objects:
                self.err(i, name, f"morphism {m!r} references an unknown object")
                continue
            seen_m.add(m)
            morphisms.append((m, src, tgt))
        compose = {}
        for i, tokens in decl["sections"]["compose"]:
            if not _fits(tokens, "_ _ = _"):
                self.err(i, name, "expected: <g> <f> = <composite>")
                continue
            g, f, _, gf = tokens
            if g not in seen_m or f not in seen_m:
                self.err(i, name, f"compose line references an unknown morphism")
                continue
            compose[(g, f)] = gf
        srcs = {m: s for m, s, _ in morphisms}
        tgts = {m: t for m, _, t in morphisms}
        for g in sorted(srcs):
            for f in sorted(srcs):
                if srcs[g] != tgts[f] or (g, f) in compose:
                    continue
                a, b = srcs[f], tgts[g]
                cands = [m for m in sorted(srcs) if srcs[m] == a and tgts[m] == b]
                if a == b:
                    cands.append(f"id_{a}")
                if len(cands) == 1:
                    compose[(g, f)] = cands[0]
                else:
                    self.err(
                        decl["line"],
                        name,
                        f"compose entry for ({g}, {f}) is required: "
                        f"{len(cands)} candidate morphisms {a} -> {b}",
                    )
        return self._checked(
            name, decl, lambda: make_category(name, objects, morphisms, compose), validate_category
        )

    def _build_presheaf(self, name: str, decl: dict, ws: Workspace) -> Optional[Presheaf]:
        C = self._base(name, decl, ws)
        if C is None:
            return None
        values: dict[str, list[str]] = {}
        for i, tokens in decl["sections"]["values"]:
            if not _fits(tokens, "_ = ..."):
                self.err(i, name, "expected: <object> = <elements...>")
                continue
            X = tokens[0]
            if X not in C.objects:
                self.err(i, name, f"unknown object {X!r}")
                continue
            if X in values:
                self.err(i, name, f"duplicate values line for {X!r}")
                continue
            values[X] = tokens[2:]
        for X in C.objects:
            values.setdefault(X, [])
        actions: dict[str, dict[str, str]] = {}
        for i, tokens in decl["sections"]["actions"]:
            if not _fits(tokens, "_ : _ -> _"):
                self.err(i, name, "expected: <morphism> : <element> -> <element>")
                continue
            m, _, e, _, e2 = tokens
            if m not in C.non_identities():
                self.err(i, name, f"unknown or identity morphism {m!r}")
                continue
            if e not in values[C.tgt(m)]:
                self.err(i, name, f"{e!r} is not a section over the target of {m!r}")
                continue
            if e2 not in values[C.src(m)]:
                self.err(i, name, f"{e2!r} is not a section over the source of {m!r}")
                continue
            if e in actions.setdefault(m, {}):
                self.err(i, name, f"duplicate action for {m!r} at {e!r}")
                continue
            actions[m][e] = e2
        for m in C.non_identities():
            missing = [e for e in values[C.tgt(m)] if e not in actions.get(m, {})]
            if missing:
                self.err(decl["line"], name, f"action of {m!r} misses {missing[0]!r}")
                return None
        return self._checked(
            name, decl,
            lambda: make_presheaf(C, {x: tuple(v) for x, v in values.items()}, actions, name=name),
            validate_presheaf,
        )

    def _build_site(self, name: str, decl: dict, ws: Workspace) -> Optional[Site]:
        C = self._base(name, decl, ws)
        if C is None:
            return None
        covers: dict[str, list[list[str]]] = {}
        errors_before = len(self.errors)
        for i, tokens in decl["sections"]["covers"]:
            if not _fits(tokens, "_ <- ..."):
                self.err(i, name, "expected: <object> <- <morphisms...>")
                continue
            X = tokens[0]
            if X not in C.objects:
                self.err(i, name, f"unknown object {X!r}")
                continue
            fam = tokens[2:]
            for m in fam:
                if not C.has_mor(m):
                    self.err(i, name, f"unknown morphism {m!r} in a cover of {X!r}")
                elif C.tgt(m) != X:
                    self.err(i, name, f"cover member {m!r} does not land in {X!r}")
            covers.setdefault(X, []).append(fam)
        if len(self.errors) > errors_before:
            return None
        return self._checked(
            name, decl, lambda: generate_topology(C, covers, name=name), validate_site
        )

    def _build_handle(self, name: str, decl: dict, ws: Workspace) -> Optional[HandleDecl]:
        h = decl["handle"]
        if h.kind == "presheaves" and h.ref not in ws.categories:
            self.err(decl["line"], name, f"unknown category {h.ref!r}")
        elif h.kind == "sheaves" and h.ref not in ws.sites:
            self.err(decl["line"], name, f"unknown site {h.ref!r}")
        else:
            return h
        return None

    def _build_functor(self, name: str, decl: dict, ws: Workspace) -> Optional[FunctorDecl]:
        C = self._base(name, decl, ws)
        if C is None:
            return None
        handle = decl["refs"][1]
        if handle not in ws.handle_decls:
            self.err(decl["line"], name, f"unknown handle {handle!r}")
            return None
        hbase = _handle_base(ws, handle)
        objects: dict[str, tuple] = {}
        for i, tokens in decl["sections"]["objects"]:
            if not _fits(tokens, "_ = ..."):
                self.err(i, name, "expected: <object> = <elements...> or = presheaf <name>")
                continue
            X = tokens[0]
            if X not in C.objects:
                self.err(i, name, f"unknown object {X!r}")
                continue
            if X in objects:
                self.err(i, name, f"duplicate object line for {X!r}")
                continue
            if _fits(tokens, "_ = presheaf ..."):
                if not _fits(tokens, "_ = presheaf _"):
                    self.err(i, name, "expected: <object> = presheaf <name>")
                    continue
                ref = tokens[3]
                if ref not in ws.presheaves:
                    self.err(i, name, f"unknown presheaf {ref!r}")
                    continue
                if ws.presheaves[ref].base.name != hbase.name:
                    self.err(i, name, f"presheaf {ref!r} lives on the wrong base")
                    continue
                objects[X] = ("ref", ref)
            else:
                if len(hbase.objects) != 1 or hbase.non_identities():
                    self.err(
                        i, name,
                        "inline finite-set values need a one-point handle base",
                    )
                    continue
                objects[X] = ("inline", tuple(tokens[2:]))
        missing = [X for X in C.objects if X not in objects]
        if missing:
            self.err(decl["line"], name, f"no value declared for object {missing[0]!r}")
            return None

        def elements(spec: tuple) -> dict[str, tuple]:
            if spec[0] == "inline":
                return {next(iter(hbase.objects)): spec[1]}
            return dict(ws.presheaves[spec[1]].values)

        maps: dict[str, dict[str, dict[str, str]]] = {}
        hb_objs = set(hbase.objects)
        sole = next(iter(hb_objs)) if len(hb_objs) == 1 else None
        errors_before = len(self.errors)
        for i, tokens in decl["sections"]["maps"]:
            # the base object may be left out when the handle's base has one
            if _fits(tokens, "_ @ _ : _ -> _"):
                m, _, X, _, e, _, e2 = tokens
            elif _fits(tokens, "_ : _ -> _") and sole:
                (m, _, e, _, e2), X = tokens, sole
            else:
                self.err(i, name, "expected: <morphism> [@ <base object>] : <elem> -> <elem>")
                continue
            if m not in C.non_identities():
                self.err(i, name, f"unknown morphism {m!r}")
                continue
            if X not in hb_objs:
                self.err(i, name, f"unknown handle-base object {X!r}")
                continue
            dom_elems = elements(objects[C.src(m)]).get(X, ())
            cod_elems = elements(objects[C.tgt(m)]).get(X, ())
            if e not in dom_elems:
                self.err(i, name, f"{e!r} is not an element of the source of {m!r} at {X}")
                continue
            if e2 not in cod_elems:
                self.err(i, name, f"{e2!r} is not an element of the target of {m!r} at {X}")
                continue
            comp = maps.setdefault(m, {}).setdefault(X, {})
            if e in comp:
                self.err(i, name, f"duplicate map entry for {m!r} at {e!r}")
                continue
            comp[e] = e2
        for m in C.non_identities():
            maps.setdefault(m, {})
            dom_all = elements(objects[C.src(m)])
            for X, elems in dom_all.items():
                got = maps[m].get(X, {})
                left = [e for e in elems if e not in got]
                if left:
                    self.err(
                        decl["line"], name,
                        f"map of {m!r} misses {left[0]!r} at {X}",
                    )
        if len(self.errors) > errors_before:
            return None
        d = FunctorDecl(name, decl["refs"][0], handle, objects, maps)
        p = self._checked(name, decl, lambda: _materialize_functor(ws, d), validate_handle_functor)
        return None if p is None else d


def parse_workspace_text(text: str) -> Workspace:
    parser = _Parser(text)
    parser.scan()
    ws = parser.build()
    if parser.errors:
        first = parser.errors[0]
        first.errors = parser.errors
        raise first
    return ws


def parse_workspace(path: str) -> Workspace:
    """Parse and fully validate one workspace file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace_text(fh.read())


# ---------------------------------------------------------------------------
# printing


def print_workspace(ws: Workspace) -> str:
    """Emit text that parses back to an equal workspace."""
    out: list[str] = []
    for name in sorted(ws.categories):
        C = ws.categories[name]
        out.append(f"category {name}")
        out.append(f"  objects {' '.join(sorted(C.objects))}")
        non_ids = sorted(C.non_identities())
        if non_ids:
            out.append("  morphisms")
            for m in non_ids:
                out.append(f"    {m} : {C.src(m)} -> {C.tgt(m)}")
            lines = []
            for g in non_ids:
                for f in non_ids:
                    if C.src(g) == C.tgt(f):
                        lines.append(f"    {g} {f} = {C.compose(g, f)}")
            if lines:
                out.append("  compose")
                out.extend(lines)
        out.append("")
    for name in sorted(ws.presheaves):
        F = ws.presheaves[name]
        out.append(f"presheaf {name} on {F.base.name}")
        out.append("  values")
        for X in sorted(F.values):
            out.append(f"    {X} = {' '.join(F.values[X])}".rstrip())
        acts = [
            f"    {m} : {e} -> {F.actions[m][e]}"
            for m in sorted(F.base.non_identities())
            for e in F.values[F.base.tgt(m)]
        ]
        if acts:
            out.append("  actions")
            out.extend(acts)
        out.append("")
    for name in sorted(ws.sites):
        s = ws.sites[name]
        out.append(f"site {name} on {s.base.name}")
        if s.covers:
            out.append("  covers")
            for X in sorted(s.covers):
                for fam in s.covers[X]:
                    out.append(f"    {X} <- {' '.join(fam)}".rstrip())
        out.append("")
    for name in sorted(ws.handle_decls):
        d = ws.handle_decls[name]
        out.append(f"handle {name} = {d.kind} on {d.ref} bound {d.bound}")
    if ws.handle_decls:
        out.append("")
    for name in sorted(ws.functor_decls):
        d = ws.functor_decls[name]
        out.append(f"functor {name} from {d.base} into {d.handle}")
        out.append("  objects")
        for X in sorted(d.objects):
            spec = d.objects[X]
            if spec[0] == "inline":
                out.append(f"    {X} = {' '.join(spec[1])}".rstrip())
            else:
                out.append(f"    {X} = presheaf {spec[1]}")
        entries = [
            f"    {m} @ {X} : {e} -> {e2}"
            for m in sorted(d.maps)
            for X in sorted(d.maps[m])
            for e, e2 in sorted(d.maps[m][X].items())
        ]
        if entries:
            out.append("  maps")
            out.extend(entries)
        out.append("")
    if ws.config:
        out.append("config")
        for k in sorted(ws.config):
            out.append(f"  {k} = {ws.config[k]}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"
