"""The workspace parser as it was before its rules were each stated once.

Kept verbatim as the oracle of ``test_workspace_differential.py``: on any
text, ``parse_workspace_text`` here and in ``toposkit.workspace`` must give
the same workspace, the same located errors, or the same exception.
"""

from __future__ import annotations

from typing import Optional

from toposkit.errors import ToposkitError, WorkspaceParseError
from toposkit.fincat import FinCategory, make_category, validate_category, validate_handle_functor
from toposkit.presheaf import Presheaf, make_presheaf, validate_presheaf
from toposkit.site import Site, generate_topology, validate_site
from toposkit.workspace import (
    _NAME,
    _MAX_HANDLE_BOUND,
    FunctorDecl,
    HandleDecl,
    Workspace,
    _handle_base,
    _materialize_functor,
)

_BLOCK_KEYWORDS = {"category", "presheaf", "site", "handle", "functor", "config"}


class _Parser:
    def __init__(self, text: str) -> None:
        self.errors: list[WorkspaceParseError] = []
        self.lines = text.splitlines()
        # raw declarations, resolved after the whole file is read
        self.cat_decls: dict[str, dict] = {}
        self.psh_decls: dict[str, dict] = {}
        self.site_decls: dict[str, dict] = {}
        self.handle_decls: dict[str, tuple[int, HandleDecl]] = {}
        self.fun_decls: dict[str, dict] = {}
        self.config: dict[str, str] = {}
        self.config_line: Optional[int] = None

    def err(self, line_no: int, entity: str, reason: str) -> None:
        self.errors.append(WorkspaceParseError(line_no, entity, reason))

    # -- pass 1: lines into declarations ------------------------------------

    def scan(self) -> None:
        block: Optional[tuple] = None  # (kind, name, decl dict)
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
            kind, name, decl = block
            if kind == "config":
                self._config_line(i, tokens)
                continue
            if len(tokens) == 1 and tokens[0] in decl["sections"]:
                section = tokens[0]
                continue
            if kind == "category" and head == "objects":
                self._names(i, name, tokens[1:], decl["objects"])
                continue
            if section is None:
                self.err(i, name, f"line outside any section: {stripped!r}")
                continue
            decl["sections"][section].append((i, tokens))

    def _open_block(self, i: int, head: str, tokens: list[str]) -> Optional[tuple]:
        if head == "config":
            if self.config_line is not None:
                self.err(i, "config", "duplicate config block")
            self.config_line = i
            return ("config", "config", {})
        if head == "handle":
            self._handle_line(i, tokens)
            return None
        if len(tokens) < 2 or not _NAME.match(tokens[1]):
            self.err(i, head, "block needs a name")
            return None
        name = tokens[1]
        if head == "category":
            if not self._claim(i, name):
                return None
            decl = {"line": i, "objects": [], "sections": {"morphisms": [], "compose": []}}
            self.cat_decls[name] = decl
            return ("category", name, decl)
        if head == "presheaf":
            if tokens[2:3] != ["on"] or len(tokens) != 4:
                self.err(i, name, "expected: presheaf <name> on <category>")
                return None
            if not self._claim(i, name):
                return None
            decl = {"line": i, "base": tokens[3], "sections": {"values": [], "actions": []}}
            self.psh_decls[name] = decl
            return ("presheaf", name, decl)
        if head == "site":
            if tokens[2:3] != ["on"] or len(tokens) != 4:
                self.err(i, name, "expected: site <name> on <category>")
                return None
            if not self._claim(i, name):
                return None
            decl = {"line": i, "base": tokens[3], "sections": {"covers": []}}
            self.site_decls[name] = decl
            return ("site", name, decl)
        if head == "functor":
            if len(tokens) != 6 or tokens[2] != "from" or tokens[4] != "into":
                self.err(i, name, "expected: functor <name> from <category> into <handle>")
                return None
            if not self._claim(i, name):
                return None
            decl = {
                "line": i,
                "base": tokens[3],
                "handle": tokens[5],
                "sections": {"objects": [], "maps": []},
            }
            self.fun_decls[name] = decl
            return ("functor", name, decl)
        self.err(i, head, "unknown block keyword")
        return None

    def _claim(self, i: int, name: str) -> bool:
        taken = (
            name in self.cat_decls
            or name in self.psh_decls
            or name in self.site_decls
            or name in self.handle_decls
            or name in self.fun_decls
        )
        if taken:
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
        # handle NAME = presheaves|sheaves on REF bound N
        if (
            len(tokens) != 8
            or tokens[2] != "="
            or tokens[3] not in ("presheaves", "sheaves")
            or tokens[4] != "on"
            or tokens[6] != "bound"
        ):
            self.err(i, tokens[1] if len(tokens) > 1 else "handle",
                     "expected: handle <name> = presheaves|sheaves on <ref> bound <n>")
            return
        name = tokens[1]
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
        self.handle_decls[name] = (i, HandleDecl(tokens[3], tokens[5], bound))

    def _config_line(self, i: int, tokens: list[str]) -> None:
        if len(tokens) < 3 or tokens[1] != "=":
            self.err(i, "config", "expected: <key> = <value...>")
            return
        self.config[tokens[0]] = " ".join(tokens[2:])

    # -- pass 2: declarations into live objects -----------------------------

    def build(self) -> Workspace:
        ws = Workspace(config=dict(self.config))
        for name in self.cat_decls:
            C = self._build_category(name)
            if C is not None:
                ws.categories[name] = C
        for name, decl in self.psh_decls.items():
            F = self._build_presheaf(name, decl, ws)
            if F is not None:
                ws.presheaves[name] = F
        for name, decl in self.site_decls.items():
            s = self._build_site(name, decl, ws)
            if s is not None:
                ws.sites[name] = s
        for name, (i, decl) in self.handle_decls.items():
            if decl.kind == "presheaves" and decl.ref not in ws.categories:
                self.err(i, name, f"unknown category {decl.ref!r}")
            elif decl.kind == "sheaves" and decl.ref not in ws.sites:
                self.err(i, name, f"unknown site {decl.ref!r}")
            else:
                ws.handle_decls[name] = decl
        for name, decl in self.fun_decls.items():
            d = self._build_functor(name, decl, ws)
            if d is not None:
                ws.functor_decls[name] = d
        return ws

    def _build_category(self, name: str) -> Optional[FinCategory]:
        decl = self.cat_decls[name]
        objects = decl["objects"]
        if not objects:
            self.err(decl["line"], name, "category has no objects")
            return None
        morphisms = []
        seen_m = set()
        for i, tokens in decl["sections"]["morphisms"]:
            # m : a -> b
            if len(tokens) != 5 or tokens[1] != ":" or tokens[3] != "->":
                self.err(i, name, "expected: <morphism> : <src> -> <tgt>")
                continue
            m, src, tgt = tokens[0], tokens[2], tokens[4]
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
            # g f = gf
            if len(tokens) != 4 or tokens[2] != "=":
                self.err(i, name, "expected: <g> <f> = <composite>")
                continue
            g, f, gf = tokens[0], tokens[1], tokens[3]
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
        try:
            C = make_category(name, objects, morphisms, compose)
        except ToposkitError as e:
            self.err(decl["line"], name, str(e))
            return None
        rep = validate_category(C)
        if not rep.ok:
            self.err(decl["line"], name, rep.violations[0].detail)
            return None
        return C

    def _build_presheaf(self, name: str, decl: dict, ws: Workspace) -> Optional[Presheaf]:
        base = decl["base"]
        if base not in ws.categories:
            self.err(decl["line"], name, f"unknown category {base!r}")
            return None
        C = ws.categories[base]
        values: dict[str, list[str]] = {}
        for i, tokens in decl["sections"]["values"]:
            # X = e0 e1 ...   (possibly empty)
            if len(tokens) < 2 or tokens[1] != "=":
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
            # m : e -> e'
            if len(tokens) != 5 or tokens[1] != ":" or tokens[3] != "->":
                self.err(i, name, "expected: <morphism> : <element> -> <element>")
                continue
            m, e, e2 = tokens[0], tokens[2], tokens[4]
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
        try:
            F = make_presheaf(C, {x: tuple(v) for x, v in values.items()}, actions, name=name)
        except ToposkitError as e:
            self.err(decl["line"], name, str(e))
            return None
        rep = validate_presheaf(F)
        if not rep.ok:
            self.err(decl["line"], name, rep.violations[0].detail)
            return None
        return F

    def _build_site(self, name: str, decl: dict, ws: Workspace) -> Optional[Site]:
        base = decl["base"]
        if base not in ws.categories:
            self.err(decl["line"], name, f"unknown category {base!r}")
            return None
        C = ws.categories[base]
        covers: dict[str, list[list[str]]] = {}
        bad = False
        for i, tokens in decl["sections"]["covers"]:
            # X <- m1 m2 ...    ('X <-' is the empty cover)
            if len(tokens) < 2 or tokens[1] != "<-":
                self.err(i, name, "expected: <object> <- <morphisms...>")
                bad = True
                continue
            X = tokens[0]
            if X not in C.objects:
                self.err(i, name, f"unknown object {X!r}")
                bad = True
                continue
            fam = tokens[2:]
            for m in fam:
                if m not in C.non_identities() and m not in {C.id_of(x) for x in C.objects}:
                    self.err(i, name, f"unknown morphism {m!r} in a cover of {X!r}")
                    bad = True
                elif C.tgt(m) != X:
                    self.err(i, name, f"cover member {m!r} does not land in {X!r}")
                    bad = True
            covers.setdefault(X, []).append(fam)
        if bad:
            return None
        try:
            site = generate_topology(C, covers, name=name)
        except ToposkitError as e:
            self.err(decl["line"], name, str(e))
            return None
        rep = validate_site(site)
        if not rep.ok:
            self.err(decl["line"], name, rep.violations[0].detail)
            return None
        return site

    def _build_functor(self, name: str, decl: dict, ws: Workspace) -> Optional[FunctorDecl]:
        base = decl["base"]
        if base not in ws.categories:
            self.err(decl["line"], name, f"unknown category {base!r}")
            return None
        if decl["handle"] not in ws.handle_decls:
            self.err(decl["line"], name, f"unknown handle {decl['handle']!r}")
            return None
        C = ws.categories[base]
        hbase = _handle_base(ws, decl["handle"])
        objects: dict[str, tuple] = {}
        for i, tokens in decl["sections"]["objects"]:
            # X = e0 e1 ...  |  X = presheaf P
            if len(tokens) < 2 or tokens[1] != "=":
                self.err(i, name, "expected: <object> = <elements...> or = presheaf <name>")
                continue
            X = tokens[0]
            if X not in C.objects:
                self.err(i, name, f"unknown object {X!r}")
                continue
            if X in objects:
                self.err(i, name, f"duplicate object line for {X!r}")
                continue
            if tokens[2:3] == ["presheaf"]:
                if len(tokens) != 4:
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
        bad = False
        for i, tokens in decl["sections"]["maps"]:
            # m @ X : e -> e'   |   m : e -> e'   (single-object base)
            if len(tokens) == 7 and tokens[1] == "@" and tokens[3] == ":" and tokens[5] == "->":
                m, X, e, e2 = tokens[0], tokens[2], tokens[4], tokens[6]
            elif len(tokens) == 5 and tokens[1] == ":" and tokens[3] == "->" and sole:
                m, X, e, e2 = tokens[0], sole, tokens[2], tokens[4]
            else:
                self.err(i, name, "expected: <morphism> [@ <base object>] : <elem> -> <elem>")
                bad = True
                continue
            if m not in C.non_identities():
                self.err(i, name, f"unknown morphism {m!r}")
                bad = True
                continue
            if X not in hb_objs:
                self.err(i, name, f"unknown handle-base object {X!r}")
                bad = True
                continue
            dom_elems = elements(objects[C.src(m)]).get(X, ())
            cod_elems = elements(objects[C.tgt(m)]).get(X, ())
            if e not in dom_elems:
                self.err(i, name, f"{e!r} is not an element of the source of {m!r} at {X}")
                bad = True
                continue
            if e2 not in cod_elems:
                self.err(i, name, f"{e2!r} is not an element of the target of {m!r} at {X}")
                bad = True
                continue
            comp = maps.setdefault(m, {}).setdefault(X, {})
            if e in comp:
                self.err(i, name, f"duplicate map entry for {m!r} at {e!r}")
                bad = True
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
                    bad = True
        if bad:
            return None
        d = FunctorDecl(name, base, decl["handle"], objects, maps)
        try:
            p = _materialize_functor(ws, d)
            rep = validate_handle_functor(p)
        except ToposkitError as e:
            self.err(decl["line"], name, str(e))
            return None
        if not rep.ok:
            self.err(decl["line"], name, rep.violations[0].detail)
            return None
        return d


def parse_workspace_text(text: str) -> Workspace:
    parser = _Parser(text)
    parser.scan()
    ws = parser.build()
    if parser.errors:
        first = parser.errors[0]
        first.errors = parser.errors
        raise first
    return ws
