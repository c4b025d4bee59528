"""Command line entry point: workspace in, versioned reports out.

Every subcommand emits the same envelope: a ``schema`` tag, the command
name, the seed and budget in effect, and a command-specific payload.
JSON is the machine form; the text form is a sorted-key rendering of the
same tree.  Exit status is 0 exactly when no executed check failed, 1
when one did, 2 when the invocation itself is unusable (bad flags,
unreadable workspace for a command that needs one).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Optional

from .errors import StructureError, ToposkitError, WorkspaceParseError
from .fincat import validate_category, validate_handle_functor
from .kan import is_flat_bounded, is_flat_setvalued, right_adjoint_hp, tilde_extend
from .presheaf import Presheaf, is_presheaf_iso, validate_presheaf
from .site import (
    canonical_pretopology,
    epsilon,
    generate_topology,
    is_continuous,
    is_sheaf,
    is_subcanonical,
    sheafify,
    validate_site,
)
from .verify import (
    SUITE_IDS,
    budget_profile,
    corpus_generate,
    flat_knobs,
    run_theorem_suite,
    suite_all,
)
from .workspace import SCHEMA, Workspace, parse_workspace

_SUITE_CHOICES = list(SUITE_IDS) + ["all"]


def _render_presheaf(F: Presheaf) -> dict:
    return {
        "name": F.name,
        "base": F.base.name,
        "values": {x: list(F.values[x]) for x in sorted(F.values)},
        "actions": {
            m: dict(sorted(F.actions[m].items()))
            for m in sorted(F.base.non_identities())
        },
    }


def _text_lines(obj: Any, indent: int = 0) -> list[str]:
    # tuples are sequences here, as in the JSON report
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj, key=str):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
        return lines
    if isinstance(obj, (list, tuple)):
        lines = []
        for v in obj:
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
        return lines
    return [f"{pad}{_scalar(obj)}"]


def _scalar(v: Any) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list, tuple)):
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def _need(ws: Optional[Workspace], what: str, kind: str, name: str):
    table = getattr(ws, kind)
    if name not in table:
        raise ToposkitError(f"{what} {name!r} is not declared in the workspace")
    return table[name]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, failed)


def _cmd_validate(ws: Optional[Workspace], args, parse_error) -> tuple[dict, bool]:
    if parse_error is not None:
        errors = getattr(parse_error, "errors", [parse_error])
        return {"errors": [{"line": e.line_no, "entity": e.entity, "reason": e.reason}
                           for e in errors]}, True
    entities = []
    for kind, table, validator in (
        ("category", ws.categories, validate_category),
        ("presheaf", ws.presheaves, validate_presheaf),
        ("site", ws.sites, validate_site),
    ):
        for name in sorted(table):
            rep = validator(table[name])
            entities.append({"kind": kind, "name": name, "ok": rep.ok,
                             "violations": [v.to_dict() for v in rep.violations]})
    for name in sorted(ws.handle_decls):
        d = ws.handle_decls[name]
        entities.append({"kind": "handle", "name": name, "ok": True,
                         "declaration": [d.kind, d.ref, d.bound], "violations": []})
    for name in sorted(ws.functor_decls):
        rep = validate_handle_functor(ws.functor(name))
        entities.append({"kind": "functor", "name": name, "ok": rep.ok,
                         "violations": [v.to_dict() for v in rep.violations]})
    failed = any(not e["ok"] for e in entities)
    return {"entities": entities, "checked": len(entities)}, failed


def _cmd_sheafify(ws: Workspace, args, _perr) -> tuple[dict, bool]:
    F = _need(ws, "presheaf", "presheaves", args.presheaf)
    site = _need(ws, "site", "sites", args.site)
    before = is_sheaf(F, site)
    res = sheafify(F, site)
    after = is_sheaf(res.sheaf, site)
    unit_iso = is_presheaf_iso(res.unit)
    payload = {
        "presheaf": args.presheaf,
        "site": args.site,
        "was_sheaf": before.ok,
        "unit_is_iso": unit_iso,
        "result_is_sheaf": after.ok,
        "sheaf": _render_presheaf(res.sheaf),
        "unit": {
            x: dict(sorted(res.unit.components[x].items()))
            for x in sorted(res.unit.components)
        },
    }
    # the construction broke if its output is no sheaf, or if the unit's
    # being an iso disagrees with the input's being a sheaf: an iso onto a
    # sheaf makes the input one, and the unit of a sheaf is an iso
    return payload, not after.ok or unit_iso != before.ok


def _cmd_extend(ws: Workspace, args, _perr) -> tuple[dict, bool]:
    p = ws.functor(args.functor)
    H = _need(ws, "presheaf", "presheaves", args.presheaf)
    ext = tilde_extend(p, H)
    Z = p.cod
    rep = validate_presheaf(ext.obj)
    payload = {
        "functor": args.functor,
        "presheaf": args.presheaf,
        "value": _render_presheaf(ext.obj),
        "cocone": {
            node: Z.mor_key(ext.colimit.legs[node])
            for node in sorted(ext.colimit.legs)
        },
        "value_validates": rep.ok,
    }
    return payload, not rep.ok


def _cmd_adjoint(ws: Workspace, args, _perr) -> tuple[dict, bool]:
    p = ws.functor(args.functor)
    z = _need(ws, "presheaf", "presheaves", args.zobject)
    hp = right_adjoint_hp(p, z)
    rep = validate_presheaf(hp)
    payload = {
        "functor": args.functor,
        "target": args.zobject,
        "tables": _render_presheaf(hp),
        "tables_validate": rep.ok,
    }
    return payload, not rep.ok


def _cmd_flat(ws: Workspace, args, _perr) -> tuple[dict, bool]:
    p = ws.functor(args.functor)
    payload: dict = {"functor": args.functor}
    flat_votes = []
    try:
        sw = is_flat_setvalued(p)
    except StructureError:
        payload["element_category_cofiltered"] = None
        payload["note"] = "element-category route needs finite-set values"
    else:
        payload["element_category_cofiltered"] = {
            "flat": sw.ok, "violations": [v.law for v in sw.violations]
        }
        flat_votes.append(sw.ok)
    bounded = is_flat_bounded(p, **flat_knobs(budget_profile(args.budget)))
    payload["exactness_probe"] = dataclasses.asdict(bounded)
    flat_votes.append(bounded.verdict == "verified-up-to-budget")
    return payload, not all(flat_votes)


def _cmd_continuous(ws: Workspace, args, _perr) -> tuple[dict, bool]:
    p = ws.functor(args.functor)
    site = _need(ws, "site", "sites", args.site)
    if p.dom.name != site.base.name:
        raise ToposkitError(
            f"functor {args.functor!r} is not based on the site's category"
        )
    rep = is_continuous(p, site)
    return {"functor": args.functor, "site": args.site, **dataclasses.asdict(rep)}, not rep.ok


def _cmd_epsilon(ws: Workspace, args, _perr) -> tuple[dict, bool]:
    site = _need(ws, "site", "sites", args.site)
    objs = [args.object] if args.object else sorted(site.base.objects)
    out = {}
    failed = False
    for X in objs:
        if X not in site.base.objects:
            raise ToposkitError(f"object {X!r} is not in the site base")
        sh = epsilon(site, X)
        ok = is_sheaf(sh, site).ok
        failed = failed or not ok
        out[X] = {"sheaf": _render_presheaf(sh), "is_sheaf": ok}
    return {"site": args.site, "objects": out}, failed


def _cmd_canonical_topology(ws: Workspace, args, _perr) -> tuple[dict, bool]:
    C = _need(ws, "category", "categories", args.category)
    covers = canonical_pretopology(C)
    site = generate_topology(C, {x: [list(f) for f in fams] for x, fams in covers.items()},
                             name=f"canonical({args.category})")
    rep = is_subcanonical(site)
    payload = {
        "category": args.category,
        "covers": {x: [list(f) for f in covers[x]] for x in sorted(covers)},
        "subcanonical": dataclasses.asdict(rep),
    }
    return payload, not rep.value


def _cmd_suite(_ws, args, _perr) -> tuple[dict, bool]:
    corpus = corpus_generate(args.seed, args.budget)
    if args.which == "all":
        result = suite_all(corpus, args.budget)
        return result, result["verdict"] != "pass"
    rep = run_theorem_suite(args.which, corpus, args.budget)
    return rep.to_dict(), rep.verdict != "pass"


_HANDLERS = {
    "validate": _cmd_validate,
    "sheafify": _cmd_sheafify,
    "extend": _cmd_extend,
    "adjoint": _cmd_adjoint,
    "flat": _cmd_flat,
    "continuous": _cmd_continuous,
    "epsilon": _cmd_epsilon,
    "canonical-topology": _cmd_canonical_topology,
    "suite": _cmd_suite,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="workspace file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", choices=["small", "default", "large"],
                        default="default")
    common.add_argument("--report", choices=["json", "text", "both"], default="both")
    common.add_argument("--out", help="directory for report files")

    ap = argparse.ArgumentParser(prog="toposkit")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common])
    p = sub.add_parser("sheafify", parents=[common])
    p.add_argument("presheaf")
    p.add_argument("site")
    p = sub.add_parser("extend", parents=[common])
    p.add_argument("functor")
    p.add_argument("presheaf")
    p = sub.add_parser("adjoint", parents=[common])
    p.add_argument("functor")
    p.add_argument("zobject")
    p = sub.add_parser("flat", parents=[common])
    p.add_argument("functor")
    p = sub.add_parser("continuous", parents=[common])
    p.add_argument("functor")
    p.add_argument("site")
    p = sub.add_parser("epsilon", parents=[common])
    p.add_argument("site")
    p.add_argument("--object")
    p = sub.add_parser("canonical-topology", parents=[common])
    p.add_argument("category")
    p = sub.add_parser("suite", parents=[common])
    p.add_argument("which", choices=_SUITE_CHOICES)
    return ap


def _emit(report: dict, args) -> None:
    text = "\n".join(_text_lines(report)) + "\n"
    blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, args.command.replace("-", "_"))
        wrote = []
        if args.report in ("text", "both"):
            with open(stem + ".txt", "w", encoding="utf-8") as fh:
                fh.write(text)
            wrote.append(stem + ".txt")
        if args.report in ("json", "both"):
            with open(stem + ".json", "w", encoding="utf-8") as fh:
                fh.write(blob)
            wrote.append(stem + ".json")
        for path in wrote:
            print(f"wrote {path}")
        return
    if args.report in ("text", "both"):
        sys.stdout.write(text)
    if args.report in ("json", "both"):
        sys.stdout.write(blob)


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    ws: Optional[Workspace] = None
    parse_error: Optional[WorkspaceParseError] = None
    if args.command != "suite":
        if not args.input:
            print(f"{args.command}: --input <workspace> is required", file=sys.stderr)
            return 2
        try:
            ws = parse_workspace(args.input)
        except FileNotFoundError:
            print(f"no such workspace: {args.input}", file=sys.stderr)
            return 2
        except (OSError, UnicodeDecodeError) as e:
            print(f"cannot read workspace {args.input}: {e}", file=sys.stderr)
            return 2
        except WorkspaceParseError as e:
            if args.command != "validate":
                for err in getattr(e, "errors", [e]):
                    print(str(err), file=sys.stderr)
                return 2
            parse_error = e
    try:
        payload, failed = _HANDLERS[args.command](ws, args, parse_error)
    except ToposkitError as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "seed": args.seed,
        "budget": args.budget,
        "failed": failed,
        "result": payload,
    }
    _emit(report, args)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
