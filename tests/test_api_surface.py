"""Every public name of toposkit has a user, down to members and knobs.

A module-level function or class counts as reached when another library
module uses it (a re-export in ``__init__.py`` does not count), when its
own module uses it outside its definition, when ``perfbench/`` names it
(the tracer names its targets as whole strings), or when the acceptance
gate uses it.  Imports alone reach nothing.

Below the module level, a public method or dataclass field of a public
class counts as read when it is read as an attribute outside its class
body, in the same places; and a keyword-only parameter of a public
function or method counts as passed when some call outside its
definition names it, or a dict literal has it as a string key (as
``verify.flat_knobs`` does).  A ``k=k`` keyword forwards the caller's
own parameter and passes nothing.  The match is by name, so a member is
read whenever any object's attribute of that name is: a dead ``to_dict``
goes unseen while other classes' ``to_dict`` are called.

The ``KEEP`` dicts hold the deliberate exceptions, one reason each.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toposkit"

KEEP = {
    "finset_value": "the reading of a finite set; inlining it only moves the expression into the tests",
    "print_workspace": "the README documents the parse and print round-trip",
}

# a report field the CLI serializes whole, or that only its own to_dict
# reads, stays while that report is emitted
MEMBER_KEEP = {
    "ContinuityReport.covers_checked": "serialized by dataclasses.asdict in the CLI (continuous)",
    "SubcanonicalReport.covers_strict_epi": (
        "serialized by dataclasses.asdict in the CLI (canonical-topology)"
    ),
    "SubcanonicalReport.representable_sheaves": (
        "serialized by dataclasses.asdict in the CLI (canonical-topology)"
    ),
    "SuiteReport.budget_notes": "in the suite report's to_dict",
    "FlatVerdict.instances": "serialized by dataclasses.asdict in the CLI (flat)",
    "SitePlan.sieve": (
        "compiles an arbitrary sieve for matching_families; the plan's constructor uses it"
    ),
    "Workspace.canonical": "read by Workspace.__eq__, the parse and print round-trip's equality",
    "UnionFind.find": "the disjoint-set lookup that union and classes are built on",
    "DensityReport.comparison": "the mediating morphism a density verdict is about",
    "UniversalStrictEpiReport.gaps": "records the base changes skipped for want of a pullback",
    "GeometricMorphismData.direct_image": (
        "its sheaf check keeps the kan.is_sheaf binding that the benchmark self-test wraps"
    ),
}
KNOB_KEEP: dict[str, str] = {}


def _uses(node: ast.AST, strings: bool = False) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def test_every_public_name_is_reached():
    # __init__.py only re-exports, so it reaches nothing
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("[!_]*.py"))}
    outside = _uses(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _uses(ast.parse(p.read_text()), strings=True)
    unreached = {}
    for mod, tree in trees.items():
        elsewhere = outside.union(*(_uses(t) for other, t in trees.items() if other != mod))
        per_stmt = [_uses(s) for s in tree.body]
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            if stmt.name not in elsewhere.union(*per_stmt[:i], *per_stmt[i + 1:]):
                unreached[stmt.name] = f"{mod}.{stmt.name}"
    missing = sorted(v for k, v in unreached.items() if k not in KEEP)
    assert not missing, f"public names nothing reaches: {missing}"
    stale = sorted(set(KEEP) - set(unreached))
    assert not stale, f"KEEP entries that are reached again or no longer defined: {stale}"


def test_no_unused_imports():
    # __init__.py imports only to re-export; __future__ imports set
    # compiler flags and bind no name the module reads
    unused = []
    for p in sorted(SRC.glob("[!_]*.py")):
        tree = ast.parse(p.read_text())
        used = _uses(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{p.name}:{node.lineno} {name}")
    assert not unused, f"imports nothing in their module reads: {unused}"



def _reads(node: ast.AST) -> set[str]:
    return {
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def _gate_and_perfbench() -> list[ast.Module]:
    paths = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    return [ast.parse(p.read_text()) for p in paths]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if isinstance(f, ast.Name) and f.id == "dataclass":
            return True
    return False


def test_every_public_member_is_read():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("[!_]*.py"))}
    gate, *bench = _gate_and_perfbench()
    outside = _reads(gate).union(*(_uses(t, strings=True) for t in bench))
    per_mod = {mod: _reads(t) for mod, t in trees.items()}
    unread = {}
    for mod, tree in trees.items():
        per_stmt = [_reads(s) for s in tree.body]
        elsewhere = outside.union(*(r for other, r in per_mod.items() if other != mod))
        for i, cls in enumerate(tree.body):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            members = [s.name for s in cls.body if isinstance(s, ast.FunctionDef)]
            if _is_dataclass(cls):
                members += [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
            reads = elsewhere.union(*per_stmt[:i], *per_stmt[i + 1:])
            for m in members:
                if not m.startswith("_") and m not in reads:
                    unread[f"{cls.name}.{m}"] = f"{mod}.{cls.name}.{m}"
    missing = sorted(v for k, v in unread.items() if k not in MEMBER_KEEP)
    assert not missing, f"public members nothing reads: {missing}"
    stale = sorted(set(MEMBER_KEEP) - set(unread))
    assert not stale, f"MEMBER_KEEP entries read again or no longer defined: {stale}"


def _passed(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        # k=k forwards the caller's own parameter, which is checked in its own right
        if isinstance(n, ast.keyword) and n.arg and not (
            isinstance(n.value, ast.Name) and n.value.id == n.arg
        ):
            out.add(n.arg)
        elif isinstance(n, ast.Dict):
            out |= {
                k.value for k in n.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
    return out


def test_every_keyword_only_parameter_is_passed():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("[!_]*.py"))}
    outside = set().union(*(_passed(t) for t in _gate_and_perfbench()))
    per_mod = {mod: _passed(t) for mod, t in trees.items()}
    unpassed = {}
    for mod, tree in trees.items():
        per_stmt = [_passed(s) for s in tree.body]
        elsewhere = outside.union(*(r for other, r in per_mod.items() if other != mod))
        for i, stmt in enumerate(tree.body):
            if stmt.__class__ not in (ast.FunctionDef, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            fns = [(stmt.name, stmt)] if isinstance(stmt, ast.FunctionDef) else [
                (f"{stmt.name}.{s.name}", s) for s in stmt.body
                if isinstance(s, ast.FunctionDef)
                and (s.name == "__init__" or not s.name.startswith("_"))
            ]
            for qual, fn in fns:
                siblings = [] if fn is stmt else [s for s in stmt.body if s is not fn]
                passed = elsewhere.union(*per_stmt[:i], *per_stmt[i + 1:], *map(_passed, siblings))
                for arg in fn.args.kwonlyargs:
                    if arg.arg not in passed:
                        unpassed[f"{qual}({arg.arg})"] = f"{mod}.{qual}({arg.arg})"
    missing = sorted(v for k, v in unpassed.items() if k not in KNOB_KEEP)
    assert not missing, f"keyword-only parameters nothing passes: {missing}"
    stale = sorted(set(KNOB_KEEP) - set(unpassed))
    assert not stale, f"KNOB_KEEP entries passed again or no longer defined: {stale}"
