"""Every public module-level function and class of toposkit has a user.

A name counts as reached when another library module uses it (a
re-export in ``__init__.py`` does not count), when its own module uses it
outside its definition, when ``perfbench/`` names it (the tracer names
its targets as whole strings), or when the acceptance gate uses it.
Imports alone reach nothing.  ``KEEP`` lists the deliberate exceptions.
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
