"""The workspace parser against the one it replaced, on mutated texts.

``workspace_oracle`` keeps the parser as it was before each of its rules
was stated once.  The shipped fixture file and the workspace texts of
``test_workspace.py`` are mutated: a line is deleted or duplicated, or a
token is replaced, deleted or inserted.  Both parsers must agree on every
mutant: the same ``canonical()`` workspace, the same located errors in the
same order, or an exception of the same type and message.

Two shapes of line are rejected on purpose where the old parser accepted
them: a ``category`` header with tokens after its name, and a ``handle``
line whose name is missing or fails the name check.  A text with such a
line is not compared with the oracle; the parser must reject it with an
error located on one of those lines.
"""

import ast
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

import workspace_oracle
from toposkit.errors import WorkspaceParseError
from toposkit.workspace import _NAME, parse_workspace_text

TESTS = Path(__file__).resolve().parent
_OPENS_BLOCK = re.compile(r"^\s*(category|presheaf|site|handle|functor|config)\b", re.M)


def _string_value(node, names):
    """A string constant, a module-level string name, or a sum of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _string_value(node.left, names), _string_value(node.right, names)
        if left is not None and right is not None:
            return left + right
    return None


def _workspace_texts(path):
    """Every string expression of a test module that opens a block."""
    tree = ast.parse(path.read_text())
    names = {
        t.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for t in node.targets
    }
    texts = []
    for node in ast.walk(tree):
        text = _string_value(node, names)
        if text is not None and _OPENS_BLOCK.search(text) and text not in texts:
            texts.append(text)
    return texts


SEEDS = [(TESTS.parent / "fixtures" / "corpus.ws").read_text()]
SEEDS += _workspace_texts(TESTS / "test_workspace.py")
TOKENS = sorted(
    {t for text in SEEDS for t in text.split()} | set("@ -> : = <- on bound presheaf".split())
)


def outcome(parse, text):
    try:
        return ("parsed", parse(text).canonical())
    except WorkspaceParseError as e:
        return ("errors", [(x.line_no, x.entity, x.reason) for x in e.errors])
    except Exception as e:  # any other failure must match by type and message
        return ("raised", type(e).__name__, str(e))


def _rejected_on_purpose(text):
    """The numbers of the lines that the oracle may accept and the parser
    rejects: category headers with more than a name, and handle lines
    without a good name."""
    lines = []
    for i, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens[:1] == ["category"] and len(tokens) > 2:
            lines.append(i)
        elif tokens[:1] == ["handle"] and (len(tokens) < 2 or not _NAME.match(tokens[1])):
            lines.append(i)
    return lines


def assert_parsed_as_before(text):
    got = outcome(parse_workspace_text, text)
    rejected = _rejected_on_purpose(text)
    if rejected:
        assert got[0] == "errors", text
        assert {line for line, _, _ in got[1]} & set(rejected), text
        return
    expected = outcome(workspace_oracle.parse_workspace_text, text)
    assert got == expected, text


@st.composite
def mutants(draw):
    lines = draw(st.sampled_from(SEEDS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete line", "duplicate line", "replace", "delete", "insert"]))
        if op == "delete line":
            del lines[i]
            continue
        if op == "duplicate line":
            lines.insert(i, lines[i])
            continue
        tokens = lines[i].split()
        k = draw(st.integers(0, len(tokens)))
        if op == "insert":
            tokens.insert(k, draw(st.sampled_from(TOKENS)))
        elif k < len(tokens) and op == "replace":
            tokens[k] = draw(st.sampled_from(TOKENS))
        elif k < len(tokens):
            del tokens[k]
        lines[i] = " ".join(tokens)  # indentation means nothing to the parser
    return "\n".join(lines) + "\n"


def test_seed_texts_are_found():
    # the fixture file, the grammar tests' texts and the round trip's text
    assert len(SEEDS) >= 10
    assert any("functor p from arrow into fin" in s and "config" in s for s in SEEDS)


def test_seed_texts_parse_as_before():
    for text in SEEDS:
        assert_parsed_as_before(text)


def test_every_line_deleted_or_duplicated_parses_as_before():
    # exhaustive over the short texts, which hold the duplicate names and the
    # cross-kind references; the fixture file gets only sampled mutants
    for text in SEEDS[1:]:
        lines = text.splitlines()
        for i in range(len(lines)):
            assert_parsed_as_before("\n".join(lines[:i] + lines[i + 1:]))
            assert_parsed_as_before("\n".join(lines[:i + 1] + lines[i:]))


@settings(max_examples=300, deadline=None)
@given(mutants())
def test_mutated_texts_parse_as_before(text):
    assert_parsed_as_before(text)
