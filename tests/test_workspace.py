"""Workspace grammar, located errors, and the print round-trip.

The shipped fixture file is the anchor: it must parse to the same
categories and sites the verification corpus is built from, and any
parsed workspace must survive print-then-parse unchanged.
"""

import json

import pytest

from toposkit.cli import main
from toposkit.errors import WorkspaceParseError
from toposkit.site import is_continuous, is_sheaf
from toposkit.verify import corpus_generate, fixture_categories, fixture_sites
from toposkit.workspace import (
    Workspace,
    parse_workspace,
    parse_workspace_text,
    print_workspace,
)

from conftest import ordered

FIXTURE_FILE = "fixtures/corpus.ws"

ARROW_WS = """
category one
  objects *

category arrow
  objects s t
  morphisms
    s.t : s -> t

handle fin = presheaves on one bound 2
"""

# the corpus functor segment_collapse: s goes to h_s, t to the terminal
# presheaf, and s.t to the map that collapses h_s onto it
SEGMENT_WS = """
category arrow
  objects s t
  morphisms
    s.t : s -> t

presheaf h_s on arrow
  values
    s = id_s
    t =

presheaf terminal on arrow
  values
    s = ()
    t = ()
  actions
    s.t : () -> ()

handle psharrow = presheaves on arrow bound 3

functor segment_collapse from arrow into psharrow
  objects
    s = presheaf h_s
    t = presheaf terminal
  maps
    s.t @ s : id_s -> ()
"""

# a functor into presheaves on arrow whose object lines name presheaves,
# valid with "    s = presheaf Q" between the two halves; each text below
# puts a bad line for s there
REFS_HEAD = """
category one
  objects *

category arrow
  objects s t
  morphisms
    s.t : s -> t

presheaf Q on arrow
  values
    s = q
    t = q
  actions
    s.t : q -> q

presheaf R on one
  values
    * = r

handle psharrow = presheaves on arrow bound 2

functor p from arrow into psharrow
  objects
"""
REFS_TAIL = """    t = presheaf Q
  maps
    s.t @ s : q -> q
    s.t @ t : q -> q
"""


def _errors(text):
    with pytest.raises(WorkspaceParseError) as exc:
        parse_workspace_text(text)
    return exc.value.errors


# -- grammar ------------------------------------------------------------------


def test_empty_workspace_is_valid():
    ws = parse_workspace_text("")
    assert ws.categories == {} and ws.functor_decls == {}


def test_comments_and_blank_lines_ignored():
    ws = parse_workspace_text("# a comment\n\n" + ARROW_WS + "\n# trailing\n")
    assert set(ws.categories) == {"one", "arrow"}


def test_thin_compositions_are_inferred():
    ws = parse_workspace_text(
        """
category chain
  objects x y z
  morphisms
    x.y : x -> y
    y.z : y -> z
    x.z : x -> z
"""
    )
    C = ws.categories["chain"]
    assert C.compose("y.z", "x.y") == "x.z"


def test_ambiguous_composition_must_be_declared():
    errs = _errors(
        """
category g
  objects *
  morphisms
    s : * -> *
"""
    )
    assert any("compose entry" in e.reason for e in errs)
    ws = parse_workspace_text(
        """
category g
  objects *
  morphisms
    s : * -> *
  compose
    s s = id_*
"""
    )
    assert ws.categories["g"].compose("s", "s") == "id_*"


def test_presheaf_action_contravariance_checked():
    # the action line must map target sections to source sections
    errs = _errors(
        ARROW_WS
        + """
presheaf P on arrow
  values
    s = a
    t = b
  actions
    s.t : a -> b
"""
    )
    assert any("not a section over the target" in e.reason for e in errs)


def test_presheaf_missing_action_located():
    errs = _errors(
        ARROW_WS
        + """
presheaf P on arrow
  values
    s = a
    t = b
"""
    )
    assert any("misses" in e.reason for e in errs)


def test_site_cover_members_must_land_in_the_object():
    errs = _errors(
        ARROW_WS
        + """
site S on arrow
  covers
    s <- s.t
"""
    )
    assert any("does not land" in e.reason for e in errs)


# -- located errors -----------------------------------------------------------


def test_dangling_category_reference_is_single_located_error():
    errs = _errors("presheaf P on nowhere\n  values\n    x = a\n")
    assert len(errs) == 1
    assert errs[0].line_no == 1
    assert errs[0].entity == "P"
    assert "nowhere" in errs[0].reason


def test_duplicate_name_rejected_across_kinds():
    errs = _errors(
        """
category c
  objects x

site c on c
"""
    )
    assert any(e.reason == "duplicate name" for e in errs)


def test_handle_bound_violation():
    errs = _errors("category one\n  objects *\nhandle h = presheaves on one bound 7\n")
    assert any("outside" in e.reason for e in errs)


def _located(errs):
    return [(e.line_no, e.entity, e.reason) for e in errs]


def test_category_header_takes_only_a_name():
    errs = _errors("category one extra junk\n  objects *\n")
    assert _located(errs)[0] == (1, "one", "expected: category <name>")


def test_handle_names_pass_the_name_check():
    errs = _errors("category one\n  objects *\nhandle h#! = presheaves on one bound 2\n")
    assert _located(errs) == [(3, "handle", "block needs a name")]


def test_functor_map_elements_validated():
    errs = _errors(
        ARROW_WS
        + """
functor p from arrow into fin
  objects
    s = a0
    t = q
  maps
    s.t : a0 -> nothere
"""
    )
    assert any("not an element of the target" in e.reason for e in errs)


@pytest.mark.parametrize(
    "text, reason",
    [
        (SEGMENT_WS + "    s.t @ u : id_s -> ()\n", "unknown handle-base object 'u'"),
        # h_s is empty at t, so id_s is no element of the source there
        (
            SEGMENT_WS + "    s.t @ t : id_s -> ()\n",
            "'id_s' is not an element of the source of 's.t' at t",
        ),
    ],
)
def test_a_bad_map_line_of_a_presheaf_valued_functor_is_located(text, reason):
    last = len(text.splitlines())
    assert _located(_errors(text)) == [(last, "segment_collapse", reason)]


@pytest.mark.parametrize(
    "text, line, entity, reason",
    [
        ("category c\n  objects x b$c\n", "  objects x b$c", "c", "bad name 'b$c'"),
        (
            "category one\n  objects *\nhandle h = presheaves on one bound two\n",
            "handle h = presheaves on one bound two",
            "h",
            "bound is not an integer: 'two'",
        ),
        (
            "category one\n  objects *\nhandle h = sheaves on T bound 2\n",
            "handle h = sheaves on T bound 2",
            "h",
            "unknown site 'T'",
        ),
        (
            REFS_HEAD + "    s = presheaf Q extra\n" + REFS_TAIL,
            "    s = presheaf Q extra",
            "p",
            "expected: <object> = presheaf <name>",
        ),
        (
            REFS_HEAD + "    s = presheaf R\n" + REFS_TAIL,
            "    s = presheaf R",
            "p",
            "presheaf 'R' lives on the wrong base",
        ),
    ],
)
def test_a_bad_line_is_located_on_itself(text, line, entity, reason):
    line_no = text.splitlines().index(line) + 1
    assert _located(_errors(text))[0] == (line_no, entity, reason)


def test_inline_values_need_one_point_base():
    errs = _errors(
        """
category arrow
  objects s t
  morphisms
    s.t : s -> t

handle psh = presheaves on arrow bound 2

functor p from arrow into psh
  objects
    s = a0
    t = q
"""
    )
    assert any("one-point handle base" in e.reason for e in errs)


def test_an_inline_set_may_not_repeat_a_label():
    # the check runs when the functor is built, so the error sits on the
    # block line, as for a presheaf block that repeats a label
    text = ARROW_WS + """
functor p from arrow into fin
  objects
    s = x0 x0
    t = q
  maps
    s.t : x0 -> q
"""
    line_no = text.splitlines().index("functor p from arrow into fin") + 1
    assert _located(_errors(text)) == [(line_no, "p", "object s: duplicate labels at *")]


def test_error_lines_point_at_the_offence():
    text = "category c\n  objects x\n  morphisms\n    f : x -> missing\n"
    errs = _errors(text)
    assert errs[0].line_no == 4


# -- round-trip ---------------------------------------------------------------


def test_print_parse_round_trip_small():
    ws = parse_workspace_text(
        ARROW_WS
        + """
presheaf P on arrow
  values
    s = x0 x1
    t = y0
  actions
    s.t : y0 -> x0

site S on arrow
  covers
    t <- s.t

functor p from arrow into fin
  objects
    s = a0 a1
    t = q
  maps
    s.t : a0 -> q
    s.t : a1 -> q

config
  seed = 0
"""
    )
    text = print_workspace(ws)
    again = parse_workspace_text(text)
    assert again == ws
    assert print_workspace(again) == text


def test_shipped_fixture_file_round_trips():
    ws = parse_workspace(FIXTURE_FILE)
    assert parse_workspace_text(print_workspace(ws)) == ws


def test_shipped_fixture_file_matches_the_corpus():
    ws = parse_workspace(FIXTURE_FILE)
    cats = fixture_categories()
    assert set(cats) <= set(ws.categories)
    for name, C in cats.items():
        D = ws.categories[name]
        assert sorted(C.objects) == sorted(D.objects)
        non_ids = sorted(C.non_identities())
        assert non_ids == sorted(D.non_identities())
        for m in non_ids:
            assert (C.src(m), C.tgt(m)) == (D.src(m), D.tgt(m))
        for g in non_ids:
            for f in non_ids:
                if C.src(g) == C.tgt(f):
                    assert C.compose(g, f) == D.compose(g, f)
    sites = fixture_sites(cats)
    assert set(sites) <= set(ws.sites)
    for name, s in sites.items():
        t = ws.sites[name]
        assert s.base.name == t.base.name
        assert {x: s.covers[x] for x in s.covers} == {x: t.covers[x] for x in t.covers}
        assert s.minimal == t.minimal


def test_shipped_functors_behave_like_their_corpus_twins():
    ws = parse_workspace(FIXTURE_FILE)
    disc = ws.sites["two_point_discrete"]
    assert is_continuous(ws.functor("wedge"), disc).ok
    assert not is_continuous(ws.functor("const_point"), disc).ok
    seg = ws.functor("segment_stalk")
    assert seg.obj_map["*"] is ws.presheaves["h_s"]


def test_a_functor_into_presheaves_on_a_base_with_arrows(tmp_path, capsys):
    ws = parse_workspace_text(SEGMENT_WS)
    path = tmp_path / "segment.ws"
    path.write_text(SEGMENT_WS)
    assert main(["validate", "--input", str(path), "--report", "json"]) == 0
    entities = json.loads(capsys.readouterr().out)["result"]["entities"]
    assert [e["ok"] for e in entities if e["kind"] == "functor"] == [True]
    text = print_workspace(ws)
    assert parse_workspace_text(text) == ws
    assert print_workspace(parse_workspace_text(text)) == text
    got = ws.functor("segment_collapse")
    want = next(
        fx.functor for fx in corpus_generate(0, "small").functors if fx.name == "segment_collapse"
    )
    for X in want.dom.objects:
        assert ordered(got.obj_map[X].values) == ordered(want.obj_map[X].values)
        assert ordered(got.obj_map[X].actions) == ordered(want.obj_map[X].actions)
    assert ordered(got.mor_map["s.t"].components) == ordered(want.mor_map["s.t"].components)


def test_materialized_handles_are_cached():
    ws = parse_workspace_text(ARROW_WS)
    assert ws.handle("fin") is ws.handle("fin")
