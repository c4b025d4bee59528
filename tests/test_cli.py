"""Command-line surface: exit codes, report envelopes, determinism.

Most tests drive ``main(argv)`` in-process and parse captured stdout.
The reports must be machine-stable: same argv, same bytes.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import toposkit
from toposkit.cli import main

CORPUS_WS = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "corpus.ws")

DEMO = """
category one
  objects *

category diamond
  objects bot a b top
  morphisms
    bot.a : bot -> a
    bot.b : bot -> b
    a.top : a -> top
    b.top : b -> top
    bot.top : bot -> top

site disc on diamond
  covers
    top <- a.top b.top
    bot <-

handle fin = presheaves on one bound 3

functor wedge from diamond into fin
  objects
    bot =
    a = x
    b = y
    top = z
  maps
    a.top : x -> z
    b.top : y -> z

functor constpt from diamond into fin
  objects
    bot = p
    a = p
    b = p
    top = p
  maps
    bot.a : p -> p
    bot.b : p -> p
    a.top : p -> p
    b.top : p -> p
    bot.top : p -> p

presheaf wedgeish on diamond
  values
    bot = w0 w1
    a = x
    b = y
    top = z
  actions
    bot.a : x -> w0
    bot.b : y -> w0
    a.top : z -> x
    b.top : z -> y
    bot.top : z -> w0
"""

ARROW = """
category arrow
  objects s t
  morphisms
    s.t : s -> t

category one
  objects *

handle fin = presheaves on one bound 3

functor doubled from arrow into fin
  objects
    s = x0 x1
    t = y
  maps
    s.t : x0 -> y
    s.t : x1 -> y

presheaf hs on arrow
  values
    s = e
    t =

presheaf pt on arrow
  values
    s = e
    t = e
  actions
    s.t : e -> e

presheaf zee on one
  values
    * = z0 z1

site triv on arrow
  covers
    s <-

site onepoint on one
  covers
    * <-
"""


@pytest.fixture(scope="module")
def demo_ws(tmp_path_factory):
    p = tmp_path_factory.mktemp("ws") / "demo.ws"
    p.write_text(DEMO)
    return str(p)


@pytest.fixture(scope="module")
def arrow_ws(tmp_path_factory):
    p = tmp_path_factory.mktemp("ws") / "arrow.ws"
    p.write_text(ARROW)
    return str(p)


def run_json(argv, capsys):
    code = main(argv + ["--report", "json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


# -- envelope -----------------------------------------------------------------


def test_envelope_shape(demo_ws, capsys):
    code, payload = run_json(["validate", "--input", demo_ws], capsys)
    assert code == 0
    assert payload["schema"] == "toposkit-report/1"
    assert payload["command"] == "validate"
    assert payload["failed"] is False
    assert set(payload) == {"schema", "command", "seed", "budget", "failed", "result"}
    kinds = {e["kind"] for e in payload["result"]["entities"]}
    assert kinds == {"category", "presheaf", "site", "handle", "functor"}


def test_validate_reports_parse_errors_instead_of_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.ws"
    bad.write_text("presheaf P on nowhere\n  values\n    x = a\n")
    code, payload = run_json(["validate", "--input", str(bad)], capsys)
    assert code == 1
    assert payload["failed"] is True
    errs = payload["result"]["errors"]
    assert errs and errs[0]["line"] == 1 and "nowhere" in errs[0]["reason"]


def test_other_commands_treat_parse_errors_as_usage(tmp_path, capsys):
    bad = tmp_path / "bad.ws"
    bad.write_text("category c\n  objects x\n  morphisms\n    f : x -> missing\n")
    code = main(["flat", "--input", str(bad), "p", "--report", "json"])
    capsys.readouterr()
    assert code == 2


def test_missing_input_is_usage_error(capsys):
    code = main(["flat", "p", "--report", "json"])
    capsys.readouterr()
    assert code == 2


def test_missing_workspace_file_is_usage_error(capsys):
    code = main(["validate", "--input", "/no/such/file.ws"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", [["validate"], ["flat", "p"]])
@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_workspace_is_usage_error(tmp_path, capsys, command, kind):
    path = tmp_path / "ws"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"category \xff\n  objects x\n")
    code = main(command + ["--input", str(path), "--report", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith(f"cannot read workspace {path}: ")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_undeclared_entity_is_usage_error(demo_ws, capsys):
    code = main(["flat", "--input", demo_ws, "ghost", "--report", "json"])
    capsys.readouterr()
    assert code == 2


def test_sheafify_names_an_undeclared_presheaf(capsys):
    code = main(["sheafify", "NOPE", "sierpinski", "--input", CORPUS_WS])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "presheaf 'NOPE' is not declared in the workspace" in err


# -- verdict commands ---------------------------------------------------------


def test_flat_rejects_the_wedge(demo_ws, capsys):
    code, payload = run_json(["flat", "--input", demo_ws, "wedge"], capsys)
    assert code == 1  # the wedge kills the binary product over top
    r = payload["result"]
    assert r["element_category_cofiltered"]["flat"] is False
    assert r["exactness_probe"]["verdict"] == "counterexample"
    assert r["exactness_probe"]["counterexample"] is not None


def test_flat_accepts_constant_point(demo_ws, capsys):
    code, payload = run_json(["flat", "--input", demo_ws, "constpt"], capsys)
    assert code == 0
    r = payload["result"]
    assert r["element_category_cofiltered"]["flat"] is True
    assert r["exactness_probe"]["verdict"] == "verified-up-to-budget"


def test_flat_rejects_doubled_stalk(arrow_ws, capsys):
    code, payload = run_json(["flat", "--input", arrow_ws, "doubled"], capsys)
    assert code == 1
    assert payload["result"]["element_category_cofiltered"]["flat"] is False


@pytest.mark.parametrize(
    "budget, instances, pool", [("small", 13, 10), ("default", 20, 20), ("large", 20, 30)]
)
def test_flat_probes_with_the_budget_in_effect(budget, instances, pool, capsys):
    # the diamond's bound-2 census outgrows every profile's pool, so the
    # probes run over its 4 representables: the terminal, their 10 binary
    # products and the 9 equalizers their maps allow, or 6 of each shape at
    # the small budget
    argv = ["flat", "--input", CORPUS_WS, "const_point", "--budget", budget]
    code, payload = run_json(argv, capsys)
    assert code == 0 and payload["budget"] == budget
    probe = payload["result"]["exactness_probe"]
    assert probe["verdict"] == "verified-up-to-budget"
    assert probe["instances"] == instances
    assert probe["notes"] == [
        f"presheaf census at value bound 2 has more than {pool} members; "
        "the pool holds only the 4 representables"
    ]


POINT_NAMED = """
category arrow
  objects s t
  morphisms
    s.t : s -> t

category pt
  objects {point}

handle fin = presheaves on pt bound 3

functor doubled from arrow into fin
  objects
    s = x0 x1
    t = y
  maps
    s.t : x0 -> y
    s.t : x1 -> y
"""


def test_flat_reads_the_point_name_from_the_handle(tmp_path, capsys):
    # the one-object handle base may name its object anything, not only *
    results = []
    for i, point in enumerate(("o", "*")):
        ws = tmp_path / f"point_{i}.ws"
        ws.write_text(POINT_NAMED.format(point=point))
        code = main(["flat", "--input", str(ws), "doubled", "--report", "json"])
        out = capsys.readouterr().out
        assert code == 1, f"object {point!r}: exit {code}"
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]
    assert results[0]["element_category_cofiltered"]["flat"] is False


def test_flat_on_a_sheaf_handle_skips_the_finite_set_route(tmp_path, capsys):
    # sheaves on a one-object site live over one object but are not
    # handled as finite sets; only the exactness probe runs
    ws = tmp_path / "sheaf_point.ws"
    sheaves = "site triv on pt\n  covers\n\nhandle fin = sheaves on triv"
    ws.write_text(POINT_NAMED.format(point="o").replace("handle fin = presheaves on pt", sheaves))
    code = main(["flat", "--input", str(ws), "doubled", "--report", "json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 1
    assert result["element_category_cofiltered"] is None
    assert result["note"] == "element-category route needs finite-set values"
    assert result["exactness_probe"]["verdict"] == "counterexample"


def test_continuous_flags_constant_point_at_the_empty_cover(demo_ws, capsys):
    code, payload = run_json(
        ["continuous", "--input", demo_ws, "constpt", "disc"], capsys
    )
    assert code == 1
    r = payload["result"]
    assert r["ok"] is False
    assert any(f["object"] == "bot" for f in r["failures"])


def test_continuous_accepts_the_wedge(demo_ws, capsys):
    code, payload = run_json(["continuous", "--input", demo_ws, "wedge", "disc"], capsys)
    assert code == 0
    assert payload["result"]["ok"] is True
    assert payload["result"]["covers_checked"] >= 2


def test_continuous_rejects_doubled_on_the_empty_cover(arrow_ws, capsys):
    # p(s) has two points, so the image of the empty cover cannot be epi
    code, payload = run_json(
        ["continuous", "--input", arrow_ws, "doubled", "triv"], capsys
    )
    assert code == 1
    assert any(f["object"] == "s" for f in payload["result"]["failures"])


def test_continuous_site_base_mismatch_is_usage_error(arrow_ws, capsys):
    code = main(
        ["continuous", "--input", arrow_ws, "doubled", "onepoint", "--report", "json"]
    )
    capsys.readouterr()
    assert code == 2


# -- construction commands ----------------------------------------------------


def test_sheafify_fixes_the_wedgeish_presheaf(demo_ws, capsys):
    code, payload = run_json(
        ["sheafify", "--input", demo_ws, "wedgeish", "disc"], capsys
    )
    assert code == 0
    r = payload["result"]
    assert r["was_sheaf"] is False
    assert r["result_is_sheaf"] is True
    # the empty cover at bot forces the sheaf value there to a point
    assert len(r["sheaf"]["values"]["bot"]) == 1


def test_sheafify_is_idle_on_a_sheaf(arrow_ws, capsys):
    code, payload = run_json(["sheafify", "--input", arrow_ws, "hs", "triv"], capsys)
    assert code == 0
    r = payload["result"]
    assert r["was_sheaf"] is True and r["unit_is_iso"] is True


def test_sheafify_fails_on_an_iso_unit_out_of_a_non_sheaf(demo_ws, capsys, monkeypatch):
    # an iso onto a sheaf would make wedgeish a sheaf, so a construction
    # that reports one has broken, though its output is a sheaf
    from toposkit import cli
    from toposkit.presheaf import PresheafMorphism
    from toposkit.site import SheafificationResult

    real = cli.sheafify

    def identity_unit(F, site):
        res = real(F, site)
        ident = PresheafMorphism(F, F, {X: {x: x for x in vs} for X, vs in F.values.items()})
        return SheafificationResult(res.sheaf, ident, res.stage1, res.stage2)

    monkeypatch.setattr(cli, "sheafify", identity_unit)
    code, payload = run_json(["sheafify", "--input", demo_ws, "wedgeish", "disc"], capsys)
    r = payload["result"]
    assert (r["was_sheaf"], r["unit_is_iso"], r["result_is_sheaf"]) == (False, True, True)
    assert code == 1


def test_extend_reports_values_and_cocone(arrow_ws, capsys):
    code, payload = run_json(["extend", "--input", arrow_ws, "doubled", "pt"], capsys)
    assert code == 0
    r = payload["result"]
    assert r["value_validates"] is True
    assert r["value"]["values"]  # a table per base object of the handle
    assert r["cocone"]  # one leg per element of the input presheaf


def test_adjoint_tables_cover_every_base_object(arrow_ws, capsys):
    code, payload = run_json(["adjoint", "--input", arrow_ws, "doubled", "zee"], capsys)
    assert code == 0
    r = payload["result"]
    assert set(r["tables"]["values"]) == {"s", "t"}
    assert r["tables_validate"] is True
    # h_p(zee)(X) is the hom-set from p(X) to zee, so its size is 2^|p(X)|
    assert len(r["tables"]["values"]["s"]) == 4
    assert len(r["tables"]["values"]["t"]) == 2


def test_epsilon_object_filter(demo_ws, capsys):
    code, payload = run_json(
        ["epsilon", "--input", demo_ws, "disc", "--object", "top"], capsys
    )
    assert code == 0
    assert set(payload["result"]["objects"]) == {"top"}
    assert payload["result"]["objects"]["top"]["is_sheaf"] is True


def test_epsilon_unknown_object_is_usage_error(demo_ws, capsys):
    code = main(
        ["epsilon", "--input", demo_ws, "disc", "--object", "side", "--report", "json"]
    )
    capsys.readouterr()
    assert code == 2


def test_canonical_topology_on_the_arrow(arrow_ws, capsys):
    code, payload = run_json(
        ["canonical-topology", "--input", arrow_ws, "arrow"], capsys
    )
    assert code == 0
    r = payload["result"]
    assert r["subcanonical"]["value"] is True
    assert [] in r["covers"]["s"]  # s is strictly initial


# -- suites and output --------------------------------------------------------


def test_suite_runs_without_workspace(capsys):
    code, payload = run_json(["suite", "II", "--seed", "0", "--budget", "small"], capsys)
    assert code == 0
    assert payload["result"]["verdict"] == "pass"


def test_suite_output_is_deterministic(capsys):
    main(["suite", "III", "--seed", "1", "--budget", "small", "--report", "json"])
    first = capsys.readouterr().out
    main(["suite", "III", "--seed", "1", "--budget", "small", "--report", "json"])
    second = capsys.readouterr().out
    assert first == second


# sha256 of `suite all --budget small --report json` per seed; the report
# bytes are pinned so a change that alters any verdict, count, witness or
# note shows here (2 991, 2 991, 2 992 and 2 992 bytes)
SMALL_SUITE_ALL_SHA256 = {
    0: "b9487e7a5b03652e164402f1138f870070c1cc4c67c854f3ccdbe360cbddfca4",
    1: "f1f03e482e3069444bc1644b4eaf126a4536028d03a19bf9d8c60a825061b808",
    2: "93617edbcc4dccfb1f5918775098adb087203b5a6d5a2846d86fcf7bddd30f01",
    3: "7bfe24599889da5b213a30d680b052c1471cc0c423e827db6b4e2bdd4750e24f",
}


@pytest.mark.parametrize("seed", sorted(SMALL_SUITE_ALL_SHA256))
def test_small_suite_all_report_bytes_are_pinned(seed, capsys):
    code = main(["suite", "all", "--seed", str(seed), "--budget", "small", "--report", "json"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == SMALL_SUITE_ALL_SHA256[seed]


# sha256 of each workspace command's text and JSON report (`--report both`)
# on fixtures/corpus.ws at the default budget, with its exit status
CORPUS_COMMAND_SHA256 = {
    "validate": (0, "49e26f7b097ba14407af06fae668f25ab9bcc027b5e3b44568b81902a36353e1"),
    "sheafify h_s arrow_trivial": (
        0, "28d8f08e21c063880c804beb9997488f9b296562d4f70dbbe133b2265cdaaceb"
    ),
    "extend doubled_stalk h_s": (
        0, "0c366839719d6b8da04877e77cbf468f6f01a443b786671b195e94725e066463"
    ),
    "adjoint segment_stalk h_s": (
        0, "aa32cc719e0d4951b75a84e1c04eb8959c39e8f86192027c0eb4c239ba4ca829"
    ),
    "flat wedge": (1, "b9bca38f547cf7a042947482b355c83ec518c34dd52a711238578332729eb391"),
    "flat const_point": (0, "2bf19c3f9402876adb5ec3ee9371548968ae1d22c8b763b8e2816975e2ca5cb1"),
    "flat segment_stalk": (1, "a93d16f11ed54464591d25984bd7c011b3a9e39edb11e3907ac8d8faa5d5189a"),
    "continuous wedge two_point_discrete": (
        0, "ce543217207b5297578ebd8320edc3a907f022075441ead4da4f6e0d017ee160"
    ),
    "continuous const_point two_point_discrete": (
        1, "7a53ec25a1d864b81b3ad1188c32d4d85d933dc3217cb2915cac769496e8f7b7"
    ),
    "epsilon two_point_discrete": (
        0, "11322920e31d5f70c953c70f820d0bb063239421e0e0013b5aa7bf506ec8140c"
    ),
    "canonical-topology diamond": (
        0, "61c4c35da227d64017e136b28127e39bd7d6f04d60484479c746a335ea2c7bf8"
    ),
    "canonical-topology chain3": (
        0, "6bca86ecdf4ceda188a86504f79ee312469981dc1ac4213dfd34de9a6b7df31a"
    ),
}


@pytest.mark.parametrize("command", sorted(CORPUS_COMMAND_SHA256))
def test_workspace_command_report_bytes_are_pinned(command, capsys):
    code = main(command.split() + ["--input", CORPUS_WS, "--report", "both"])
    out = capsys.readouterr().out.encode()
    assert (code, hashlib.sha256(out).hexdigest()) == CORPUS_COMMAND_SHA256[command]


def test_out_writes_both_report_files(demo_ws, tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["validate", "--input", demo_ws, "--out", str(out), "--report", "both"])
    capsys.readouterr()
    assert code == 0
    data = json.loads((out / "validate.json").read_text())
    assert data["schema"] == "toposkit-report/1"
    assert "schema: toposkit-report/1" in (out / "validate.txt").read_text()


def test_module_entry_point(demo_ws):
    # the child imports toposkit from wherever this process found it
    src = os.path.dirname(os.path.dirname(toposkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "toposkit.cli", "validate", "--input", demo_ws,
         "--report", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed"] is False
