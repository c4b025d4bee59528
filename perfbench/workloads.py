"""The three benchmark workloads.

Each workload has three phases.  ``setup`` builds its inputs from the
seed; ``run`` makes the program calls, and is the only timed phase;
``check`` compares what the calls returned with values from
``oracles.py`` and reports how many operations were attempted, how many
failed and how many verdicts the program produced.

The program is called through module attributes (``site.is_sheaf``, not
a name imported from ``site``), so the traced run's wrappers see every
call the workload makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

import oracles

# value bounds and seed counts, full size and the self-test's tiny size
SIZES = {
    "suite-all": {"full": {"seeds": 4}, "tiny": {"seeds": 1}},
    "sheaf-census": {
        "full": {"census": (("sierpinski", 3), ("two_point_discrete", 2)), "random": 1000},
        "tiny": {"census": (("sierpinski", 2), ("two_point_discrete", 1)), "random": 16},
    },
    "adjunction-seeds": {
        "full": {"seeds": 6, "budget": "default"},
        "tiny": {"seeds": 1, "budget": "small"},
    },
}

# the release report's budget profile; see README for why not "default"
SUITE_ALL_BUDGET = "small"
SUITE_ALL_BOUND = 2


class Outcome:
    def __init__(self) -> None:
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.digest = hashlib.sha256()

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"operation failed: {what}", file=sys.stderr)

    def expect(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        if not ok and len(self.problems) == 20:
            self.problems.append("further problems not listed")


class SuiteAll:
    """The release report, ``toposkit suite all``, through the CLI entry
    point, for consecutive seeds; the report text is what users get."""

    def __init__(self, seed: int, size: str) -> None:
        self.seeds = [seed + i for i in range(SIZES["suite-all"][size]["seeds"])]

    def setup(self) -> None:
        from toposkit import cli

        self.cli = cli

    def run(self) -> None:
        self.reports = []
        for s in self.seeds:
            argv = ["suite", "all", "--seed", str(s), "--budget", SUITE_ALL_BUDGET,
                    "--report", "json"]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv)
            except Exception as e:  # counted as a failed operation
                code = repr(e)
            self.reports.append((s, code, buf.getvalue()))

    def check(self) -> Outcome:
        out = Outcome()
        expected_I = oracles.suite_I_checks(SUITE_ALL_BOUND)
        for s, code, text in self.reports:
            out.attempted += 1
            out.digest.update(text.encode())
            if code not in (0, 1):
                out.fail(f"seed {s}: {code}")
                continue
            out.expect(code == 0, f"seed {s}: exit status {code}")
            rep = json.loads(text)
            res = rep["result"]
            out.expect(rep["failed"] is False and res["verdict"] == "pass",
                       f"seed {s}: report verdict {res['verdict']}")
            out.expect(rep["seed"] == s and res["budget"] == SUITE_ALL_BUDGET,
                       f"seed {s}: envelope names seed {rep['seed']}")
            theorems = [r["theorem"] for r in res["suites"]]
            out.expect(theorems == ["I", "II", "III", "IV", "V", "VI", "VII", "controls"],
                       f"seed {s}: suites {theorems}")
            for r in res["suites"]:
                out.verdicts += r["checks_run"]
                out.expect(r["verdict"] == "pass" and r["checks_run"] > 0,
                           f"seed {s}: suite {r['theorem']} {r['verdict']}")
            suite_I = res["suites"][0]["checks_run"]
            out.expect(suite_I == expected_I,
                       f"seed {s}: suite I ran {suite_I} checks, expected {expected_I}")
        return out


def random_diamond_presheaf(rng: random.Random, bound: int):
    """Sizes and tables for a presheaf on bot < a, b < top, drawn by
    rejection: F(a) -> F(bot) and F(b) -> F(bot) first, then each element
    of F(top) goes to a pair over a common point of F(bot)."""
    while True:
        n = {x: rng.randint(0, bound) for x in ("bot", "a", "b", "top")}
        if (n["a"] or n["b"]) and not n["bot"]:
            continue
        ga = [rng.randrange(n["bot"]) for _ in range(n["a"])]
        gb = [rng.randrange(n["bot"]) for _ in range(n["b"])]
        pairs = [(x, y) for x in range(n["a"]) for y in range(n["b"]) if ga[x] == gb[y]]
        if n["top"] and not pairs:
            continue
        tops = [rng.choice(pairs) for _ in range(n["top"])]
        values = {x: [f"e{k}" for k in range(n[x])] for x in n}
        actions = {
            "bot.a": {f"e{x}": f"e{ga[x]}" for x in range(n["a"])},
            "bot.b": {f"e{y}": f"e{gb[y]}" for y in range(n["b"])},
            "a.top": {f"e{k}": f"e{x}" for k, (x, _) in enumerate(tops)},
            "b.top": {f"e{k}": f"e{y}" for k, (_, y) in enumerate(tops)},
            "bot.top": {f"e{k}": f"e{ga[x]}" for k, (x, _) in enumerate(tops)},
        }
        return values, actions


class SheafCensus:
    """Every presheaf up to a value bound on two sites, plus seeded
    presheaves of bound 3 on the two-point space, each put through both
    sheaf checks, sheafification, and the checks on its result."""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.census = SIZES["sheaf-census"][size]["census"]
        self.n_random = SIZES["sheaf-census"][size]["random"]

    def setup(self) -> None:
        from toposkit import presheaf, site, verify

        self.psh, self.site = presheaf, site
        corpus = verify.corpus_generate(self.seed)
        self.sites = corpus.sites
        rng = random.Random(f"{self.seed}:sheaf-census")
        diamond = self.sites["two_point_discrete"].base
        self.random_inputs = [
            presheaf.make_presheaf(diamond, *random_diamond_presheaf(rng, 3))
            for _ in range(self.n_random)
        ]

    def _process(self, site_name: str, F) -> tuple:
        S = self.sites[site_name]
        st = self.site
        try:
            was = st.is_sheaf(F, S).ok
            was_cf = st.is_sheaf_coverform(F, S).ok
            res = st.sheafify(F, S)
            now = st.is_sheaf(res.sheaf, S).ok
            unit_iso = self.psh.is_presheaf_iso(res.unit)
            again = st.sheafify(res.sheaf, S)
        except Exception as e:  # counted as a failed operation
            return (site_name, F, repr(e))
        return (site_name, F, was, was_cf, res.sheaf, now, unit_iso, again.sheaf, again.unit)

    def run(self) -> None:
        self.results = []
        self.census_sizes = []
        for site_name, bound in self.census:
            ps = self.psh.enumerate_presheaves(self.sites[site_name].base, bound)
            self.census_sizes.append((site_name, bound, len(ps)))
            self.results.extend(self._process(site_name, F) for F in ps)
        self.results.extend(self._process("two_point_discrete", F) for F in self.random_inputs)

    def check(self) -> Outcome:
        out = Outcome()
        base_of = {"sierpinski": "chain3", "two_point_discrete": "diamond"}
        for site_name, bound, n in self.census_sizes:
            want = oracles.census_size(base_of[site_name], bound)
            out.expect(n == want, f"{site_name}: census of {n} presheaves, expected {want}")
        sheaves = {name: 0 for name in base_of}
        n_census = sum(n for _, _, n in self.census_sizes)
        for k, row in enumerate(self.results):
            site_name, F = row[0], row[1]
            out.attempted += 1
            if len(row) == 3:
                out.fail(f"{site_name} #{k}: {row[2]}")
                continue
            _, _, was, was_cf, aF, now, unit_iso, aaF, unit2 = row
            out.verdicts += 6
            sheaf = oracles.is_sheaf_expected(site_name, F)
            if k < n_census:
                sheaves[site_name] += was
            out.digest.update(repr((was, was_cf, sorted(aF.values.items()))).encode())
            out.expect(was == was_cf == sheaf,
                       f"{site_name} #{k}: is_sheaf {was}, cover form {was_cf}, stalks say {sheaf}")
            out.expect(oracles.sizes(aF) == oracles.sheafified_sizes(site_name, F),
                       f"{site_name} #{k}: sheafified sizes {oracles.sizes(aF)}")
            out.expect(now, f"{site_name} #{k}: sheafification is not a sheaf")
            out.expect(unit_iso == sheaf, f"{site_name} #{k}: unit iso {unit_iso}")
            out.expect(
                aaF.values == aF.values
                and all(v == e for comp in unit2.components.values() for e, v in comp.items()),
                f"{site_name} #{k}: sheafifying a sheaf changed it",
            )
        for site_name, bound, _ in self.census_sizes:
            want = (oracles.sierpinski_sheaves if site_name == "sierpinski"
                    else oracles.two_point_sheaves)(bound)
            out.expect(sheaves[site_name] == want,
                       f"{site_name}: {sheaves[site_name]} sheaves at bound {bound}, expected {want}")
        return out


class AdjunctionSeeds:
    """Suites II-VII and the negative controls over consecutive corpus
    seeds, in one long-lived process, as a library user would run them."""

    def __init__(self, seed: int, size: str) -> None:
        conf = SIZES["adjunction-seeds"][size]
        self.seeds = [seed + i for i in range(conf["seeds"])]
        self.budget = conf["budget"]

    def setup(self) -> None:
        from toposkit import kan, presheaf, verify

        self.verify, self.kan, self.psh = verify, kan, presheaf
        self.first_corpus = verify.corpus_generate(self.seeds[0], self.budget)

    def run(self) -> None:
        vf = self.verify
        self.corpora = []
        self.reports = []
        for s in self.seeds:
            corpus = self.first_corpus if s == self.seeds[0] else vf.corpus_generate(s, self.budget)
            self.corpora.append(corpus)
            for theorem in vf.SUITE_IDS[1:]:
                try:
                    rep = vf.run_theorem_suite(theorem, corpus, self.budget).to_dict()
                except Exception as e:  # counted as a failed operation
                    rep = {"theorem": theorem, "error": repr(e)}
                self.reports.append((s, rep))
            try:
                rep = vf.negative_controls(corpus).to_dict()
            except Exception as e:
                rep = {"theorem": "controls", "error": repr(e)}
            self.reports.append((s, rep))

    def check(self) -> Outcome:
        out = Outcome()
        for s, rep in self.reports:
            out.attempted += 1
            out.digest.update(json.dumps(rep, sort_keys=True).encode())
            if "error" in rep:
                out.fail(f"seed {s}: suite {rep['theorem']}: {rep['error']}")
                continue
            out.verdicts += rep["checks_run"]
            out.expect(rep["verdict"] == "pass" and rep["checks_run"] > 0,
                       f"seed {s}: suite {rep['theorem']} {rep['verdict']}")
        for corpus in self.corpora:
            try:
                self._check_tables(corpus, out)
            except Exception as e:
                out.expect(False, f"seed {corpus.seed}: table check raised {e!r}")
        return out

    def _check_tables(self, corpus, out: Outcome) -> None:
        """co-Yoneda: extending hom(W, -) evaluates a presheaf at W; and the
        right adjoint's value at X is the set of maps p(X) -> z."""
        kan, psh = self.kan, self.psh
        zs = [psh.finset_obj([f"z{i}" for i in range(n)], name=f"Z{n}") for n in range(3)]
        for fx in corpus.functors:
            p = fx.functor
            if fx.name.startswith("hom_from_"):
                W = fx.name[len("hom_from_"):-len(fx.base) - 1]
                for H in corpus.presheaves[fx.base]:
                    got = len(kan.tilde_extend(p, H).obj.values["*"])
                    out.expect(got == len(H.values[W]),
                               f"seed {corpus.seed}: {fx.name} on {psh.short_key(H)} has {got}")
            if fx.codomain == "finset":
                for z in zs:
                    hp = kan.right_adjoint_hp(p, z)
                    for X in p.dom.objects:
                        want = len(z.values["*"]) ** len(p.obj_map[X].values["*"])
                        out.expect(len(hp.values[X]) == want,
                                   f"seed {corpus.seed}: h_{fx.name}({z.name})({X}) size")


WORKLOADS = {
    "suite-all": SuiteAll,
    "sheaf-census": SheafCensus,
    "adjunction-seeds": AdjunctionSeeds,
}
