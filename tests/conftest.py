"""Shared fixture categories, built by hand so tests stay independent
of the corpus generator they are meant to check, the helpers that
compare tables with their dict orders, and epsilon as a handle functor."""

from __future__ import annotations

import pytest

from toposkit.fincat import FinCategory, HandleFunctor, make_category, poset_category
from toposkit.presheaf import Presheaf
from toposkit.site import SheafCategory, Site, epsilon, epsilon_on_mor


def diamond() -> FinCategory:
    """Poset bot < a, b < top with a, b incomparable."""
    return poset_category(
        "diamond", ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )


def chain(n: int) -> FinCategory:
    objs = [f"c{i}" for i in range(n)]
    return poset_category(f"chain{n}", objs, [(objs[i], objs[i + 1]) for i in range(n - 1)])


def discrete2() -> FinCategory:
    return make_category("disc2", ["l", "r"])


def z2_group() -> FinCategory:
    """One object, one involution: s.s = id."""
    return make_category("z2", ["*"], [("s", "*", "*")], {("s", "s"): "id_*"})


def walking_idempotent() -> FinCategory:
    return make_category("idem", ["e"], [("e2", "e", "e")], {("e2", "e2"): "e2"})


def parallel_arrows() -> FinCategory:
    return make_category("pp", ["x", "y"], [("u", "x", "y"), ("v", "x", "y")], {})


@pytest.fixture
def diamond_cat() -> FinCategory:
    return diamond()


@pytest.fixture
def serial_workers(monkeypatch):
    """Every suite run in-process, as on a machine with one CPU."""
    from toposkit import verify

    monkeypatch.setattr(verify, "_worker_count", lambda units: 1)


def ordered(d):
    """Nested dicts as item lists, so that key order is compared too."""
    return [(k, ordered(v)) for k, v in d.items()] if isinstance(d, dict) else d


def reversed_tables(F: Presheaf) -> Presheaf:
    """F with every value tuple and action dict in reverse order."""
    return Presheaf(
        F.base,
        {X: vs[::-1] for X, vs in F.values.items()},
        {m: dict(reversed(act.items())) for m, act in F.actions.items()},
        "R",
    )


def epsilon_handle_functor(site: Site, cod: SheafCategory) -> HandleFunctor:
    """Epsilon packaged as a handle-valued functor for functor-level checks."""
    C = site.base
    return HandleFunctor(
        "epsilon",
        C,
        cod,
        {X: epsilon(site, X) for X in C.objects},
        {m: epsilon_on_mor(site, m) for m in C.non_identities()},
    )


def swapped_legs(eps: HandleFunctor) -> HandleFunctor:
    """A functor on the diamond precomposed with its a <-> b symmetry."""
    swap = {"bot": "bot", "a": "b", "b": "a", "top": "top"}

    def swapped_mor(m):
        x, y = m.split(".")
        return f"{swap[x]}.{swap[y]}"

    return HandleFunctor(
        "epsilon_swapped",
        eps.dom,
        eps.cod,
        {X: eps.obj_map[swap[X]] for X in eps.dom.objects},
        {m: eps.mor_map[swapped_mor(m)] for m in eps.dom.non_identities()},
    )
