"""Expected values computed apart from toposkit.

Nothing here imports the program.  Census sizes come from closed forms,
one per fixture shape: a presheaf on a finite category is a choice of
value-set sizes and of functions between them, and for the fixture shapes
the number of functorial choices has a product formula (or, for the
diamond's commuting square, a count over fibres).  Sheaf counts and the
sizes of sheafified values come from the stalks of the two finite spaces
behind the sites.

The numbers at value bound 3 are pinned in ``selftest.py``:
arrow 60, chain3 1 678, chain4 50 018, diamond 74 112, discrete2 16,
one 4, parallel 910, span 1 842, z2 8, and suite I's check count
3 313 410.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterator

# the fixture categories, objects in sorted order
OBJECTS = {
    "arrow": ("s", "t"),
    "chain3": ("e", "t", "u"),
    "chain4": ("c0", "c1", "c2", "c3"),
    "diamond": ("a", "b", "bot", "top"),
    "discrete2": ("l", "r"),
    "one": ("*",),
    "parallel": ("a", "b"),
    "span": ("l", "m", "r"),
    "z2": ("*",),
}


def involutions(n: int) -> int:
    """Functions f on an n-set with f(f(x)) = x."""
    return sum(
        math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k) * 2**k)
        for k in range(n // 2 + 1)
    )


def _square_counts(bound: int) -> dict[tuple[int, int, int], Counter]:
    """For sizes (a, b, bot): how many pairs g_a: a -> bot, g_b: b -> bot
    have k pairs (x, y) with g_a(x) = g_b(y), as a Counter over k.

    An element of F(top) is sent to such a pair, independently of the
    others, so a square with top-size t contributes k ** t presheaves.
    """
    out: dict[tuple[int, int, int], Counter] = {}
    for a, b, o in itertools.product(range(bound + 1), repeat=3):
        ks: Counter = Counter()
        for ga in itertools.product(range(o), repeat=a):
            fa = Counter(ga)
            for gb in itertools.product(range(o), repeat=b):
                fb = Counter(gb)
                ks[sum(fa[z] * fb[z] for z in fa)] += 1
        out[(a, b, o)] = ks
    return out


def presheaf_counts(name: str, bound: int) -> Iterator[tuple[dict[str, int], int]]:
    """(sizes, number of presheaves with those value sizes), for every
    size vector with entries at most ``bound``."""
    objs = OBJECTS[name]
    square = _square_counts(bound) if name == "diamond" else None
    for sizes in itertools.product(range(bound + 1), repeat=len(objs)):
        n = dict(zip(objs, sizes))
        if name in ("one", "discrete2"):
            count = 1
        elif name == "z2":
            count = involutions(n["*"])
        elif name == "arrow":
            count = n["s"] ** n["t"]
        elif name == "chain3":
            count = n["e"] ** n["u"] * n["u"] ** n["t"]
        elif name == "chain4":
            count = n["c0"] ** n["c1"] * n["c1"] ** n["c2"] * n["c2"] ** n["c3"]
        elif name == "span":
            count = n["m"] ** n["l"] * n["m"] ** n["r"]
        elif name == "parallel":
            count = n["a"] ** (2 * n["b"])
        elif name == "diamond":
            ks = square[(n["a"], n["b"], n["bot"])]
            count = sum(mult * k ** n["top"] for k, mult in ks.items())
        else:
            raise KeyError(name)
        if count:
            yield n, count


def census_size(name: str, bound: int) -> int:
    return sum(c for _, c in presheaf_counts(name, bound))


def suite_I_checks(bound: int) -> int:
    """Suite I makes, per presheaf F and object X, one count check and
    two round-trip checks per element: sum over F, X of 1 + 2 |F(X)|."""
    total = 0
    for name, objs in OBJECTS.items():
        for sizes, count in presheaf_counts(name, bound):
            total += count * (len(objs) + 2 * sum(sizes.values()))
    return total


# ---------------------------------------------------------------------------
# the two finite spaces behind the sites
#
# sierpinski: opens e = {} < u = {1} < t = {1, 2}; the empty open is
# covered by the empty family and nothing else is covered non-trivially,
# so a sheaf is a presheaf with one section over e, and sheafification
# only collapses F(e).
#
# two_point_discrete: opens bot = {} < a = {1}, b = {2} < top = {1, 2},
# with top covered by {a, b}.  A sheaf has one section over bot and
# F(top) -> F(a) x F(b) a bijection; sheafification keeps the stalks
# F(a), F(b) and rebuilds the rest from them.


def sierpinski_sheaves(bound: int) -> int:
    return sum(u**t for u in range(bound + 1) for t in range(bound + 1))


def two_point_sheaves(bound: int) -> int:
    return sum(
        math.factorial(a * b)
        for a in range(bound + 1)
        for b in range(bound + 1)
        if a * b <= bound
    )


def sizes(F) -> dict[str, int]:
    return {x: len(v) for x, v in F.values.items()}


def is_sheaf_expected(site: str, F) -> bool:
    n = sizes(F)
    if site == "sierpinski":
        return n["e"] == 1
    if n["bot"] != 1:
        return False
    pairs = {(F.actions["a.top"][x], F.actions["b.top"][x]) for x in F.values["top"]}
    return len(pairs) == n["top"] == n["a"] * n["b"]


def sheafified_sizes(site: str, F) -> dict[str, int]:
    n = sizes(F)
    if site == "sierpinski":
        return {"e": 1, "u": n["u"], "t": n["t"]}
    return {"bot": 1, "a": n["a"], "b": n["b"], "top": n["a"] * n["b"]}
