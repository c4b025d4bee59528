"""The backtracking kernel against a filter over the full product.

Random binary constraint networks of up to five variables: every
constrained pair (a, b) with a <= b carries a random relation table, and
``ok`` consults exactly the tables whose later variable is the one just
assigned.  The kernel must return the product filter, in product order.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from toposkit.search import backtrack

VALUES = st.lists(st.integers(0, 9), min_size=0, max_size=3, unique=True)


@st.composite
def networks(draw):
    domains = draw(st.lists(VALUES, min_size=0, max_size=5))
    n = len(domains)
    tables = {}
    for b in range(n):
        for a in range(b + 1):
            if draw(st.booleans()):
                tables[(a, b)] = {
                    (u, v): draw(st.booleans()) for u in domains[a] for v in domains[b]
                }
    return domains, tables


def holds(tables, t) -> bool:
    return all(rel[(t[a], t[b])] for (a, b), rel in tables.items())


def checker(tables):
    def ok(i, assign):
        return all(
            rel[(assign[a], assign[b])] for (a, b), rel in tables.items() if b == i
        )

    return ok


@settings(max_examples=150, deadline=None)
@given(networks())
def test_backtrack_is_the_product_filter_in_order(net):
    domains, tables = net
    expected = [t for t in itertools.product(*domains) if holds(tables, t)]
    assert list(backtrack(domains, checker(tables))) == expected


@settings(max_examples=100, deadline=None)
@given(networks(), st.integers(0, 9))
def test_prefix_dependent_domains(net, shift):
    # variable i may take only values that differ from every earlier choice
    # by at least one, shifted; the oracle filters the product of the
    # widened domains by the same rule
    domains, tables = net

    def narrowed(i):
        return lambda assign: [
            v for v in domains[i] if all(v != (w + shift) % 10 for w in assign[:i])
        ]

    def allowed(t) -> bool:
        return all(t[i] != (t[j] + shift) % 10 for i in range(len(t)) for j in range(i))

    expected = [
        t for t in itertools.product(*domains) if allowed(t) and holds(tables, t)
    ]
    got = list(backtrack([narrowed(i) for i in range(len(domains))], checker(tables)))
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(networks())
def test_next_stops_at_the_first_solution(net):
    domains, tables = net
    expected = [t for t in itertools.product(*domains) if holds(tables, t)]
    tried: list[tuple[int, ...]] = []
    base = checker(tables)

    def ok(i, assign):
        tried.append(tuple(domains[k].index(assign[k]) for k in range(i + 1)))
        return base(i, assign)

    gen = backtrack(domains, ok)
    first = next(gen, None)
    assert first == (expected[0] if expected else None)
    if first is not None:
        # every partial assignment tried comes no later than the solution
        where = tuple(domains[k].index(v) for k, v in enumerate(first))
        assert all(t <= where[: len(t)] for t in tried)
        assert list(gen) == expected[1:]


def test_no_variables_is_one_empty_solution():
    assert list(backtrack([], lambda i, a: False)) == [()]


def test_empty_domain_kills_every_solution():
    assert list(backtrack([[1, 2], [], [3]], lambda i, a: True)) == []


def test_unconstrained_search_is_the_product():
    domains = [range(2), "ab", (None,)]
    assert list(backtrack(domains, lambda i, a: True)) == list(itertools.product(*domains))
