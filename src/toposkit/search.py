"""The one backtracking search behind every enumeration in the package.

Presheaf hom sets, cones, pointwise limits, the presheaf census,
matching families and compatible families are all assignments of values
to a fixed sequence of variables under binary constraints.  Each
caller states its variables, their domains, and which constraints become
decidable at which variable; ``backtrack`` does the search.

Constraints are checked at their later variable, so a partial assignment
is extended only while every constraint among its assigned variables
holds.  Pruning therefore removes only subtrees without solutions, and the
solutions come out in the same order as a filter over the full product.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence, Union

Domain = Union[Sequence[Any], Callable[[list], Any]]


def backtrack(
    domains: Sequence[Domain], ok: Callable[[int, list], bool]
) -> Iterator[tuple]:
    """Yield every consistent assignment, lexicographic in the domain orders.

    ``domains[i]`` is either a sequence or a function of the assignment
    list whose first i entries hold the values chosen so far; it returns
    an iterable of candidates for variable i.  ``ok(i, assign)`` is called
    after ``assign[i]`` is set and must check exactly the constraints
    whose latest variable is i; entries past i are stale.  Solutions are
    produced lazily, so a caller that wants the first one stops early.
    With no variables the empty assignment is the single solution.
    """
    n = len(domains)
    if n == 0:
        yield ()
        return
    assign: list = [None] * n
    candidates: list = [None] * n
    d = domains[0]
    candidates[0] = iter(d(assign) if callable(d) else d)
    i = 0
    while i >= 0:
        for v in candidates[i]:
            assign[i] = v
            if ok(i, assign):
                break
        else:
            i -= 1
            continue
        if i + 1 == n:
            yield tuple(assign)
        else:
            i += 1
            d = domains[i]
            candidates[i] = iter(d(assign) if callable(d) else d)
