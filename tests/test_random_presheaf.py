"""The corpus sampler against the fixpoint it replaced.

``old_random_presheaf`` is ``verify.random_presheaf`` as it was when its
derivation of composite actions also rejected clashing factorizations.
Now ``validate_presheaf`` alone rejects a draw that breaks a functor law.
On every fixture category, both must draw the same presheaves and leave
the random stream in the same state.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import walking_idempotent
from toposkit.errors import ResourceBudgetError, StructureError
from toposkit.fincat import FinCategory
from toposkit.presheaf import Presheaf, make_presheaf, presheaf_key, validate_presheaf
from toposkit.verify import (
    RANDOM_PRESHEAF_ATTEMPTS,
    _indecomposables,
    fixture_categories,
    random_presheaf,
)

CATEGORIES = fixture_categories()


def old_random_presheaf(
    C: FinCategory, rng: random.Random, bound: int = 3, name: str = ""
) -> Presheaf:
    """A uniformly drawn functorial table, by rejection.

    Actions are sampled on the indecomposable morphisms only; composites
    are derived, and a draw is rejected when two factorizations clash or
    an identity composite is not the identity.  Rejection keeps the
    sampler honest: no bias toward any particular completion.
    """
    gens = _indecomposables(C)
    non_ids = sorted(C.non_identities())
    objs = sorted(C.objects)
    for _ in range(RANDOM_PRESHEAF_ATTEMPTS):
        values = {X: tuple(f"x{i}" for i in range(rng.randint(0, bound))) for X in objs}
        actions: dict[str, dict[str, str]] = {}
        ok = True
        for m in gens:
            dom = values[C.tgt(m)]
            cod = values[C.src(m)]
            if dom and not cod:
                ok = False
                break
            actions[m] = {e: rng.choice(cod) for e in dom}
        if not ok:
            continue
        changed = True
        while changed and ok:
            changed = False
            for g in non_ids:
                if g not in actions:
                    continue
                for f in non_ids:
                    if f not in actions or C.src(g) != C.tgt(f):
                        continue
                    gf = C.compose(g, f)
                    comp = {e: actions[f][actions[g][e]] for e in values[C.tgt(g)]}
                    if C.is_identity(gf):
                        if any(v != e for e, v in comp.items()):
                            ok = False
                    elif gf in actions:
                        if actions[gf] != comp:
                            ok = False
                    else:
                        actions[gf] = comp
                        changed = True
                    if not ok:
                        break
                if not ok:
                    break
        if not ok:
            continue
        if set(actions) != set(non_ids):
            raise StructureError(f"{C.name}: indecomposables do not generate")
        F = make_presheaf(C, values, actions, name=name)
        if validate_presheaf(F).ok:
            return F
    raise ResourceBudgetError(
        "random_presheaf", RANDOM_PRESHEAF_ATTEMPTS + 1, RANDOM_PRESHEAF_ATTEMPTS
    )


def draws(sampler, C, seed, bound, n=4):
    rng = random.Random(seed)
    keys = [presheaf_key(sampler(C, rng, bound, name="P")) for _ in range(n)]
    return keys, rng.getstate()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CATEGORIES)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
)
def test_sampler_draws_as_the_clash_detecting_fixpoint(cname, seed, bound):
    C = CATEGORIES[cname]
    assert draws(random_presheaf, C, seed, bound) == draws(old_random_presheaf, C, seed, bound)


def test_sampler_refuses_a_category_its_indecomposables_do_not_generate():
    # e2 = e2.e2 is its own only factorization, so nothing is sampled for it
    with pytest.raises(StructureError, match="indecomposables do not generate"):
        random_presheaf(walking_idempotent(), random.Random(0), 2)
