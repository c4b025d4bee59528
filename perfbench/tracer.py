"""Span recorder for the traced benchmark run.

Wrappers around toposkit's public functions record one span per call:
name, start, end and the span that was open when the call began.  Spans
stay in memory, in compact arrays, until the round ends; then they are
written out as JSON lines and folded into the per-layer metrics.

A wrapper has to replace every binding of the wrapped function: the
modules import each other's functions by name (``verify``, ``kan`` and
``site`` all do), so patching the defining module alone would miss most
calls.  ``install`` therefore scans every loaded ``toposkit`` module for
the original object, and patches class attributes
(``PresheafCategory.hom``, ``PresheafCategory.mor_key``) on the class.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Optional

# (layer, owner, attribute).  The owner is a module, or "module:Class"
# for a method.  Spans take the layer as their name, except the suite
# runner, whose spans are named after the suite they run.
TARGETS = [
    ("presheaf.census", "toposkit.presheaf", "enumerate_presheaves"),
    ("presheaf.hom", "toposkit.presheaf", "enumerate_presheaf_morphisms"),
    ("presheaf.yoneda", "toposkit.presheaf", "yoneda_embed"),
    ("presheaf.yoneda", "toposkit.presheaf", "yoneda_on_mor"),
    ("presheaf.yoneda", "toposkit.presheaf", "yoneda_forward"),
    ("presheaf.yoneda", "toposkit.presheaf", "yoneda_backward"),
    ("presheaf.hom_memo", "toposkit.presheaf:PresheafCategory", "hom"),
    ("presheaf.keys", "toposkit.presheaf", "presheaf_key"),
    ("presheaf.keys", "toposkit.presheaf", "short_key"),
    ("presheaf.keys", "toposkit.presheaf:PresheafCategory", "mor_key"),
    ("presheaf.iso", "toposkit.presheaf", "find_presheaf_iso"),
    ("presheaf.iso", "toposkit.presheaf", "is_presheaf_iso"),
    ("presheaf.colimit", "toposkit.presheaf", "presheaf_colimit"),
    ("presheaf.limit", "toposkit.presheaf", "presheaf_limit"),
    ("presheaf.elements", "toposkit.presheaf", "category_of_elements"),
    ("presheaf.density", "toposkit.presheaf", "density_check"),
    ("presheaf.compose", "toposkit.presheaf", "compose_presheaf_morphisms"),
    ("site.matching", "toposkit.site", "matching_families"),
    ("site.plus", "toposkit.site", "plus_construction"),
    ("site.sheafify", "toposkit.site", "sheafify"),
    ("site.is_sheaf", "toposkit.site", "is_sheaf"),
    ("site.coverform", "toposkit.site", "is_sheaf_coverform"),
    ("site.continuity", "toposkit.site", "is_continuous"),
    ("site.strict_epi", "toposkit.site", "is_strict_epi_family"),
    ("site.epsilon", "toposkit.site", "epsilon"),
    ("site.epsilon", "toposkit.site", "epsilon_on_mor"),
    ("kan.extend", "toposkit.kan", "tilde_extend"),
    ("kan.extend", "toposkit.kan", "tilde_extend_mor"),
    ("kan.right_adjoint", "toposkit.kan", "right_adjoint_hp"),
    ("kan.right_adjoint", "toposkit.kan", "hp_on_mor"),
    ("kan.phi", "toposkit.kan", "adjunction_phi"),
    ("kan.flat_set", "toposkit.kan", "is_flat_setvalued"),
    ("kan.flat_bounded", "toposkit.kan", "is_flat_bounded"),
    ("kan.build_ell", "toposkit.kan", "build_ell"),
    ("fincat.cofiltered", "toposkit.fincat", "is_cofiltered"),
    ("fincat.validate", "toposkit.fincat", "validate_category"),
    ("fincat.validate", "toposkit.fincat", "validate_functor"),
    ("fincat.validate", "toposkit.fincat", "validate_handle_functor"),
    ("fincat.make_category", "toposkit.fincat", "make_category"),
    ("verify.corpus", "toposkit.verify", "corpus_generate"),
    ("verify.suite", "toposkit.verify", "run_theorem_suite"),
    ("verify.controls", "toposkit.verify", "negative_controls"),
    ("verify.suite_all", "toposkit.verify", "suite_all"),
    ("cli.main", "toposkit.cli", "main"),
]

SUITES = ("I", "II", "III", "IV", "V", "VI", "VII")

# layers whose result length is summed into a work count
RESULT_COUNTS = {
    "presheaf.census": "presheaf.census.presheaves",
    "presheaf.hom": "presheaf.hom.morphisms",
    "site.matching": "site.matching.families",
}

SELF_TIME = [
    "presheaf.census", "presheaf.hom", "presheaf.yoneda", "presheaf.keys",
    "presheaf.iso", "presheaf.colimit", "presheaf.limit", "presheaf.elements",
    "presheaf.density", "presheaf.compose",
    "site.matching", "site.plus", "site.sheafify", "site.is_sheaf", "site.coverform",
    "site.continuity", "site.strict_epi", "site.epsilon",
    "kan.extend", "kan.right_adjoint", "kan.phi", "kan.flat_set", "kan.flat_bounded",
    "kan.build_ell",
    "fincat.cofiltered", "fincat.validate", "fincat.make_category",
    "verify.corpus",
]
CALLS = [
    "presheaf.hom", "presheaf.keys", "presheaf.iso", "site.matching", "site.plus",
    "kan.extend", "kan.right_adjoint",
]
INCLUSIVE = [f"verify.suite_{t}" for t in SUITES] + ["verify.controls"]

# every per-layer metric, with its unit; BENCHMARK.json lists the same
PER_LAYER = (
    [(f"{layer}.s", "s") for layer in SELF_TIME]
    + [(f"{layer}.calls", "count") for layer in CALLS]
    + [(name, "count") for name in RESULT_COUNTS.values()]
    + [("presheaf.hom_memo.lookups", "count"), ("presheaf.hom_memo.misses", "count")]
    + [(f"{name}.s", "s") for name in INCLUSIVE]
    + [("cli.render.s", "s")]
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, *, name_of: Optional[Callable] = None,
             count: Optional[str] = None) -> Callable:
        """``fn`` with a span around each call.  ``name_of`` derives the
        span name from the arguments; ``count`` sums result lengths."""
        nid = self._id(name)
        span_id = self._id
        counts = self.counts
        starts, ends, opened = self.start, self.end, self._open
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = starts.append, ends.append
        push, pop = opened.append, opened.pop
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            add_name(span_id(name_of(*args)) if name_of else nid)
            add_parent(opened[-1])
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                pop()
            if count is not None:
                counts[count] = counts.get(count, 0) + len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _phi(self, fn: Callable) -> Callable:
        """adjunction_phi, with its forward and backward maps traced too."""
        traced = self.wrap(fn, "kan.phi")
        wrap = self.wrap

        def phi(*args, **kwargs):
            res = traced(*args, **kwargs)
            res.forward = wrap(res.forward, "kan.phi")
            res.backward = wrap(res.backward, "kan.phi")
            return res

        phi.__wrapped__ = fn
        return phi

    def _wrapper_for(self, layer: str, fn: Callable) -> Callable:
        if layer == "kan.phi":
            return self._phi(fn)
        if layer == "verify.suite":
            return self.wrap(fn, "verify.suite", name_of=lambda t, *a, **k: f"verify.suite_{t}")
        return self.wrap(fn, layer, count=RESULT_COUNTS.get(layer))

    def install(self) -> None:
        for _, owner, _ in TARGETS:
            importlib.import_module(owner.partition(":")[0])
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "toposkit" or n.startswith("toposkit."))]
        for layer, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = sys.modules[mod_name]
            if cls_name:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._patched.append((cls, attr, orig))
                setattr(cls, attr, self._wrapper_for(layer, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrapper_for(layer, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> bool:
        """Restore every original; True when each binding is back."""
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        restored = all(
            (owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)) is orig
            for owner, key, orig in self._patched
        )
        self._patched.clear()
        return restored

    @property
    def patched(self) -> int:
        return len(self._patched)

    def dump(self, path: str) -> None:
        """One JSON line per span, gzipped: name, start, end, parent index."""
        names = [json.dumps(n) for n in self.names]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent):
                fh.write(f"[{names[n]}, {s!r}, {e!r}, {p}]\n")

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.names, self.name, self.parent, self.start, self.end, self.counts)


def span_times(names, name, parent, start, end) -> tuple[dict, dict, dict]:
    """Per span name: total self time, total duration, number of spans.

    A span's self time is its duration minus the part of it its child
    spans cover.  Spans are listed in start order, as the recorder
    appends them, so each span's children arrive in start order and
    their cover is merged in one pass; a child is clipped to its parent.
    """
    total = [0.0] * len(names)
    covered = [0.0] * len(names)
    count = [0] * len(names)
    reach: dict[int, float] = {}
    for i, (n, p, s, e) in enumerate(zip(name, parent, start, end)):
        total[n] += e - s
        count[n] += 1
        if p < 0:
            continue
        lo = max(s, reach.get(p, start[p]))
        hi = min(e, end[p])
        if hi > lo:
            covered[name[p]] += hi - lo
            reach[p] = hi
    own = {names[k]: total[k] - covered[k] for k in range(len(names)) if count[k]}
    incl = {names[k]: total[k] for k in range(len(names)) if count[k]}
    spans = {names[k]: count[k] for k in range(len(names)) if count[k]}
    return own, incl, spans


def layer_metrics(names, name, parent, start, end, counts) -> dict[str, float]:
    self_s, incl_s, spans = span_times(names, name, parent, start, end)
    memo = names.index("presheaf.hom_memo") if "presheaf.hom_memo" in names else -1
    hom = names.index("presheaf.hom") if "presheaf.hom" in names else -1
    misses = sum(1 for n, p in zip(name, parent) if n == hom and p >= 0 and name[p] == memo)
    out: dict[str, float] = {}
    for layer in SELF_TIME:
        out[f"{layer}.s"] = self_s.get(layer, 0.0)
    for layer in CALLS:
        out[f"{layer}.calls"] = spans.get(layer, 0)
    for key in RESULT_COUNTS.values():
        out[key] = counts.get(key, 0)
    out["presheaf.hom_memo.lookups"] = spans.get("presheaf.hom_memo", 0)
    out["presheaf.hom_memo.misses"] = misses
    for key in INCLUSIVE:
        out[f"{key}.s"] = incl_s.get(key, 0.0)
    out["cli.render.s"] = self_s.get("cli.main", 0.0)
    return out
