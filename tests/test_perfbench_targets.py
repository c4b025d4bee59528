"""The traced benchmark patches toposkit functions by name.

``perfbench/tracer.py`` lists them in ``TARGETS``.  This test loads that
file without registering it as a module and checks that every
``(owner, attribute)`` pair still resolves, so a rename fails here
rather than in the traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for layer, owner, attr in targets:
        mod_name, _, cls_name = owner.partition(":")
        mod = importlib.import_module(mod_name)
        if cls_name:
            # the tracer patches methods through the class dictionary
            cls = getattr(mod, cls_name, None)
            found = cls is not None and callable(vars(cls).get(attr))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append((layer, owner, attr))
    assert missing == []
