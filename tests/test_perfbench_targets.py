"""The benchmark under ``perfbench/`` stays runnable.

The traced benchmark patches toposkit functions by name.
``perfbench/tracer.py`` lists them in ``TARGETS``.  The first test loads
that file without registering it as a module and checks that every
``(owner, attribute)`` pair still resolves, so a rename fails here
rather than in the traced benchmark run.  The second runs the
benchmark's own self-test, so a change that breaks its oracles, its
tracer or a workload fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
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


def test_benchmark_self_test_passes():
    # oracles, self-time arithmetic, tracer install and restore, and each
    # workload at its tiny size, traced and untraced
    root = TRACER.parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
