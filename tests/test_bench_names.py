"""The benchmark's tracer looks plap_lab's layers up by name; every name it
wraps must exist, so that renaming or deleting one fails here and not only in
the minutes-long benchmark suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "plapbench" / "tracing.py"


def _tracing(monkeypatch):
    """plapbench/tracing.py loaded as a module without touching the file;
    its dataclasses need the module registered while it executes."""
    spec = importlib.util.spec_from_file_location("_plapbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = []
    for mod, attr in tracing.FUNCTIONS:
        if not hasattr(importlib.import_module(f"{tracing.PACKAGE}.{mod}"), attr):
            missing.append(f"{mod}.{attr}")
    for mod, cls, meth in tracing.METHODS:
        owner = getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod}"), cls, None)
        if owner is None or meth not in vars(owner):
            missing.append(f"{mod}.{cls}.{meth}")
    assert not missing, f"names the benchmark traces that plap_lab lacks: {missing}"
