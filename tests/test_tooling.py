"""Guards for the tooling that drives ghelab from outside the package."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_exist(monkeypatch):
    # a traced benchmark run exits when one of these names is gone, so a
    # rename or deletion in ghelab must update perfbench/tracing.py too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{mod}.{name}"
        for mod, names in tracing.TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(mod), name)
    ]
    assert tracing.TARGETS and not missing
