"""Guards for the tooling that drives ghelab from outside the package."""

import importlib
from pathlib import Path

import ghelab.ensemble as ensemble
from ghelab import EnsembleSpec, StableParams

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


def test_traced_pool_run_matches_untraced(monkeypatch):
    # a traced benchmark run wraps _path_stats in pool workers, copies its
    # result with dict() and carries the worker's spans back with it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    spec = EnsembleSpec(generator=StableParams(alpha=1.6), n_paths=2,
                        path_length=256, n_shuffles=2, master_seed=4)
    plain = ensemble.run_ensemble(spec, threads=2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = ensemble.run_ensemble(spec, threads=2)
    finally:
        tracing.uninstall()
    assert traced == plain
    paths = [s for s in tracer.spans if s.name == "_path_stats"]
    assert len(paths) == spec.n_paths
    for path in paths:
        children = {s.name for s in tracer.spans if s.parent == path.id}
        assert {"simulate_returns", "_grid_stats"} <= children
