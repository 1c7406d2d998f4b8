"""Guards for the tooling that drives ghelab from outside the package."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghelab
import ghelab.ensemble as ensemble
from ghelab import EnsembleSpec, StableParams, cli, write_series_csv

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_every_public_name_is_used_inside_the_package():
    # a public name only tests and docs call is surface without a caller:
    # delete it, or make the package use it
    used = set()
    for path in (ROOT / "src" / "ghelab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(ghelab.__all__) - used) == []


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


def test_workload_names_exist():
    # perfbench/workloads.py reads these names from ghelab; a workload whose
    # name is gone crashes in setup, so a rename must update it too
    read = {
        "ghelab.tables": ("MSM_PATH_LENGTH", "reproduce_table", "run_ensemble"),
        "ghelab.ensemble": ("EnsembleSpec", "run_ensemble", "simulate_returns"),
        "ghelab.msm": ("gmm_estimates", "simulate_msm"),
        "ghelab.generators": ("ArfimaParams", "FbmParams", "StableParams"),
        "ghelab.cli": ("main",),
    }
    missing = [
        f"{mod}.{name}"
        for mod, names in read.items()
        for name in names
        if not hasattr(importlib.import_module(mod), name)
    ]
    assert not missing


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


def test_traced_ghe_counts_loaded_rows(monkeypatch, tmp_path):
    # io.rows_per_s divides the rows attribute of each load_price_csv span by
    # its time; the tracer takes that attribute from len() of the loaded prices
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(3).normal(0, 0.01, 300)))
    csv_path = write_series_csv(prices, tmp_path / "prices.csv")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        status = cli.main(["--out", str(tmp_path), "ghe", str(csv_path), "--shuffles", "2"])
    finally:
        tracing.uninstall()
    assert status == 0
    loads = [s for s in tracer.spans if s.name == "load_price_csv"]
    assert len(loads) == 1 and loads[0].attrs["rows"] == 300


def test_tables_run_one_ensemble_per_cell(monkeypatch, tmp_path):
    # perfbench's t9_slice counts paths and times cells by wrapping
    # ghelab.tables.run_ensemble, so every cell must go through that
    # binding exactly once
    import ghelab.tables as tables

    calls = []
    inner = tables.run_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tables, "run_ensemble", counted)
    tables.reproduce_table("T5", out_dir=tmp_path, n_paths=1)
    assert len(calls) == len(tables.ALPHA_GRID) == 5


def test_small_workloads_record_every_expected_span(monkeypatch, tmp_path):
    # perfbench --trace 1 exits on TraceIncomplete when a workload no longer
    # reaches a name it expects to trace; run each workload at toy size
    import ghelab.tables as tables

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    expected = importlib.import_module("workloads").EXPECTED_SPANS
    spec = EnsembleSpec(generator=StableParams(alpha=1.6), n_paths=2,
                        path_length=256, n_shuffles=2, master_seed=4)
    prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(3).normal(0, 0.01, 300)))
    csv_path = write_series_csv(prices, tmp_path / "prices.csv")
    small = {
        "cell_serial": lambda: ensemble.run_ensemble(spec, threads=1),
        "cell_pool": lambda: ensemble.run_ensemble(spec, threads=2),
        "t9_slice": lambda: tables.reproduce_table("T5", out_dir=tmp_path, n_paths=1),
        "ghe_series": lambda: cli.main(
            ["--out", str(tmp_path), "ghe", str(csv_path), "--shuffles", "2"]),
    }
    assert small.keys() == expected.keys()
    for workload, run in small.items():
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            run()
        finally:
            tracing.uninstall()
        missing = set(expected[workload]) - {s.name for s in tracer.spans}
        assert not missing, f"{workload} records no span of {sorted(missing)}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_exits_cleanly(workload):
    # the benchmark's own traced run, as a process from the repository root:
    # setup and untraced warm-up, alternating traced operations, final checks
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
