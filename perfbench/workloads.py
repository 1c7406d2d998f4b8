"""The four benchmark workloads and their correctness checks.

Each workload drives ghelab only through its entry points
(`run_ensemble`, `reproduce_table`, `cli.main`) and makes every input
from the benchmark seed. `setup` generates the inputs and warms up;
`op` runs one operation and returns what the end-to-end metrics and the
checks need; `check_op` compares an operation's outputs with the first
operation's; `final_checks` runs the slower checks once per run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracle

CELL_PATHS = 4        # paths per cell in cell_serial and cell_pool
POOL_THREADS = 2      # worker processes in cell_pool: nproc of the reference box
T9_PATHS = 1          # paths per cell in t9_slice (108 cells per table)
N_SHUFFLES = 33
Q_VALUES = (1.0, 2.0, 3.0)
TAU_RANGE = (5, 19)

RESULT_COLUMNS = (
    "table", "generator", "param_set", "variable", "q", "stat", "original_mean",
    "original_std", "shuffled_mean", "shuffled_std", "delta_h", "delta_h_shuff",
    "test_z", "reject95",
)
NUMERIC_COLUMNS = RESULT_COLUMNS[4:5] + RESULT_COLUMNS[6:13]
T9_DELTA_ROWS = 108


@dataclass
class OpResult:
    paths: int
    latencies: list      # seconds per request: one cell, or one ghe command
    outputs: object      # compared across operations by check_op


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


class CellWorkload:
    """Four desk-protocol cells, variable `price`, run cell by cell."""

    op_name = "round"

    def __init__(self, threads: int):
        self.threads = threads

    def setup(self, seed: int, workdir: Path) -> None:
        from ghelab import ensemble
        from ghelab.generators import ArfimaParams, FbmParams, StableParams
        from ghelab.msm import gmm_estimates

        self.ensemble = ensemble
        cells = (
            (StableParams(alpha=1.6), 8192),
            (FbmParams(hurst=0.7, length=8192), 8192),
            (ArfimaParams(ar_coeffs=(0.4,), d=0.1, stable=StableParams(alpha=1.6)), 8192),
            (gmm_estimates()[("Dow", 20)], 8700),
        )
        self.specs = [
            ensemble.EnsembleSpec(
                generator=g, n_paths=CELL_PATHS, path_length=n, variable_kind="price",
                n_shuffles=N_SHUFFLES, master_seed=s,
            )
            for (g, n), s in zip(cells, _seeds(seed, len(cells)))
        ]
        # warm-up: fBm eigenvalue cache, lazy imports, and the pool machinery
        for spec in self.specs:
            ensemble.run_ensemble(replace(spec, n_paths=1))
        if self.threads > 1:
            ensemble.run_ensemble(replace(self.specs[0], n_paths=2), threads=self.threads)

    def op(self) -> OpResult:
        latencies, reports = [], []
        for spec in self.specs:
            t0 = time.perf_counter()
            reports.append(self.ensemble.run_ensemble(spec, threads=self.threads))
            latencies.append(time.perf_counter() - t0)
        return OpResult(len(self.specs) * CELL_PATHS, latencies, reports)

    def check_op(self, first, result) -> str | None:
        if result.outputs != first.outputs:
            return "reports differ from the first round's"
        return None

    def final_checks(self, first):
        checks = [(f"oracle {type(s.generator).__name__}", self._oracle(s))
                  for s in self.specs]
        if self.threads > 1 and first is not None:
            serial = [self.ensemble.run_ensemble(s, threads=1) for s in self.specs]
            err = None if serial == first.outputs else (
                f"threads={self.threads} reports differ from threads=1 reports")
            checks.append(("pool equals serial", err))
        return checks

    def _oracle(self, spec) -> str | None:
        one = replace(spec, n_paths=1)
        report = self.ensemble.run_ensemble(one, threads=self.threads)
        returns = self.ensemble.simulate_returns(
            spec.generator, spec.path_length, oracle.item_rng(spec.master_seed, 0, 0)
        ).values
        original, shuffled = oracle.path_h(
            returns, N_SHUFFLES, spec.master_seed, Q_VALUES, TAU_RANGE)
        return (oracle.mismatch("original H(q)", report.original_mean, original)
                or oracle.mismatch("shuffled H(q)", report.shuffled_mean, shuffled))


class T9Workload:
    """reproduce_table("T9", scale="desk", n_paths=T9_PATHS, threads=1)."""

    op_name = "reproduce_table"

    def setup(self, seed: int, workdir: Path) -> None:
        from ghelab import ensemble, tables
        from ghelab.msm import gmm_estimates

        self.tables = tables
        self.master_seed = _seeds(seed, 1)[0]
        self.out_dir = workdir / "t9"
        self.out_dir.mkdir()
        # warm-up: the gmm_estimates load and one desk-length MSM cell
        ensemble.run_ensemble(ensemble.EnsembleSpec(
            generator=gmm_estimates()[("Dow", 20)], n_paths=1,
            path_length=tables.MSM_PATH_LENGTH, master_seed=self.master_seed,
        ))

    def op(self) -> OpResult:
        # Cell latency needs a clock around each run_ensemble call the table
        # makes; two perf_counter reads per ~70 ms cell.
        latencies = []
        inner = self.tables.run_ensemble

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - t0)

        self.tables.run_ensemble = timed
        try:
            path = self.tables.reproduce_table(
                "T9", scale="desk", master_seed=self.master_seed,
                out_dir=self.out_dir, threads=1, n_paths=T9_PATHS,
            )
        finally:
            self.tables.run_ensemble = inner
        return OpResult(len(latencies) * T9_PATHS, latencies, Path(path).read_bytes())

    def check_op(self, first, result) -> str | None:
        if result.outputs != first.outputs:
            return "T9 CSV differs from the first table's"
        return None

    def final_checks(self, first):
        if first is None:
            return []
        return [("T9 CSV schema", _t9_schema_error(first.outputs))]


def _t9_schema_error(data: bytes) -> str | None:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or tuple(rows[0]) != RESULT_COLUMNS:
        return f"header is {rows[0] if rows else None}, want {len(RESULT_COLUMNS)} columns"
    body = [dict(zip(RESULT_COLUMNS, r)) for r in rows[1:]]
    if len(body) != T9_DELTA_ROWS or any(r["stat"] != "delta_H" for r in body):
        return f"{len(body)} rows, want {T9_DELTA_ROWS} delta_H rows"
    for i, r in enumerate(body, start=1):
        if len(rows[i]) != len(RESULT_COLUMNS):
            return f"row {i} has {len(rows[i])} fields"
        for col in ("delta_h", "delta_h_shuff"):
            if not r[col]:
                return f"row {i}: empty {col}"
        for col in NUMERIC_COLUMNS:
            if r[col] and not np.isfinite(float(r[col])):
                return f"row {i}: non-finite {col} {r[col]!r}"
    return None


class GheSeriesWorkload:
    """Closed loop, one caller: `ghelab --out DIR ghe prices.csv`."""

    op_name = "cli.main"

    def setup(self, seed: int, workdir: Path) -> None:
        from ghelab import cli
        from ghelab.msm import gmm_estimates, simulate_msm

        self.cli = cli
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        r = simulate_msm(gmm_estimates()[("Dow", 20)], 8700, rng).values
        self.prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(r))))
        self.csv_path = workdir / "prices.csv"
        with open(self.csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("t", "price"))
            writer.writerows((t, repr(float(p))) for t, p in enumerate(self.prices))
        self.out_dir = workdir / "ghe"
        self.argv = ["--out", str(self.out_dir), "ghe", str(self.csv_path)]
        self._call()  # warm-up

    def _call(self) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(self.argv)

    def op(self) -> OpResult:
        t0 = time.perf_counter()
        rc = self._call()
        latency = time.perf_counter() - t0
        return OpResult(1, [latency], (rc, (self.out_dir / "ghe_report.csv").read_bytes()))

    def check_op(self, first, result) -> str | None:
        rc, data = result.outputs
        if rc != 0:
            return f"ghe exited with {rc}"
        if data != first.outputs[1]:
            return "ghe_report.csv differs from the first call's"
        return None

    def final_checks(self, first):
        if first is None:
            return []
        return [("oracle ghe_report.csv", self._oracle(first.outputs[1]))]

    def _oracle(self, data: bytes) -> str | None:
        rows = [r for r in csv.DictReader(io.StringIO(data.decode())) if r["stat"] == "H"]
        if len(rows) != len(Q_VALUES):
            return f"{len(rows)} H rows, want {len(Q_VALUES)}"
        got_orig = [float(r["original_mean"]) for r in rows]
        got_shuf = [float(r["shuffled_mean"]) for r in rows]
        # the command runs with its default --seed 0
        original, shuffled = oracle.path_h(
            np.diff(np.log(self.prices)), N_SHUFFLES, 0, Q_VALUES, TAU_RANGE)
        return (oracle.mismatch("original H(q)", got_orig, original)
                or oracle.mismatch("shuffled H(q)", got_shuf, shuffled))


WORKLOADS = {
    "cell_serial": lambda: CellWorkload(threads=1),
    "cell_pool": lambda: CellWorkload(threads=POOL_THREADS),
    "t9_slice": T9Workload,
    "ghe_series": GheSeriesWorkload,
}

# Span names a traced run of each workload must record; a missing one means
# a traced name is no longer on the code path, so its time would be
# misattributed to the caller.
EXPECTED_SPANS = {
    "cell_serial": ("run_ensemble", "_path_stats", "simulate_returns", "shuffle",
                    "build_variable", "_grid_stats"),
    "t9_slice": ("run_ensemble", "_path_stats", "simulate_returns", "shuffle",
                 "build_variable", "_grid_stats", "write_result_csv"),
    "ghe_series": ("run_ensemble", "_path_stats", "simulate_returns", "shuffle",
                   "build_variable", "_grid_stats", "load_price_csv",
                   "generalized_hurst", "write_result_csv"),
}
EXPECTED_SPANS["cell_pool"] = EXPECTED_SPANS["cell_serial"]
