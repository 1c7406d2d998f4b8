"""Reproduction runs for the published result tables T2 through T9.

T2, T3, T4: MSM ensembles calibrated per asset, analyzed on the price
path, cumulative absolute returns, and cumulative squared returns
respectively, with identity tests against empirical series when a data
directory is supplied. T5: iid stable motions. T6: fractional Brownian
motion. T7, T8: fractionally integrated noise without and with an AR(1)
term. T9: the delta_h decomposition across all MSM calibrations.

Scale selects the Monte Carlo budget: desk runs 200 paths per cell,
full runs 1000 like the published numbers.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import InvalidParams, MissingEmpiricalData
from .ensemble import EmpiricalSeries, EnsembleSpec, run_ensemble
from .generators import STANDARD_SCALE, ArfimaParams, FbmParams, StableParams
from .io import load_price_csv, report_rows, write_result_csv
from .msm import gmm_estimates
from .series import ReturnKind, VariableKind, make_returns

TABLE_IDS = ("T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")

ASSETS = ("Dow", "Nik", "DM/US", "US/UK", "TB1", "TB2", "TB3", "TB5", "TB10")
K_GRID = (5, 10, 15, 20)
ALPHA_GRID = (1.2, 1.4, 1.6, 1.8, 2.0)
D_GRID = (-0.2, -0.1, 0.0, 0.1, 0.2)
HURST_GRID = (0.3, 0.4, 0.5, 0.6, 0.7)

_VARIABLE_FOR_TABLE = {
    "T2": VariableKind.PRICE,
    "T3": VariableKind.CUM_ABS_RETURN,
    "T4": VariableKind.CUM_SQ_RETURN,
}

PATHS_BY_SCALE = {"desk": 200, "full": 1000}
MSM_PATH_LENGTH = 8700
GRID_PATH_LENGTH = 8192


def asset_slug(asset: str) -> str:
    return asset.lower().replace("/", "_")


def asset_return_kind(asset: str) -> ReturnKind:
    # rate series enter as level differences, prices as log returns
    if asset.startswith("TB"):
        return ReturnKind.DIFFERENCE
    return ReturnKind.LOG_RETURN


def _cell_seed(master_seed: int, table_no: int, cell_index: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(table_no, cell_index))
    return int(ss.generate_state(1, np.uint64)[0])


def load_empirical(data_dir, asset: str) -> EmpiricalSeries:
    path = Path(data_dir) / f"{asset_slug(asset)}.csv"
    if not path.exists():
        raise MissingEmpiricalData(f"no file {path} for series {asset!r}")
    returns = make_returns(load_price_csv(path, "price"), asset_return_kind(asset))
    return EmpiricalSeries(series_id=asset, returns=returns)


def _run_cell(rows, table_id, label, generator, n_paths, path_length, variable, seed,
              threads, empirical=None):
    """Run one cell and return its report; its result rows, labelled `label` (None:
    the report's param_set) and tested against `empirical` if given, go to `rows`."""
    spec = EnsembleSpec(
        generator=generator,
        n_paths=n_paths,
        path_length=path_length,
        variable_kind=variable,
        master_seed=seed,
    )
    report = run_ensemble(spec, threads=threads)
    rows.extend(report_rows(report, table=table_id, param_set=label, empirical=empirical))
    return report


def _msm_rows(table_id, variable, n_paths, master_seed, data_dir, threads):
    """Rows of every MSM cell, each asset's empirical cell first.

    Seeds never depend on which data files exist: the simulated cell of asset
    a and k index i is cell a * len(K_GRID) + i, and asset a's empirical cell
    comes after all of those, at len(ASSETS) * len(K_GRID) + a.
    """
    estimates = gmm_estimates()
    table_no = int(table_id[1:])
    rows = []
    for a, asset in enumerate(ASSETS):
        emp = None
        if data_dir is not None:
            try:
                source = load_empirical(data_dir, asset)
            except MissingEmpiricalData as exc:
                warnings.warn(f"{table_id}: {exc}; empirical columns skipped",
                              RuntimeWarning)
            else:
                emp_cell = len(ASSETS) * len(K_GRID) + a
                emp = _run_cell(
                    rows, table_id, None, source, 1, len(source.returns), variable,
                    _cell_seed(master_seed, table_no, emp_cell), threads,
                )
        for i, k in enumerate(K_GRID):
            _run_cell(
                rows, table_id, f"{asset},k={k}", estimates[(asset, k)], n_paths,
                MSM_PATH_LENGTH, variable,
                _cell_seed(master_seed, table_no, a * len(K_GRID) + i), threads, emp,
            )
    return rows


def _grid_rows(table_id, generators, n_paths, master_seed, threads):
    table_no = int(table_id[1:])
    rows = []
    for cell, (label, generator) in enumerate(generators):
        if generator is None:
            warnings.warn(
                f"{table_id}: cell {label} violates parameter constraints, skipped",
                RuntimeWarning,
            )
            continue
        _run_cell(
            rows, table_id, label, generator, n_paths, GRID_PATH_LENGTH, VariableKind.PRICE,
            _cell_seed(master_seed, table_no, cell), threads,
        )
    return rows


def _arfima_or_none(alpha, d, ar_coeffs):
    try:
        return ArfimaParams(
            ar_coeffs=ar_coeffs,
            d=d,
            stable=StableParams(alpha=alpha, beta=0.0, gamma=STANDARD_SCALE, delta=0.0),
            ma_truncation=1000,
        )
    except InvalidParams:
        return None


def reproduce_table(
    table_id: str,
    scale: str = "desk",
    master_seed: int = 0,
    out_dir=".",
    data_dir=None,
    threads: int = 1,
    n_paths: int | None = None,
) -> Path:
    """Run every cell of one published table and write the result CSV."""
    if table_id not in TABLE_IDS:
        raise InvalidParams(f"table_id must be one of {TABLE_IDS}, got {table_id!r}")
    if scale not in PATHS_BY_SCALE:
        raise InvalidParams(f"scale must be 'desk' or 'full', got {scale!r}")
    if n_paths is None:
        n_paths = PATHS_BY_SCALE[scale]

    if table_id in _VARIABLE_FOR_TABLE:
        rows = _msm_rows(
            table_id, _VARIABLE_FOR_TABLE[table_id], n_paths, master_seed,
            data_dir, threads,
        )
    elif table_id == "T5":
        cells = [
            (f"alpha={a}", StableParams(alpha=a, beta=0.0, gamma=STANDARD_SCALE, delta=0.0))
            for a in ALPHA_GRID
        ]
        rows = _grid_rows(table_id, cells, n_paths, master_seed, threads)
    elif table_id == "T6":
        cells = [
            (f"H={h}", FbmParams(hurst=h, length=GRID_PATH_LENGTH)) for h in HURST_GRID
        ]
        rows = _grid_rows(table_id, cells, n_paths, master_seed, threads)
    elif table_id in ("T7", "T8"):
        ar_coeffs = () if table_id == "T7" else (0.4,)
        cells = [
            (f"alpha={a},d={d}", _arfima_or_none(a, d, ar_coeffs))
            for a in ALPHA_GRID
            for d in D_GRID
        ]
        rows = _grid_rows(table_id, cells, n_paths, master_seed, threads)
    else:  # T9: the decomposition summary across all three variables
        rows = [
            row
            for variable in VariableKind
            for row in _msm_rows(table_id, variable, n_paths, master_seed, data_dir, threads)
            if row["stat"] == "delta_H"
        ]

    out_path = Path(out_dir) / f"table_{table_id}_{scale}.csv"
    return write_result_csv(rows, out_path)
