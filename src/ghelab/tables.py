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

from .errors import InvalidParams, TauTooLarge, _count, _path, _seed
from .ensemble import EmpiricalSeries, EnsembleSpec, run_ensemble
from .generators import ArfimaParams, FbmParams, StableParams
from .io import _price_returns, load_price_csv, report_rows, write_result_csv
from .msm import gmm_estimates
from .series import ReturnKind, VariableKind

TABLE_IDS = ("T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")

ASSETS = ("Dow", "Nik", "DM/US", "US/UK", "TB1", "TB2", "TB3", "TB5", "TB10")
K_GRID = (5, 10, 15, 20)
ALPHA_GRID = (1.2, 1.4, 1.6, 1.8, 2.0)
D_GRID = (-0.2, -0.1, 0.0, 0.1, 0.2)
HURST_GRID = (0.3, 0.4, 0.5, 0.6, 0.7)

# The variables each MSM table analyzes; T9 summarizes all three.
_VARIABLES_FOR_TABLE = {
    "T2": (VariableKind.PRICE,),
    "T3": (VariableKind.CUM_ABS_RETURN,),
    "T4": (VariableKind.CUM_SQ_RETURN,),
    "T9": tuple(VariableKind),
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


def _empirical_sources(table_id, data_dir) -> dict:
    """asset -> EmpiricalSeries for each asset whose file is in data_dir; warns per missing file.

    A price a log return cannot take raises NonPositivePrice naming the
    file and its 1-based data row, and a series too short for a variable
    the table analyzes raises TauTooLarge naming the file, before any cell.
    """
    if data_dir is None:
        return {}
    sources = {}
    for asset in ASSETS:
        path = Path(data_dir) / f"{asset_slug(asset)}.csv"
        if path.exists():
            returns = _price_returns(load_price_csv(path, "price"), asset_return_kind(asset),
                                     path, "price")
            source = EmpiricalSeries(series_id=asset, returns=returns)
            for variable in _VARIABLES_FOR_TABLE[table_id]:
                try:  # the spec of the source's cell, for its headroom rule
                    EnsembleSpec(generator=source, n_paths=1, path_length=len(returns),
                                 variable_kind=variable)
                except TauTooLarge as exc:
                    raise TauTooLarge(f"{exc} for {variable.value} in {path}") from None
            sources[asset] = source
        else:
            warnings.warn(f"{table_id}: no file {path} for series {asset!r}; "
                          "empirical columns skipped", RuntimeWarning)
    return sources


def _grid_cells(table_id):
    """(label, generator) of each cell of a grid table; None marks an invalid corner."""
    if table_id == "T5":
        return [(f"alpha={a}", StableParams(alpha=a)) for a in ALPHA_GRID]
    if table_id == "T6":
        return [(f"H={h}", FbmParams(hurst=h, length=GRID_PATH_LENGTH)) for h in HURST_GRID]
    ar_coeffs = () if table_id == "T7" else (0.4,)
    return [(f"alpha={a},d={d}", _arfima_or_none(ar_coeffs, d, a))
            for a in ALPHA_GRID for d in D_GRID]


def _arfima_or_none(ar_coeffs, d, alpha):
    try:
        return ArfimaParams(ar_coeffs, d, StableParams(alpha=alpha))
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
    """Run every cell of one published table and write the result CSV.

    Cell c of table Tn runs from master seed _cell_seed(master_seed, n, c).
    The MSM cell of asset a and k index i is a * len(K_GRID) + i whatever data
    files exist, asset a's empirical cell is len(ASSETS) * len(K_GRID) + a, and
    T9 reuses both for each variable; grid cells count in grid order.
    An out_dir or data_dir that is not a str or an os.PathLike naming a
    directory raises InvalidParams before any cell runs; T5-T8 read no data files and warn once when given one.
    """
    if table_id not in TABLE_IDS:
        raise InvalidParams(f"table_id must be one of {TABLE_IDS}, got {table_id!r}")
    if scale not in PATHS_BY_SCALE:
        raise InvalidParams(f"scale must be 'desk' or 'full', got {scale!r}")
    _seed("master_seed", master_seed)
    _count("threads", threads, least=1)
    if n_paths is None:
        n_paths = PATHS_BY_SCALE[scale]
    if not Path(_path("out_dir", out_dir)).is_dir():
        raise InvalidParams(f"out_dir {str(out_dir)!r} is not a directory")
    if data_dir is not None:
        if not Path(_path("data_dir", data_dir)).is_dir():
            raise InvalidParams(f"data_dir {str(data_dir)!r} is not a directory")
        if table_id not in _VARIABLES_FOR_TABLE:
            warnings.warn(f"{table_id} reads no data files; data_dir {str(data_dir)!r} "
                          "ignored", RuntimeWarning)
    table_no = int(table_id[1:])
    rows = []

    def run(cell, label, generator, length, variable, paths=n_paths, empirical=None):
        # rows are labelled label, or the report's param_set if label is None
        spec = EnsembleSpec(generator=generator, n_paths=paths, path_length=length,
                            variable_kind=variable,
                            master_seed=_cell_seed(master_seed, table_no, cell))
        report = run_ensemble(spec, threads=threads)
        rows.extend(report_rows(report, table=table_id, param_set=label, empirical=empirical))
        return report

    if table_id in _VARIABLES_FOR_TABLE:
        sources = _empirical_sources(table_id, data_dir)
        estimates = gmm_estimates()
        for variable in _VARIABLES_FOR_TABLE[table_id]:
            for a, asset in enumerate(ASSETS):
                source, emp = sources.get(asset), None
                if source is not None:
                    emp = run(len(ASSETS) * len(K_GRID) + a, None, source,
                              len(source.returns), variable, paths=1)
                for i, k in enumerate(K_GRID):
                    run(a * len(K_GRID) + i, f"{asset},k={k}", estimates[(asset, k)],
                        MSM_PATH_LENGTH, variable, empirical=emp)
        if table_id == "T9":  # the decomposition summary
            rows = [row for row in rows if row["stat"] == "delta_H"]
    else:
        for cell, (label, generator) in enumerate(_grid_cells(table_id)):
            if generator is None:
                warnings.warn(
                    f"{table_id}: cell {label} violates parameter constraints, skipped",
                    RuntimeWarning,
                )
                continue
            run(cell, label, generator, GRID_PATH_LENGTH, VariableKind.PRICE)

    out_path = Path(out_dir) / f"table_{table_id}_{scale}.csv"
    return write_result_csv(rows, out_path)
