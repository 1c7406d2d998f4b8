"""Command line front end.

Subcommands:
  ghe       estimate exponents for one price CSV, with shuffle baseline
  simulate  write one simulated price path from a config file
  ensemble  run a Monte Carlo ensemble described by a config file
  table     reproduce one of the published result tables T2..T9
  plotdata  emit plot-ready structure function and scaling function CSVs

Global flags: --seed (master seed), --out (output directory), --threads
(process count; never changes results, only wall time).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DegenerateSeries, GhelabError, InvalidParams, _count
from .ensemble import (
    EnsembleSpec,
    _path_returns,
    path_rng,
    run_ensemble,
    simulate_returns,
)
from .ghe import generalized_hurst
from .io import (
    _observed_series,
    _observed_spec,
    _scaling_function_rows,
    _write_csv,
    ensemble_spec_from_config,
    generator_from_config,
    load_price_csv,
    parse_config,
    report_rows,
    structure_function_rows,
    write_result_csv,
    write_series_csv,
)
from .series import ReturnKind, VariableKind, build_variable
from .tables import TABLE_IDS, reproduce_table

R2_WARN_THRESHOLD = 0.95
DEFAULT_Q_GRID = tuple(i / 5 for i in range(1, 16))


@functools.cache  # built once per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghelab",
        description="generalized Hurst exponent laboratory",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker processes; results do not depend on this",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ghe", help="analyze one price CSV")
    p.add_argument("csv", help="input CSV with a header row")
    p.add_argument("--column", default="price", help="price column name")
    p.add_argument(
        "--kind", choices=[k.value for k in ReturnKind],
        default=ReturnKind.LOG_RETURN.value, help="how to form returns",
    )
    p.add_argument(
        "--variable", choices=[v.value for v in VariableKind],
        default=EnsembleSpec.variable_kind.value, help="variable to analyze",
    )
    p.add_argument("--shuffles", type=int, default=EnsembleSpec.n_shuffles, help="shuffle replicas")
    p.add_argument("--demean", action="store_true", help="demean returns first")

    p = sub.add_parser("simulate", help="write one simulated path")
    p.add_argument("config", help="config file")

    p = sub.add_parser("ensemble", help="run a Monte Carlo ensemble")
    p.add_argument("config", help="config file")

    p = sub.add_parser("table", help="reproduce a published table")
    p.add_argument("table_id", choices=list(TABLE_IDS))
    p.add_argument(
        "--desk", action="store_true",
        help="200 paths per cell instead of the full 1000",
    )
    p.add_argument("--data", default=None, help="directory of empirical CSVs")

    p = sub.add_parser("plotdata", help="emit plot-ready CSV files")
    p.add_argument("config", help="config file")
    return parser


def _print_report(report) -> None:
    print(
        f"generator={report.generator} param_set={report.param_set} "
        f"variable={report.variable.value} paths={report.n_paths} "
        f"shuffles={report.n_shuffles}"
    )
    for idx, q in enumerate(report.q_values):
        line = (
            f"H({q:g}) = {report.original_mean[idx]:.4f} "
            f"(std {report.original_std[idx]:.4f})"
        )
        if report.shuffled_mean is not None:
            line += (
                f"   shuffled {report.shuffled_mean[idx]:.4f} "
                f"(std {report.shuffled_std[idx]:.4f})"
            )
        print(line)
    if report.delta_h is not None:
        line = f"delta_h = {report.delta_h:.4f}"
        if report.delta_h_shuff is not None:
            line += f"   delta_h_shuff = {report.delta_h_shuff:.4f}"
        print(line)


def _cmd_ghe(args, out_dir: Path) -> int:
    source = _observed_series(load_price_csv(args.csv, args.column), ReturnKind(args.kind),
                              args.csv, args.column, Path(args.csv).stem)
    spec = _observed_spec(args.csv, generator=source, n_shuffles=args.shuffles,
                          variable_kind=VariableKind(args.variable), master_seed=args.seed,
                          demean_returns=args.demean)
    report = run_ensemble(spec, threads=args.threads)
    result = generalized_hurst(build_variable(_path_returns(spec, 0), spec.variable_kind), spec.ghe)
    # the CSV first, so a report stdout cannot encode still leaves it written
    out_path = write_result_csv(report_rows(report), out_dir / "ghe_report.csv")
    _print_report(report)
    worst_r2 = min(result.scaling_r2)
    print(f"min scaling R^2 = {worst_r2:.4f}")
    if worst_r2 < R2_WARN_THRESHOLD:
        print(
            f"warning: scaling fit R^2 {worst_r2:.4f} below "
            f"{R2_WARN_THRESHOLD}; power-law scaling is questionable",
            file=sys.stderr,
        )
    print(f"wrote {out_path}")
    return 0


def _cmd_simulate(args, out_dir: Path) -> int:
    cfg = parse_config(args.config)
    length = cfg.get("path_length", EnsembleSpec.path_length)
    # a level that overflows is reported below, so numpy's warnings stay silent
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        returns = simulate_returns(generator_from_config(cfg), length, path_rng(args.seed, 0, 0))
        levels = build_variable(returns, VariableKind.PRICE)
    bad = np.flatnonzero(~np.isfinite(levels))
    if bad.size:
        raise DegenerateSeries(f"simulated level at t={bad[0]} is not finite: the path overflows")
    out_path = write_series_csv(levels, out_dir / "simulated_series.csv")
    print(f"wrote {out_path} ({len(levels)} levels)")
    return 0


def _cmd_ensemble(args, out_dir: Path) -> int:
    cfg = parse_config(args.config)
    spec = ensemble_spec_from_config(cfg, master_seed=args.seed)
    report = run_ensemble(spec, threads=args.threads)
    out_path = write_result_csv(report_rows(report), out_dir / "ensemble_report.csv")
    _print_report(report)
    print(f"wrote {out_path}")
    return 0


def _cmd_table(args, out_dir: Path) -> int:
    scale = "desk" if args.desk else "full"
    out_path = reproduce_table(
        args.table_id,
        scale=scale,
        master_seed=args.seed,
        out_dir=out_dir,
        data_dir=args.data,
        threads=args.threads,
    )
    print(f"wrote {out_path}")
    return 0


def _cmd_plotdata(args, out_dir: Path) -> int:
    cfg = parse_config(args.config)
    spec = ensemble_spec_from_config(cfg, master_seed=args.seed)
    try:
        grid = replace(spec.ghe, q_values=cfg.get("q_grid", DEFAULT_Q_GRID))
    except InvalidParams as exc:
        raise InvalidParams(f"q_grid: {exc}") from None
    levels = build_variable(_path_returns(spec, 0), spec.variable_kind)
    sf_path = _write_csv(out_dir / "plot_structure_functions.csv",
                         ("q", "tau", "log_tau", "log_Kq"), structure_function_rows(levels, spec.ghe))
    print(f"wrote {sf_path}")

    report = run_ensemble(replace(spec, n_paths=1, ghe=grid))
    sc_path = _write_csv(out_dir / "plot_scaling_function.csv", ("q", "qHq", "qHq_shuffled"),
                         _scaling_function_rows(report))
    print(f"wrote {sc_path}")
    return 0


_COMMANDS = {
    "ghe": _cmd_ghe,
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "table": _cmd_table,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        _count("threads", args.threads, least=1)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, out_dir)
    except (GhelabError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
