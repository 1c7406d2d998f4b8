"""File formats: price CSVs, run configs, and result/plot-data writers.

All floats are written with repr(), i.e. the shortest string that
round-trips to the same double, so reading a result file back loses
nothing.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import (
    EmptySeries,
    InvalidParams,
    MissingKey,
    ParseError,
    UnknownKey,
)
from .ensemble import (
    EmpiricalSeries,
    EnsembleReport,
    EnsembleSpec,
    delta_h_comparison,
    identity_test,
)
from .generators import ArfimaParams, FbmParams, StableParams
from .ghe import GheConfig, _log_k, _one_row
from .msm import MsmParams
from .series import ReturnKind, VariableKind, make_returns

RESULT_COLUMNS = (
    "table,generator,param_set,variable,q,stat,original_mean,original_std,"
    "shuffled_mean,shuffled_std,delta_h,delta_h_shuff,test_z,reject95"
).split(",")


def load_price_csv(path, column: str = "price") -> np.ndarray:
    """Read one numeric column from a headered CSV as a float64 array.

    Row numbers in errors count data rows from 1, the header being
    row 0. Blank lines are skipped and not counted, a row too short to
    reach the column reads as an empty cell, and when the header names
    the column twice the last one is read.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if column not in header:
            raise MissingKey(f"column {column!r} not found in {path}")
        col = len(header) - 1 - header[::-1].index(column)
        cells = [row[col] if col < len(row) else "" for row in reader if row]
    if not cells:
        raise EmptySeries(f"no data rows in {path}")
    try:
        prices = np.array(cells, dtype=np.float64)
        if np.isfinite(prices).all():
            return prices
    except ValueError:
        pass
    values = []  # parse again cell by cell to name the first bad row
    for i, cell in enumerate(cells, start=1):
        cell = cell.strip()
        if not cell:
            raise ParseError(i, f"empty {column!r} cell in {path}")
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(i, f"non-numeric {column!r} value {cell!r} in {path}") from None
        if not np.isfinite(value):
            raise ParseError(i, f"non-finite {column!r} value {cell!r} in {path}")
        values.append(value)
    return np.array(values)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(text)


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_tau_range(text: str) -> tuple:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    single = int(text)
    return single, single


_CONFIG_KEYS = {
    "generator": str,
    "input": str,
    "column": str,
    "name": str,
    "m0": float,
    "sigma": float,
    "k": int,
    "b": float,
    "gamma_k": float,
    "alpha": float,
    "beta": float,
    "gamma": float,
    "delta": float,
    "hurst": float,
    "d": float,
    "ar1": float,
    "ar2": float,
    "ar3": float,
    "ma_truncation": int,
    "n_paths": int,
    "path_length": int,
    "n_shuffles": int,
    "variable": VariableKind,
    "return_kind": ReturnKind,
    "q_values": _parse_float_list,
    "q_grid": _parse_float_list,
    "tau_max": _parse_tau_range,
    "detrend": _parse_bool,
    "demean": _parse_bool,
}


def parse_config(path) -> dict:
    """Parse `key = value` statements; `;` separates, `#` comments.

    Unknown and repeated keys are rejected outright rather than ignored or
    overwritten, so a typo cannot silently fall back to a default or replace
    an earlier value.
    """
    entries, first_line = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0]
            for statement in line.split(";"):
                statement = statement.strip()
                if not statement:
                    continue
                if "=" not in statement:
                    raise ParseError(lineno, f"expected 'key = value', got {statement!r}")
                key, _, value = statement.partition("=")
                key, value = key.strip(), value.strip()
                if key not in _CONFIG_KEYS:
                    raise UnknownKey(f"line {lineno}: unknown config key {key!r}")
                if key in first_line:
                    raise ParseError(lineno, f"key {key!r} repeats line {first_line[key]}")
                first_line[key] = lineno
                try:
                    entries[key] = _CONFIG_KEYS[key](value)
                except (ValueError, TypeError):
                    raise ParseError(lineno, f"bad value {value!r} for key {key!r}") from None
    return entries


_STABLE_KEYS = ("alpha", "beta", "gamma", "delta")

# The keys each generator reads; a config may hold no other generator's keys.
_GENERATOR_KEYS = {
    "msm": ("m0", "sigma", "k", "b", "gamma_k"),
    "stable": _STABLE_KEYS,
    "fbm": ("hurst",),
    "arfima": (*_STABLE_KEYS, "d", "ar1", "ar2", "ar3", "ma_truncation"),
    "empirical": ("input", "column", "name", "return_kind"),
}

# Config keys whose constructor field has another name.
_FIELD_NAMES = {
    "tau_max": "tau_max_range", "variable": "variable_kind", "demean": "demean_returns",
}


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise MissingKey(f"config key {key!r} is required here")
    return cfg[key]


def _held(cfg: dict, keys) -> dict:
    """The config entries among keys, named as the constructor's fields."""
    return {_FIELD_NAMES.get(key, key): cfg[key] for key in keys if key in cfg}


def _build(cls, cfg: dict, keys, **fixed):
    """cls from the config entries among keys plus fixed fields.

    A field the config leaves out takes its dataclass default; one with
    no default raises MissingKey.
    """
    kwargs = _held(cfg, keys) | fixed
    for f in fields(cls):
        if f.default is MISSING:
            _require(kwargs, f.name)
    return cls(**kwargs)


def generator_from_config(cfg: dict):
    """Build the generator union member a config names.

    A key that only another generator reads raises UnknownKey. AR keys
    keep their position: ar1..ar3 give ar_coeffs up to the highest one
    held, a missing lower one reading 0.0. A relative `input` path is
    read from the working directory.
    """
    kind = _require(cfg, "generator")
    if kind not in _GENERATOR_KEYS:
        raise InvalidParams(f"unknown generator kind {kind!r}")
    own = _GENERATOR_KEYS[kind]
    for key in cfg:
        if key not in own and any(key in keys for keys in _GENERATOR_KEYS.values()):
            raise UnknownKey(f"generator {kind!r} does not read config key {key!r}")
    if kind == "msm":
        return _build(MsmParams, cfg, own)
    if kind == "fbm":
        return _build(FbmParams, cfg, own, length=cfg.get("path_length", EnsembleSpec.path_length))
    if kind == "empirical":
        path = Path(_require(cfg, "input"))
        returns = make_returns(
            load_price_csv(path, **_held(cfg, ("column",))),
            cfg.get("return_kind", ReturnKind.LOG_RETURN),
        )
        return EmpiricalSeries(series_id=cfg.get("name", path.stem), returns=returns)
    stable = _build(StableParams, cfg, _STABLE_KEYS)
    if kind == "stable":
        return stable
    order = max((i for i in (1, 2, 3) if f"ar{i}" in cfg), default=0)
    ar_coeffs = tuple(cfg.get(f"ar{i}", 0.0) for i in range(1, order + 1))
    return _build(ArfimaParams, cfg, ("ma_truncation",),
                  ar_coeffs=ar_coeffs, d=cfg.get("d", 0.0), stable=stable)


def ensemble_spec_from_config(cfg: dict, master_seed: int = 0) -> EnsembleSpec:
    """The spec a config describes; absent keys take the dataclass defaults.

    An empirical series is one path of its own length, whatever
    n_paths and path_length say.
    """
    generator = generator_from_config(cfg)
    sizes = {}
    if isinstance(generator, EmpiricalSeries):
        sizes = {"n_paths": 1, "path_length": len(generator.returns)}
    ghe = _build(GheConfig, cfg, ("q_values", "tau_max", "detrend"))
    keys = ("n_paths", "path_length", "variable", "n_shuffles", "demean")
    return _build(EnsembleSpec, cfg, keys, generator=generator, ghe=ghe,
                  master_seed=master_seed, **sizes)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if np.isnan(value):
            return ""
        return repr(float(value))
    return str(value)


def _test_cells(test) -> dict:
    return {"test_z": test.statistic, "reject95": test.reject_at_95}


def report_rows(
    report: EnsembleReport,
    table: str = "",
    param_set: str | None = None,
    empirical: EnsembleReport | None = None,
) -> list[dict]:
    """Flatten a report into result-schema rows, identity tests attached.

    Per q value: a `H` row holding cross-path moments (original and
    shuffle-averaged) plus the delta columns, and a `H_shuffle_detail`
    row whose shuffled_std is the within-path dispersion among shuffle
    replicas. One `delta_H` row carries the delta dispersions in the
    *_std columns and, with shuffles, the delta_h vs delta_h_shuff test.
    Given an `empirical` report of the same q values, a `H` row tests the
    original moments against it, and a `H_shuffle_detail` row the `H`
    rows' shuffled mean and cross-path std if both reports have shuffles.
    """
    sim, emp = report, empirical
    if emp is not None and emp.q_values != sim.q_values:
        raise InvalidParams(f"empirical q_values {emp.q_values} != report q_values {sim.q_values}")
    shuffled = sim.shuffled_mean is not None
    test_shuffled = shuffled and emp is not None and emp.shuffled_mean is not None
    base = dict.fromkeys(RESULT_COLUMNS) | {
        "table": table,
        "generator": sim.generator,
        "param_set": sim.param_set if param_set is None else param_set,
        "variable": sim.variable.value,
    }
    rows = []
    for i, q in enumerate(sim.q_values):
        h = base | {
            "q": q,
            "stat": "H",
            "original_mean": sim.original_mean[i],
            "original_std": sim.original_std[i],
            "shuffled_mean": sim.shuffled_mean[i] if shuffled else None,
            "shuffled_std": sim.shuffled_std[i] if shuffled else None,
            "delta_h": sim.delta_h,
            "delta_h_shuff": sim.delta_h_shuff,
        }
        if emp is not None:
            h |= _test_cells(identity_test(
                emp.original_mean[i], emp.original_std[i], sim.original_mean[i], sim.original_std[i]
            ))
        rows.append(h)
        if shuffled:
            detail = base | {
                "q": q,
                "stat": "H_shuffle_detail",
                "shuffled_mean": sim.shuffled_mean[i],
                "shuffled_std": sim.shuffled_within_std[i],
            }
            if test_shuffled:
                detail |= _test_cells(identity_test(
                    emp.shuffled_mean[i], emp.shuffled_std[i],
                    sim.shuffled_mean[i], sim.shuffled_std[i],
                ))
            rows.append(detail)
    if sim.delta_h is not None:
        delta = base | {
            "stat": "delta_H",
            "original_std": sim.delta_h_std,
            "shuffled_std": sim.delta_h_shuff_std,
            "delta_h": sim.delta_h,
            "delta_h_shuff": sim.delta_h_shuff,
        }
        if sim.delta_h_shuff is not None:
            delta |= _test_cells(delta_h_comparison(sim))
        rows.append(delta)
    return rows


def _write_csv(out_path, header, rows) -> Path:
    """header, then each row's cells formatted by _fmt."""
    out_path = Path(out_path)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    return out_path


def write_result_csv(rows: list[dict], out_path) -> Path:
    cells = ([row.get(col) for col in RESULT_COLUMNS] for row in rows)
    return _write_csv(out_path, RESULT_COLUMNS, cells)


def structure_function_rows(levels, cfg: GheConfig) -> list[tuple]:
    """(q, tau, log_tau, log_Kq) for tau = 1..tau_max, per q.

    These are the log K values the estimator fits: the same headroom
    check and, when the config says so, the same drift removal.
    """
    hi = cfg.tau_max_range[1]
    log_k = _log_k(_one_row(levels), cfg)[0]
    rows = []
    for qi, q in enumerate(cfg.q_values):
        for tau in range(1, hi + 1):
            rows.append((q, tau, float(np.log(tau)), float(log_k[qi, tau - 1])))
    return rows


def write_plot_data(rows: list[tuple], kind: str, out_path) -> Path:
    """Plot-ready long-format CSVs for external plotting tools."""
    headers = {
        "structure_functions": ("q", "tau", "log_tau", "log_Kq"),
        "scaling_function": ("q", "qHq", "qHq_shuffled"),
    }
    if kind not in headers:
        raise InvalidParams(f"unknown plot data kind {kind!r}")
    return _write_csv(out_path, headers[kind], rows)


def write_series_csv(values, out_path) -> Path:
    """Two columns t,price: levels indexed from 0."""
    return _write_csv(out_path, ("t", "price"), ((t, float(v)) for t, v in enumerate(values)))
