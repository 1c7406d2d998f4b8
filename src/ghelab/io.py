"""File formats: price CSVs, run configs, and result/plot-data writers.

All floats are written with repr(), i.e. the shortest string that
round-trips to the same double, so reading a result file back loses
nothing.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import MISSING, fields
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import (
    InvalidParams,
    MissingKey,
    NonPositivePrice,
    ParseError,
    TooShort,
    UnknownKey,
    _instance,
    _path,
    _real_vector,
)
from .ensemble import EmpiricalSeries, EnsembleReport, EnsembleSpec, identity_test
from .generators import ArfimaParams, FbmParams, StableParams
from .ghe import GheConfig, _log_k, _one_row
from .msm import MsmParams
from .series import ReturnKind, ReturnSeries, VariableKind, make_returns

# Every file is UTF-8, whatever the locale. Input files may carry a BOM, and
# an undecodable byte becomes U+FFFD for the parsers to reject. Output keeps
# the surrogate escapes of a name taken from argv as the bytes they stand for.
_READ = {"encoding": "utf-8-sig", "errors": "replace"}
_WRITE = {"encoding": "utf-8", "errors": "surrogateescape"}

RESULT_COLUMNS = (
    "table,generator,param_set,variable,q,stat,original_mean,original_std,"
    "shuffled_mean,shuffled_std,delta_h,delta_h_shuff,test_z,reject95"
).split(",")


def load_price_csv(path, column: str = "price") -> np.ndarray:
    """Read one numeric column from a headered CSV as a float64 array.

    Row numbers in errors count data rows from 1, the header being
    row 0. Blank lines are skipped and not counted, a row too short to
    reach the column reads as an empty cell, and when the header names
    the column twice the last one is read. The file is read as UTF-8
    whatever the locale: a leading BOM is skipped, and a byte that is
    not UTF-8 reads as U+FFFD, so it fails only in the column read.

    The common file goes through numpy's C reader. A quoted file, or
    any file that reader refuses or reads a non-finite value from, goes
    through the csv module, which names the bad row. A path that is not
    a str or an os.PathLike raises InvalidParams before anything is
    opened, so an int is never taken as a file descriptor.
    """
    with open(_path("path", path), newline="", **_READ) as fh:
        text = fh.read()
    prices = _numpy_column(text, column)
    return _csv_column(text, path, column) if prices is None else prices


# Where str.splitlines ends a line and the csv module does not.
_NOT_CSV_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _numpy_column(text: str, column: str) -> np.ndarray | None:
    """The column by np.loadtxt, or None where the csv module must answer.

    Only text without quotes, NULs, line breaks the csv module does not
    know and lines over the csv field limit is read here: there a csv
    row is exactly its line split on commas.
    """
    if '"' in text or "\0" in text or any(c in text for c in _NOT_CSV_LINE_BREAKS):
        return None
    lines = text.splitlines() or [""]
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    data = [line for line in lines[1:] if line]
    if column not in header or not data:
        return None
    col = len(header) - 1 - header[::-1].index(column)
    try:
        prices = np.loadtxt(data, dtype=np.float64, delimiter=",", comments=None,
                            usecols=col, ndmin=1)
    except ValueError:
        return None
    return prices if np.isfinite(prices).all() else None


def _csv_column(text: str, path, column: str) -> np.ndarray:
    """load_price_csv's column by the csv module, raising for the first bad row."""
    reader = csv.reader(StringIO(text, newline=""))
    header, cells = None, []
    try:
        header = next(reader, [])
        if column not in header:
            raise MissingKey(f"column {column!r} not found in {path}")
        col = len(header) - 1 - header[::-1].index(column)
        for row in reader:
            if row:
                cells.append(row[col] if col < len(row) else "")
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        at = 0 if header is None else len(cells) + 1
        raise ParseError(at, f"{exc} in {path}") from None
    if not cells:
        raise TooShort(f"no data rows in {path}")
    values = []  # cell by cell, to name the first bad row
    for i, cell in enumerate(cells, start=1):
        cell = cell.strip()
        if not cell:
            raise ParseError(i, f"empty {column!r} cell in {path}")
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(i, f"non-numeric {column!r} value {cell!r} in {path}") from None
        if not math.isfinite(value):
            raise ParseError(i, f"non-finite {column!r} value {cell!r} in {path}")
        values.append(value)
    return np.array(values)


def _price_returns(prices, kind, path, column: str) -> ReturnSeries:
    """make_returns of the prices load_price_csv read from column of path.

    A price a log return cannot take raises NonPositivePrice, and a
    difference that overflows raises InvalidParams, each naming the file
    and its 1-based data row, as load_price_csv counts rows.
    """
    try:
        return make_returns(prices, kind)
    except NonPositivePrice:
        bad = int(np.argmax(prices <= 0))
        raise NonPositivePrice(f"row {bad + 1}: non-positive {column!r} value "
                               f"{float(prices[bad])!r} in {path}") from None
    except InvalidParams:  # of finite prices, only a difference that overflows
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(np.diff(prices)))
        row = int(bad[0]) + 2  # the return ending at this data row overflows
        raise InvalidParams(f"row {row}: return from {column!r} value {float(prices[row - 2])!r} "
                            f"to {float(prices[row - 1])!r} is not finite in {path}") from None


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


# The keys each generator reads; a config may hold no other generator's keys.
_GENERATOR_KEYS = {
    "msm": {"m0": float, "sigma": float, "k": int},
    "stable": {"alpha": float},
    "fbm": {"hurst": float},
    "arfima": {"alpha": float, "d": float, "ar1": float, "ar2": float, "ar3": float},
    "empirical": {"input": str, "column": str, "name": str, "return_kind": ReturnKind},
}
_GHE_KEYS = {"q_values": _parse_float_list, "tau_max": _parse_tau_range, "detrend": _parse_bool}
_SPEC_KEYS = {"n_paths": int, "path_length": int, "variable": VariableKind, "n_shuffles": int,
              "demean": _parse_bool}

# Every key a config may hold; only plotdata reads q_grid.
_CONFIG_KEYS = {"generator": str, "q_grid": _parse_float_list, **_GHE_KEYS, **_SPEC_KEYS,
                **{key: parse for own in _GENERATOR_KEYS.values() for key, parse in own.items()}}

# Config keys whose constructor field has another name.
_FIELD_NAMES = {
    "tau_max": "tau_max_range", "variable": "variable_kind", "demean": "demean_returns",
}


def parse_config(path) -> dict:
    """Parse `key = value` statements; `;` separates, `#` comments.

    Unknown and repeated keys are rejected outright rather than ignored or
    overwritten, so a typo cannot silently fall back to a default or replace
    an earlier value. The file is UTF-8, a leading BOM skipped; a statement
    holding a byte that is not UTF-8 is rejected, one in a comment ignored.
    A path that is not a str or an os.PathLike raises InvalidParams
    before anything is opened, so an int is never taken as a file
    descriptor.
    """
    entries, first_line = {}, {}
    with open(_path("path", path), **_READ) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0]
            for statement in line.split(";"):
                statement = statement.strip()
                if not statement:
                    continue
                if "\ufffd" in statement:
                    raise ParseError(lineno, f"bytes that are not UTF-8 in {statement!r}")
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


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise MissingKey(f"config key {key!r} is required here")
    return cfg[key]


def _build(cls, cfg: dict, keys, **fixed):
    """cls from the config entries among keys that set one of its fields, plus fixed fields.

    A field the config leaves out takes its dataclass default; one with
    no default raises MissingKey.
    """
    held = {_FIELD_NAMES.get(key, key): cfg[key] for key in keys if key in cfg}
    kwargs = {f.name: held[f.name] for f in fields(cls) if f.name in held} | fixed
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
        path, column = Path(_require(cfg, "input")), cfg.get("column", "price")
        returns = _price_returns(load_price_csv(path, column),
                                 cfg.get("return_kind", ReturnKind.LOG_RETURN), path, column)
        return EmpiricalSeries(series_id=cfg.get("name", path.stem), returns=returns)
    stable = _build(StableParams, cfg, own)
    if kind == "stable":
        return stable
    order = max((i for i in (1, 2, 3) if f"ar{i}" in cfg), default=0)
    ar_coeffs = tuple(cfg.get(f"ar{i}", 0.0) for i in range(1, order + 1))
    return ArfimaParams(ar_coeffs, cfg.get("d", 0.0), stable)


def ensemble_spec_from_config(cfg: dict, master_seed: int = 0) -> EnsembleSpec:
    """The spec a config describes; absent keys take the dataclass defaults.

    An empirical series is one path of its own length, whatever
    n_paths and path_length say.
    """
    generator = generator_from_config(cfg)
    sizes = {}
    if isinstance(generator, EmpiricalSeries):
        sizes = {"n_paths": 1, "path_length": len(generator.returns)}
    ghe = _build(GheConfig, cfg, _GHE_KEYS)
    return _build(EnsembleSpec, cfg, _SPEC_KEYS, generator=generator, ghe=ghe,
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


def _test_cells(emp_mean, emp_std, sim_mean, sim_std) -> dict:
    """identity_test's cells; none where both dispersions are zero and it is undefined."""
    if emp_std == 0.0 and sim_std == 0.0:
        return {}
    test = identity_test(emp_mean, emp_std, sim_mean, sim_std)
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
    A test whose two dispersions are both zero is undefined: its cells stay empty.
    """
    sim, emp = _instance("report", report, EnsembleReport), empirical
    if emp is not None and _instance("empirical", emp, EnsembleReport).q_values != sim.q_values:
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
            h |= _test_cells(
                emp.original_mean[i], emp.original_std[i], sim.original_mean[i], sim.original_std[i]
            )
        rows.append(h)
        if shuffled:
            detail = base | {
                "q": q,
                "stat": "H_shuffle_detail",
                "shuffled_mean": sim.shuffled_mean[i],
                "shuffled_std": sim.shuffled_within_std[i],
            }
            if test_shuffled:
                detail |= _test_cells(
                    emp.shuffled_mean[i], emp.shuffled_std[i],
                    sim.shuffled_mean[i], sim.shuffled_std[i],
                )
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
            delta |= _test_cells(
                sim.delta_h, sim.delta_h_std, sim.delta_h_shuff, sim.delta_h_shuff_std
            )
        rows.append(delta)
    return rows


def _write_csv(out_path, header, rows) -> Path:
    """header, then each row's cells formatted by _fmt.

    The rows go to a new file beside out_path that then replaces it, so a
    row that fails, or an interrupted run, leaves any old file whole. An
    OSError (a missing directory, a denied write) names out_path, not
    that hidden file. An out_path that is not a str or an os.PathLike
    raises InvalidParams before anything is opened.
    """
    out_path = Path(_path("out_path", out_path))
    tmp = out_path.with_name(f".{out_path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", newline="", **_WRITE) as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
        os.replace(tmp, out_path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, str(out_path)) from None
        raise
    return out_path


def write_result_csv(rows: list[dict], out_path) -> Path:
    cells = ([row.get(col) for col in RESULT_COLUMNS] for row in rows)
    return _write_csv(out_path, RESULT_COLUMNS, cells)


def structure_function_rows(levels, cfg: GheConfig) -> list[tuple]:
    """(q, tau, log_tau, log_Kq) for tau = 1..tau_max, per q.

    These are the log K values the estimator fits: the same headroom
    check and, when the config says so, the same drift removal.
    """
    hi = _instance("cfg", cfg, GheConfig).tau_max_range[1]
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
    """Two columns t,price: levels indexed from 0; values must be a 1-D sequence of reals."""
    values = _real_vector("values", values)
    return _write_csv(out_path, ("t", "price"), enumerate(values.tolist()))
