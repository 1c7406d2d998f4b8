"""File formats: price CSVs, run configs, and the CSV writers.

All floats are written with repr(), i.e. the shortest string that
round-trips to the same double, so reading a result file back loses
nothing.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Iterable
from dataclasses import MISSING, fields
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import (
    InvalidParams,
    MissingKey,
    NonPositivePrice,
    ParseError,
    TauTooLarge,
    TooShort,
    UnknownKey,
    _instance,
    _member,
    _path,
    _real_vector,
)
from .ensemble import _GENERATORS, EmpiricalSeries, EnsembleReport, EnsembleSpec
from .generators import ArfimaParams, FbmParams, StableParams
from .ghe import GheConfig, _log_k, _one_row
from .msm import MsmParams
from .series import ReturnKind, VariableKind, make_returns

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
    a str or an os.PathLike, or a column not a str, raises InvalidParams
    before anything is opened, so an int is never taken as a descriptor.
    """
    _instance("column", column, str)
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


def _observed_series(prices, kind, path, column: str, name: str) -> EmpiricalSeries:
    """The series `name` of the kind returns of prices, read from column of path.

    Every front end that reads a price file builds its series here. It
    takes the prices, not the path, so each front end's own
    load_price_csv call stays visible to perfbench's name-based tracer.
    A price a log return cannot take raises NonPositivePrice, and a
    difference that overflows raises InvalidParams, each naming the file
    and its 1-based data row, as load_price_csv counts rows; a file of
    one data row raises TooShort naming the file.
    """
    try:
        returns = make_returns(prices, kind)
    except TooShort as exc:
        raise TooShort(f"{exc} in {path}") from None
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
    return EmpiricalSeries(series_id=name, returns=returns)


def _observed_spec(path, **fields) -> EnsembleSpec:
    """The spec of the observed series fields["generator"]: one path, of its own length.

    Every front end builds one here, so a variable with too few levels for
    the fit raises TauTooLarge naming it and path, the series' file."""
    fields |= {"n_paths": 1, "path_length": len(fields["generator"].returns)}
    try:
        return EnsembleSpec(**fields)
    except TauTooLarge as exc:
        variable = VariableKind(fields.get("variable_kind", EnsembleSpec.variable_kind))
        raise TauTooLarge(f"{exc} for {variable.value} in {path}") from None


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


# The config keys each constructor reads: the members of the generator union,
# then GheConfig and EnsembleSpec. A config may hold no other generator's keys.
_KEYS = {
    MsmParams: {"m0": float, "sigma": float, "k": int},
    StableParams: {"alpha": float},
    FbmParams: {"hurst": float},
    ArfimaParams: {"alpha": float, "d": float, "ar1": float},
    EmpiricalSeries: {"input": str, "column": str, "name": str, "return_kind": ReturnKind},
    GheConfig: {"q_values": _parse_float_list, "tau_max": _parse_tau_range, "detrend": _parse_bool},
    EnsembleSpec: {"n_paths": int, "path_length": int, "variable": VariableKind, "n_shuffles": int,
                   "demean": _parse_bool},
}

# Every key a config may hold; only plotdata reads q_grid.
_CONFIG_KEYS = {"generator": str, "q_grid": _parse_float_list,
                **{key: parse for own in _KEYS.values() for key, parse in own.items()}}

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


def _fields(cls, cfg: dict, **fixed) -> dict:
    """cls's arguments: cfg's entries among _KEYS[cls], plus the fixed values naming its fields.

    A field the config leaves out takes its dataclass default; one with
    no default raises MissingKey.
    """
    given = {_FIELD_NAMES.get(key, key): cfg[key] for key in _KEYS[cls] if key in cfg} | fixed
    kwargs = {f.name: given[f.name] for f in fields(cls) if f.name in given}
    for f in fields(cls):
        if f.default is MISSING:
            _require(kwargs, f.name)
    return kwargs


def _build(cls, cfg: dict, **fixed):
    return cls(**_fields(cls, cfg, **fixed))


def generator_from_config(cfg: dict):
    """Build the generator union member whose _GENERATORS kind a config names.

    A cfg that is not a dict raises InvalidParams. A dict refuses unknown
    keys as a config file does: a key outside both the member's _KEYS row
    and the keys of the run (generator, q_grid and the GheConfig and
    EnsembleSpec rows) raises UnknownKey, naming the generator when
    another generator reads the key.
    ar1 gives ar_coeffs (ar1,), and no ar1 gives (). A relative `input`
    path is read from the working directory; a wrongly typed empirical key
    raises InvalidParams naming it before the file is read.
    """
    kind = _require(_instance("cfg", cfg, dict), "generator")
    cls = next((member for member, row in _GENERATORS.items() if row[0] == kind), None)
    if cls is None:
        raise InvalidParams(f"unknown generator kind {kind!r}")
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise UnknownKey(f"unknown config key {key!r}")
        if key not in _KEYS[cls] and any(key in _KEYS[member] for member in _GENERATORS):
            raise UnknownKey(f"generator {kind!r} does not read config key {key!r}")
    if cls is EmpiricalSeries:
        path, column = Path(_path("input", _require(cfg, "input"))), cfg.get("column", "price")
        name = _instance("name", cfg.get("name", path.stem), str)
        kind = _member("return_kind", ReturnKind, cfg.get("return_kind", ReturnKind.LOG_RETURN))
        return _observed_series(load_price_csv(path, column), kind, path, column, name)
    if cls is not ArfimaParams:
        return _build(cls, cfg, length=cfg.get("path_length", EnsembleSpec.path_length))
    ar_coeffs = (cfg["ar1"],) if "ar1" in cfg else ()
    return ArfimaParams(ar_coeffs, cfg.get("d", 0.0), _build(StableParams, cfg))


def ensemble_spec_from_config(cfg: dict, master_seed: int = 0) -> EnsembleSpec:
    """The spec a config describes; absent keys take the dataclass defaults.

    A cfg that is not a dict raises InvalidParams, and an unknown key
    UnknownKey, as in generator_from_config.
    An empirical series is one path of its own length, whatever n_paths
    and path_length say.
    """
    generator = generator_from_config(cfg)
    spec = _fields(EnsembleSpec, cfg, generator=generator, ghe=_build(GheConfig, cfg),
                   master_seed=master_seed)
    if isinstance(generator, EmpiricalSeries):
        return _observed_spec(Path(cfg["input"]), **spec)
    return EnsembleSpec(**spec)


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


REJECT_Z = 1.96  # two-sided 5% normal critical value


def _test_cells(a_mean, a_std, b_mean, b_std) -> dict:
    """The two-sample z test of 'same exponent' as result cells.

    z = (a_mean - b_mean) / sqrt(a_std^2 + b_std^2), rejected at the 95%
    level when |z| > REJECT_Z. No cells where both stds are zero and z is
    undefined.
    """
    var = a_std * a_std + b_std * b_std
    if var == 0.0:
        return {}
    z = (a_mean - b_mean) / math.sqrt(var)
    return {"test_z": z, "reject95": abs(z) > REJECT_Z}


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
    Given an `empirical` report of the same variable and q values, a `H`
    row tests the original moments against it, and a `H_shuffle_detail`
    row the `H` rows' shuffled mean and cross-path std if both reports
    have shuffles.
    A test whose two dispersions are both zero is undefined: its cells stay empty.
    """
    sim, emp = _instance("report", report, EnsembleReport), empirical
    if emp is not None and _instance("empirical", emp, EnsembleReport).q_values != sim.q_values:
        raise InvalidParams(f"empirical q_values {emp.q_values} != report q_values {sim.q_values}")
    if emp is not None and emp.variable != sim.variable:
        raise InvalidParams(f"empirical variable {emp.variable.value} != report variable "
                            f"{sim.variable.value}")
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
    OSError (a missing directory, a denied write) names out_path, not that
    hidden file. An out_path that is not a str or an os.PathLike raises
    InvalidParams before anything is opened.
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
    """One line per row dict, its cells in RESULT_COLUMNS order; a column it lacks stays empty.

    A row that is not a dict, or that holds a key outside RESULT_COLUMNS,
    raises InvalidParams naming its 0-based index, and any old file at
    out_path stays whole; rows not iterable raise it before any opening.
    """
    def cells(rows):
        for i, row in enumerate(rows):
            extra = [key for key in _instance(f"rows[{i}]", row, dict) if key not in RESULT_COLUMNS]
            if extra:
                raise InvalidParams(f"rows[{i}] holds key {extra[0]!r}, not one of RESULT_COLUMNS")
            yield [row.get(col) for col in RESULT_COLUMNS]

    return _write_csv(out_path, RESULT_COLUMNS, cells(_instance("rows", rows, Iterable)))


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


def _scaling_function_rows(report: EnsembleReport) -> list[tuple]:
    """(q, q H(q), q H_shuffled(q)) per q of the report; the last is None without shuffles."""
    rows = []
    for i, q in enumerate(report.q_values):
        shuffled = None if report.shuffled_mean is None else q * report.shuffled_mean[i]
        rows.append((q, q * report.original_mean[i], shuffled))
    return rows


def write_series_csv(values, out_path) -> Path:
    """Two columns t,price: levels indexed from 0; values must be a 1-D sequence of reals.

    A value that is not finite raises InvalidParams naming its 0-based
    position before the file is opened, so an old file stays whole; a
    price file with an empty or infinite cell could not be read back.
    """
    values = _real_vector("values", values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidParams(f"values[{bad[0]}] must be finite, got {float(values[bad[0]])!r}")
    return _write_csv(out_path, ("t", "price"), enumerate(values.tolist()))
