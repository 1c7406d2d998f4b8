"""Wrongly typed arguments to the library's entry points raise InvalidParams.

A path argument must be a str or an os.PathLike: an int would otherwise
be opened, and closed, as a file descriptor. Every other typed argument
names itself in the error instead of failing later as a raw TypeError or
AttributeError.
"""

import os

import numpy as np
import pytest

from ghelab import (
    InvalidParams,
    ReturnSeries,
    StableParams,
    VariableKind,
    build_variable,
    demean,
    ensemble_spec_from_config,
    generalized_hurst,
    generator_from_config,
    load_price_csv,
    parse_config,
    report_rows,
    reproduce_table,
    run_ensemble,
    shuffle,
    simulate_returns,
    structure_function_rows,
    write_result_csv,
    write_series_csv,
)

SERIES = ReturnSeries(values=np.arange(1.0, 9.0))
LEVELS = np.cumsum(np.sin(np.arange(200.0)))
RNG = np.random.default_rng(0)

PATH_ENTRIES = {
    "load_price_csv": ("path", lambda bad, tmp: load_price_csv(bad)),
    "parse_config": ("path", lambda bad, tmp: parse_config(bad)),
    "write_result_csv": ("out_path", lambda bad, tmp: write_result_csv([], bad)),
    "write_series_csv": ("out_path", lambda bad, tmp: write_series_csv([1.0, 2.0], bad)),
    "reproduce_table.out_dir": ("out_dir", lambda bad, tmp: reproduce_table("T5", out_dir=bad)),
    "reproduce_table.data_dir": (
        "data_dir", lambda bad, tmp: reproduce_table("T2", out_dir=tmp, data_dir=bad)),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in sorted(PATH_ENTRIES) for bad in (1, True, None, 2.5)
    if (entry, bad) != ("reproduce_table.data_dir", None)  # None: no data files
])
def test_a_path_argument_must_be_a_str_or_pathlike(entry, bad, tmp_path):
    name, call = PATH_ENTRIES[entry]
    with pytest.raises(InvalidParams, match=f"^{name} must be a str or PathLike, got {bad!r}$"):
        call(bad, tmp_path)
    os.fstat(1)  # an int was not opened as a descriptor and closed


def test_parse_config_leaves_descriptor_1_open():
    with pytest.raises(InvalidParams, match="^path must be"):
        parse_config(1)
    os.fstat(1)


TYPED_ENTRIES = {
    "build_variable": ("r", lambda tmp: build_variable(SERIES.values, VariableKind.PRICE)),
    "build_variable.None": ("r", lambda tmp: build_variable(None, VariableKind.PRICE)),
    "shuffle.r": ("r", lambda tmp: shuffle(list(SERIES.values), RNG)),
    "shuffle.rng=None": ("rng", lambda tmp: shuffle(SERIES, None)),
    "shuffle.rng=3": ("rng", lambda tmp: shuffle(SERIES, 3)),
    "demean": ("r", lambda tmp: demean(SERIES.values)),
    "simulate_returns.rng=None": (
        "rng", lambda tmp: simulate_returns(StableParams(alpha=1.6), 10, None)),
    "simulate_returns.rng=3": ("rng", lambda tmp: simulate_returns(StableParams(alpha=1.6), 10, 3)),
    "run_ensemble": ("spec", lambda tmp: run_ensemble(None)),
    "generalized_hurst": ("cfg", lambda tmp: generalized_hurst(LEVELS, None)),
    "structure_function_rows": ("cfg", lambda tmp: structure_function_rows(LEVELS, None)),
    "report_rows": ("report", lambda tmp: report_rows(None)),
    "generator_from_config": ("cfg", lambda tmp: generator_from_config(None)),
    "ensemble_spec_from_config": ("cfg", lambda tmp: ensemble_spec_from_config(None)),
    "write_series_csv.str": ("values", lambda tmp: write_series_csv(["a"], tmp / "s.csv")),
    "write_series_csv.2d": ("values", lambda tmp: write_series_csv(np.ones((3, 2)), tmp / "s.csv")),
    "write_result_csv.rows": ("rows", lambda tmp: write_result_csv(None, tmp / "r.csv")),
    "load_price_csv.column": ("column", lambda tmp: load_price_csv(tmp / "p.csv", 5)),
    # an empirical config's keys are checked before its input, a missing file, is read
    **{f"generator_from_config.{key}": (key, lambda tmp, key=key, bad=bad: generator_from_config(
        {"generator": "empirical", "input": tmp / "p.csv", key: bad}))
       for key, bad in (("input", 5), ("column", 5), ("name", 5), ("return_kind", "bogus"))},
}


@pytest.mark.parametrize("entry", sorted(TYPED_ENTRIES))
def test_a_wrongly_typed_argument_is_named(entry, tmp_path):
    name, call = TYPED_ENTRIES[entry]
    with pytest.raises(InvalidParams, match=f"^{name} must be"):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing was written

