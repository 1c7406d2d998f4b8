import csv
import itertools
import re
import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

import ghelab.tables as tables
from ghelab import (
    ArfimaParams,
    EmpiricalSeries,
    FbmParams,
    GheConfig,
    InvalidParams,
    NonPositivePrice,
    ParseError,
    RESULT_COLUMNS,
    ReturnKind,
    StableParams,
    TauTooLarge,
    VariableKind,
    ensemble_spec_from_config,
    gmm_estimates,
    reproduce_table,
)
from ghelab.tables import _cell_seed, asset_return_kind, asset_slug


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == RESULT_COLUMNS
        return list(reader)


def write_prices(tmp_path, name, n=400, seed=0):
    rng = np.random.default_rng(seed)
    levels = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    p = tmp_path / name
    p.write_text("price\n" + "\n".join(repr(float(v)) for v in levels) + "\n")


def test_asset_helpers():
    assert asset_slug("DM/US") == "dm_us"
    assert asset_slug("Dow") == "dow"
    assert asset_return_kind("TB3") is ReturnKind.DIFFERENCE
    assert asset_return_kind("Dow") is ReturnKind.LOG_RETURN


def test_cell_seed_is_stable():
    assert _cell_seed(0, 6, 3) == _cell_seed(0, 6, 3)
    seeds = {_cell_seed(0, t, c) for t in (2, 6) for c in range(10)}
    assert len(seeds) == 20


def test_reproduce_table_rejects_bad_args(monkeypatch, tmp_path):
    calls = []
    for name in ("run_ensemble", "load_price_csv"):
        monkeypatch.setattr(tables, name, lambda *args, **kwargs: calls.append(args))
    out, data = tmp_path / "out", tmp_path / "data"
    out.mkdir()
    data.mkdir()
    write_prices(data, "dow.csv")
    with pytest.raises(InvalidParams):
        reproduce_table("T1", out_dir=out)
    with pytest.raises(InvalidParams):
        reproduce_table("T6", scale="huge", out_dir=out)
    for seed in (-1, 2**64, 0.5):
        with pytest.raises(InvalidParams, match="master_seed"):
            reproduce_table("T5", master_seed=seed, out_dir=out)
    for threads in (0, -1, "2", 2.5, None):
        # checked before the data file is read or any cell runs
        with pytest.raises(InvalidParams, match="threads"):
            reproduce_table("T2", out_dir=out, data_dir=data, threads=threads)
    for n_paths in (0, -1, True, "3", 2.5):
        with pytest.raises(InvalidParams, match="^n_paths must be"):
            reproduce_table("T2", out_dir=out, data_dir=data, n_paths=n_paths)
    for bad_out in (tmp_path / "missing", data / "dow.csv"):
        with pytest.raises(InvalidParams, match=re.escape(f"out_dir {str(bad_out)!r}")):
            reproduce_table("T5", out_dir=bad_out, n_paths=1)
    assert calls == []
    assert not list(out.iterdir())


def test_t6_structure(tmp_path):
    out = reproduce_table("T6", scale="desk", out_dir=tmp_path, n_paths=3)
    assert out.name == "table_T6_desk.csv"
    rows = read_rows(out)
    # 5 hurst cells x (3 q x 2 stats + 1 delta row)
    assert len(rows) == 35
    assert {r["param_set"] for r in rows} == {f"H={h}" for h in
                                              (0.3, 0.4, 0.5, 0.6, 0.7)}
    assert all(r["table"] == "T6" for r in rows)
    assert all(r["generator"] == "fbm" for r in rows)
    deltas = [r for r in rows if r["stat"] == "delta_H"]
    assert len(deltas) == 5
    assert all(r["test_z"] != "" for r in deltas)


def test_t7_skips_invalid_corner(tmp_path):
    with pytest.warns(RuntimeWarning, match="alpha=1.2,d=0.2"):
        out = reproduce_table("T7", scale="desk", out_dir=tmp_path, n_paths=2)
    rows = read_rows(out)
    labels = {r["param_set"] for r in rows}
    # the 5x5 grid loses the one cell where d >= 1 - 1/alpha
    assert len(labels) == 24
    assert "alpha=1.2,d=0.2" not in labels
    assert "alpha=1.2,d=0.1" in labels
    assert len(rows) == 24 * 7


def test_each_warning_points_at_the_callers_line(monkeypatch, tmp_path):
    # a warning names the caller's file and line, not a line inside ghelab
    class NoCells(Exception):
        pass

    def refuse(spec, threads=1):
        raise NoCells

    monkeypatch.setattr(tables, "run_ensemble", refuse)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        GheConfig(q_values=(1.0, 4.0))
        ensemble_spec_from_config({"generator": "stable", "alpha": 1.6, "q_values": (1.0, 4.0)})
        replace(GheConfig(), q_values=(1.0, 4.0))
        for table_id, data_dir in (("T2", tmp_path), ("T5", tmp_path), ("T7", None)):
            with pytest.raises(NoCells):
                reproduce_table(table_id, out_dir=tmp_path, data_dir=data_dir, n_paths=1)
    messages = {"q > 3", "empirical columns skipped", "reads no data files", "violates"}
    assert {m for m in messages for w in caught if m in str(w.message)} == messages
    assert sum("q > 3" in str(w.message) for w in caught) == 3
    assert {w.filename for w in caught} == {__file__}


def test_non_stationary_corner_is_an_invalid_corner():
    # a grid skips a non-stationary AR corner as it skips any invalid one
    assert tables._arfima_or_none((1.5,), 0.1, 1.6) is None
    assert tables._arfima_or_none((0.4,), 0.1, 1.6) is not None


def test_t2_with_partial_empirical_data(tmp_path):
    write_prices(tmp_path, "dow.csv", seed=1)
    write_prices(tmp_path, "tb3.csv", seed=2)
    with pytest.warns(RuntimeWarning, match="empirical columns skipped"):
        out = reproduce_table("T2", scale="desk", out_dir=tmp_path,
                              data_dir=tmp_path, n_paths=1)
    rows = read_rows(out)
    # 2 empirical cells + 9 assets x 4 k simulated cells, 7 rows each
    assert len(rows) == (2 + 36) * 7
    emp = [r for r in rows if r["generator"] == "empirical"]
    assert {r["param_set"] for r in emp} == {"Dow", "TB3"}
    # simulated H rows get identity tests only where data was supplied
    dow_h = [r for r in rows if r["param_set"] == "Dow,k=10" and r["stat"] == "H"]
    nik_h = [r for r in rows if r["param_set"] == "Nik,k=10" and r["stat"] == "H"]
    assert len(dow_h) == len(nik_h) == 3
    assert all(r["test_z"] != "" for r in dow_h)
    assert all(r["reject95"] in ("true", "false") for r in dow_h)
    assert all(r["test_z"] == "" for r in nik_h)
    for r in rows:
        if r["stat"] == "delta_H":
            assert r["test_z"] != ""


def test_t9_emits_only_delta_rows(tmp_path):
    out = reproduce_table("T9", scale="desk", out_dir=tmp_path, n_paths=1)
    rows = read_rows(out)
    # 3 variables x 9 assets x 4 k, one delta row per cell
    assert len(rows) == 108
    assert all(r["stat"] == "delta_H" for r in rows)
    assert {r["variable"] for r in rows} == {"price", "cum_abs_return",
                                             "cum_sq_return"}
    assert all(r["delta_h"] != "" and r["delta_h_shuff"] != "" for r in rows)


def test_simulated_cells_ignore_the_data_directory(tmp_path):
    # a simulated cell's seed must not depend on which empirical files exist
    data = tmp_path / "data"
    data.mkdir()
    write_prices(data, "dow.csv", seed=3)
    with pytest.warns(RuntimeWarning, match="empirical columns skipped"):
        with_data = reproduce_table("T2", out_dir=data, data_dir=data, n_paths=1)
    without = reproduce_table("T2", out_dir=tmp_path, n_paths=1)
    sim = [r for r in read_rows(with_data) if r["generator"] == "msm"]
    plain = read_rows(without)
    assert len(sim) == len(plain) == 36 * 7
    cols = ("param_set", "q", "stat", "original_mean", "original_std", "shuffled_mean",
            "shuffled_std", "delta_h", "delta_h_shuff")
    for a, b in zip(sim, plain):
        assert [a[c] for c in cols] == [b[c] for c in cols]


def test_t9_reads_each_data_file_once(monkeypatch, tmp_path):
    # three variables share one read of each file and one warning per missing file
    write_prices(tmp_path, "dow.csv", seed=1)
    loads = []
    inner_load, inner_run = tables.load_price_csv, tables.run_ensemble

    def counted(path, *args, **kwargs):
        loads.append(path.name)
        return inner_load(path, *args, **kwargs)

    def cheap(spec, threads=1):
        if not isinstance(spec.generator, EmpiricalSeries):
            spec = replace(spec, path_length=100, n_shuffles=1)
        return inner_run(spec, threads=threads)

    monkeypatch.setattr(tables, "load_price_csv", counted)
    monkeypatch.setattr(tables, "run_ensemble", cheap)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reproduce_table("T9", out_dir=tmp_path, data_dir=tmp_path, n_paths=1)
    assert loads == ["dow.csv"]
    assert len(caught) == 8
    assert all("empirical columns skipped" in str(w.message) for w in caught)


def test_malformed_data_file_stops_the_table_before_any_cell(monkeypatch, tmp_path):
    write_prices(tmp_path, "dow.csv", seed=1)
    (tmp_path / "nik.csv").write_text("price\n100\n101\nx\n")
    calls = []
    inner = tables.run_ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tables, "run_ensemble", counted)
    with pytest.raises(ParseError, match=r"row 3: .* in .*nik\.csv"):
        reproduce_table("T2", out_dir=tmp_path, data_dir=tmp_path, n_paths=1)
    assert calls == []
    assert not (tmp_path / "table_T2_desk.csv").exists()


def test_non_positive_price_names_the_data_file_and_row(monkeypatch, tmp_path):
    # the table reads up to nine files, so the error says which one, and
    # counts data rows from 1 as ParseError does
    write_prices(tmp_path, "tb3.csv", seed=2)
    write_prices(tmp_path, "dow.csv", seed=1)
    p = tmp_path / "dow.csv"
    lines = p.read_text().splitlines()
    lines[8] = "0.0"  # data row 8
    p.write_text("\n".join(lines) + "\n")
    calls = []
    monkeypatch.setattr(tables, "run_ensemble", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(NonPositivePrice) as info:
        reproduce_table("T2", out_dir=tmp_path, data_dir=tmp_path, n_paths=1)
    assert str(info.value) == f"row 8: non-positive 'price' value 0.0 in {p}"
    assert calls == []
    assert not (tmp_path / "table_T2_desk.csv").exists()


def test_short_data_file_stops_the_table_before_any_cell(monkeypatch, tmp_path):
    # tau_max = 19 needs more than 76 levels: 76 prices give 76 price
    # levels, 77 prices give 77 price levels but 76 cumulated-return levels
    class CellRan(Exception):
        pass

    calls = []

    def first_cell(*args, **kwargs):
        calls.append(args)
        raise CellRan

    monkeypatch.setattr(tables, "run_ensemble", first_cell)
    write_prices(tmp_path, "dow.csv", seed=1)
    p = tmp_path / "tb3.csv"
    cases = [(76, "T2", "got 76 for price"), (77, "T2", None),
             (77, "T3", "got 76 for cum_abs_return"), (77, "T9", "got 76 for cum_abs_return")]
    for n, table_id, got in cases:
        write_prices(tmp_path, "tb3.csv", n=n, seed=2)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the seven missing assets
            if got is None:
                with pytest.raises(CellRan):
                    reproduce_table(table_id, out_dir=tmp_path, data_dir=tmp_path, n_paths=1)
                assert len(calls) == 1
                continue
            with pytest.raises(TauTooLarge) as info:
                reproduce_table(table_id, out_dir=tmp_path, data_dir=tmp_path, n_paths=1)
        assert str(info.value) == f"tau_max=19 needs more than 76 levels, {got} in {p}"
        assert calls == [], (n, table_id)
    assert not list(tmp_path.glob("table_*"))


def test_several_short_data_files_report_the_first_cell_in_row_order(monkeypatch, tmp_path):
    # every cell's spec is built before any runs, variable by variable: tb3
    # too short for price is named before dow too short for cum_abs_return,
    # though dow.csv is read first
    calls = []
    monkeypatch.setattr(tables, "run_ensemble", lambda *args, **kwargs: calls.append(args))
    write_prices(tmp_path, "dow.csv", n=77, seed=1)
    write_prices(tmp_path, "tb3.csv", n=76, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the seven missing assets
        with pytest.raises(TauTooLarge) as info:
            reproduce_table("T9", out_dir=tmp_path, data_dir=tmp_path, n_paths=1)
    assert str(info.value) == ("tau_max=19 needs more than 76 levels, got 76 for price in "
                               f"{tmp_path / 'tb3.csv'}")
    assert calls == []


def test_missing_data_dir_stops_the_table_before_any_cell(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(tables, "run_ensemble", lambda *args, **kwargs: calls.append(args))
    for table_id in ("T2", "T5"):
        with pytest.raises(InvalidParams, match="no_such_dir"):
            reproduce_table(table_id, out_dir=tmp_path, data_dir=tmp_path / "no_such_dir",
                            n_paths=1)
    assert calls == []
    assert not list(tmp_path.iterdir())


def test_table_without_data_files_warns_once_on_data_dir(monkeypatch, tmp_path):
    calls = []
    inner = tables.run_ensemble

    def cheap(spec, threads=1):
        calls.append(spec)
        return inner(replace(spec, path_length=100, n_shuffles=1), threads=threads)

    monkeypatch.setattr(tables, "run_ensemble", cheap)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reproduce_table("T5", out_dir=tmp_path, data_dir=tmp_path, n_paths=1)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, f"T5 reads no data files; data_dir {str(tmp_path)!r} ignored")]
    assert len(calls) == 5


def _msm_plan(table_no, variables, n_paths, data_assets):
    """(seed, label, generator, path_length, variable, n_paths) of each MSM cell, in
    row order; an empirical cell's generator is its asset name."""
    estimates = gmm_estimates()
    plan = []
    for variable in variables:
        for a, asset in enumerate(tables.ASSETS):
            if asset in data_assets:
                plan.append((_cell_seed(0, table_no, 36 + a), asset, asset, 399, variable, 1))
            for i, k in enumerate((5, 10, 15, 20)):
                plan.append((_cell_seed(0, table_no, a * 4 + i), f"{asset},k={k}",
                             estimates[(asset, k)], 8700, variable, n_paths))
    return plan


def _grid_plan(table_no, cells, n_paths):
    # grid cells are numbered in grid order, the skipped corner included
    return [(_cell_seed(0, table_no, c), label, gen, 8192, VariableKind.PRICE, n_paths)
            for c, (label, gen) in enumerate(cells) if gen is not None]


def _arfima_cells(ar_coeffs):
    return [(f"alpha={a},d={d}",
             None if (a, d) == (1.2, 0.2) else ArfimaParams(ar_coeffs, d, StableParams(alpha=a)))
            for a in (1.2, 1.4, 1.6, 1.8, 2.0) for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]


def test_every_table_runs_its_cells(monkeypatch, tmp_path):
    # each cell's seed, generator, sizes and variable, and the label its rows carry
    write_prices(tmp_path, "dow.csv", seed=1)
    write_prices(tmp_path, "tb3.csv", seed=2)
    specs = []
    inner = tables.run_ensemble

    def cheap(spec, threads=1):
        specs.append(spec)
        if not isinstance(spec.generator, EmpiricalSeries):
            spec = replace(spec, path_length=100, n_shuffles=1)
        return inner(spec, threads=threads)

    monkeypatch.setattr(tables, "run_ensemble", cheap)
    alphas = (1.2, 1.4, 1.6, 1.8, 2.0)
    plans = {
        "T2": _msm_plan(2, [VariableKind.PRICE], 3, ("Dow", "TB3")),
        "T3": _msm_plan(3, [VariableKind.CUM_ABS_RETURN], 3, ()),
        "T4": _msm_plan(4, [VariableKind.CUM_SQ_RETURN], 3, ()),
        "T5": _grid_plan(5, [(f"alpha={a}", StableParams(alpha=a)) for a in alphas], 3),
        "T6": _grid_plan(6, [(f"H={h}", FbmParams(hurst=h, length=8192))
                             for h in (0.3, 0.4, 0.5, 0.6, 0.7)], 3),
        "T7": _grid_plan(7, _arfima_cells(()), 3),
        "T8": _grid_plan(8, _arfima_cells((0.4,)), 3),
        "T9": _msm_plan(9, list(VariableKind), 3, ()),
    }
    for table_id, plan in plans.items():
        specs.clear()
        with pytest.warns(RuntimeWarning) if table_id in ("T2", "T7", "T8") else nullcontext():
            out = reproduce_table(table_id, out_dir=tmp_path, n_paths=3,
                                  data_dir=tmp_path if table_id == "T2" else None)
        assert len(specs) == len(plan), table_id
        for spec, (seed, _, generator, length, variable, n_paths) in zip(specs, plan):
            assert spec.master_seed == seed, table_id
            if isinstance(spec.generator, EmpiricalSeries):
                assert spec.generator.series_id == generator
            else:
                assert spec.generator == generator, table_id
            assert (spec.path_length, spec.variable_kind, spec.n_paths) == (
                length, variable, n_paths), table_id
        labels = [key for key, _ in itertools.groupby(
            (r["param_set"], r["variable"]) for r in read_rows(out))]
        assert labels == [(label, variable.value) for _, label, _, _, variable, _ in plan]
