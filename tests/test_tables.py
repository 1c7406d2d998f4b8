import csv

import numpy as np
import pytest

from ghelab import InvalidParams, RESULT_COLUMNS, ReturnKind, reproduce_table
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


def test_reproduce_table_rejects_bad_args(tmp_path):
    with pytest.raises(InvalidParams):
        reproduce_table("T1", out_dir=tmp_path)
    with pytest.raises(InvalidParams):
        reproduce_table("T6", scale="huge", out_dir=tmp_path)


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
