"""Oracle on written result files: every test_z and reject95 recomputed.

The z statistics are rederived with plain `math` from the cells of the
CSV itself, so the check runs on the code path that wrote the file:

  delta_H row           (delta_h - delta_h_shuff) / hypot(original_std, shuffled_std)
  simulated H row       empirical H row against simulated H row, original_* cells
  H_shuffle_detail row  empirical H row against simulated H row, shuffled_* cells
"""

import csv
import math

import numpy as np
import pytest

from ghelab import reproduce_table
from ghelab.cli import main

TOL = 1e-12


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_prices(path, seed, n=400):
    rng = np.random.default_rng(seed)
    levels = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    path.write_text("price\n" + "\n".join(repr(float(v)) for v in levels) + "\n")


def z_of(a_mean, a_std, b_mean, b_std):
    return (float(a_mean) - float(b_mean)) / math.hypot(float(a_std), float(b_std))


def check_test(row, z):
    assert row["test_z"] != "", row
    written = float(row["test_z"])
    assert abs(written - z) <= TOL * max(1.0, abs(z)), (row, z)
    assert row["reject95"] == ("true" if abs(z) > 1.96 else "false"), row


def check_delta_row(row):
    check_test(row, z_of(row["delta_h"], row["original_std"],
                         row["delta_h_shuff"], row["shuffled_std"]))


@pytest.fixture(scope="module")
def t2_rows(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    write_prices(data / "dow.csv", seed=1)
    write_prices(data / "tb3.csv", seed=2)
    with pytest.warns(RuntimeWarning, match="empirical columns skipped"):
        out = reproduce_table("T2", out_dir=data, data_dir=data, n_paths=1)
    return read_rows(out)


def test_t2_written_tests_match_recomputation(t2_rows):
    emp_h = {(r["param_set"], r["q"]): r for r in t2_rows
             if r["generator"] == "empirical" and r["stat"] == "H"}
    assert {asset for asset, _ in emp_h} == {"Dow", "TB3"}
    sim_h = {(r["param_set"], r["q"]): r for r in t2_rows
             if r["generator"] == "msm" and r["stat"] == "H"}
    checked = 0
    for row in t2_rows:
        if row["stat"] == "delta_H":
            check_delta_row(row)
            checked += 1
            continue
        asset = row["param_set"].split(",")[0]
        if row["generator"] == "empirical" or asset not in ("Dow", "TB3"):
            # empirical rows and assets without data carry no identity test
            assert row["test_z"] == "" and row["reject95"] == "", row
            continue
        emp = emp_h[(asset, row["q"])]
        sim = sim_h[(row["param_set"], row["q"])]
        if row["stat"] == "H":
            z = z_of(emp["original_mean"], emp["original_std"],
                     sim["original_mean"], sim["original_std"])
        else:
            # the shuffled test uses the H rows' cross-path shuffled std,
            # not the within-replica std shown on the detail row
            assert row["stat"] == "H_shuffle_detail"
            z = z_of(emp["shuffled_mean"], emp["shuffled_std"],
                     sim["shuffled_mean"], sim["shuffled_std"])
        check_test(row, z)
        checked += 1
    # 38 delta_H rows, and 2 assets x 4 k x 3 q x 2 stats
    assert checked == 38 + 48


def test_ghe_written_delta_test_matches_recomputation(tmp_path):
    prices = tmp_path / "prices.csv"
    write_prices(prices, seed=3)
    assert main(["--out", str(tmp_path), "ghe", str(prices), "--shuffles", "4"]) == 0
    rows = read_rows(tmp_path / "ghe_report.csv")
    assert [r["stat"] for r in rows] == ["H", "H_shuffle_detail"] * 3 + ["delta_H"]
    assert all(r["test_z"] == "" for r in rows[:-1])
    check_delta_row(rows[-1])
