"""Oracle on written result files: every number recomputed.

The identity tests are rederived with plain `math` from the cells of the
CSV itself, so the check runs on the code path that wrote the file:

  delta_H row           (delta_h - delta_h_shuff) / hypot(original_std, shuffled_std)
  simulated H row       empirical H row against simulated H row, original_* cells
  H_shuffle_detail row  empirical H row against simulated H row, shuffled_* cells

Every numeric cell of the T2 through T8 tables, an `ensemble` and a
`ghe` report is then recomputed from the seeds alone by
tests/brute_force.py: each path and shuffle replica is rebuilt, detrended
and fitted once per tau_max, and the moments and z statistics come from
plain-Python sums. Every log K of a `plotdata` structure-function file
is recomputed with the plain-Python structure function, and every
q H(q) of its scaling-function file from the brute-force H(q). Every
level of a `simulate` file is the running sum of the matrix-form MSM
cascade drawn from the same seed.
"""

import csv
import math
import warnings

import numpy as np
import pytest

from ghelab import (
    ArfimaParams,
    FbmParams,
    MsmParams,
    StableParams,
    gmm_estimates,
    reproduce_table,
    simulate_returns,
)
from ghelab.cli import main
from ghelab.generators import sample_stable
from ghelab.msm import _transition_probs

from brute_force import (
    cell_seed,
    detrend,
    item_rng,
    levels_of,
    matrix_msm,
    mean,
    naive_structure_function,
    path_hurst,
    report_moments,
    z_stat,
)

TOL = 1e-12
ORACLE_TOL = 1e-9
Q_VALUES = (1.0, 2.0, 3.0)
TAU_RANGE = (5, 19)
NUMERIC = ("q", "original_mean", "original_std", "shuffled_mean", "shuffled_std",
           "delta_h", "delta_h_shuff")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def price_levels(seed, n=400):
    rng = np.random.default_rng(seed)
    return 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))


def write_prices(path, seed, n=400):
    # repr round-trips, so the file holds exactly price_levels(seed, n)
    levels = price_levels(seed, n)
    path.write_text("price\n" + "\n".join(repr(float(v)) for v in levels) + "\n")


def check_test(row, z):
    assert row["test_z"] != "", row
    written = float(row["test_z"])
    assert abs(written - z) <= TOL * max(1.0, abs(z)), (row, z)
    assert row["reject95"] == ("true" if abs(z) > 1.96 else "false"), row


def check_delta_row(row):
    check_test(row, z_stat(row["delta_h"], row["original_std"],
                           row["delta_h_shuff"], row["shuffled_std"]))


# The variable each MSM table analyzes
MSM_TABLES = {"T2": "price", "T3": "cum_abs_return", "T4": "cum_sq_return"}


@pytest.fixture(scope="module", params=MSM_TABLES)
def msm_table(request, tmp_path_factory):
    """(table id, rows) of the table at one path per cell, Dow and TB3 data only."""
    data = tmp_path_factory.mktemp("data")
    write_prices(data / "dow.csv", seed=1)
    write_prices(data / "tb3.csv", seed=2)
    with pytest.warns(RuntimeWarning, match="empirical columns skipped"):
        out = reproduce_table(request.param, out_dir=data, data_dir=data, n_paths=1)
    return request.param, read_rows(out)


def test_msm_table_written_tests_match_recomputation(msm_table):
    _, rows = msm_table
    emp_h = {(r["param_set"], r["q"]): r for r in rows
             if r["generator"] == "empirical" and r["stat"] == "H"}
    assert {asset for asset, _ in emp_h} == {"Dow", "TB3"}
    sim_h = {(r["param_set"], r["q"]): r for r in rows
             if r["generator"] == "msm" and r["stat"] == "H"}
    checked = 0
    for row in rows:
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
            z = z_stat(emp["original_mean"], emp["original_std"],
                       sim["original_mean"], sim["original_std"])
        else:
            # the shuffled test uses the H rows' cross-path shuffled std,
            # not the within-replica std shown on the detail row
            assert row["stat"] == "H_shuffle_detail"
            z = z_stat(emp["shuffled_mean"], emp["shuffled_std"],
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


def expected_rows(grids):
    """The rows of one report, recomputed from each path's brute-force H grid.

    grids[i] is path_hurst's (1 + n_shuffles, n_q, n_tau_max) array for path i.
    """
    h = [[[mean(list(per_tau)) for per_tau in row] for row in grid] for grid in grids]
    m, with_delta = report_moments(h, grids[0][0], Q_VALUES)
    assert with_delta
    shuffled = len(grids[0]) > 1

    def cell(field, j):
        return m[field][j] if m[field] else None

    base = dict.fromkeys(NUMERIC) | {"test_z": None}
    delta = {"delta_h": cell("original_mean", -1), "delta_h_shuff": cell("shuffled_mean", -1)}
    rows = []
    for j, q in enumerate(Q_VALUES):
        rows.append(base | delta | {
            "stat": "H", "q": q,
            "original_mean": m["original_mean"][j], "original_std": m["original_std"][j],
            "shuffled_mean": cell("shuffled_mean", j), "shuffled_std": cell("shuffled_std", j),
        })
        if shuffled:
            rows.append(base | {
                "stat": "H_shuffle_detail", "q": q, "shuffled_mean": m["shuffled_mean"][j],
                "shuffled_std": m["shuffled_within_std"][j],
            })
    d = base | delta | {"stat": "delta_H", "original_std": m["original_std"][-1],
                        "shuffled_std": cell("shuffled_std", -1)}
    if shuffled:
        d["test_z"] = z_stat(d["delta_h"], d["original_std"], d["delta_h_shuff"], d["shuffled_std"])
    return rows + [d]


def check_against_oracle(written, expected):
    """Each numeric cell within ORACLE_TOL, test_z relative to |z|, reject95 exact."""
    assert [r["stat"] for r in written] == [e["stat"] for e in expected]
    for row, want in zip(written, expected):
        for col in NUMERIC:
            if want[col] is None:
                assert row[col] == "", (col, row)
            else:
                assert abs(float(row[col]) - want[col]) <= ORACLE_TOL, (col, row, want[col])
        z = want["test_z"]
        if z is None:
            assert row["test_z"] == "" and row["reject95"] == "", row
        else:
            assert abs(float(row["test_z"]) - z) <= ORACLE_TOL * max(1.0, abs(z)), (row, z)
            assert row["reject95"] == ("true" if abs(z) > 1.96 else "false"), (row, z)


def stable_grids(alpha, n_paths, length, n_shuffles, seed):
    p = StableParams(alpha=alpha)
    return [path_hurst(sample_stable(p, item_rng(seed, i, 0), size=length), "price",
                       n_shuffles, seed, i, Q_VALUES, TAU_RANGE)
            for i in range(n_paths)]


def test_table_cells_match_the_brute_force_oracle(tmp_path):
    out = reproduce_table("T5", out_dir=tmp_path, n_paths=2)
    rows = read_rows(out)
    alphas = (1.2, 1.4, 1.6, 1.8, 2.0)
    assert len(rows) == 7 * len(alphas)
    for c, alpha in enumerate(alphas):
        cell_rows = [r for r in rows if r["param_set"] == f"alpha={alpha}"]
        grids = stable_grids(alpha, 2, 8192, 33, cell_seed(0, 5, c))
        check_against_oracle(cell_rows, expected_rows(grids))


def with_identity_tests(sim, emp):
    """sim's expected rows, each H and H_shuffle_detail row tested against emp's H rows."""
    emp_h = {r["q"]: r for r in emp if r["stat"] == "H"}
    sim_h = {r["q"]: r for r in sim if r["stat"] == "H"}
    for row in sim:
        if row["stat"] != "delta_H":
            e, s = emp_h[row["q"]], sim_h[row["q"]]
            side = "original" if row["stat"] == "H" else "shuffled"
            row["test_z"] = z_stat(e[f"{side}_mean"], e[f"{side}_std"],
                                   s[f"{side}_mean"], s[f"{side}_std"])
    return sim


def test_msm_table_cells_match_the_brute_force_oracle(msm_table):
    # one path per cell: the MSM returns come from simulate_returns, the
    # empirical ones from the files msm_table wrote, the rest is the oracle's
    table, rows = msm_table
    variable, table_no = MSM_TABLES[table], int(table[1:])
    assets = ("Dow", "Nik", "DM/US", "US/UK", "TB1", "TB2", "TB3", "TB5", "TB10")
    files = {"Dow": np.diff(np.log(price_levels(1))), "TB3": np.diff(price_levels(2))}
    estimates = gmm_estimates()

    def cell_rows(seed, returns):
        return expected_rows([path_hurst(returns, variable, 33, seed, 0, Q_VALUES, TAU_RANGE)])

    assert len(rows) == 7 * (len(assets) * 4 + len(files))
    assert {r["variable"] for r in rows} == {variable}
    for a, asset in enumerate(assets):
        emp = None
        if asset in files:
            emp = cell_rows(cell_seed(0, table_no, 36 + a), files[asset])
            written = [r for r in rows if r["generator"] == "empirical"
                       and r["param_set"] == asset]
            check_against_oracle(written, emp)
        for i, k in enumerate((5, 10, 15, 20)):
            seed = cell_seed(0, table_no, 4 * a + i)
            returns = simulate_returns(estimates[(asset, k)], 8700, item_rng(seed, 0, 0))
            want = cell_rows(seed, returns.values)
            if emp is not None:
                want = with_identity_tests(want, emp)
            check_against_oracle([r for r in rows if r["param_set"] == f"{asset},k={k}"],
                                 want)


def test_t9_cells_match_the_brute_force_oracle(tmp_path):
    # T9 keeps each cell's delta_H row, variables outer, then assets and k
    # in README order; Dow's rows are recomputed for all three variables,
    # from the seed each (asset, k) cell shares across them
    rows = read_rows(reproduce_table("T9", out_dir=tmp_path, n_paths=1))
    assets = ("Dow", "Nik", "DM/US", "US/UK", "TB1", "TB2", "TB3", "TB5", "TB10")
    variables = ("price", "cum_abs_return", "cum_sq_return")
    assert [(r["table"], r["generator"], r["stat"], r["variable"], r["param_set"])
            for r in rows] == [("T9", "msm", "delta_H", variable, f"{asset},k={k}")
                               for variable in variables for asset in assets
                               for k in (5, 10, 15, 20)]
    estimates = gmm_estimates()
    for i, k in enumerate((5, 10, 15, 20)):
        seed = cell_seed(0, 9, i)
        returns = simulate_returns(estimates[("Dow", k)], 8700, item_rng(seed, 0, 0)).values
        for variable in variables:
            grid = path_hurst(returns, variable, 33, seed, 0, Q_VALUES, TAU_RANGE)
            written = [r for r in rows if r["variable"] == variable
                       and r["param_set"] == f"Dow,k={k}"]
            check_against_oracle(written, expected_rows([grid])[-1:])


def grid_cells(table):
    """(cell index, label, generator) of each cell T6, T7 or T8 runs.

    T7 and T8 skip the corner alpha = 1.2, d = 0.2, which keeps its index.
    """
    if table == "T6":
        return [(c, f"H={h}", FbmParams(hurst=h, length=8192))
                for c, h in enumerate((0.3, 0.4, 0.5, 0.6, 0.7))]
    ar_coeffs = () if table == "T7" else (0.4,)
    grid = [(a, d) for a in (1.2, 1.4, 1.6, 1.8, 2.0) for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]
    return [(c, f"alpha={a},d={d}",
             ArfimaParams(ar_coeffs=ar_coeffs, d=d, stable=StableParams(alpha=a)))
            for c, (a, d) in enumerate(grid) if (a, d) != (1.2, 0.2)]


@pytest.mark.parametrize("table", ["T6", "T7", "T8"])
def test_fbm_and_arfima_table_cells_match_the_brute_force_oracle(table, tmp_path):
    # the returns come from simulate_returns, so the circulant embedding or
    # the ARFIMA filters run on the table's path; the rest is the oracle's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = reproduce_table(table, out_dir=tmp_path, n_paths=2)
    skipped = [] if table == "T6" else [
        f"{table}: cell alpha=1.2,d=0.2 violates parameter constraints, skipped"]
    assert [str(w.message) for w in caught] == skipped
    rows = read_rows(out)
    cells = grid_cells(table)
    assert len(rows) == 7 * len(cells)
    for c, label, generator in cells:
        seed = cell_seed(0, int(table[1:]), c)
        grids = [path_hurst(simulate_returns(generator, 8192, item_rng(seed, i, 0)).values,
                            "price", 33, seed, i, Q_VALUES, TAU_RANGE)
                 for i in range(2)]
        check_against_oracle([r for r in rows if r["param_set"] == label],
                             expected_rows(grids))


def test_ensemble_command_cells_match_the_brute_force_oracle(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\nn_paths = 3; path_length = 600\n")
    assert main(["--seed", "11", "--out", str(tmp_path), "ensemble", str(cfg)]) == 0
    rows = read_rows(tmp_path / "ensemble_report.csv")
    check_against_oracle(rows, expected_rows(stable_grids(1.6, 3, 600, 33, 11)))


def test_ghe_command_cells_match_the_brute_force_oracle(tmp_path):
    # one path: the std cells are the tau_max-grid dispersion (original) and
    # the dispersion over the shuffle replicas (shuffled)
    prices = tmp_path / "prices.csv"
    write_prices(prices, seed=5)
    assert main(["--seed", "9", "--out", str(tmp_path), "ghe", str(prices),
                 "--shuffles", "6"]) == 0
    rows = read_rows(tmp_path / "ghe_report.csv")
    levels = [float(line) for line in prices.read_text().split()[1:]]
    returns = np.diff(np.log(levels))
    grids = [path_hurst(returns, "price", 6, 9, 0, Q_VALUES, TAU_RANGE)]
    check_against_oracle(rows, expected_rows(grids))


def test_plotdata_structure_functions_match_the_brute_force_oracle(tmp_path):
    # path 0 as the ensemble analyzes it: simulated from slot 0, demeaned,
    # cumulated and detrended; then each K_q(tau) in plain Python
    cfg = tmp_path / "plot.cfg"
    cfg.write_text("generator = stable; alpha = 1.6; path_length = 300; n_shuffles = 1\n"
                   "variable = cum_abs_return; demean = true; q_grid = 1\n")
    assert main(["--seed", "4", "--out", str(tmp_path), "plotdata", str(cfg)]) == 0
    rows = read_rows(tmp_path / "plot_structure_functions.csv")
    returns = simulate_returns(StableParams(alpha=1.6), 300, item_rng(4, 0, 0)).values
    levels = detrend(levels_of(returns - mean(list(returns)), "cum_abs_return"))
    hi = TAU_RANGE[1]
    assert [(float(r["q"]), int(r["tau"])) for r in rows] == [
        (q, tau) for q in Q_VALUES for tau in range(1, hi + 1)]
    for row in rows:
        q, tau = float(row["q"]), int(row["tau"])
        assert abs(float(row["log_tau"]) - math.log(tau)) <= ORACLE_TOL, row
        want = math.log(naive_structure_function(list(levels), q, tau))
        assert abs(float(row["log_Kq"]) - want) <= ORACLE_TOL, (row, want)


@pytest.mark.parametrize("n_shuffles", [2, 0])
def test_plotdata_scaling_function_matches_the_brute_force_oracle(n_shuffles, tmp_path):
    # one path from slot 0: q H(q) of the path and, averaged over the
    # replicas, of its shuffles, each H averaged over the tau_max grid
    cfg = tmp_path / "plot.cfg"
    cfg.write_text("generator = stable; alpha = 1.6; path_length = 400\n"
                   f"n_shuffles = {n_shuffles}; q_grid = 0.5, 1, 2.5\n")
    assert main(["--seed", "6", "--out", str(tmp_path), "plotdata", str(cfg)]) == 0
    rows = read_rows(tmp_path / "plot_scaling_function.csv")
    q_grid = (0.5, 1.0, 2.5)
    returns = simulate_returns(StableParams(alpha=1.6), 400, item_rng(6, 0, 0)).values
    h = path_hurst(returns, "price", n_shuffles, 6, 0, q_grid, TAU_RANGE).mean(axis=2)
    assert [float(r["q"]) for r in rows] == list(q_grid)
    for j, (row, q) in enumerate(zip(rows, q_grid)):
        want = q * h[0, j]
        assert abs(float(row["qHq"]) - want) <= ORACLE_TOL, (row, want)
        if n_shuffles:
            want = q * mean(list(h[1:, j]))
            assert abs(float(row["qHq_shuffled"]) - want) <= ORACLE_TOL, (row, want)
        else:
            assert row["qHq_shuffled"] == "", row


def test_simulate_command_levels_match_the_matrix_msm_oracle(tmp_path):
    # path 0 as simulate draws it, from slot 0: the levels are 0, then the
    # running sum of the returns, written so they read back bit for bit
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("generator = msm; m0 = 1.4; sigma = 0.01; k = 8\npath_length = 700\n")
    assert main(["--seed", "17", "--out", str(tmp_path), "simulate", str(cfg)]) == 0
    rows = read_rows(tmp_path / "simulated_series.csv")
    params = MsmParams(m0=1.4, sigma=0.01, k=8)
    returns = matrix_msm(params, 700, item_rng(17, 0, 0), _transition_probs(params.k))
    assert [int(r["t"]) for r in rows] == list(range(701))
    assert [float(r["price"]) for r in rows] == levels_of(returns, "price").tolist()
