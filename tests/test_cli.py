import csv
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ghelab
from ghelab import (
    RESULT_COLUMNS,
    InvalidParams,
    NonPositivePrice,
    ReturnKind,
    TooShort,
    VariableKind,
    build_variable,
    demean,
    ensemble_spec_from_config,
    generalized_hurst,
    load_price_csv,
    make_returns,
    parse_config,
    reproduce_table,
    run_ensemble,
    write_series_csv,
)
from ghelab.cli import build_parser, main


@pytest.fixture
def price_csv(tmp_path):
    rng = np.random.default_rng(0)
    levels = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(400)))
    p = tmp_path / "prices.csv"
    p.write_text("price\n" + "\n".join(repr(float(v)) for v in levels) + "\n")
    return p


def run(argv):
    return main([str(a) for a in argv])


def test_ghe_command(price_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["--out", out, "ghe", price_csv, "--shuffles", 3]) == 0
    stdout = capsys.readouterr().out
    assert "H(1) =" in stdout
    assert "delta_h =" in stdout
    with open(out / "ghe_report.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == RESULT_COLUMNS
        rows = list(reader)
    assert len(rows) == 7
    assert rows[0]["generator"] == "empirical"
    assert rows[0]["param_set"] == "prices"


def test_ghe_same_seed_reproduces(price_csv, tmp_path, capsys):
    run(["--out", tmp_path / "a", "ghe", price_csv, "--shuffles", 4])
    run(["--out", tmp_path / "b", "ghe", price_csv, "--shuffles", 4])
    run(["--seed", 1, "--out", tmp_path / "c", "ghe", price_csv, "--shuffles", 4])
    a = (tmp_path / "a" / "ghe_report.csv").read_bytes()
    b = (tmp_path / "b" / "ghe_report.csv").read_bytes()
    c = (tmp_path / "c" / "ghe_report.csv").read_bytes()
    assert a == b
    assert a != c  # the shuffle draws move with the master seed


def test_ensemble_command_threads_identical(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "generator = stable; alpha = 1.6\n"
        "n_paths = 6; path_length = 256; n_shuffles = 2\n"
    )
    assert run(["--out", tmp_path / "t1", "ensemble", cfg]) == 0
    assert run(["--threads", 2, "--out", tmp_path / "t2", "ensemble", cfg]) == 0
    assert (tmp_path / "t1" / "ensemble_report.csv").read_bytes() == \
        (tmp_path / "t2" / "ensemble_report.csv").read_bytes()
    assert "delta_h =" in capsys.readouterr().out


def test_pool_workers_end_with_the_command(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "generator = stable; alpha = 1.6\n"
        "n_paths = 6; path_length = 256; n_shuffles = 2\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ghelab.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "ghelab", "--threads", "2", "--out", str(tmp_path / "out"),
            "ensemble", str(cfg)]
    # a new session makes the command and its workers one process group; no
    # pipes, so a worker left running cannot hold the wait open
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        code = proc.wait(timeout=300)
    assert code == 0, (tmp_path / "stderr").read_text()
    assert (tmp_path / "out" / "ensemble_report.csv").exists()
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a process of the command outlived it")


def test_no_run_imports_scipy(price_csv, tmp_path):
    # importing ghelab, running `ghe`, an ARFIMA ensemble in pool workers and
    # the AR table T8 must all run on numpy alone; the pool machinery loads
    # only when a pool starts
    script = f"""
import runpy, sys
pool = ("multiprocessing", "concurrent.futures")
import ghelab
assert "scipy" not in sys.modules, "import ghelab"
assert not any(name in sys.modules for name in pool), "import ghelab"
sys.argv = ["ghelab", "--out", {str(tmp_path / "out")!r}, "ghe", {str(price_csv)!r},
            "--shuffles", "3"]
try:
    runpy.run_module("ghelab", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
assert "scipy" not in sys.modules, "ghe"
assert not any(name in sys.modules for name in pool), "ghe"
arfima = ghelab.ArfimaParams(ar_coeffs=(0.4,), d=0.1, stable=ghelab.StableParams(alpha=1.6))
assert "scipy" not in sys.modules, "ArfimaParams"
ghelab.run_ensemble(ghelab.EnsembleSpec(arfima, n_paths=2, path_length=300, n_shuffles=2),
                    threads=2)
assert "scipy" not in sys.modules, "run_ensemble"
ghelab.reproduce_table("T8", n_paths=1, out_dir={str(tmp_path)!r})
assert "scipy" not in sys.modules, "reproduce_table"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(ghelab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "ghe_report.csv").exists()


def test_ghe_demean_matches_the_empirical_ensemble(price_csv, tmp_path, capsys):
    # ghe --demean demeans the returns before the run, the config's demean
    # inside each path; the report must not tell them apart
    def ghe(*flags):
        assert run(["--seed", 3, "--out", tmp_path, "ghe", price_csv, "--shuffles", 3,
                    "--variable", "cum_abs_return", *flags]) == 0
        return (tmp_path / "ghe_report.csv").read_bytes()

    def ensemble(demean):
        cfg = tmp_path / "emp.cfg"
        cfg.write_text(f"generator = empirical; input = {price_csv}; demean = {demean}\n"
                       "variable = cum_abs_return; n_shuffles = 3\n")
        assert run(["--seed", 3, "--out", tmp_path, "ensemble", cfg]) == 0
        return (tmp_path / "ensemble_report.csv").read_bytes()

    demeaned, plain = ghe("--demean"), ghe()
    assert demeaned == ensemble("true")
    assert plain == ensemble("false")
    assert demeaned != plain

    # the printed R^2 is that of the row the ensemble analyzed, demeaned
    # too (0.9895 here; 0.9876 without demeaning)
    capsys.readouterr()
    ghe("--demean")
    returns = make_returns(load_price_csv(price_csv), ReturnKind.LOG_RETURN)
    r2 = generalized_hurst(build_variable(demean(returns), VariableKind.CUM_ABS_RETURN)).scaling_r2
    assert f"min scaling R^2 = {min(r2):.4f}\n" in capsys.readouterr().out


@pytest.mark.parametrize("front", ["ghe", "ensemble", "table"])
def test_non_positive_price_names_the_file_and_row(front, price_csv, tmp_path, capsys):
    # ghe, an empirical config and a table's data_dir read prices through one
    # front and say it alike: the data row counted from 1, and the file
    data = tmp_path / "data"
    data.mkdir()
    dow = data / "dow.csv"
    lines = price_csv.read_text().splitlines()
    lines[8] = "0.0"  # data row 8
    dow.write_text("\n".join(lines) + "\n")
    message = f"row 8: non-positive 'price' value 0.0 in {dow}"
    if front == "table":
        with pytest.raises(NonPositivePrice) as info:
            reproduce_table("T2", out_dir=tmp_path, data_dir=data, n_paths=1)
        assert str(info.value) == message
    else:
        cfg = tmp_path / "emp.cfg"
        cfg.write_text(f"generator = empirical; input = {dow}\n")
        assert run(["--out", tmp_path, front, dow if front == "ghe" else cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("front", ["ghe", "ensemble", "table"])
def test_one_row_price_file_names_the_file(front, tmp_path, capsys):
    # a file of one data row has no return; each front says which file it is
    data = tmp_path / "data"
    data.mkdir()
    dow = data / "dow.csv"
    dow.write_text("price\n100.0\n")
    message = f"need at least 2 prices, got 1 in {dow}"
    if front == "table":
        with pytest.raises(TooShort) as info:
            reproduce_table("T2", out_dir=tmp_path, data_dir=data, n_paths=1)
        assert str(info.value) == message
    else:
        cfg = tmp_path / "emp.cfg"
        cfg.write_text(f"generator = empirical; input = {dow}\n")
        assert run(["--out", tmp_path, front, dow if front == "ghe" else cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("front", ["ghe", "ensemble", "plotdata"])
def test_short_price_file_names_the_file(front, tmp_path, capsys):
    # three prices are three price levels, too few for tau_max = 19; each
    # front names the variable and the file, as the tables do
    prices = tmp_path / "p.csv"
    prices.write_text("price\n100.0\n101.0\n99.5\n")
    cfg = tmp_path / "emp.cfg"
    cfg.write_text(f"generator = empirical; input = {prices}\n")
    assert run(["--out", tmp_path, front, prices if front == "ghe" else cfg]) == 1
    assert capsys.readouterr().err == (
        f"error: tau_max=19 needs more than 76 levels, got 3 for price in {prices}\n")


@pytest.mark.parametrize("front", ["ghe", "ensemble", "table"])
def test_overflowing_difference_names_the_file_and_row(front, price_csv, tmp_path, capsys):
    # two finite levels whose difference overflows: numpy's overflow warning
    # stays silent, and the front names the data row and the file
    data = tmp_path / "data"
    data.mkdir()
    for slug in ("dow", "nik", "dm_us", "us_uk"):  # the assets a table reads before TB1
        (data / f"{slug}.csv").write_bytes(price_csv.read_bytes())
    tb1 = data / "tb1.csv"
    tb1.write_text("price\n5.0\n1e308\n-1e308\n6.0\n")
    message = f"row 3: return from 'price' value 1e+308 to -1e+308 is not finite in {tb1}"
    if front == "table":
        with pytest.raises(InvalidParams) as info:
            reproduce_table("T2", out_dir=tmp_path, data_dir=data, n_paths=1)
        assert str(info.value) == message
    else:
        cfg = tmp_path / "emp.cfg"
        cfg.write_text(f"generator = empirical; input = {tb1}; return_kind = difference\n")
        args = ["ghe", "--kind", "difference", tb1] if front == "ghe" else ["ensemble", cfg]
        assert run(["--out", tmp_path, *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_undefined_delta_test_leaves_its_cells_empty(price_csv, tmp_path):
    # one tau_max and one shuffle make both delta dispersions zero: the run
    # still writes its report, and the test it cannot define stays empty
    cfg = tmp_path / "emp.cfg"
    cfg.write_text(f"generator = empirical; input = {price_csv}\n"
                   "tau_max = 10; n_shuffles = 1\n")
    assert run(["--out", tmp_path, "ensemble", cfg]) == 0
    with open(tmp_path / "ensemble_report.csv", newline="") as fh:
        (delta,) = [r for r in csv.DictReader(fh) if r["stat"] == "delta_H"]
    assert (delta["original_std"], delta["shuffled_std"]) == ("0.0", "0.0")
    assert delta["delta_h"] and delta["delta_h_shuff"]
    assert (delta["test_z"], delta["reject95"]) == ("", "")


def test_plotdata_demeans_when_configured(tmp_path, capsys):
    def log_k(demean):
        cfg = tmp_path / "plot.cfg"
        cfg.write_text("generator = stable; alpha = 1.6; path_length = 300; n_shuffles = 1\n"
                       f"variable = cum_abs_return; demean = {demean}; q_grid = 1\n")
        assert run(["--out", tmp_path, "plotdata", cfg]) == 0
        return (tmp_path / "plot_structure_functions.csv").read_bytes()

    assert log_k("true") != log_k("false")


def test_table_command_maps_scale_to_paths(monkeypatch, tmp_path, capsys):
    import ghelab.tables as tables

    requested = []
    inner = tables.run_ensemble

    def one_path(spec, threads=1):
        requested.append(spec.n_paths)
        return inner(replace(spec, n_paths=1), threads=threads)

    monkeypatch.setattr(tables, "run_ensemble", one_path)
    for flags, scale, n_paths in ((["--desk"], "desk", 200), ([], "full", 1000)):
        requested.clear()
        assert run(["--out", tmp_path, "table", "T5", *flags]) == 0
        out = tmp_path / f"table_T5_{scale}.csv"
        assert requested == [n_paths] * 5
        assert out.exists()
        assert f"wrote {out}" in capsys.readouterr().out


def test_ghe_warns_on_poor_scaling(tmp_path, capsys):
    # a period-8 oscillation has no power law in tau: min R^2 is about 3e-4
    t = np.arange(400)
    levels = 100.0 * np.exp(0.05 * np.sin(2 * np.pi * t / 8))
    series = write_series_csv(levels, tmp_path / "wave.csv")
    assert run(["--out", tmp_path, "ghe", series, "--shuffles", 2]) == 0
    captured = capsys.readouterr()
    assert "warning: scaling fit R^2" in captured.err
    assert "warning" not in captured.out


def test_simulate_empirical_log_returns_writes_the_cumulated_returns(price_csv, tmp_path, capsys):
    # one rule for every generator: 0, then the running sum of the returns
    cfg = tmp_path / "emp.cfg"
    cfg.write_text(f"generator = empirical; input = {price_csv}\n")
    assert run(["--out", tmp_path, "simulate", cfg]) == 0
    prices = load_price_csv(price_csv)
    levels = load_price_csv(tmp_path / "simulated_series.csv")
    assert levels.shape == prices.shape and levels[0] == 0.0
    assert np.allclose(levels[1:], np.cumsum(np.diff(np.log(prices))), rtol=1e-12, atol=0.0)


def test_simulate_then_analyze(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("generator = msm; m0 = 1.4; sigma = 0.01; k = 5\npath_length = 500\n")
    assert run(["--out", tmp_path, "simulate", cfg]) == 0
    series = tmp_path / "simulated_series.csv"
    assert series.read_text().splitlines()[0] == "t,price"
    assert len(series.read_text().splitlines()) == 502  # header + 501 levels

    # differences of the level file recover an analyzable series
    assert run(["--out", tmp_path, "ghe", series, "--kind", "difference",
                "--shuffles", 2]) == 0
    capsys.readouterr()

    # levels start at 0, so log returns must fail cleanly
    assert run(["--out", tmp_path, "ghe", series, "--shuffles", 2]) == 1
    assert "error:" in capsys.readouterr().err


def test_plotdata_command(tmp_path, capsys):
    cfg = tmp_path / "plot.cfg"
    cfg.write_text("generator = fbm; hurst = 0.7\npath_length = 512; n_shuffles = 2\n")
    assert run(["--out", tmp_path / "plots", "plotdata", cfg]) == 0
    sf = (tmp_path / "plots" / "plot_structure_functions.csv").read_text().splitlines()
    assert sf[0] == "q,tau,log_tau,log_Kq"
    assert len(sf) == 1 + 3 * 19
    sc = (tmp_path / "plots" / "plot_scaling_function.csv").read_text().splitlines()
    assert sc[0] == "q,qHq,qHq_shuffled"
    assert len(sc) == 1 + 15
    q, qhq, qhq_sh = sc[1].split(",")
    assert float(q) == 0.2
    assert np.isfinite(float(qhq)) and np.isfinite(float(qhq_sh))


def test_plotdata_default_q_grid_is_exact(tmp_path, capsys):
    # the default grid is 0.2..3.0 in steps of 0.2, written as those decimals
    cfg = tmp_path / "plot.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\npath_length = 200; n_shuffles = 0\n")
    assert run(["--out", tmp_path, "plotdata", cfg]) == 0
    with open(tmp_path / "plot_scaling_function.csv", newline="") as fh:
        qs = [row["q"] for row in csv.DictReader(fh)]
    assert qs == ["0.2", "0.4", "0.6", "0.8", "1.0", "1.2", "1.4", "1.6",
                  "1.8", "2.0", "2.2", "2.4", "2.6", "2.8", "3.0"]


def test_plotdata_scaling_function_is_the_ensemble(tmp_path, capsys):
    cfg = tmp_path / "plot.cfg"
    cfg.write_text("generator = msm; m0 = 1.4; sigma = 0.01; k = 5\n"
                   "path_length = 400; n_shuffles = 3; q_grid = 0.5,1,2.5\n")
    assert run(["--seed", 5, "--out", tmp_path, "plotdata", cfg]) == 0
    with open(tmp_path / "plot_scaling_function.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    spec = ensemble_spec_from_config(parse_config(cfg), master_seed=5)
    report = run_ensemble(
        replace(spec, n_paths=1, ghe=replace(spec.ghe, q_values=(0.5, 1.0, 2.5)))
    )
    assert [float(r["q"]) for r in rows] == [0.5, 1.0, 2.5]
    for i, (row, q) in enumerate(zip(rows, report.q_values)):
        assert float(row["qHq"]) == q * report.original_mean[i]
        assert float(row["qHq_shuffled"]) == q * report.shuffled_mean[i]


@pytest.mark.parametrize("grid", ["1,1", "-1"])
def test_plotdata_bad_q_grid_is_named_before_any_file(grid, tmp_path, capsys):
    # the grid is checked with the rest of the config, so neither plot file is written
    cfg = tmp_path / "plot.cfg"
    cfg.write_text(f"generator = stable; alpha = 1.6\npath_length = 200; q_grid = {grid}\n")
    assert run(["--out", tmp_path, "plotdata", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: q_grid: ")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["plot.cfg"]


def test_missing_input_fails_cleanly(tmp_path, capsys):
    assert run(["--out", tmp_path, "ghe", tmp_path / "nope.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_oversized_csv_cell_fails_cleanly(tmp_path, capsys):
    p = tmp_path / "big.csv"
    p.write_text("price\n100\n" + "1" * (csv.field_size_limit() + 1) + "\n")
    assert run(["--out", tmp_path, "ghe", p]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: row 2: field larger than field limit"), err
    assert not (tmp_path / "ghe_report.csv").exists()


def test_overflowing_path_fails_with_one_error_line(tmp_path, capsys):
    # numpy's overflow warnings stay silent: the engine's finiteness check reports
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("generator = msm; m0 = 1.4; sigma = 1e300; k = 5\n"
                   "n_paths = 2; path_length = 300; n_shuffles = 2\n")
    assert run(["--out", tmp_path, "ensemble", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: path 0: structure function is not finite: the levels or their powers overflow\n"
    )


def test_simulate_overflowing_path_fails_before_writing(tmp_path, capsys):
    # the returns are finite, but their running sum passes the largest double
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("generator = msm; m0 = 1.4; sigma = 1e308; k = 5; path_length = 300\n")
    assert run(["--out", tmp_path, "simulate", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: simulated level at t=9 is not finite: the path overflows\n"
    )
    assert not (tmp_path / "simulated_series.csv").exists()


def test_bad_config_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\nwindow = 5\n")
    assert run(["--out", tmp_path, "ensemble", cfg]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_bad_config_value_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\nn_paths = many\n")
    assert run(["--out", tmp_path, "ensemble", cfg]) == 1
    err = capsys.readouterr().err
    assert "row 2" in err and "'n_paths'" in err


def test_nonpositive_threads_fail_cleanly(price_csv, tmp_path, capsys):
    # simulate and plotdata never start a pool, so main checks the value itself
    cfg = tmp_path / "run.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\nn_paths = 2; path_length = 256\n")
    out = tmp_path / "out"
    for threads in (0, -3):
        for argv in (["ghe", price_csv], ["simulate", cfg], ["ensemble", cfg],
                     ["table", "T5", "--desk"], ["plotdata", cfg]):
            assert run(["--threads", threads, "--out", out, *argv]) == 1, argv
            err = capsys.readouterr().err
            assert err == f"error: threads must be >= 1, got {threads}\n", argv
    assert not out.exists()


def test_simulate_negative_length_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\npath_length = -1\n")
    assert run(["--out", tmp_path, "simulate", cfg]) == 1
    assert "error: length must be >= 1, got -1" in capsys.readouterr().err
    assert not (tmp_path / "simulated_series.csv").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_bad_seed_fails_cleanly(tmp_path, capsys, seed):
    # a master seed outside 0..2**64-1 is a bad argument, not a numpy traceback
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\n")
    for argv in (["simulate", cfg], ["table", "T5", "--desk"]):
        assert run(["--seed", seed, "--out", tmp_path, *argv]) == 1
        assert "error: master_seed must lie in 0..2**64-1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_parser_rejects_unknown_table():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["table", "T11"])
    assert info.value.code == 2


def test_parser_requires_a_command():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([])
    assert info.value.code == 2
