import csv
from dataclasses import replace

import numpy as np
import pytest

from ghelab import (
    RESULT_COLUMNS,
    ensemble_spec_from_config,
    load_price_csv,
    parse_config,
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


def test_simulate_empirical_log_returns_rebuilds_the_prices(price_csv, tmp_path, capsys):
    cfg = tmp_path / "emp.cfg"
    cfg.write_text(f"generator = empirical; input = {price_csv}\n")
    assert run(["--out", tmp_path, "simulate", cfg]) == 0
    prices = load_price_csv(price_csv)
    levels = load_price_csv(tmp_path / "simulated_series.csv")
    assert levels.shape == prices.shape
    assert np.allclose(levels, prices / prices[0], rtol=1e-12, atol=0.0)


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


def test_missing_input_fails_cleanly(tmp_path, capsys):
    assert run(["--out", tmp_path, "ghe", tmp_path / "nope.csv"]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_nonpositive_threads_fail_cleanly(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("generator = stable; alpha = 1.6\nn_paths = 2; path_length = 256\n")
    assert run(["--threads", 0, "--out", tmp_path, "ensemble", cfg]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err


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
