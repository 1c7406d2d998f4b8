import csv
import errno

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghelab.io

from ghelab import (
    RESULT_COLUMNS,
    ArfimaParams,
    EmpiricalSeries,
    EnsembleSpec,
    FbmParams,
    GheConfig,
    InvalidParams,
    MissingKey,
    MsmParams,
    ParseError,
    ReturnKind,
    StableParams,
    TooShort,
    UnknownKey,
    VariableKind,
    ensemble_spec_from_config,
    generator_from_config,
    identity_test,
    load_price_csv,
    make_returns,
    parse_config,
    report_rows,
    run_ensemble,
    structure_function_rows,
    write_plot_data,
    write_result_csv,
    write_series_csv,
)
from ghelab.series import ReturnSeries, build_variable

from brute_force import csv_column


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_price_csv_basic(tmp_path):
    p = write(tmp_path, "a.csv", "price\n100\n101\n99.5\n")
    prices = load_price_csv(p)
    assert prices.dtype == np.float64
    assert np.array_equal(prices, [100.0, 101.0, 99.5])


def test_load_price_csv_column_selection(tmp_path):
    p = write(tmp_path, "b.csv", "date,close\n2020-01-01,10\n2020-01-02,11\n")
    prices = load_price_csv(p, column="close")
    assert prices.dtype == np.float64
    assert np.array_equal(prices, [10.0, 11.0])
    with pytest.raises(MissingKey):
        load_price_csv(p, column="price")
    # a column named twice is read from its last position
    p = write(tmp_path, "b2.csv", "price,date,price\n1,x,2\n3,y,4\n")
    assert np.array_equal(load_price_csv(p), [2.0, 4.0])


def test_load_price_csv_errors(tmp_path):
    with pytest.raises(ParseError, match="row 2") as info:
        load_price_csv(write(tmp_path, "c.csv", "price\n100\nabc\n"))
    assert info.value.row == 2
    with pytest.raises(ParseError, match="row 1"):
        load_price_csv(write(tmp_path, "d.csv", "date,price\n2020-01-06,\n"))
    with pytest.raises(ParseError):
        load_price_csv(write(tmp_path, "e.csv", "price\ninf\n"))
    with pytest.raises(TooShort, match="no data rows in .*f.csv"):
        load_price_csv(write(tmp_path, "f.csv", "price\n"))
    with pytest.raises(FileNotFoundError):
        load_price_csv(tmp_path / "missing.csv")
    # blank lines are skipped and not counted
    with pytest.raises(ParseError, match="row 2: non-numeric") as info:
        load_price_csv(write(tmp_path, "h.csv", "price\n100\n\nabc\n"))
    assert info.value.row == 2
    # a row too short to reach the column is an empty cell
    with pytest.raises(ParseError, match="row 2: empty"):
        load_price_csv(write(tmp_path, "i.csv", "date,price\nx,1\ny\n"))
    # a bad cell deep in a long file still names its row
    cells = [str(100.0 + i) for i in range(8000)]
    cells[4999] = "1.0.0"
    with pytest.raises(ParseError, match="row 5000: non-numeric") as info:
        load_price_csv(write(tmp_path, "j.csv", "price\n" + "\n".join(cells) + "\n"))
    assert info.value.row == 5000


def test_load_price_csv_parse_errors_name_the_file(tmp_path):
    # a table reads up to nine files, so the error says which one is bad
    for name, text in (("k.csv", "price\n100\nx\n"), ("l.csv", "date,price\nd,\n"),
                       ("m.csv", "price\nnan\n")):
        path = write(tmp_path, name, text)
        with pytest.raises(ParseError, match=r"^row \d: ") as info:
            load_price_csv(path)
        assert str(info.value).endswith(f" in {path}")


def test_load_price_csv_oversized_cell_names_file_and_row(tmp_path):
    # the csv reader stops at a cell over csv.field_size_limit() characters
    big = "1" * (csv.field_size_limit() + 1)
    p = write(tmp_path, "n.csv", f"date,price\nx,100\n\ny,{big}\nz,101\n")
    with pytest.raises(ParseError, match="^row 2: field larger than field limit") as info:
        load_price_csv(p)
    assert info.value.row == 2
    assert str(info.value).endswith(f" in {p}")


# Price cells both readers must agree on. VALID cells are what a clean
# export holds; ODD ones are what either reader may refuse or read apart:
# non-finite and out-of-range values, forms only Python's float() takes,
# whitespace that Python does or does not strip, quotes, NULs, and one
# valid number on a line longer than csv.field_size_limit().
VALID = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(0, 10**40), st.integers(0, 10**40)).map("{0[0]}.{0[1]}".format),
    st.sampled_from(["4.9e-324", "2.2250738585072014e-309", "-0", "+1.5", ".5", "7.",
                     " 1.5", "1.5\t", "1E3"]),
)
ODD = ["", " ", "nan", "-inf", "Infinity", "1e400", "1_000", "0x1p3", "1d3", "\u0663",
       "\xa01.5", "1.5\xa0", "\x0b2.5", "2.5\x0c", "\x1c3", "3\x1c", "\x1c", "\x85", "abc",
       "1\x0c2", "1\x1c2", "1\u20282",
       "\ufeff1", "\ufffd", '"3"', '"4,5"', '4"', "3\x00", "\x00", "1\r2",
       "0" * csv.field_size_limit() + "1"]
HEADERS = [["price"], ["t", "price"], ["price", "t"], ["price", "x", "price"],
           ["t", "price", "x"], ["t", "close"], [""], ["Price"]]
ENDS = ["\n", "\r\n", "\r"]


@st.composite
def price_files(draw):
    """Bytes of a headered CSV: half of them clean, the rest with odd cells or lines."""
    header = draw(st.sampled_from(HEADERS))
    width = len(header)
    rows = draw(st.lists(st.lists(VALID, min_size=width, max_size=width + 1), max_size=6))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    clean = draw(st.booleans())
    odd_cells = [] if clean else draw(st.lists(st.tuples(
        st.integers(1, 7), st.integers(0, 3), st.sampled_from(ODD)), min_size=1, max_size=2))
    for at, cell, odd in odd_cells:
        if at < len(lines):
            cells = lines[at].split(",")
            cells[cell % len(cells)] = odd
            lines[at] = ",".join(cells)
    odd_lines = [] if clean else draw(st.lists(st.tuples(
        st.integers(0, 7), st.sampled_from(["", "  ", "\t", "1", "1,2,3"])), max_size=2))
    for at, line in odd_lines:
        lines.insert(at, line)
    end = draw(st.sampled_from(ENDS + ["mixed"]))
    text = "".join(line + (draw(st.sampled_from(ENDS)) if end == "mixed" else end)
                   for line in lines)
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode()
    if not clean and draw(st.integers(0, 3)) == 0:  # a byte that is not UTF-8
        spoil = draw(st.integers(0, len(data)))
        data = data[:spoil] + b"\xff" + data[spoil:]
    return data


def load_outcome(load, path):
    """The array load returned, or the type and message of what it raised."""
    try:
        prices = load(path, "price")
    except Exception as exc:
        return type(exc), str(exc)
    assert prices.dtype == np.float64 and prices.ndim == 1
    return prices.tobytes()


@pytest.fixture
def slow_tier(monkeypatch):
    """The calls that reach load_price_csv's csv-module reader, counted."""
    calls, inner = [], ghelab.io._csv_column

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(ghelab.io, "_csv_column", counted)
    return calls


def test_load_price_csv_matches_the_csv_module_oracle(tmp_path, slow_tier):
    # the same float64 bytes, or the same exception and message, as the
    # csv module reading row by row; a third or more of the files must
    # reach numpy's reader
    path, by_numpy = tmp_path / "prices.csv", []

    @settings(derandomize=True, deadline=None, database=None, max_examples=600)
    @given(price_files())
    def check(data):
        path.write_bytes(data)
        before = len(slow_tier)
        assert load_outcome(load_price_csv, path) == load_outcome(csv_column, path)
        by_numpy.append(len(slow_tier) == before)

    check()
    assert sum(by_numpy) >= len(by_numpy) / 3, (sum(by_numpy), len(by_numpy))


@pytest.mark.parametrize("layout", ["plain", "crlf", "quoted"])
def test_a_long_export_takes_numpys_reader_unless_quoted(layout, tmp_path, slow_tier):
    rng = np.random.default_rng(8701)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(8701)))
    path = tmp_path / f"{layout}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n" if layout == "plain" else "\r\n",
                            quoting=csv.QUOTE_ALL if layout == "quoted" else csv.QUOTE_MINIMAL)
        writer.writerow(("t", "price"))
        writer.writerows((t, repr(float(p))) for t, p in enumerate(prices))
    got = load_price_csv(path)
    assert got.tobytes() == prices.tobytes() == csv_column(path, "price").tobytes()
    assert slow_tier == ([path] if layout == "quoted" else [])


@pytest.mark.parametrize("text", [
    'price,note\n1.5,a\n2.5,"b"\n',
    "price,note\n1.5,a\n2.5,\x00\n",
    *(f"price\n1.5\n2.5{c}3.5\n" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
    "price\n1.5\n" + "0" * csv.field_size_limit() + "1\n",
], ids=["quote", "nul", "VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS", "long"])
def test_what_numpys_reader_could_misread_goes_to_the_csv_module(text, tmp_path, slow_tier):
    # a quote, a NUL (Python 3.10's csv module refuses one in any cell), a
    # line break that str.splitlines knows and the csv module does not, or
    # a number longer than the csv module's field limit
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode())
    assert load_outcome(load_price_csv, path) == load_outcome(csv_column, path)
    assert slow_tier == [path]


def test_loaded_prices_make_returns(tmp_path):
    p = write(tmp_path, "g.csv", "price\n100\n101\n99.5\n")
    r = make_returns(load_price_csv(p), ReturnKind.DIFFERENCE)
    assert r.values.tolist() == [1.0, -1.5]
    assert r.kind is ReturnKind.DIFFERENCE


def test_parse_config_full(tmp_path):
    p = write(tmp_path, "run.cfg", """
# ensemble settings
generator = arfima; alpha = 1.6; d = 0.1; ar1 = 0.4
n_paths = 10  # trailing comment
variable = cum_abs_return
q_values = 0.5, 1.0, 2
tau_max = 5..19
detrend = false
demean = yes
""")
    cfg = parse_config(p)
    assert cfg == {
        "generator": "arfima", "alpha": 1.6, "d": 0.1, "ar1": 0.4, "n_paths": 10,
        "variable": VariableKind.CUM_ABS_RETURN, "q_values": (0.5, 1.0, 2.0),
        "tau_max": (5, 19), "detrend": False, "demean": True,
    }
    assert cfg["variable"] is VariableKind.CUM_ABS_RETURN
    assert cfg["detrend"] is False and cfg["demean"] is True


def test_parse_config_scalar_tau(tmp_path):
    cfg = parse_config(write(tmp_path, "t.cfg", "generator = stable\ntau_max = 10\n"))
    assert cfg["tau_max"] == (10, 10)


def test_parse_config_rejects_unknown_key(tmp_path):
    with pytest.raises(UnknownKey, match="line 2"):
        parse_config(write(tmp_path, "u.cfg", "generator = stable\nfoo = 1\n"))


def test_parse_config_rejects_repeated_key(tmp_path):
    # a second line for a key must not silently replace the first
    with pytest.raises(ParseError, match="row 2: key 'alpha' repeats line 1") as exc:
        parse_config(write(tmp_path, "r.cfg", "generator = stable; alpha = 1.6\nalpha = 1.1\n"))
    assert exc.value.row == 2
    with pytest.raises(ParseError, match="row 1: key 'd' repeats line 1"):
        parse_config(write(tmp_path, "s.cfg", "generator = arfima; d = 0.1; d = 0.2\n"))


def test_parse_config_rejects_bad_values(tmp_path):
    with pytest.raises(ParseError, match="row 1") as exc:
        parse_config(write(tmp_path, "v.cfg", "n_paths = many\n"))
    assert exc.value.row == 1
    with pytest.raises(ParseError, match="row 1"):
        parse_config(write(tmp_path, "w.cfg", "just a sentence\n"))
    with pytest.raises(ParseError):
        parse_config(write(tmp_path, "x.cfg", "detrend = maybe\n"))


def test_generator_from_config_branches(tmp_path):
    st = generator_from_config(parse_config(write(
        tmp_path, "s.cfg", "generator = stable; alpha = 1.6")))
    assert st == StableParams(alpha=1.6)

    msm = generator_from_config(parse_config(write(
        tmp_path, "m.cfg", "generator = msm; m0 = 1.4; sigma = 0.01; k = 8")))
    assert msm == MsmParams(m0=1.4, sigma=0.01, k=8)

    fbm = generator_from_config(parse_config(write(
        tmp_path, "f.cfg", "generator = fbm; hurst = 0.7; path_length = 4096")))
    assert fbm == FbmParams(hurst=0.7, length=4096)

    arf = generator_from_config(parse_config(write(
        tmp_path, "a.cfg", "generator = arfima; alpha = 1.6; d = 0.1; ar1 = 0.4")))
    assert isinstance(arf, ArfimaParams)
    assert arf.ar_coeffs == (0.4,)
    assert (arf.d, arf.stable.alpha) == (0.1, 1.6)
    # an AR key keeps its lag: ar2 alone is phi_1 = 0, phi_2 = 0.3
    arf = generator_from_config(parse_config(write(
        tmp_path, "a2.cfg", "generator = arfima; alpha = 1.6; ar2 = 0.3")))
    assert arf.ar_coeffs == (0.0, 0.3)

    with pytest.raises(MissingKey):
        generator_from_config(parse_config(write(
            tmp_path, "i.cfg", "generator = msm; m0 = 1.4")))
    with pytest.raises(InvalidParams):
        generator_from_config(parse_config(write(
            tmp_path, "j.cfg", "generator = garch")))


def test_config_kinds_are_the_generator_table_kinds(tmp_path):
    # the config name of each generator is the name its reports carry
    from ghelab.ensemble import _GENERATORS

    prices = write(tmp_path, "p.csv", "price\n" + "\n".join(str(100.0 + i % 7) for i in range(40)))
    configs = {
        "msm": "m0 = 1.4; sigma = 0.01; k = 8",
        "stable": "alpha = 1.6",
        "fbm": "hurst = 0.7",
        "arfima": "alpha = 1.6; d = 0.1",
        "empirical": f"input = {prices}",
    }
    kinds = {kind for kind, _, _ in _GENERATORS.values()}
    assert kinds == set(ghelab.io._GENERATOR_KEYS) == set(configs)
    for kind, keys in configs.items():
        generator = generator_from_config(parse_config(write(
            tmp_path, f"{kind}.cfg", f"generator = {kind}; {keys}")))
        assert _GENERATORS[type(generator)][0] == kind


@pytest.mark.parametrize("kind, keys, key", [
    ("stable", "alpha = 1.6; ar1 = 0.4", "ar1"),
    ("stable", "alpha = 1.6; hurst = 0.7", "hurst"),
    ("msm", "m0 = 1.4; sigma = 0.01; k = 8; alpha = 1.6", "alpha"),
    ("fbm", "hurst = 0.7; d = 0.1", "d"),
    ("stable", "alpha = 1.6; input = dow.csv", "input"),
])
def test_config_rejects_keys_of_another_generator(tmp_path, kind, keys, key):
    cfg = parse_config(write(tmp_path, "x.cfg", f"generator = {kind}; {keys}"))
    with pytest.raises(UnknownKey, match=f"{kind!r}.*{key!r}"):
        generator_from_config(cfg)
    with pytest.raises(UnknownKey):
        ensemble_spec_from_config(cfg)


@pytest.mark.parametrize("key", ["beta", "gamma", "delta", "b", "gamma_k", "ma_truncation"])
def test_fixed_process_constants_are_not_config_keys(tmp_path, key):
    # the stable skew, scale and location, the cascade's b and gamma_k and
    # the ARFIMA MA cutoff are constants, so naming one fails at parse
    with pytest.raises(UnknownKey, match=f"^line 2: unknown config key {key!r}$"):
        parse_config(write(tmp_path, "c.cfg", f"generator = stable; alpha = 1.6\n{key} = 1\n"))


def test_generator_from_config_empirical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative input is read from the working directory
    write(tmp_path, "dow.csv", "price\n100\n101\n102.5\n101\n")
    cfg = parse_config(write(
        tmp_path, "e.cfg", "generator = empirical; input = dow.csv; return_kind = difference"))
    emp = generator_from_config(cfg)
    assert isinstance(emp, EmpiricalSeries)
    assert emp.series_id == "dow"
    assert emp.returns.values.tolist() == [1.0, 1.5, -1.5]


def test_ensemble_spec_from_config(tmp_path):
    cfg = parse_config(write(tmp_path, "r.cfg", """
generator = stable; alpha = 1.8
n_paths = 7; path_length = 512; n_shuffles = 5
q_values = 1, 3; tau_max = 5..10; detrend = false
"""))
    spec = ensemble_spec_from_config(cfg, master_seed=11)
    assert spec.n_paths == 7
    assert spec.path_length == 512
    assert spec.n_shuffles == 5
    assert spec.master_seed == 11
    assert spec.ghe.q_values == (1.0, 3.0)
    assert spec.ghe.tau_max_range == (5, 10)
    assert spec.ghe.detrend is False


def test_ensemble_spec_from_config_fbm_length_is_path_length(tmp_path):
    spec = ensemble_spec_from_config(parse_config(write(
        tmp_path, "f.cfg", "generator = fbm; hurst = 0.7")))
    default = EnsembleSpec(generator=StableParams(alpha=1.6)).path_length
    assert spec.generator.length == spec.path_length == default


def test_ensemble_spec_from_config_empirical_is_one_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = "\n".join(str(100 + i + (i % 3)) for i in range(120))
    write(tmp_path, "asset.csv", "price\n" + rows + "\n")
    cfg = parse_config(write(
        tmp_path, "e.cfg",
        "generator = empirical; input = asset.csv\nn_paths = 50; path_length = 8700"))
    spec = ensemble_spec_from_config(cfg)
    assert spec.n_paths == 1
    assert spec.path_length == 119


def test_q_grid_is_read_only_by_plotdata(tmp_path):
    # one config can drive both ensemble and plotdata: q_grid changes neither
    # the spec ensemble runs nor the generator simulate draws from
    base = "generator = msm; m0 = 1.4; sigma = 0.01; k = 5\nn_shuffles = 0\n"
    plain = parse_config(write(tmp_path, "a.cfg", base))
    with_grid = parse_config(write(tmp_path, "b.cfg", base + "q_grid = 0.5, 1.5\n"))
    assert with_grid["q_grid"] == (0.5, 1.5)
    assert generator_from_config(with_grid) == generator_from_config(plain)
    spec = ensemble_spec_from_config(with_grid)
    assert vars(spec) == vars(ensemble_spec_from_config(plain))  # EnsembleSpec has no ==
    assert spec.ghe.q_values == (1.0, 2.0, 3.0)


@pytest.fixture(scope="module")
def small_report():
    spec = EnsembleSpec(generator=StableParams(alpha=1.6), n_paths=3,
                        path_length=256, n_shuffles=2, master_seed=21)
    return run_ensemble(spec)


def test_report_rows_layout(small_report):
    rows = report_rows(small_report, table="T5")
    assert [r["stat"] for r in rows] == [
        "H", "H_shuffle_detail"] * 3 + ["delta_H"]
    assert [r["q"] for r in rows[:2]] == [1.0, 1.0]
    assert all(r["table"] == "T5" for r in rows)
    h1 = rows[0]
    assert h1["original_mean"] == small_report.original_mean[0]
    assert h1["shuffled_mean"] == small_report.shuffled_mean[0]
    assert h1["delta_h"] == small_report.delta_h
    detail = rows[1]
    assert detail["shuffled_std"] == small_report.shuffled_within_std[0]
    assert detail["original_mean"] is None
    drow = rows[-1]
    assert drow["q"] is None
    assert drow["original_std"] == small_report.delta_h_std
    assert drow["shuffled_std"] == small_report.delta_h_shuff_std


@pytest.fixture(scope="module")
def empirical_report():
    spec = EnsembleSpec(generator=StableParams(alpha=1.2), n_paths=3,
                        path_length=256, n_shuffles=2, master_seed=22)
    return run_ensemble(spec)


def small_spec(**kw):
    return EnsembleSpec(generator=StableParams(alpha=1.6), n_paths=1,
                        path_length=256, master_seed=23, **kw)


def cells(test):
    return test.statistic, test.reject_at_95


def test_report_rows_attach_tests(small_report, empirical_report):
    sim, emp = small_report, empirical_report
    rows = report_rows(sim, empirical=emp)
    for idx in range(3):
        h, detail = rows[2 * idx], rows[2 * idx + 1]
        assert (h["test_z"], h["reject95"]) == cells(identity_test(
            emp.original_mean[idx], emp.original_std[idx],
            sim.original_mean[idx], sim.original_std[idx]))
        # the shuffled test compares the H rows' cross-path shuffled moments
        assert (detail["test_z"], detail["reject95"]) == cells(identity_test(
            emp.shuffled_mean[idx], emp.shuffled_std[idx],
            sim.shuffled_mean[idx], sim.shuffled_std[idx]))
    assert (rows[-1]["test_z"], rows[-1]["reject95"]) == cells(identity_test(
        sim.delta_h, sim.delta_h_std, sim.delta_h_shuff, sim.delta_h_shuff_std))
    # without an empirical report only the delta_H row is tested
    alone = report_rows(sim)
    assert [r["test_z"] for r in alone[:-1]] == [None] * 6
    assert alone[-1]["test_z"] == rows[-1]["test_z"]
    # a zero-shuffle report has no delta test; against a zero-shuffle
    # empirical report the shuffled tests are left out
    unshuffled = run_ensemble(small_spec(n_shuffles=0))
    rows = report_rows(unshuffled, empirical=emp)
    assert [r["stat"] for r in rows] == ["H"] * 3 + ["delta_H"]
    assert rows[-1]["test_z"] is None and rows[-1]["reject95"] is None
    assert all(r["test_z"] is not None for r in rows[:3])
    rows = report_rows(sim, empirical=unshuffled)
    assert [r["test_z"] is None for r in rows] == [False, True] * 3 + [False]


def test_report_rows_reject_empirical_q_mismatch(small_report):
    # same q set in another order: row idx would test mismatched columns
    for qs in ((1.0, 2.0), (1.0, 3.0, 2.0)):
        emp = run_ensemble(small_spec(n_shuffles=0, ghe=GheConfig(q_values=qs)))
        with pytest.raises(InvalidParams, match="q_values"):
            report_rows(small_report, empirical=emp)


def test_result_csv_round_trip(tmp_path, small_report, empirical_report):
    rows = report_rows(small_report, table="T5", empirical=empirical_report)
    out = write_result_csv(rows, tmp_path / "result.csv")
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == RESULT_COLUMNS
        back = list(reader)
    assert len(back) == 7
    # repr round-trip: floats come back bit-identical
    assert float(back[0]["original_mean"]) == small_report.original_mean[0]
    assert float(back[0]["test_z"]) == rows[0]["test_z"]
    assert back[0]["reject95"] == ("true" if rows[0]["reject95"] else "false")
    assert back[1]["original_mean"] == ""
    assert back[-1]["q"] == ""
    assert back[-1]["stat"] == "delta_H"
    assert back[0]["variable"] == "price"


def test_structure_function_rows():
    rng = np.random.default_rng(31)
    r = ReturnSeries(values=rng.standard_normal(256), kind=ReturnKind.DIFFERENCE)
    levels = build_variable(r, VariableKind.PRICE)
    cfg = GheConfig()
    rows = structure_function_rows(levels, cfg)
    assert len(rows) == 3 * 19
    qs, taus = zip(*[(row[0], row[1]) for row in rows])
    assert set(qs) == {1.0, 2.0, 3.0}
    assert set(taus) == set(range(1, 20))
    for q, tau, log_tau, log_k in rows:
        assert log_tau == float(np.log(tau))
        assert np.isfinite(log_k)
    for bad in (np.stack([levels, levels]), 3.0):
        with pytest.raises(InvalidParams, match="1-D"):
            structure_function_rows(bad, cfg)


def test_write_plot_data(tmp_path):
    out = write_plot_data([(1.0, 1, 0.0, -2.5)], "structure_functions",
                          tmp_path / "sf.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "q,tau,log_tau,log_Kq"
    assert lines[1] == "1.0,1,0.0,-2.5"
    out2 = write_plot_data([(0.5, 0.25, 0.26)], "scaling_function",
                           tmp_path / "scal.csv")
    assert out2.read_text().splitlines()[0] == "q,qHq,qHq_shuffled"
    with pytest.raises(InvalidParams):
        write_plot_data([], "histogram", tmp_path / "h.csv")


def test_write_series_csv_round_trip(tmp_path):
    out = write_series_csv([1.5, 2.5, 4.0], tmp_path / "series.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "t,price"
    assert lines[1:] == ["0,1.5", "1,2.5", "2,4.0"]
    prices = load_price_csv(out)
    assert prices.dtype == np.float64
    assert np.array_equal(prices, [1.5, 2.5, 4.0])


def test_failed_write_keeps_the_old_file(tmp_path):
    # a row that fails half way leaves the old file whole and no stray file
    out = write_series_csv([1.5, 2.5, 4.0], tmp_path / "series.csv")
    old = out.read_bytes()
    with pytest.raises(TypeError):
        write_plot_data([(1.0, 1, 0.0, 5.0)] * 3000 + [None], "structure_functions", out)
    assert out.read_bytes() == old
    assert [f.name for f in tmp_path.iterdir()] == ["series.csv"]
    # values that are not reals are refused before anything is written
    with pytest.raises(InvalidParams, match="values must be"):
        write_series_csv([5.0] * 3000 + ["x"], out)
    assert out.read_bytes() == old
    assert [f.name for f in tmp_path.iterdir()] == ["series.csv"]
    write_series_csv([5.0] * 3000, out)
    assert out.read_bytes() == b"t,price\r\n" + b"".join(
        b"%d,5.0\r\n" % t for t in range(3000))
    assert [f.name for f in tmp_path.iterdir()] == ["series.csv"]


def test_a_failed_write_names_its_target_and_leaves_no_file(tmp_path):
    # the error names the file asked for, not the hidden temporary file
    # written first; a denied write is not tested, as root may write anywhere
    out = tmp_path / "missing" / "x.csv"
    with pytest.raises(FileNotFoundError) as exc:
        write_series_csv([1.0, 2.0], out)
    assert (exc.value.errno, exc.value.filename) == (errno.ENOENT, str(out))
    assert ".tmp" not in str(exc.value)
    # a directory in the target's place fails at the rename, after the
    # temporary file is written; that file goes too
    (tmp_path / "taken.csv").mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        write_series_csv([1.0, 2.0], tmp_path / "taken.csv")
    assert (exc.value.errno, exc.value.filename) == (errno.EISDIR, str(tmp_path / "taken.csv"))
    assert sorted(f.name for f in tmp_path.iterdir()) == ["taken.csv"]
    assert list((tmp_path / "taken.csv").iterdir()) == []
