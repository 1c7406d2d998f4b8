"""Every file ghelab reads or writes is UTF-8, whatever the locale.

Price CSVs and configs may start with a BOM, and a byte that is not UTF-8
fails as a bad cell or a bad statement, or is ignored where nothing reads
it. The subprocess tests run the command line under
`-X warn_default_encoding` with EncodingWarning as an error, so no open()
may fall back to the locale, and under an ASCII locale, where each report
must match the UTF-8-mode report byte for byte, also when stdout cannot
print it; a label or path the locale cannot encode ends in `error:`.
"""

import codecs
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghelab
from ghelab import ParseError, load_price_csv, parse_config

SRC = str(Path(ghelab.__file__).resolve().parents[1])


def write_bytes(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return p


def price_lines(n=300, seed=0):
    rng = np.random.default_rng(seed)
    levels = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    return "\n".join(repr(float(v)) for v in levels)


def test_input_files_may_start_with_a_bom(tmp_path):
    p = write_bytes(tmp_path, "a.csv", codecs.BOM_UTF8 + b"price\n100\n101\n")
    assert np.array_equal(load_price_csv(p), [100.0, 101.0])
    p = write_bytes(tmp_path, "b.csv", codecs.BOM_UTF8 + b"date,close\nx,7\ny,8\n")
    assert np.array_equal(load_price_csv(p, column="close"), [7.0, 8.0])
    cfg = write_bytes(tmp_path, "a.cfg", codecs.BOM_UTF8 + b"generator = stable; alpha = 1.6\n")
    assert parse_config(cfg) == {"generator": "stable", "alpha": 1.6}


def test_a_byte_that_is_not_utf8_outside_the_price_column_is_ignored(tmp_path):
    p = write_bytes(tmp_path, "c.csv", b"date,price\n2020-01-06,100\nd\xe9c,101\n")
    assert np.array_equal(load_price_csv(p), [100.0, 101.0])


def test_a_byte_that_is_not_utf8_in_a_price_cell_names_file_and_row(tmp_path):
    p = write_bytes(tmp_path, "d.csv", b"date,price\nx,100\ny,1\xe9102.85\n")
    with pytest.raises(ParseError, match=r"^row 2: non-numeric 'price' value") as info:
        load_price_csv(p)
    assert info.value.row == 2
    assert str(info.value).endswith(f" in {p}")


def test_a_byte_that_is_not_utf8_in_a_config_statement_names_the_line(tmp_path):
    cfg = write_bytes(tmp_path, "e.cfg", b"generator = empirical\nname = Z\xfcrich; column = p\n")
    with pytest.raises(ParseError, match="^row 2: bytes that are not UTF-8") as info:
        parse_config(cfg)
    assert info.value.row == 2
    cfg = write_bytes(tmp_path, "f.cfg", b"# caf\xe9 prices\ngenerator = stable  # \xe9\n")
    assert parse_config(cfg) == {"generator": "stable"}


def run_python(args, cwd, env=None):
    """`python args` in cwd, ghelab importable from its source; the completed process."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          timeout=300)


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "prices.csv").write_text("price\n" + price_lines() + "\n", encoding="utf-8")
    small = "n_paths = 2; path_length = 256; n_shuffles = 2\n"
    (tmp_path / "stable.cfg").write_text("generator = stable; alpha = 1.6\n" + small,
                                         encoding="utf-8")
    (tmp_path / "arfima.cfg").write_text("generator = arfima; alpha = 1.6; d = 0.1\n" + small,
                                         encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    (data / "dow.csv").write_text("price\n" + price_lines(seed=1) + "\n", encoding="utf-8")
    return tmp_path


_STRICT = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")

_UNDER_STRICT = {
    "ghe": ["ghe", "prices.csv", "--shuffles", "2"],
    "ensemble_stable": ["ensemble", "stable.cfg"],
    "ensemble_arfima": ["ensemble", "arfima.cfg"],
    "simulate": ["simulate", "stable.cfg"],
    "plotdata": ["plotdata", "stable.cfg"],
}


@pytest.mark.parametrize("argv", _UNDER_STRICT.values(), ids=_UNDER_STRICT.keys())
def test_commands_never_open_a_file_in_the_locale_encoding(inputs, argv):
    done = run_python([*_STRICT, "-m", "ghelab", "--out", "out", *argv], inputs)
    assert done.returncode == 0, done.stderr.decode(errors="replace")


@pytest.mark.parametrize("call", [
    "ghelab.gmm_estimates()",
    "ghelab.reproduce_table('T2', n_paths=1, data_dir='data')",
])
def test_library_calls_never_open_a_file_in_the_locale_encoding(inputs, call):
    script = f"import warnings, ghelab\nwarnings.simplefilter('ignore', RuntimeWarning)\n{call}\n"
    done = run_python([*_STRICT, "-c", script], inputs)
    assert done.returncode == 0, done.stderr.decode(errors="replace")


def ascii_locale_env(**stdout):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
    return env | {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"} | stdout


@pytest.fixture
def labelled(inputs):
    """inputs plus a config naming its series Zürich and prices.csv copied to zürich.csv."""
    (inputs / "zurich.cfg").write_text(
        "generator = empirical; input = prices.csv; name = Zürich\nn_shuffles = 2\n",
        encoding="utf-8")
    with open(os.path.join(os.fsencode(inputs), "zürich.csv".encode()), "wb") as fh:
        fh.write((inputs / "prices.csv").read_bytes())
    return inputs


# argv, report and series label of each command on the labelled inputs; the
# ghe label comes from a file name that argv decodes with surrogate escapes
_LABELLED = {
    "ensemble": (["ensemble", "zurich.cfg"], "ensemble_report.csv", "Zürich"),
    "ghe": ([b"ghe", "zürich.csv".encode(), b"--shuffles", b"2"], "ghe_report.csv", "zürich"),
}


def run_ghelab(cwd, mode, argv, env):
    """`python -X mode -m ghelab` writing into out_<mode's digit>; the process and that dir."""
    out = cwd / f"out_{mode[-1]}"
    return run_python(["-X", mode, "-m", "ghelab", "--out", out.name, *argv], cwd, env), out


def test_reports_under_an_ascii_locale_match_utf8_mode(labelled):
    # a series name from the config, and one from a file name, are written
    # as the same UTF-8 bytes; stdout is Python's to encode, not ghelab's,
    # so here it is made to take any label
    env = ascii_locale_env(PYTHONIOENCODING="utf-8:surrogateescape")
    for argv, report, label in _LABELLED.values():
        written = {}
        for mode in ("utf8=0", "utf8=1"):
            done, out = run_ghelab(labelled, mode, argv, env)
            assert done.returncode == 0, (mode, done.stderr.decode(errors="replace"))
            written[mode] = (out / report).read_bytes()
        assert written["utf8=0"] == written["utf8=1"], report
        assert f",{label},".encode() in written["utf8=1"], report


def assert_clean_error(done):
    stderr = done.stderr.decode(errors="replace")
    assert done.returncode == 1, stderr
    assert stderr.startswith("error: ") and "Traceback" not in stderr, stderr


@pytest.mark.parametrize("command", _LABELLED)
def test_a_report_stdout_cannot_encode_fails_cleanly_after_the_csv_is_written(labelled, command):
    argv, report, _ = _LABELLED[command]
    # Under the C locale Python's stdout takes back the surrogate escapes of
    # an argv file name, so ghe's label fails only on a strict ASCII stdout.
    strict = {"PYTHONIOENCODING": "ascii:strict"} if command == "ghe" else {}
    done, out = run_ghelab(labelled, "utf8=0", argv, ascii_locale_env(**strict))
    assert_clean_error(done)
    utf8, utf8_out = run_ghelab(labelled, "utf8=1", argv, ascii_locale_env())
    assert utf8.returncode == 0, utf8.stderr.decode(errors="replace")
    assert (out / report).read_bytes() == (utf8_out / report).read_bytes()


def test_a_path_the_file_system_encoding_cannot_hold_fails_cleanly(labelled):
    (labelled / "named.cfg").write_text("generator = empirical; input = zürich.csv\n",
                                        encoding="utf-8")
    done, _ = run_ghelab(labelled, "utf8=0", ["ensemble", "named.cfg"], ascii_locale_env())
    assert_clean_error(done)
