"""The README's library example runs as written against the public surface,
and its command-line section names every config key."""

import re
from pathlib import Path

import numpy as np

from ghelab import write_series_csv
from ghelab.io import _CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    prices = 100.0 * np.exp(np.cumsum(0.01 * np.random.default_rng(8).standard_normal(500)))
    write_series_csv(prices, tmp_path / "prices.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # report.original_mean, the delta_H row's test cells, then the one-series estimate
    assert len(printed) == 3
    assert re.fullmatch(r"-?\d+\.\d+(e-?\d+)? (True|False)", printed[1])


def test_every_config_key_is_documented():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Simulate a path, run an ensemble"):
                   text.index("### Reproduce a published table")]
    missing = [key for key in _CONFIG_KEYS
               if not re.search(rf"(?<![\w-]){re.escape(key)}(?![\w-])", section)]
    assert not missing, f"config keys the README does not name: {missing}"
