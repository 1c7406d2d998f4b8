"""Write the golden outputs that tests/test_golden.py checks.

Each output is small: a seeded `ghe` run, one `ensemble` per generator
(2 paths, 3 shuffles, 300 steps), `simulate`, both `plotdata` files, T2
at one path per cell with dow.csv and tb3.csv only, and T5 at two paths.

To show that a change leaves every output byte as it was, run

    PYTHONPATH=src python tests/golden/regenerate.py --check

It produces the files into a temporary directory at threads 1 and 2,
compares each byte for byte with the golden file, prints how the cells
of each file that differs moved, writes nothing here, and exits 1 if
any file differs, 0 if none does.

Rewriting the golden files changes check data, so run this without
--check only when an output moves on purpose, and list the files and
cells that moved:

    PYTHONPATH=src python tests/golden/regenerate.py

Before overwriting a file it prints how many cells moved, in which
columns, and the largest relative deviation of a numeric cell.
"""

from __future__ import annotations

import argparse
import csv
import math
import shutil
import sys
import tempfile
import warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from ghelab import reproduce_table
from ghelab.cli import main

GOLDEN = Path(__file__).resolve().parent

_CONFIGS = {
    "msm": "generator = msm; m0 = 1.4; sigma = 0.01; k = 5",
    "stable": "generator = stable; alpha = 1.6",
    "fbm": "generator = fbm; hurst = 0.7",
    "arfima": "generator = arfima; alpha = 1.6; d = 0.1; ar1 = 0.4",
}
_SMALL = "n_paths = 2; path_length = 300; n_shuffles = 3"

FILES = (
    "ghe_report.csv",
    *(f"ensemble_{kind}.csv" for kind in _CONFIGS),
    "simulated_series.csv",
    "plot_structure_functions.csv",
    "plot_scaling_function.csv",
    "table_T2_desk.csv",
    "table_T5_desk.csv",
)


def write_prices(path: Path, n: int, seed: int) -> Path:
    rng = np.random.default_rng(seed)
    levels = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    path.write_text("price\n" + "\n".join(repr(float(v)) for v in levels) + "\n")
    return path


def _cli(out_dir: Path, threads: int, *args) -> None:
    argv = ["--seed", "7", "--threads", str(threads), "--out", str(out_dir), *map(str, args)]
    with redirect_stdout(StringIO()):
        status = main(argv)
    if status != 0:
        raise RuntimeError(f"ghelab {' '.join(argv)} exited {status}")


def produce(out_dir: Path, threads: int) -> None:
    """Write every file of FILES into out_dir, running at `threads` workers."""
    work = out_dir / "inputs"
    work.mkdir(parents=True)
    _cli(out_dir, threads, "ghe", write_prices(work / "prices.csv", 500, 11), "--shuffles", 5)
    for kind, generator in _CONFIGS.items():
        cfg = work / f"{kind}.cfg"
        cfg.write_text(f"{generator}\n{_SMALL}\n")
        _cli(work, threads, "ensemble", cfg)
        (work / "ensemble_report.csv").rename(out_dir / f"ensemble_{kind}.csv")
    cfg = work / "sim.cfg"
    cfg.write_text(f"{_CONFIGS['msm']}\npath_length = 500\n")
    _cli(out_dir, threads, "simulate", cfg)
    cfg = work / "plot.cfg"
    cfg.write_text(f"{_CONFIGS['fbm']}\npath_length = 512; n_shuffles = 2\n")
    _cli(out_dir, threads, "plotdata", cfg)
    data = work / "data"
    data.mkdir()
    write_prices(data / "dow.csv", 400, 1)
    write_prices(data / "tb3.csv", 400, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the seven missing assets
        reproduce_table("T2", out_dir=out_dir, data_dir=data, threads=threads, n_paths=1)
    reproduce_table("T5", out_dir=out_dir, threads=threads, n_paths=2)
    shutil.rmtree(work)


def number(cell):
    """The cell as a finite float, or None for text, empty cells, inf and nan."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def describe_moves(new: Path, old: Path) -> str:
    """How the cells of `new` differ from those of `old`, in one line."""
    if not old.exists():
        return "new file"
    with open(new, newline="") as fh:
        got = list(csv.reader(fh))
    with open(old, newline="") as fh:
        want = list(csv.reader(fh))
    if got[:1] != want[:1] or len(got) != len(want) or any(
            len(a) != len(b) for a, b in zip(got, want)):
        return f"header or shape changed: {len(want)} -> {len(got)} rows"
    header = got[0]
    numeric, text, columns, worst = 0, 0, set(), 0.0
    for got_row, want_row in zip(got[1:], want[1:]):
        for c, (a, b) in enumerate(zip(got_row, want_row)):
            if a == b:
                continue
            x, y = number(a), number(b)
            if x is None or y is None:
                text += 1
            else:
                numeric += 1
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
            columns.add(c)
    if numeric == text == 0:
        return "unchanged"
    names = ", ".join(header[c] for c in sorted(columns))
    return (f"{numeric} numeric and {text} other cells moved in {names}; "
            f"largest relative deviation {worst:.3g}")


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp), threads=1)
        for name in FILES:
            print(f"{name}: {describe_moves(Path(tmp) / name, GOLDEN / name)}")
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)


def check_golden() -> int:
    """1 if an output produced at threads 1 or 2 differs from its golden bytes, else 0."""
    moved = 0
    for threads in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            produce(Path(tmp), threads)
            for name in FILES:
                new, old = Path(tmp) / name, GOLDEN / name
                if old.exists() and new.read_bytes() == old.read_bytes():
                    continue
                moved += 1
                how = describe_moves(new, old)
                if how == "unchanged":
                    how = "same cells, other bytes"
                print(f"threads={threads} {name}: {how}")
    print(f"{moved} of {2 * len(FILES)} outputs differ from the golden files")
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh outputs with the golden files; write nothing")
    if parser.parse_args().check:
        sys.exit(check_golden())
    write_golden()
