"""Every subcommand's CSV and two small tables, against committed golden files.

The outputs come from tests/golden/regenerate.py. Bytes must match across
thread counts within one run. Against the golden files, numeric cells may
move by 1e-12 relative, because numpy picks its log and power kernels by
CPU; every other cell must match exactly.
"""

import csv
import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

RTOL = 1e-12


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    runs = {}
    for threads in (1, 2):
        out = tmp_path_factory.mktemp(f"threads{threads}")
        regenerate.produce(out, threads)
        runs[threads] = out
    return runs


def test_outputs_are_the_golden_files(outputs):
    assert sorted(p.name for p in outputs[1].iterdir()) == sorted(regenerate.FILES)


@pytest.mark.parametrize("name", regenerate.FILES)
def test_output_matches_golden(outputs, name):
    data = (outputs[1] / name).read_bytes()
    assert data == (outputs[2] / name).read_bytes(), f"{name}: threads 1 and 2 differ"
    with open(outputs[1] / name, newline="") as fh:
        got = list(csv.reader(fh))
    with open(GOLDEN / name, newline="") as fh:
        want = list(csv.reader(fh))
    assert len(got) == len(want), name
    worst, where = 0.0, None
    for r, (got_row, want_row) in enumerate(zip(got, want)):
        assert len(got_row) == len(want_row), (name, r)
        for c, (a, b) in enumerate(zip(got_row, want_row)):
            x, y = regenerate.number(a), regenerate.number(b)
            if x is None or y is None:
                assert a == b, (name, r, c)
            elif x != y:
                dev = abs(x - y) / max(abs(x), abs(y))
                if dev > worst:
                    worst, where = dev, (r, c)
    print(f"{name}: largest relative deviation {worst:.3g} at (row, col) {where}")
    assert worst <= RTOL, (name, where)


def test_check_reports_a_moved_file_and_writes_nothing(monkeypatch, capsys):
    before = {name: (GOLDEN / name).read_bytes() for name in regenerate.FILES}

    def produce(out_dir, threads):
        for name, data in before.items():
            (out_dir / name).write_bytes(data)
        if threads == 2:
            moved = before["ghe_report.csv"].replace(b"0", b"1", 1)
            (out_dir / "ghe_report.csv").write_bytes(moved)

    monkeypatch.setattr(regenerate, "produce", produce)
    assert regenerate.check_golden() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("threads=2 ghe_report.csv: 1 numeric")
    assert lines[1:] == [f"1 of {2 * len(regenerate.FILES)} outputs differ from the golden files"]
    assert {name: (GOLDEN / name).read_bytes() for name in regenerate.FILES} == before

    monkeypatch.setattr(regenerate, "produce", lambda out_dir, threads: produce(out_dir, 1))
    assert regenerate.check_golden() == 0
