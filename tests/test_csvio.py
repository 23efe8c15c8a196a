"""Unit tests for deterministic CSV formatting and writers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracgrid

from fracgrid.benchmark import BenchmarkRecord
from fracgrid.csvio import (
    BENCHMARK_HEADER,
    format_benchmark_rows,
    format_float,
    read_grid_csv,
    write_benchmark_csv,
    write_grid_csv,
    write_profile_csv,
    write_schedule_csv,
    write_trace_csv,
)
from fracgrid.grid import Grid2D
from fracgrid.schedule import adaptive_schedule


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0, "0"),
        (-0.0, "0"),
        (2.0, "2"),
        (-3.0, "-3"),
        (0.1, "0.1"),
        (1e-07, "1e-07"),
        (1.5e22, "1.5e+22"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
    ],
)
def test_format_float(value, expected):
    assert format_float(value) == expected


@pytest.mark.parametrize("value", [1 / 3, 0.056348478969874, 9.6, 123456.789, 2**-40])
def test_format_float_round_trips(value):
    assert float(format_float(value)) == value


def test_grid_csv_zero_grid(tmp_path):
    path = tmp_path / "zero.csv"
    write_grid_csv(Grid2D(np.zeros((3, 3)), 1.0), str(path))
    assert path.read_bytes() == b"0,0,0\n0,0,0\n0,0,0\n"


def test_grid_csv_orientation(tmp_path):
    # File rows sweep the first (x) index at fixed second (y) index.
    data = np.zeros((4, 3))
    data[1, 2] = 5.0
    path = tmp_path / "grid.csv"
    write_grid_csv(data, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # ny rows
    assert lines[2] == "0,5,0,0"  # nx columns


def test_grid_csv_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    data = np.zeros((6, 5))
    data[1:-1, 1:-1] = rng.normal(size=(4, 3))
    path = tmp_path / "grid.csv"
    write_grid_csv(data, str(path))
    assert np.array_equal(read_grid_csv(str(path)), data)


def test_read_grid_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="inconsistent"):
        read_grid_csv(str(ragged))
    bad = tmp_path / "bad.csv"
    bad.write_text("1,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_grid_csv(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_grid_csv(str(empty))
    with pytest.raises(OSError):
        read_grid_csv(str(tmp_path / "missing.csv"))


def test_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    write_profile_csv([0.0, 0.5, 1.5, 0.5, 0.0], str(path))
    assert path.read_text() == "0,0\n1,0.5\n2,1.5\n3,0.5\n4,0\n"
    with pytest.raises(ValueError, match="1D"):
        write_profile_csv(np.zeros((2, 2)), str(path))


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv([0, 5, 10], [10.0, 9.5, 9.25], str(path))
    assert path.read_text() == "0,10\n5,9.5\n10,9.25\n"
    with pytest.raises(ValueError, match="equal length"):
        write_trace_csv([0, 1], [1.0], str(path))


def test_schedule_csv(tmp_path):
    path = tmp_path / "schedule.csv"
    write_schedule_csv(adaptive_schedule(9, 3), str(path))
    assert path.read_text() == "m,w\n0,1\n1,1\n2,1\n3,1\n5,3\n8,3\n"


def make_record(**kwargs):
    defaults = dict(
        strategy="full", param=0.0, gamma=0.5, elapsed_s=0.25,
        err_l2_pct=0.0, err_linf_pct=0.0,
    )
    defaults.update(kwargs)
    return BenchmarkRecord(**defaults)


def test_benchmark_csv_single_record(tmp_path):
    path = tmp_path / "bench.csv"
    write_benchmark_csv([make_record()], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(BENCHMARK_HEADER)
    assert lines[1] == "full,0,0.5,0.25,0,0"
    assert len(lines) == 2


def test_benchmark_csv_sorted(tmp_path):
    records = [
        make_record(strategy="short", param=50.0, gamma=0.9),
        make_record(strategy="adaptive", param=3.0, gamma=0.9),
        make_record(strategy="short", param=10.0, gamma=0.5),
    ]
    text = format_benchmark_rows(records)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(r[2], r[0], r[1]) for r in rows] == [
        ("0.5", "short", "10"),
        ("0.9", "adaptive", "3"),
        ("0.9", "short", "50"),
    ]


def test_benchmark_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no benchmark records"):
        write_benchmark_csv([], str(tmp_path / "bench.csv"))
    assert not (tmp_path / "bench.csv").exists()


def test_benchmark_csv_nan_errors(tmp_path):
    rec = make_record(
        strategy="short", param=10.0,
        elapsed_s=float("nan"), err_l2_pct=float("nan"), err_linf_pct=float("nan"),
    )
    text = format_benchmark_rows([rec])
    assert text.splitlines()[1] == "short,10,0.5,nan,nan,nan"


def test_csvio_does_not_import_the_driver_or_solver():
    src = str(Path(fracgrid.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = (
        "import sys, fracgrid.csvio; "
        "print(sorted(m for m in ('fracgrid.benchmark', 'fracgrid.solver') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
