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
    _CHUNK_VALUES,
    _SHORT_TABLE_VALUES,
    _csv_bytes,
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
from fracgrid.schedule import adaptive_schedule, parse_memory_spec
from fracgrid.solver import SimulationConfig, run


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


def assert_cells_match_format_float(tmp_path, data):
    """``write_grid_csv`` writes each cell of ``data`` as ``format_float`` does,
    and so does the bulk formatter, which a short table does not reach."""
    expected_text = "".join(",".join(map(format_float, row)) + "\n" for row in data.T.tolist())
    assert _csv_bytes(np.ascontiguousarray(data.T)).tobytes() == expected_text.encode()
    path = tmp_path / "cells.csv"
    write_grid_csv(data, str(path))
    lines = path.read_text().split("\n")
    assert lines.pop() == ""
    rows = data.T.tolist()
    assert len(lines) == len(rows)
    cells = [cell for line in lines for cell in line.split(",")]
    expected = [format_float(v) for row in rows for v in row]
    assert len(cells) == len(expected)
    wrong = [(v, got) for v, got, want in zip(data.T.ravel(), cells, expected) if got != want]
    assert not wrong, wrong[:5]


def test_bulk_formatting_matches_format_float_on_random_bits(tmp_path):
    bits = np.random.default_rng(20180618).integers(0, 2**64, 120_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:100_000]
    assert values.size == 100_000
    assert_cells_match_format_float(tmp_path, values.reshape(400, 250))


def test_bulk_formatting_covers_every_binary_exponent(tmp_path):
    exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    mantissas = np.array(
        [0, 1, 2, 3, 2**51, 2**52 - 1, 2**52 - 2, 0x123456789ABCD, 0xFEDCBA9876543],
        dtype=np.uint64,
    )
    bits = exponents[:, None] | mantissas[None, :]
    bits = np.concatenate([bits, bits | np.uint64(1 << 63)], axis=1)
    assert_cells_match_format_float(tmp_path, bits.view(np.float64))


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    1e-5, 1e-4, 9.999999999999999e-5, 0.00012345, 1.2345e-5,
    9999999999999998.0, 1e16, 1.0000000000000002e16, 12345678901234567.0,
    1.0, 2.0, 10.0, 100.0, 1e15, 1e17, 1e22, 1e23, 2.0**53, 2.0**53 + 2, -7.0,
    0.1, 0.5, 0.3, 1 / 3, 2 / 3, 1.5e22, 1e-7, 0.001, 123.456, 1e100, 1e-100,
    9.5, 0.12, 1.2, 12.3, 123.45, 1234.567, 12345.6789, 123456.78901,
    1234567.890123, 12345678.9012345, 123456789.01234567, 1234567890.1234567,
    0.56348478969874, 6.5e-89, -6.5e-89, 1.7976931348623157e308 / 3, 4.35e-322,
    # Exact integers that end in ...2560: the dropped digits are 5 and more.
    1.2598819957568963e19, 1.4129340143433155e19,
]


def test_bulk_formatting_edge_values(tmp_path):
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    assert_cells_match_format_float(tmp_path, values.reshape(-1, 2))


def test_bulk_formatting_of_non_finite_values(tmp_path):
    data = np.array([[np.nan, 1.5], [np.inf, -np.inf], [-np.nan, 0.0]])
    assert_cells_match_format_float(tmp_path, data)
    path = tmp_path / "cells.csv"
    assert path.read_text() == "nan,inf,nan\n1.5,-inf,0\n"


@pytest.mark.parametrize(
    "shape",
    [(150, 300), (3, _CHUNK_VALUES + 5)],
    ids=["rows-across-chunks", "row-wider-than-a-chunk"],
)
def test_bulk_formatting_across_chunks(tmp_path, shape):
    # (150, 300) is written as 300 rows of 150 values, more than one chunk.
    rng = np.random.default_rng(7)
    data = rng.normal(size=shape) * np.exp(rng.uniform(-700, 700, size=shape))
    assert data.size > _CHUNK_VALUES
    assert_cells_match_format_float(tmp_path, data)


def test_grid_csv_of_a_solved_field_is_unchanged(tmp_path):
    # The bytes the per-value writer produced for a real short-memory field.
    config = SimulationConfig(
        gamma=0.75, alpha=1.0, beta=0.0, dt=1.0, dx=10.0, nx=100, ny=100, n_steps=300,
        strategy=parse_memory_spec("short:100"),
        sources=((37, 40, 12.0), (70, 62, 5.0)), snapshot_every=300,
    )
    field = run(config).final
    path = tmp_path / "grid.csv"
    write_grid_csv(field, str(path))
    lines = [",".join(format_float(v) for v in row) + "\n" for row in field.data.T]
    assert path.read_bytes() == "".join(lines).encode()
    assert np.array_equal(read_grid_csv(str(path)), field.data)


def test_grid_csv_zero_grid(tmp_path):
    path = tmp_path / "zero.csv"
    write_grid_csv(Grid2D(np.zeros((3, 3))), str(path))
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


@pytest.mark.parametrize("rows", [1, _SHORT_TABLE_VALUES // 2 - 1, _SHORT_TABLE_VALUES // 2])
def test_short_and_bulk_tables_write_the_same_bytes(tmp_path, rows):
    # Either side of the size at which the writer switches from format_float
    # to the bulk formatter, a profile reads the same.
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(rows) * np.exp(rng.uniform(-700, 700, rows))
    values[::7] = 0.0
    path = tmp_path / "profile.csv"
    write_profile_csv(values, str(path))
    table = np.column_stack((np.arange(rows, dtype=np.float64), values))
    assert path.read_bytes() == _csv_bytes(table).tobytes()


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
