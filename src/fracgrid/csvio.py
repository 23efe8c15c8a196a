"""Deterministic CSV artifacts.

All writers emit LF line endings and format floats with the shortest
round-trip-exact decimal (trailing ``.0`` trimmed), so re-running the same
configuration yields byte-identical files.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .grid import Grid2D
from .schedule import MemorySchedule

if TYPE_CHECKING:
    # Annotations only: the writers must not load the benchmark driver and,
    # through it, the solver.
    from .benchmark import BenchmarkRecord

BENCHMARK_HEADER = ("strategy", "param", "gamma", "elapsed_s", "err_l2_pct", "err_linf_pct")


def format_float(x: float) -> str:
    """Shortest decimal that parses back to exactly ``x``.

    Integral values drop the ``.0`` suffix ("0", "2", not "0.0"); negative
    zero is normalised to "0".
    """
    x = float(x)
    if x != x:  # NaN
        return "nan"
    text = repr(x + 0.0 if x == 0.0 else x)
    if text.endswith(".0"):
        text = text[:-2]
    return text


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_grid_csv(grid: Grid2D | np.ndarray, path: str) -> None:
    """Matrix CSV of a field: one output row per grid row (fixed l), columns over j."""
    data = np.asarray(getattr(grid, "data", grid), dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"grid data must be 2D, got shape {data.shape}")
    rows = data.T  # row l of the file sweeps j at fixed l
    _write_lines(path, (",".join(format_float(v) for v in row) for row in rows))


def read_grid_csv(path: str) -> np.ndarray:
    """Inverse of :func:`write_grid_csv`: returns the (nx, ny) field array."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record:
                continue
            try:
                rows.append([float(cell) for cell in record])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise ValueError(f"{path}: empty grid file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: rows have inconsistent lengths")
    return np.array(rows, dtype=np.float64).T


def write_profile_csv(values: Sequence[float] | np.ndarray, path: str) -> None:
    """Two-column ``index,value`` CSV of a 1D profile."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"profile must be 1D, got shape {arr.shape}")
    _write_lines(
        path, (f"{i},{format_float(v)}" for i, v in enumerate(arr))
    )


def write_trace_csv(
    steps: Sequence[int] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    path: str,
) -> None:
    """Two-column ``step,value`` CSV of a time trace."""
    steps = np.asarray(steps, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    if steps.shape != vals.shape or steps.ndim != 1:
        raise ValueError("steps and values must be 1D arrays of equal length")
    _write_lines(
        path, (f"{int(s)},{format_float(v)}" for s, v in zip(steps, vals))
    )


def write_schedule_csv(schedule: MemorySchedule, path: str) -> None:
    """Offset/weight table of a schedule, with an ``m,w`` header."""
    lines = ["m,w"]
    lines.extend(f"{m},{w}" for m, w in schedule.pairs())
    _write_lines(path, lines)


def format_benchmark_rows(records: Sequence[BenchmarkRecord]) -> str:
    """Benchmark records as CSV text (header + one row per record)."""
    if not records:
        raise ValueError("no benchmark records to write")
    buf = io.StringIO()
    buf.write(",".join(BENCHMARK_HEADER))
    buf.write("\n")
    ordered = sorted(records, key=lambda r: (r.gamma, r.strategy, r.param))
    for rec in ordered:
        buf.write(
            ",".join(
                (
                    rec.strategy,
                    format_float(rec.param),
                    format_float(rec.gamma),
                    format_float(rec.elapsed_s),
                    format_float(rec.err_l2_pct),
                    format_float(rec.err_linf_pct),
                )
            )
        )
        buf.write("\n")
    return buf.getvalue()


def write_benchmark_csv(records: Sequence[BenchmarkRecord], path: str) -> None:
    """Comparison table CSV, sorted by (gamma, strategy, param)."""
    text = format_benchmark_rows(records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
