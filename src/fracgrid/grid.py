"""2D concentration field, five-point stencil, and per-step stencil history."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Default ceiling on the stencil-history allocation (bytes).  Full-memory
# runs store one float64 field per step, so long runs on large grids can
# silently reach tens of gigabytes without a cap.
DEFAULT_HISTORY_BYTE_CAP = 4 * 1024**3


class MemoryBudgetError(ValueError):
    """History storage for the requested run would exceed the byte cap."""


class HistoryCapacityError(ValueError):
    """An append would exceed the buffer's preallocated step count."""


@dataclass(frozen=True)
class Grid2D:
    """Concentration samples ``u[j, l]`` on a uniform grid with pinned-zero edges.

    The first axis indexes x (column j), the second y (row l).  The boundary
    ring is required to be exactly zero: the scheme treats the domain edge as
    an absorbing wall and never updates it.
    """

    data: np.ndarray
    dx: float

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"grid data must be 2D, got shape {data.shape}")
        if data.shape[0] < 3 or data.shape[1] < 3:
            raise ValueError(f"grid must be at least 3x3, got {data.shape}")
        if not float(self.dx) > 0.0 or not np.isfinite(self.dx):
            raise ValueError(f"dx must be a positive finite number, got {self.dx!r}")
        if not np.isfinite(data).all():
            raise ValueError("grid contains non-finite values")
        ring = (data[0, :], data[-1, :], data[:, 0], data[:, -1])
        if any(np.any(edge != 0.0) for edge in ring):
            raise ValueError("boundary ring must be exactly zero")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dx", float(self.dx))
        data.setflags(write=False)

    @property
    def nx(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_sources(
        cls,
        nx: int,
        ny: int,
        dx: float,
        sources: Iterable[tuple[int, int, float]] = (),
    ) -> "Grid2D":
        """Zero grid of shape (nx, ny) with point sources assigned into it.

        Each source is an (j, l, value) triple; coordinates must fall in the
        interior (the boundary ring stays zero).
        """
        nx, ny = int(nx), int(ny)
        if nx < 3 or ny < 3:
            raise ValueError(f"grid must be at least 3x3, got {nx}x{ny}")
        data = np.zeros((nx, ny), dtype=np.float64)
        for j, l, value in sources:
            j, l = int(j), int(l)
            if not (1 <= j <= nx - 2 and 1 <= l <= ny - 2):
                raise ValueError(
                    f"source ({j}, {l}) is outside the interior of a {nx}x{ny} grid"
                )
            data[j, l] = float(value)
        return cls(data=data, dx=dx)


def stencil(data: np.ndarray) -> np.ndarray:
    """Five-point kernel u[j+1,l] + u[j-1,l] - 4 u[j,l] + u[j,l+1] + u[j,l-1].

    No division by dx**2 happens here; the solver folds the grid spacing into
    its per-step coefficient.  The output boundary ring is zero, matching the
    pinned edges of the field itself.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 3 or data.shape[1] < 3:
        raise ValueError(f"stencil needs a 2D grid of at least 3x3, got shape {data.shape}")
    out = np.zeros_like(data)
    out[1:-1, 1:-1] = (
        data[2:, 1:-1]
        + data[:-2, 1:-1]
        - 4.0 * data[1:-1, 1:-1]
        + data[1:-1, 2:]
        + data[1:-1, :-2]
    )
    return out


def slice_profile(grid: Grid2D, row: int) -> np.ndarray:
    """1D cut u[:, row] across the grid, as a fresh writable array."""
    row = int(row)
    if not 0 <= row < grid.ny:
        raise IndexError(f"row {row} out of range for grid with ny={grid.ny}")
    return grid.data[:, row].copy()


class HistoryBuffer:
    """Append-only store of stencil fields, one per completed step.

    The buffer is preallocated for a known number of steps so appends never
    reallocate mid-run, and the projected allocation is checked against a
    byte cap before any memory is committed.  Entries are exposed read-only:
    the backward summation must see exactly what each step recorded.
    """

    def __init__(
        self,
        capacity: int,
        shape: tuple[int, int],
        byte_cap: int | None = DEFAULT_HISTORY_BYTE_CAP,
    ) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        nx, ny = int(shape[0]), int(shape[1])
        needed = capacity * nx * ny * np.dtype(np.float64).itemsize
        if byte_cap is not None and needed > byte_cap:
            raise MemoryBudgetError(
                f"history of {capacity} fields of shape {nx}x{ny} needs "
                f"{needed} bytes, over the cap of {byte_cap}"
            )
        self._data = np.empty((capacity, nx, ny), dtype=np.float64)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        return self._data.shape[0]

    @property
    def field_shape(self) -> tuple[int, int]:
        return self._data.shape[1], self._data.shape[2]

    def append(self, field: np.ndarray) -> None:
        """Record the stencil field of the step just completed."""
        if self._len >= self.capacity:
            raise HistoryCapacityError(
                f"buffer holds {self.capacity} entries and is full"
            )
        field = np.asarray(field, dtype=np.float64)
        if field.shape != self.field_shape:
            raise ValueError(
                f"field shape {field.shape} does not match buffer shape {self.field_shape}"
            )
        self._data[self._len] = field
        self._len += 1

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Read-only contiguous view of entries lo..hi inclusive."""
        lo, hi = int(lo), int(hi)
        if not (0 <= lo <= hi < self._len):
            raise IndexError(
                f"block [{lo}, {hi}] out of range; buffer holds {self._len}"
            )
        view = self._data[lo : hi + 1]
        view.setflags(write=False)
        return view

    def gather(self, lo: int, hi: int, stride: int) -> np.ndarray:
        """Read-only strided view of entries lo, lo + stride, ..., hi.

        This is a basic slice of the buffer, so no entry is copied.  ``stride``
        must divide ``hi - lo``, so that the run ends exactly at ``hi``.
        """
        if not (0 <= lo <= hi < self._len):
            raise IndexError(
                f"run [{lo}, {hi}] out of range; buffer holds {self._len}"
            )
        if stride < 1 or (hi - lo) % stride:
            raise ValueError(f"stride {stride} does not divide the run [{lo}, {hi}]")
        view = self._data[lo : hi + 1 : stride]
        view.setflags(write=False)
        return view
