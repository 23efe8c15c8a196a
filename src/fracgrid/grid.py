"""2D concentration field, five-point stencil, and per-step stencil history."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schedule import checked_int

# Default ceiling on the stencil-history allocation (bytes).  Full-memory
# runs store one float64 field per step, so long runs on large grids can
# silently reach tens of gigabytes without a cap.
DEFAULT_HISTORY_BYTE_CAP = 4 * 1024**3

# Doubles per stored history row are a multiple of this (see HistoryBuffer).
_ROW_DOUBLES = 8


class MemoryBudgetError(ValueError):
    """History storage for the requested run would exceed the byte cap."""


class HistoryCapacityError(ValueError):
    """An append would exceed the buffer's preallocated step count."""


@dataclass(frozen=True)
class Grid2D:
    """Concentration samples ``u[j, l]`` on a uniform grid with pinned-zero edges.

    The first axis indexes x (column j), the second y (row l).  The boundary
    ring is required to be exactly zero: the scheme treats the domain edge as
    an absorbing wall and never updates it.  The grid holds the field alone;
    its spacing is the run's ``SimulationConfig.dx``, and a run's initial
    field is built by ``SimulationConfig.initial_grid``.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"grid data must be 2D, got shape {data.shape}")
        if data.shape[0] < 3 or data.shape[1] < 3:
            raise ValueError(f"grid must be at least 3x3, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("grid contains non-finite values")
        ring = (data[0, :], data[-1, :], data[:, 0], data[:, -1])
        if any(np.any(edge != 0.0) for edge in ring):
            raise ValueError("boundary ring must be exactly zero")
        object.__setattr__(self, "data", data)
        data.setflags(write=False)


def stencil(data: np.ndarray) -> np.ndarray:
    """Five-point kernel u[j+1,l] + u[j-1,l] - 4 u[j,l] + u[j,l+1] + u[j,l-1].

    No division by dx**2 happens here; the solver folds the grid spacing into
    its per-step coefficient.  The result is the (nx - 2, ny - 2) interior
    alone, the array :meth:`HistoryBuffer.append` takes: the pinned edges of
    the field have no stencil value.

    The sum runs over the flattened field: every interior cell lies in the
    flat range from the first interior cell to the last, where its four
    neighbours sit at flat offsets +-ny and +-1, so each term is one
    contiguous slice, summed in place into a field-shaped array in the order
    written above.  The range also crosses the ring cells at both ends of
    each interior row; the result is a view of that array's interior, and
    none of its ring cells is ever written or read.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 3 or data.shape[1] < 3:
        raise ValueError(f"stencil needs a 2D grid of at least 3x3, got shape {data.shape}")
    ny = data.shape[1]
    flat = data.reshape(-1)
    out = np.empty_like(data)
    lo, hi = ny + 1, flat.size - ny - 1
    inner = out.reshape(-1)[lo:hi]
    np.add(flat[lo + ny : hi + ny], flat[lo - ny : hi - ny], out=inner)
    inner -= 4.0 * flat[lo:hi]
    inner += flat[lo + 1 : hi + 1]
    inner += flat[lo - 1 : hi - 1]
    return out[1:-1, 1:-1]


class HistoryBuffer:
    """Append-only store of stencil interiors, one per completed step.

    ``capacity`` is the number of entries a run may append; the buffer keeps
    the newest ``window`` of them readable (all of them when ``window`` is
    None).  It allocates ``min(window, capacity)`` rows and keeps entry e
    in row e modulo that count: short memory of horizon L stores exactly the
    W = L/dt + 1 interiors it can reach, and full and adaptive memory, whose
    window is the whole run, store one per step and never wrap.  An
    append writes one row and moves nothing.

    ``shape`` is the whole grid's, boundary ring included, but a stencil has
    no value on the pinned ring: :meth:`append` takes the (nx - 2, ny - 2)
    interior that :func:`stencil` returns and copies it into a row as given,
    in C order, followed by zeros up to a multiple of 8 doubles.  The pad
    keeps the contraction's bits independent of the BLAS thread count: with
    every row a whole number of vector widths, OpenBLAS takes each cell
    through the same vector loop on any split of the cells between threads.

    :meth:`weighted_sum` contracts the stored rows with a schedule's
    coefficients.  A run of entries whose rows do not wrap is one basic
    slice, read in place by :meth:`block` and :meth:`gather`.  The
    allocation is checked against a byte cap before any memory is committed,
    so appends never reallocate mid-run.  Entries are exposed read-only: the
    backward summation must see exactly what each step recorded.
    """

    def __init__(
        self,
        capacity: int,
        shape: tuple[int, int],
        byte_cap: int | None = DEFAULT_HISTORY_BYTE_CAP,
        *,
        window: int | None = None,
    ) -> None:
        capacity = checked_int("capacity", capacity, 1)
        window = capacity if window is None else checked_int("window", window, 1)
        byte_cap = None if byte_cap is None else checked_int("byte_cap", byte_cap, 0)
        nx, ny = checked_int("nx", shape[0], 3), checked_int("ny", shape[1], 3)
        slots = min(window, capacity)
        cells = (nx - 2) * (ny - 2)
        row = -(-cells // _ROW_DOUBLES) * _ROW_DOUBLES
        needed = slots * row * np.dtype(np.float64).itemsize
        if byte_cap is not None and needed > byte_cap:
            raise MemoryBudgetError(
                f"history of {slots} fields of shape {nx}x{ny} needs "
                f"{needed} bytes, over the cap of {byte_cap}"
            )
        self._data = np.zeros((slots, row), dtype=np.float64)
        # Each row's interior cells as an (nx - 2, ny - 2) view, for append.
        self._interiors = self._data[:, :cells].reshape(slots, nx - 2, ny - 2)
        self._shape = (nx, ny)
        self._capacity = capacity
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        """Number of entries the buffer accepts."""
        return self._capacity

    @property
    def nbytes(self) -> int:
        """Bytes allocated for the stored rows, pad included."""
        return self._data.nbytes

    @property
    def field_shape(self) -> tuple[int, int]:
        """Shape of the grid whose interiors are stored, boundary ring included."""
        return self._shape

    def append(self, interior: np.ndarray) -> None:
        """Record the stencil interior of the step just completed, as given."""
        if self._len >= self._capacity:
            raise HistoryCapacityError(f"buffer holds {self._capacity} entries and is full")
        rows = self._interiors
        interior = np.asarray(interior, dtype=np.float64)
        if interior.shape != rows.shape[1:]:
            raise ValueError(
                f"interior shape {interior.shape} does not match the buffer's "
                f"{rows.shape[1:]}, the interior of its {self._shape} grid"
            )
        rows[self._len % len(rows)] = interior
        self._len += 1

    def _check(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi < self._len):
            raise IndexError(
                f"entries [{lo}, {hi}] out of range; buffer holds {self._len}"
            )
        if lo < self._len - len(self._data):
            raise IndexError(
                f"entry {lo} is overwritten; the buffer keeps the newest "
                f"{len(self._data)} of {self._len}"
            )

    def _view(self, lo: int, hi: int, stride: int) -> np.ndarray:
        self._check(lo, hi)
        slots = len(self._data)
        start = lo % slots
        stop = start + hi - lo + 1
        if stop > slots:
            raise ValueError(f"entries [{lo}, {hi}] wrap around the ring of {slots} slots")
        view = self._data[start:stop:stride]
        view.setflags(write=False)
        return view

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Read-only contiguous view of the rows of entries lo..hi inclusive."""
        return self._view(int(lo), int(hi), 1)

    def gather(self, lo: int, hi: int, stride: int) -> np.ndarray:
        """Read-only strided view of the rows of entries lo, lo + stride, ..., hi.

        This is a basic slice of the buffer, so no entry is copied.  ``stride``
        must divide ``hi - lo``, so that the run ends exactly at ``hi``.
        """
        if stride < 1 or (hi - lo) % stride:
            raise ValueError(f"stride {stride} does not divide the run [{lo}, {hi}]")
        return self._view(lo, hi, stride)

    def weighted_sum(
        self,
        runs: Sequence[tuple[int, int, int]],
        coefficients: Sequence[np.ndarray],
        k: int,
    ) -> np.ndarray:
        """Sum of c * entry[k - m] over the runs' offsets m, as a new field.

        Run ``(m, count, stride)`` holds the offsets m, m + stride, ..., and
        ``coefficients`` one array per run, oldest entry (largest offset)
        first, which is the order the entries are stored in.  Each run is one
        matrix-vector product of its coefficients with a view of the buffer,
        read in place as a (count, row) matrix whose rows are contiguous; a
        one-entry run is a scalar multiply.  The partial sums are added in
        run order, and the sum's interior is copied into a zeroed field, so
        its boundary ring is +0.

        A single dense run from offset 0, the newest c = count entries, is
        read as it is stored: one block when its rows do not wrap, and when
        they do and the window fills the ring, the whole ring in row order
        with the coefficients rotated to match.  A window that wraps without
        filling the ring raises.  From entry 0, storage order is oldest
        first, so a schedule that visits every offset reproduces full memory
        bit for bit.
        """
        if len(runs) == 1 and runs[0][0] == 0 and runs[0][2] == 1:
            coeffs = coefficients[0]
            count = len(coeffs)
            lo = k - count + 1
            slots = len(self._data)
            start = lo % slots
            if start + count > slots and count == slots:
                self._check(lo, k)
                split = slots - start
                coeffs = np.concatenate((coeffs[split:], coeffs[:split]))
                view = self._data
            else:
                view = self.block(lo, k)
            return self._field(coeffs @ view)
        total = None
        for (m, count, stride), coeffs in zip(runs, coefficients):
            last = m + (count - 1) * stride
            rows = self.gather(k - last, k - m, stride)
            # A one-entry matmul leaves BLAS for NumPy's generic loop.
            part = rows[0] * coeffs[0] if count == 1 else coeffs @ rows
            if total is None:
                total = part
            else:
                total += part
        return self._field(total)

    def _field(self, row: np.ndarray) -> np.ndarray:
        """A new zero-ringed field whose interior is the cells of a row."""
        nx, ny = self._shape
        field = np.zeros(self._shape)
        field[1:-1, 1:-1] = row[: (nx - 2) * (ny - 2)].reshape(nx - 2, ny - 2)
        return field
