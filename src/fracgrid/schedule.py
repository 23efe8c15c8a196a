"""History sampling schedules: which past offsets a step visits, with what weight.

A schedule for step k lists history offsets m (0 = the current step's stencil,
k = the oldest) paired with integer weights.  Full memory visits every offset
with unit weight; short memory truncates the list at a fixed horizon; the
geometric schedule keeps a dense recent window and thins older history into
geometrically growing intervals, sampling each at a stride equal to the weight
it assigns, so one stored field stands in for a run of its neighbours.

Coefficient rule: every entry stands for a *cell* of consecutive offsets that
contains its own offset, and the solver weighs the stored field at m by the
sum of psi over that cell (psi(m) itself when the cell is just {m}).  The
cell is the entry's centred window of w offsets; where two neighbouring
windows leave a gap or overlap (the joins between the geometric intervals),
the offsets between the two samples go to the nearer one instead.  The cells
of a geometric schedule therefore tile 0..k exactly, and its coefficients sum
to the full-memory weight mass.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np


@dataclass(frozen=True)
class MemorySchedule:
    """Weighted history offsets visited by one backward summation.

    Offsets are strictly increasing and unique; weights are positive
    integers.  A weight-w entry at offset m declares that it stands in for
    the w consecutive offsets centred on m (its window, which
    :func:`coverage_report` accounts for).  Entry j stands for the offsets
    ``cells[j] <= x < cells[j + 1]``, its cell, and the solver weighs it by
    the psi mass of that cell.  The builders in this module make each cell
    the entry's window where that meets both neighbouring windows exactly;
    at a join whose windows leave a gap or overlap, the offsets between the
    samples m_j < m_{j+1} split at ``(m_j + m_{j+1}) // 2 + 1``, so each goes
    to the nearer sample (the newer one on a tie).

    ``runs`` lists the offsets as arithmetic runs, in order: a run
    ``(first_entry, count, first_offset, stride)`` holds entries
    ``first_entry .. first_entry + count - 1`` at offsets ``first_offset``,
    ``first_offset + stride``, ...  Full and short memory are one run; a
    geometric schedule is its dense head, one run per sampled interval and
    its dense tail (merged into the head where the two meet).  Each run is a
    basic strided slice of the history, which the solver reads in place.
    Validation checks that the runs cover the entries in order and that each
    run's first and last offsets are the entries' offsets.
    """

    offsets: np.ndarray
    weights: np.ndarray
    cells: np.ndarray = field(repr=False, compare=False)
    runs: tuple[tuple[int, int, int, int], ...] = field(compare=False)

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.int64)
        cells = np.asarray(self.cells, dtype=np.int64)
        if offsets.ndim != 1 or weights.ndim != 1 or offsets.size != weights.size:
            raise ValueError("offsets and weights must be 1D arrays of equal length")
        if offsets.size == 0:
            raise ValueError("a schedule must contain at least one entry")
        if offsets[0] < 0:
            raise ValueError("offsets must be >= 0")
        if not (offsets[1:] > offsets[:-1]).all():
            raise ValueError("offsets must be strictly increasing")
        if weights.min() < 1:
            raise ValueError("weights must be positive integers")
        if (
            cells.shape != (offsets.size + 1,)
            or cells[0] < 0
            or not (cells[:-1] <= offsets).all()
            or not (offsets < cells[1:]).all()
        ):
            raise ValueError("each cell must be a run of offsets holding its entry's offset")
        runs = tuple(self.runs)
        entry = 0
        for first, count, first_offset, stride in runs:
            if (
                first != entry
                or count < 1
                or stride < 1
                or first + count > offsets.size
                or offsets.item(first) != first_offset
                or offsets.item(first + count - 1) != first_offset + (count - 1) * stride
            ):
                raise ValueError(
                    "runs must cover the entries in order, each starting and "
                    "ending at its entries' offsets"
                )
            entry = first + count
        if entry != offsets.size:
            raise ValueError(
                f"runs cover {entry} entries, the schedule has {offsets.size}"
            )
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "runs", runs)
        offsets.setflags(write=False)
        weights.setflags(write=False)
        cells.setflags(write=False)

    def __len__(self) -> int:
        return int(self.offsets.size)

    def pairs(self) -> list[tuple[int, int]]:
        """The schedule as plain (offset, weight) tuples."""
        return [(int(m), int(w)) for m, w in zip(self.offsets, self.weights)]

    @property
    def weight_sum(self) -> int:
        return int(self.weights.sum())


def _checked_step(k: int) -> int:
    k = int(k)
    if k < 0:
        raise ValueError(f"step index k must be >= 0, got {k}")
    return k


def full_schedule(k: int) -> MemorySchedule:
    """Every offset 0..k with unit weight."""
    k = _checked_step(k)
    cells = np.arange(k + 2, dtype=np.int64)
    return MemorySchedule(
        offsets=cells[:-1],
        weights=np.ones(k + 1, dtype=np.int64),
        cells=cells,
        runs=((0, k + 1, 0, 1),),
    )


def short_schedule(k: int, length: float, dt: float) -> MemorySchedule:
    """Offsets 0..min(floor(length / dt), k) with unit weight.

    ``length`` is the memory horizon in simulation time; dividing by the step
    size converts it to a step count.
    """
    k = _checked_step(k)
    if not length > 0 or not math.isfinite(length):
        raise ValueError(f"memory length must be positive and finite, got {length!r}")
    if not dt > 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    horizon = min(int(math.floor(length / dt)), k)
    cells = np.arange(horizon + 2, dtype=np.int64)
    return MemorySchedule(
        offsets=cells[:-1],
        weights=np.ones(horizon + 1, dtype=np.int64),
        cells=cells,
        runs=((0, horizon + 1, 0, 1),),
    )


def adaptive_schedule(k: int, base: int) -> MemorySchedule:
    """Dense recent window plus geometrically thinned older history.

    Offsets 0..min(base, k) are always kept at unit weight.  Beyond that,
    interval i (i >= 2) nominally spans offsets [base**(i-1) + i, base**i]
    and is sampled at stride 2i - 1 with weight 2i - 1, admitting a sample
    at offset m only while m + i - 1 <= k and m <= base**i.  History older
    than the last sampled interval (or the dense window, if no interval
    admitted anything) is appended at unit weight so the oldest steps --
    where the weights' slow power-law tail still matters -- are never lost.
    """
    k = _checked_step(k)
    base = int(base)
    if base < 2:
        raise ValueError(f"adaptive base must be >= 2, got {base}")
    if k <= base:
        return full_schedule(k)

    offsets: list[np.ndarray] = [np.arange(base + 1, dtype=np.int64)]
    weights: list[np.ndarray] = [np.ones(base + 1, dtype=np.int64)]
    # Entry count so far, the runs so far, and (entry index, cell start) for
    # each join whose windows leave a gap or overlap.
    n = base + 1
    runs: list[tuple[int, int, int, int]] = [(0, base + 1, 0, 1)]
    splits: list[tuple[int, int]] = []

    # Newest sample so far and the end (exclusive) of its window.
    last_m, end = base, base + 1
    last_i: int | None = None
    i = 2
    while True:
        start = base ** (i - 1) + i
        if start > k:
            break
        stride = 2 * i - 1
        m_hi = min(base**i, k - i + 1)
        if m_hi >= start:
            count = (m_hi - start) // stride + 1
            if start - (i - 1) != end:
                splits.append((n, (last_m + start) // 2 + 1))
            offsets.append(np.arange(start, m_hi + 1, stride, dtype=np.int64))
            weights.append(np.full(count, stride, dtype=np.int64))
            runs.append((n, count, start, stride))
            n += count
            last_m = start + (count - 1) * stride
            last_i = i
            end = last_m + i
        i += 1

    if last_i is None:
        tail_start = base + 1
    elif k > base**last_i:
        # History extends past the last interval's nominal end; resume dense
        # sampling there rather than at the interval's final sample.  The
        # few offsets between them are not visited; the cells hand their psi
        # to the nearer of the two samples.
        tail_start = base**last_i + 1
    else:
        tail_start = last_m + last_i
    if tail_start <= k:
        if tail_start != end:
            splits.append((n, (last_m + tail_start) // 2 + 1))
        tail = np.arange(tail_start, k + 1, dtype=np.int64)
        offsets.append(tail)
        weights.append(np.ones(tail.size, dtype=np.int64))
        if last_i is None:
            # The tail continues the dense head: one run 0..k.
            runs[0] = (0, k + 1, 0, 1)
        else:
            runs.append((n, tail.size, tail_start, 1))

    offset_array = np.concatenate(offsets)
    weight_array = np.concatenate(weights)
    # Cells are the centred windows, except at the joins listed in splits.
    cells = np.empty(offset_array.size + 1, dtype=np.int64)
    np.subtract(offset_array, (weight_array - 1) // 2, out=cells[:-1])
    cells[-1] = k + 1
    for entry, cell_start in splits:
        cells[entry] = cell_start
    return MemorySchedule(
        offsets=offset_array, weights=weight_array, cells=cells, runs=tuple(runs)
    )


@dataclass(frozen=True)
class CoverageStats:
    """How a schedule's weighted samples tile the offsets 0..k."""

    k: int
    entry_count: int
    weight_sum: int
    gap_count: int
    overlap_count: int
    gap_offsets: tuple[int, ...]
    overlap_offsets: tuple[int, ...]


def coverage_report(schedule: MemorySchedule, k: int) -> CoverageStats:
    """Account for every offset in 0..k under the schedule's stand-in windows.

    A weight-w sample at offset m covers the w consecutive offsets centred on
    m (clipped to [0, k]).  Offsets covered by no window are gaps; offsets
    covered more than once are overlaps.
    """
    k = _checked_step(k)
    if int(schedule.offsets[-1]) > k:
        raise ValueError(
            f"schedule reaches offset {int(schedule.offsets[-1])}, beyond k={k}"
        )
    counts = np.zeros(k + 1, dtype=np.int64)
    for m, w in zip(schedule.offsets.tolist(), schedule.weights.tolist()):
        half = (w - 1) // 2
        lo = max(0, m - half)
        hi = min(k, m + half)
        counts[lo : hi + 1] += 1
    gaps = np.flatnonzero(counts == 0)
    overlaps = np.flatnonzero(counts > 1)
    return CoverageStats(
        k=k,
        entry_count=len(schedule),
        weight_sum=schedule.weight_sum,
        gap_count=int(gaps.size),
        overlap_count=int(overlaps.size),
        gap_offsets=tuple(int(g) for g in gaps),
        overlap_offsets=tuple(int(o) for o in overlaps),
    )


@dataclass(frozen=True)
class FullMemory:
    """Visit the entire history every step."""

    tag = "full"

    @property
    def param(self) -> float:
        return 0.0

    def schedule_at(self, k: int, dt: float) -> MemorySchedule:
        return full_schedule(k)


@dataclass(frozen=True)
class ShortMemory:
    """Visit only the most recent ``length`` units of simulation time."""

    length: float
    tag = "short"

    def __post_init__(self) -> None:
        if not self.length > 0 or not math.isfinite(self.length):
            raise ValueError(
                f"short-memory length must be positive and finite, got {self.length!r}"
            )
        object.__setattr__(self, "length", float(self.length))

    @property
    def param(self) -> float:
        return self.length

    def schedule_at(self, k: int, dt: float) -> MemorySchedule:
        return short_schedule(k, self.length, dt)


@dataclass(frozen=True)
class AdaptiveMemory:
    """Dense recent window of ``base`` steps, geometric thinning beyond it."""

    base: int
    tag = "adaptive"

    def __post_init__(self) -> None:
        base = self.base
        if not isinstance(base, (int, np.integer)) or isinstance(base, bool):
            raise ValueError(f"adaptive base must be an integer, got {base!r}")
        if base < 2:
            raise ValueError(f"adaptive base must be >= 2, got {base}")
        object.__setattr__(self, "base", int(base))

    @property
    def param(self) -> float:
        return float(self.base)

    def schedule_at(self, k: int, dt: float) -> MemorySchedule:
        return adaptive_schedule(k, self.base)


MemoryStrategy = Union[FullMemory, ShortMemory, AdaptiveMemory]

_SPEC_RE = re.compile(r"^\s*(full|short|adaptive)\s*(?::\s*(\S+)\s*)?$")


def parse_memory_spec(text: str) -> MemoryStrategy:
    """Parse a strategy spec string: ``full``, ``short:<length>``, ``adaptive:<base>``."""
    match = _SPEC_RE.match(text)
    if not match:
        raise ValueError(
            f"bad memory spec {text!r}; expected 'full', 'short:<length>' or 'adaptive:<base>'"
        )
    kind, arg = match.group(1), match.group(2)
    if kind == "full":
        if arg is not None:
            raise ValueError(f"'full' takes no parameter, got {text!r}")
        return FullMemory()
    if arg is None:
        raise ValueError(f"memory spec {text!r} is missing its parameter")
    if kind == "short":
        try:
            length = float(arg)
        except ValueError:
            raise ValueError(f"short-memory length {arg!r} is not a number") from None
        return ShortMemory(length=length)
    try:
        base = int(arg)
    except ValueError:
        raise ValueError(f"adaptive base {arg!r} is not an integer") from None
    return AdaptiveMemory(base=base)


def format_memory_spec(strategy: MemoryStrategy) -> str:
    """Inverse of :func:`parse_memory_spec` (round-trip exact)."""
    if isinstance(strategy, FullMemory):
        return "full"
    if isinstance(strategy, ShortMemory):
        text = repr(strategy.length)
        if text.endswith(".0"):
            text = text[:-2]
        return f"short:{text}"
    if isinstance(strategy, AdaptiveMemory):
        return f"adaptive:{strategy.base}"
    raise TypeError(f"not a memory strategy: {strategy!r}")
