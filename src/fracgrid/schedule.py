"""History sampling schedules: which past offsets a step visits, with what weight.

A schedule for step k lists history offsets m (0 = the current step's stencil,
k = the oldest) paired with integer weights.  Full memory visits every offset
with unit weight; short memory truncates the list at a fixed horizon; the
geometric schedule keeps a dense recent window and thins older history into
geometrically growing intervals, sampling each at a stride equal to the weight
it assigns, so one stored field stands in for a run of its neighbours.

A schedule is stored as a few arithmetic *runs* ``(first_offset, count,
stride)``: ``count`` entries at offsets ``first_offset``, ``first_offset +
stride``, ..., each weighted by the run's stride.  Full and short memory are
one run; a geometric schedule is its dense head, one run per sampled interval
and its dense tail.  Offsets, weights and pairs are derived from the runs.

Coefficient rule: every entry stands for a *cell* of consecutive offsets that
contains its own offset, and the solver weighs the stored field at m by the
sum of psi over that cell.  :func:`cell_bounds` places a run's cells; the
:class:`MemorySchedule` spans settle the joins between runs.  The cells of a
geometric schedule therefore tile 0..k exactly, and its coefficients sum to
the full-memory weight mass.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np


@dataclass(frozen=True)
class MemorySchedule:
    """Weighted history offsets visited by one backward summation.

    ``runs`` is the whole schedule: a run ``(first_offset, count, stride)``
    holds ``count`` entries at offsets ``first_offset + j * stride`` (j < count),
    each of weight ``stride``.  Runs are listed newest first and each starts
    past the previous run's last offset, so offsets are strictly increasing.
    Each run is a basic strided slice of the history, which the solver reads
    in place.

    A weight-w entry at offset m declares that it stands in for the w
    consecutive offsets centred on m (its window, which :func:`coverage_report`
    accounts for), and the solver weighs it by the psi mass of its *cell*;
    :func:`cell_bounds` places a run's cells inside its span.
    ``spans[r] = (lo, hi)`` is the cell range
    ``lo <= x < hi`` of run r as a whole: at a join whose windows meet the
    shared bound is kept; where they leave a gap or overlap, the offsets
    between the samples m < m' split at ``(m + m') // 2 + 1``, so each goes to
    the nearer sample (the newer one on a tie).  The first span starts at the
    first window's start (never below 0) and the last ends where the last
    window ends.
    """

    runs: tuple[tuple[int, int, int], ...]
    spans: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        runs = tuple(self.runs)
        if not runs:
            raise ValueError("a schedule must contain at least one run")
        # bounds[r] is where run r's cells start; the last entry ends them.
        bounds: list[int] = []
        for first_offset, count, stride in runs:
            if count < 1:
                raise ValueError(f"a run must hold at least one entry, got count {count}")
            if stride < 1:
                raise ValueError(f"strides must be positive integers, got {stride}")
            if first_offset < 0:
                raise ValueError(f"offsets must be >= 0, got {first_offset}")
            half = (stride - 1) // 2
            start = first_offset - half
            if not bounds:
                bounds.append(max(start, 0))
            elif first_offset <= last:
                raise ValueError(
                    f"offsets must be strictly increasing: a run starts at "
                    f"{first_offset}, after offset {last}"
                )
            else:
                bounds.append(start if start == end else (last + first_offset) // 2 + 1)
            last = first_offset + (count - 1) * stride
            end = last + half + 1
        bounds.append(end)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "spans", tuple(zip(bounds[:-1], bounds[1:])))

    def __len__(self) -> int:
        return sum(count for _, count, _ in self.runs)

    @property
    def offsets(self) -> np.ndarray:
        """Every visited offset, in order (a new read-only array)."""
        offsets = np.concatenate(
            [np.arange(m, m + count * stride, stride) for m, count, stride in self.runs]
        )
        offsets.setflags(write=False)
        return offsets

    def pairs(self) -> list[tuple[int, int]]:
        """The schedule as plain (offset, weight) tuples."""
        return [
            (m + j * stride, stride)
            for m, count, stride in self.runs
            for j in range(count)
        ]

    @property
    def weight_sum(self) -> int:
        return sum(count * stride for _, count, stride in self.runs)

    @property
    def reach(self) -> int:
        """Oldest offset whose psi mass the schedule's cells take in."""
        return self.spans[-1][1] - 1


def _checked_step(k: int) -> int:
    k = int(k)
    if k < 0:
        raise ValueError(f"step index k must be >= 0, got {k}")
    return k


def full_schedule(k: int) -> MemorySchedule:
    """Every offset 0..k with unit weight."""
    k = _checked_step(k)
    return MemorySchedule(((0, k + 1, 1),))


def short_horizon(length: float, dt: float) -> int:
    """Steps in a memory horizon of ``length`` simulation time: floor(length / dt).

    A ratio within a relative 1e-9 of an integer is that integer: dt may not
    be exact in binary (0.3 / 0.1 == 2.9999999999999996).
    """
    if not length > 0 or not math.isfinite(length):
        raise ValueError(f"memory length must be positive and finite, got {length!r}")
    if not dt > 0 or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    ratio = length / dt
    nearest = round(ratio)
    return nearest if math.isclose(ratio, nearest, rel_tol=1e-9) else math.floor(ratio)


def short_schedule(k: int, length: float, dt: float) -> MemorySchedule:
    """Offsets 0..min(:func:`short_horizon`, k) with unit weight."""
    k = _checked_step(k)
    horizon = short_horizon(length, dt)
    return full_schedule(k) if k < horizon else _steady_short_schedule(horizon)


# Short memory's schedule at every step k >= horizon is full_schedule(horizon).
_steady_short_schedule = functools.lru_cache(maxsize=64)(full_schedule)


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

    runs = [(0, base + 1, 1)]
    # Newest sample so far and the interval that sampled it.
    last_m = base
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
            runs.append((start, count, stride))
            last_m = start + (count - 1) * stride
            last_i = i
        i += 1

    if last_i is None:
        # The tail continues the dense head: one run 0..k.
        return full_schedule(k)
    if k > base**last_i:
        # History extends past the last interval's nominal end; resume dense
        # sampling there rather than at the interval's final sample.  The
        # few offsets between them are not visited; the cells hand their psi
        # to the nearer of the two samples.
        tail_start = base**last_i + 1
    else:
        tail_start = last_m + last_i
    if tail_start <= k:
        runs.append((tail_start, k - tail_start + 1, 1))
    return MemorySchedule(tuple(runs))


def cell_bounds(run: tuple[int, int, int], span: tuple[int, int]) -> np.ndarray:
    """The ``count + 1`` cell bounds of ``run`` inside ``span``, oldest first.

    They are the span's end, the start of every cell but the newest, then the
    span's start, so the entry stored i-th, oldest first, stands for the
    offsets ``bounds[i + 1] <= x < bounds[i]``.  A cell starts where its
    entry's window starts, ``(stride - 1) // 2`` offsets below the entry, so
    inside a run the cells are ``stride`` offsets wide and meet; the spans
    settle the joins between runs (see :class:`MemorySchedule`).
    """
    m, count, stride = run
    start = m - (stride - 1) // 2
    bounds = np.arange(start + count * stride, start - 1, -stride)
    bounds[0], bounds[-1] = span[1], span[0]
    return bounds


@dataclass(frozen=True)
class CoverageStats:
    """How a schedule's weighted samples tile the offsets 0..k."""

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
    pairs = schedule.pairs()
    if pairs[-1][0] > k:
        raise ValueError(f"schedule reaches offset {pairs[-1][0]}, beyond k={k}")
    counts = np.zeros(k + 1, dtype=np.int64)
    for m, w in pairs:
        half = (w - 1) // 2
        lo = max(0, m - half)
        hi = min(k, m + half)
        counts[lo : hi + 1] += 1
    gaps = np.flatnonzero(counts == 0)
    overlaps = np.flatnonzero(counts > 1)
    return CoverageStats(
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

    def reach(self, n_steps: int, dt: float) -> int:
        """Oldest offset a run of ``n_steps`` steps can read."""
        return n_steps


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

    def reach(self, n_steps: int, dt: float) -> int:
        return min(short_horizon(self.length, dt), n_steps)


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

    def reach(self, n_steps: int, dt: float) -> int:
        # The dense tail runs to offset k, so every step is read again.
        return n_steps


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
