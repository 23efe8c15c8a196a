"""Explicit fractional-order stepper for 2D reaction-diffusion.

Each step advances the field by

    u_next = u * (1 - beta * dt) + alpha * dt**gamma / dx**2 * S_k

where S_k is the weighted backward sum of stored stencil fields dictated by
the active memory schedule.  The sum contracts each arithmetic run of the
schedule with one BLAS matrix-vector product: the run's coefficients, stored
oldest first like the history itself, times a strided view of the history
read in place.  A dense run's coefficients are a slice of the psi table kept
in that order, so no step reverses or copies them.  A schedule that visits
the contiguous offsets 0..M (full and short memory, and any truncated
schedule that happens to visit every offset) is one run and one contraction,
so it reproduces the full-memory result bit for bit.

Besides the contraction a step costs a fixed few passes over one field,
whatever the strategy: the update scales the contraction's fresh result in
place and adds ``u * (1 - beta * dt)`` to it, the boundary ring is zeroed,
the peak |u| is one max and one min, the stencil fills one new field from
contiguous slices, and the history copies that field into its slot (twice
in a mirrored ring).  A run's coefficients are built only in the step where
the run or its span changes; every other step reuses them.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coefficients import PsiTable, build_table, checked_gamma
from .grid import (
    DEFAULT_HISTORY_BYTE_CAP,
    Grid2D,
    HistoryBuffer,
    stencil,
)
from .schedule import FullMemory, MemorySchedule, MemoryStrategy

log = logging.getLogger("fracgrid")

# A stable run keeps peak |u| at or near its initial peak, while an unstable
# mode grows geometrically; a run past this multiple of the initial peak has
# blown up, and the factor only decides how early that is caught.
GROWTH_LIMIT = 1e3


def stability_limit(gamma: float) -> float:
    """Von Neumann bound on alpha * dt**gamma / dx**2 for the explicit 2D step.

    With ratio r the step amplifies the checkerboard mode (stencil eigenvalue
    -8) by a factor g solving g = 1 - 8 r (1 - 1/g)**(1 - gamma), the psi
    weights' generating function at z = 1/g.  The factor leaves the unit disc
    at g = -1, where r = 2**(gamma - 3): 0.25 for classical diffusion and
    less for subdiffusion.

    This is the full-memory bound.  A thinned schedule weighs the history
    differently and can diverge just below it (adaptive:3 at gamma 0.5 and
    ratio 0.1767 grows past ``GROWTH_LIMIT`` by step 324); the growth guard
    in :func:`step` is what stops such a run.
    """
    return 2.0 ** (gamma - 3.0)


class DivergenceError(RuntimeError):
    """A step's peak |u| is not finite or exceeds ``GROWTH_LIMIT`` times the initial peak."""

    def __init__(self, step: int, peak: float):
        super().__init__(
            f"solution diverged at step {step}: max |u| reached {peak!r}"
        )
        self.step = step
        self.peak = peak


class StabilityWarning(UserWarning):
    """The stability ratio exceeds the full-memory bound; results may blow up.

    The bound is :func:`stability_limit`.  Staying under it does not make a
    thinned schedule stable; a run that diverges raises
    :class:`DivergenceError` either way.
    """


@dataclass(frozen=True)
class SimulationConfig:
    """Fully-resolved parameters of one run.

    Parameters
    ----------
    gamma : float
        Anomalous exponent in (0, 1]; 1 recovers classical diffusion.
    alpha : float
        Diffusion coefficient, >= 0.
    beta : float
        Linear reaction (decay) rate, >= 0.
    dt, dx : float
        Time step and grid spacing, > 0.
    nx, ny : int
        Grid extent including the pinned-zero boundary ring; >= 3 each.
    n_steps : int
        Number of steps to take, >= 0.
    sources : tuple of (j, l, value)
        Initial point concentrations in the grid interior.
    strategy : memory strategy
        Which history offsets each step visits (full / short / adaptive).
    snapshot_every : int or None
        Snapshot cadence in steps; None picks ~100 snapshots per run.
    history_byte_cap : int or None
        Ceiling on the stencil-history allocation; None disables the check.
    """

    gamma: float
    alpha: float
    beta: float
    dt: float
    dx: float
    nx: int
    ny: int
    n_steps: int
    sources: tuple[tuple[int, int, float], ...] = ()
    strategy: MemoryStrategy = field(default_factory=FullMemory)
    snapshot_every: int | None = None
    history_byte_cap: int | None = DEFAULT_HISTORY_BYTE_CAP

    def __post_init__(self) -> None:
        checked_gamma(self.gamma)
        if not self.alpha >= 0.0 or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        if not self.beta >= 0.0 or not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not self.dt > 0.0 or not math.isfinite(self.dt):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not self.dx > 0.0 or not math.isfinite(self.dx):
            raise ValueError(f"dx must be positive and finite, got {self.dx!r}")
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid must be at least 3x3, got {self.nx}x{self.ny}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        seen: set[tuple[int, int]] = set()
        for j, l, value in self.sources:
            if not (1 <= j <= self.nx - 2 and 1 <= l <= self.ny - 2):
                raise ValueError(
                    f"source ({j}, {l}) is outside the interior of a "
                    f"{self.nx}x{self.ny} grid"
                )
            if not math.isfinite(value):
                raise ValueError(f"source ({j}, {l}) has non-finite value {value!r}")
            if (j, l) in seen:
                raise ValueError(f"duplicate source at ({j}, {l})")
            seen.add((j, l))
        limit = stability_limit(self.gamma)
        if self.stability_ratio > limit:
            warnings.warn(
                f"stability ratio alpha*dt**gamma/dx**2 = {self.stability_ratio:.4g} "
                f"exceeds the bound 2**(gamma-3) = {limit:.4g}; "
                "the explicit step may diverge",
                StabilityWarning,
                stacklevel=2,
            )

    @property
    def stability_ratio(self) -> float:
        return self.alpha * self.dt**self.gamma / self.dx**2

    @property
    def snapshot_cadence(self) -> int:
        """Steps between snapshots (about 100 per run unless pinned)."""
        if self.snapshot_every is not None:
            return self.snapshot_every
        return max(1, math.ceil(self.n_steps / 100))

    def initial_grid(self) -> Grid2D:
        return Grid2D.from_sources(self.nx, self.ny, self.dx, self.sources)


@dataclass(frozen=True)
class SimulationResult:
    """Snapshots, final state, stepping-loop wall time and history bytes of one run."""

    config: SimulationConfig
    snapshots: tuple[tuple[int, Grid2D], ...]
    final: Grid2D
    elapsed_seconds: float
    history_bytes: int


def entry_coefficients(schedule: MemorySchedule, table: PsiTable) -> list[np.ndarray]:
    """Per-run coefficients: the psi mass of the offsets each entry stands for.

    Returns one read-only C-contiguous array per run in storage order, oldest
    entry (the run's largest offset) first, which is the order the history
    keeps its fields in, so each run contracts with its history view as is.
    Each entry gets the sum of psi(x) over its cell (see
    :class:`MemorySchedule`), read off the table's prefix sums with one
    strided slice per run: inside a run the cells start ``stride`` offsets
    apart, and the run's span supplies its outer bounds.  An entry whose cell
    is just its own offset m gets psi(m) itself, bit for bit, so full and
    short memory and any schedule that visits every offset weigh history
    exactly alike; a dense run of unit cells is a view of the table's
    ``reversed_values``, never a copy.

    A run's coefficients depend only on the run, its span and the table.  A
    run whose ``(run, span)`` is in the table's ``memo`` is not computed
    again, and the memo is left holding exactly this schedule's computed
    runs: a stepping loop reuses every run the previous step shared with
    this one, and the memo never grows past one schedule.
    """
    values, prefix, rev = table.values, table.prefix, table.reversed_values
    cap = table.capacity
    memo = table.memo
    fresh = {}
    out = []
    for key in zip(schedule.runs, schedule.spans):
        (m, count, stride), (lo, hi) = key
        last = m + (count - 1) * stride
        if stride == 1 and lo == m and hi == last + 1:
            out.append(rev[cap - last : cap - m + 1])
            continue
        coeffs = memo.get(key)
        if coeffs is None:
            # Cell bounds, oldest first: hi, the start of every cell but the
            # newest, then lo.
            half = (stride - 1) // 2
            mass = np.empty(count + 1)
            mass[0] = prefix[hi]
            mass[1:-1] = prefix[m + stride - half : m + count * stride - half : stride][::-1]
            mass[-1] = prefix[lo]
            coeffs = mass[:-1] - mass[1:]
            if stride == 1:
                coeffs[1:-1] = rev[cap - last + 1 : cap - m]
            first_end = hi if count == 1 else m + stride - half
            last_start = lo if count == 1 else last - half
            if first_end - lo == 1:
                coeffs[-1] = values[m]
            if hi - last_start == 1:
                coeffs[0] = values[last]
            coeffs.setflags(write=False)
        fresh[key] = coeffs
        out.append(coeffs)
    memo.clear()
    memo.update(fresh)
    return out


def history_sum(
    history: HistoryBuffer,
    schedule: MemorySchedule,
    table: PsiTable,
    k: int,
) -> np.ndarray:
    """Weighted backward sum  S_k = sum over entries (m, cell) of  c * delta[k - m].

    The coefficient c of the entry at offset m is the sum of psi over the
    offsets its cell stands for (:func:`entry_coefficients`): psi(m) for a
    unit cell, and for a thinned entry the psi mass of the run of
    neighbouring steps it replaces, so a schedule whose cells tile 0..k
    carries the full-memory weight mass.

    ``history`` holds one stencil field per completed step, oldest first, so
    offset m maps to buffer entry k - m.  Each run of the schedule is one
    BLAS matrix-vector product of its storage-ordered coefficients with a
    view of the buffer, read in place as a (count, nx*ny) matrix whose rows
    are contiguous, and the partial sums are added.  A schedule that is the
    contiguous block 0..M is a single run read as one block, keeping results
    independent of strategy wherever the visited offsets coincide.  The sum
    is a new array, which the caller may overwrite.
    """
    k = int(k)
    if k < 0 or len(history) <= k:
        raise ValueError(
            f"step {k} needs {k + 1} history entries, buffer holds {len(history)}"
        )
    reach = schedule.reach
    if reach > k:
        raise ValueError(f"schedule reaches offset {reach}, beyond step {k}")
    if reach > table.capacity:
        raise ValueError(
            f"psi table covers offsets up to {table.capacity}, schedule needs {reach}"
        )
    runs = schedule.runs
    block = len(runs) == 1 and runs[0][0] == 0 and runs[0][2] == 1
    total = None
    for (m, count, stride), coeffs in zip(runs, entry_coefficients(schedule, table)):
        last = m + (count - 1) * stride
        if block:
            view = history.block(k - last, k)
        else:
            view = history.gather(k - last, k - m, stride)
        part = coeffs @ view.reshape(count, -1)
        if total is None:
            total = part
        else:
            total += part
    return total.reshape(history.field_shape)


def step(
    u: np.ndarray,
    history: HistoryBuffer,
    k: int,
    config: SimulationConfig,
    table: PsiTable,
    bound: float,
) -> np.ndarray:
    """Advance the field from step k to k+1 and record the new stencil field.

    Requires ``history`` to hold entries for steps 0..k already.  Returns the
    new field, computed in place in the history sum's result; raises :class:`DivergenceError` if its peak |u|
    is above ``bound`` or not finite (the bad field is not recorded).
    """
    schedule = config.strategy.schedule_at(k, config.dt)
    nxt = history_sum(history, schedule, table, k)
    decay = 1.0 - config.beta * config.dt
    diffuse = config.stability_ratio
    # u * decay + diffuse * S_k, bit for bit: IEEE + and * commute, and
    # u * 1.0 is u, so the product is skipped when there is no decay.
    nxt *= diffuse
    nxt += u if decay == 1.0 else u * decay
    nxt[:: nxt.shape[0] - 1] = 0.0
    nxt[:, :: nxt.shape[1] - 1] = 0.0
    # max |u| without an |u| array; a nan in nxt makes both reductions nan.
    peak = max(float(nxt.max()), -float(nxt.min()))
    # Also true for inf and nan.
    if not peak <= bound:
        if not math.isfinite(peak):
            finite = nxt[np.isfinite(nxt)]
            peak = float(np.abs(finite).max()) if finite.size else math.inf
        raise DivergenceError(k + 1, peak)
    history.append(stencil(nxt))
    return nxt


def run(config: SimulationConfig, *, progress_every: int = 0) -> SimulationResult:
    """Run a complete simulation from the configured initial grid.

    Snapshots are taken at step 0, every ``snapshot_cadence`` steps, and at
    the final step.  ``progress_every`` > 0 logs a progress line every that
    many steps.  The reported wall time covers only the stepping loop.
    A step whose peak |u| is not finite or exceeds ``GROWTH_LIMIT`` times the
    initial peak raises :class:`DivergenceError`.
    """
    # The history is the run's one large allocation; claim it first so the
    # memory cap is checked before any other work is done.  It keeps only
    # the fields the strategy can still reach.
    history = HistoryBuffer(
        config.n_steps + 1,
        (config.nx, config.ny),
        byte_cap=config.history_byte_cap,
        window=config.strategy.reach(config.n_steps, config.dt) + 1,
    )
    table = build_table(config.gamma, config.n_steps)
    u = config.initial_grid().data.copy()
    history.append(stencil(u))
    bound = GROWTH_LIMIT * float(np.abs(u).max())
    snapshots: list[tuple[int, Grid2D]] = [(0, Grid2D(u.copy(), config.dx))]
    cadence = config.snapshot_cadence

    start = time.perf_counter()
    # A blow-up overflows to inf (or inf - inf to nan) before it is caught;
    # step() reports it as a DivergenceError, not as a NumPy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.n_steps):
            u = step(u, history, k, config, table, bound)
            done = k + 1
            if done % cadence == 0 or done == config.n_steps:
                snapshots.append((done, Grid2D(u.copy(), config.dx)))
            if progress_every > 0 and done % progress_every == 0:
                log.info("step %d/%d", done, config.n_steps)
    elapsed = time.perf_counter() - start

    return SimulationResult(
        config=config,
        snapshots=tuple(snapshots),
        final=snapshots[-1][1],
        elapsed_seconds=elapsed,
        history_bytes=history.nbytes,
    )
