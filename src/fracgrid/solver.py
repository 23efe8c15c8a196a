"""Explicit fractional-order stepper for 2D reaction-diffusion.

Each step advances the field by

    u_next = u * (1 - beta * dt) + alpha * dt**gamma / dx**2 * S_k

where S_k is the weighted backward sum of stored stencil fields dictated by
the active memory schedule.  :meth:`PsiTable.coefficients` weighs each run
of the schedule by the psi mass of its cells (placed by
:func:`~fracgrid.schedule.cell_bounds`), stored oldest first like the
history itself, and :meth:`HistoryBuffer.weighted_sum` contracts them with
the stored fields in storage order.  A dense run's coefficients are a slice
of the psi table kept in that order, so no step reverses or copies them, and
a schedule that visits every offset reproduces the full-memory result bit
for bit.

Besides the contraction a step costs a fixed few passes over one field,
whatever the strategy: the history copies the sum's interior into a zeroed
field, the update scales that field in place and adds
``u * (1 - beta * dt)`` to it, the peak |u| is one max and one min, the
stencil fills the interior of one new array, and the history copies that
interior in.  No step writes, reads or stores a boundary ring apart from
the zeroed field the sum comes in: its ring is +0, and scaling it by a
ratio >= 0 and adding ``u`` keeps it +0.  The table builds a run's
coefficients only in the step where the run or its span changes; every
other step reuses them.

A run holds its history, the field it advances and a step's few working
fields.  Snapshots go to the caller: ``run`` hands each one, uncopied, to
an ``on_snapshot`` sink, called inside the timed stepping loop, and keeps
none itself.
"""

from __future__ import annotations

import functools
import logging
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coefficients import PsiTable, build_table, checked_gamma
from .grid import DEFAULT_HISTORY_BYTE_CAP, Grid2D, HistoryBuffer, stencil
from .schedule import FieldError, FullMemory, MemorySchedule, MemoryStrategy
from .schedule import checked_int, checked_real

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

    :func:`run` issues it as a run starts; building a config warns nothing.
    The bound is :func:`stability_limit`.  Staying under it does not make a
    thinned schedule stable; a run that diverges raises
    :class:`DivergenceError` either way.
    """


@dataclass(frozen=True)
class SimulationConfig:
    """Fully-resolved parameters of one run.

    Building one checks every value and warns nothing; :func:`run` does.
    It alone checks the grid extent and sources and builds the initial field
    (:meth:`initial_grid`).  Each number is read by ``schedule.checked_int``
    or ``schedule.checked_real`` and kept as the plain int or float returned;
    a value it refuses raises ``schedule.FieldError`` naming the field.

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
        Initial point concentrations: integer cells of the grid interior, at
        most one source per cell, finite values (stored as float).
    strategy : memory strategy
        Which history offsets each step visits (full / short / adaptive).
    snapshot_every : int or None
        Steps between the calls of :func:`run`'s ``on_snapshot`` sink, >= 1;
        None picks ~100 calls per run.
    history_byte_cap : int or None
        Stencil-history allocation cap in bytes, >= 0; None disables it.
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
        store = functools.partial(object.__setattr__, self)
        store("gamma", checked_gamma(self.gamma))
        for name in ("alpha", "beta", "dt", "dx"):
            store(name, checked_real(name, getattr(self, name), 0, strict=name in ("dt", "dx")))
        for name in ("nx", "ny", "n_steps"):
            store(name, checked_int(name, getattr(self, name), 0))
        for name, minimum in (("snapshot_every", 1), ("history_byte_cap", 0)):
            if getattr(self, name) is not None:
                store(name, checked_int(name, getattr(self, name), minimum))
        if self.nx < 3 or self.ny < 3:
            raise FieldError("grid", f"must be at least 3x3, got {self.nx}x{self.ny}")
        if not isinstance(self.strategy, MemoryStrategy):
            raise FieldError("strategy", f"must be a memory strategy, got {self.strategy!r}")
        cells: dict[tuple[int, int], float] = {}
        for j, l, value in self.sources:
            j, l = checked_int("source j", j), checked_int("source l", l)
            name = f"source ({j}, {l})"
            if not (1 <= j <= self.nx - 2 and 1 <= l <= self.ny - 2):
                raise FieldError(name, f"is outside the interior of a {self.nx}x{self.ny} grid")
            value = checked_real(name, value)
            if (j, l) in cells:
                raise FieldError(name, "is a duplicate")
            cells[j, l] = value
        store("sources", tuple((*cell, v) for cell, v in cells.items()))

    @property
    def stability_ratio(self) -> float:
        return self.alpha * self.dt**self.gamma / self.dx**2

    @property
    def snapshot_cadence(self) -> int:
        """Steps between snapshot sink calls (about 100 per run unless pinned)."""
        if self.snapshot_every is not None:
            return self.snapshot_every
        return max(1, math.ceil(self.n_steps / 100))

    def initial_grid(self) -> Grid2D:
        """A new zero field of shape (nx, ny) holding each source at its cell."""
        data = np.zeros((self.nx, self.ny))
        for j, l, value in self.sources:
            data[j, l] = value
        return Grid2D(data)


@dataclass(frozen=True)
class SimulationResult:
    """Final state, stepping-loop wall time and history bytes of one run."""

    config: SimulationConfig
    final: Grid2D
    elapsed_seconds: float
    history_bytes: int


def history_sum(
    history: HistoryBuffer,
    schedule: MemorySchedule,
    table: PsiTable,
    k: int,
) -> np.ndarray:
    """Weighted backward sum  S_k = sum over entries (m, cell) of  c * delta[k - m].

    The coefficient c of the entry at offset m is the psi mass of its cell
    (:func:`~fracgrid.schedule.cell_bounds`, weighed by
    :meth:`PsiTable.coefficients`): psi(m) for a unit cell, and for a thinned
    entry the psi mass of the run of neighbouring steps it replaces, so a
    schedule whose cells tile 0..k carries the full-memory weight mass.

    ``history`` holds one stencil field per completed step, so offset m maps
    to buffer entry k - m; :meth:`HistoryBuffer.weighted_sum` contracts the
    runs.  The sum is a new array, which the caller may overwrite.
    """
    k = int(k)
    if k < 0 or len(history) <= k:
        raise ValueError(
            f"step {k} needs {k + 1} history entries, buffer holds {len(history)}"
        )
    reach = schedule.reach
    if reach > k:
        raise ValueError(f"schedule reaches offset {reach}, beyond step {k}")
    return history.weighted_sum(schedule.runs, table.coefficients(schedule), k)


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
    new field, computed in place in the history sum's result, whose boundary
    ring is +0 as the sum's is; raises :class:`DivergenceError` if its peak
    |u| is above ``bound`` or not finite (the bad field is not recorded).
    """
    schedule = config.strategy.schedule_at(k, config.dt)
    nxt = history_sum(history, schedule, table, k)
    decay = 1.0 - config.beta * config.dt
    diffuse = config.stability_ratio
    # u * decay + diffuse * S_k, bit for bit: IEEE + and * commute, and
    # u * 1.0 is u, so the product is skipped when there is no decay.
    nxt *= diffuse
    nxt += u if decay == 1.0 else u * decay
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


def run(
    config: SimulationConfig,
    *,
    progress_every: int = 0,
    on_snapshot: Callable[[int, np.ndarray], object] | None = None,
) -> SimulationResult:
    """Run a complete simulation from the configured initial grid.

    ``on_snapshot(step, field)``, if given, is called at step 0, every
    ``snapshot_cadence`` steps and at the final step, once each, with the
    field just computed: read-only, not copied and not kept by the run; the
    last one is ``result.final.data``.  ``progress_every`` > 0 logs a
    progress line every that many steps.  The reported wall time covers only
    the stepping loop, sink calls included.
    A ratio above :func:`stability_limit` warns once, naming the caller.
    A step whose peak |u| is not finite or exceeds ``GROWTH_LIMIT`` times the
    initial peak raises :class:`DivergenceError`.
    """
    progress_every = checked_int("progress_every", progress_every, 0)
    # The history is the run's one large allocation; claim it first so the
    # memory cap is checked before any other work is done.  It keeps only
    # the fields the strategy can still reach.
    history = HistoryBuffer(
        config.n_steps + 1,
        (config.nx, config.ny),
        byte_cap=config.history_byte_cap,
        window=config.strategy.reach(config.n_steps, config.dt) + 1,
    )
    limit = stability_limit(config.gamma)
    if config.stability_ratio > limit:
        warnings.warn(
            f"stability ratio alpha*dt**gamma/dx**2 = {config.stability_ratio:.4g} "
            f"exceeds the bound 2**(gamma-3) = {limit:.4g}; "
            "the explicit step may diverge",
            StabilityWarning,
            stacklevel=2,
        )
    table = build_table(config.gamma, config.n_steps)
    # Read-only from the start: no step writes to the field it advances.
    u = config.initial_grid().data
    history.append(stencil(u))
    bound = GROWTH_LIMIT * float(np.abs(u).max())
    cadence = config.snapshot_cadence

    start = time.perf_counter()
    if on_snapshot is not None:
        on_snapshot(0, u)
    # A blow-up overflows to inf (or inf - inf to nan) before it is caught;
    # step() reports it as a DivergenceError, not as a NumPy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.n_steps):
            u = step(u, history, k, config, table, bound)
            done = k + 1
            if on_snapshot is not None and (done % cadence == 0 or done == config.n_steps):
                u.setflags(write=False)
                on_snapshot(done, u)
            if progress_every > 0 and done % progress_every == 0:
                log.info("step %d/%d", done, config.n_steps)
    elapsed = time.perf_counter() - start

    return SimulationResult(
        config=config,
        final=Grid2D(u),
        elapsed_seconds=elapsed,
        history_bytes=history.nbytes,
    )
