"""Accuracy-versus-runtime comparison of the history-memory strategies.

Every truncated or thinned strategy is scored against the full-memory run of
the same configuration: the full result is the reference, its own error is
zero by definition, and each alternative gets relative L2 / Linf errors of
its final field plus its own stepping wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid2D, slice_profile
from .schedule import AdaptiveMemory, FullMemory, ShortMemory
from .solver import DivergenceError, SimulationConfig, SimulationResult, run


@dataclass(frozen=True)
class BenchmarkRecord:
    """One strategy/parameter/gamma cell of the comparison table."""

    strategy: str
    param: float
    gamma: float
    elapsed_s: float
    err_l2_pct: float
    err_linf_pct: float
    message: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.message)


def relative_error(approx: Grid2D, reference: Grid2D) -> tuple[float, float]:
    """Relative L2 and Linf errors of ``approx`` against ``reference``, in percent.

    The denominators are the reference field's own norms, so the reference
    must not be identically zero.
    """
    if approx.data.shape != reference.data.shape:
        raise ValueError(
            f"shape mismatch: {approx.data.shape} vs {reference.data.shape}"
        )
    ref = reference.data
    diff = approx.data - ref
    ref_l2 = float(np.linalg.norm(ref))
    ref_linf = float(np.abs(ref).max())
    if ref_l2 == 0.0 or ref_linf == 0.0:
        raise ValueError("reference field is identically zero; errors are undefined")
    err_l2 = float(np.linalg.norm(diff)) / ref_l2 * 100.0
    err_linf = float(np.abs(diff).max()) / ref_linf * 100.0
    return err_l2, err_linf


def _timed_run(config: SimulationConfig, repeats: int) -> tuple[SimulationResult, float]:
    """Best-of-``repeats`` wall time; the returned result is from the last run."""
    best = np.inf
    result: SimulationResult | None = None
    for _ in range(repeats):
        result = run(config)
        best = min(best, result.elapsed_seconds)
    assert result is not None
    return result, best


def run_comparison(
    base_config: SimulationConfig,
    gammas: tuple[float, ...],
    short_lengths: tuple[float, ...],
    adaptive_bases: tuple[int, ...],
    *,
    repeats: int = 1,
) -> list[BenchmarkRecord]:
    """Score every (strategy, parameter) pair against full memory for each gamma.

    ``base_config`` must itself use full memory; its gamma is overridden by
    each entry of ``gammas`` in turn.  A run that diverges produces a record
    with NaN errors and the failure message instead of aborting the sweep.
    Records come back sorted by (gamma, strategy name, parameter).  Only
    final fields are scored, so no run is given a snapshot sink.
    """
    if not isinstance(base_config.strategy, FullMemory):
        raise ValueError("comparison reference must use the full-memory strategy")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not gammas:
        raise ValueError("at least one gamma is required")

    full = base_config.strategy
    candidates = [ShortMemory(length=float(length)) for length in short_lengths] + [
        AdaptiveMemory(base=int(base)) for base in adaptive_bases
    ]
    records: list[BenchmarkRecord] = []
    for gamma in gammas:
        ref_config = replace(base_config, gamma=float(gamma))
        reference, ref_elapsed = _timed_run(ref_config, repeats)
        records.append(
            BenchmarkRecord(
                strategy=full.tag,
                param=full.param,
                gamma=float(gamma),
                elapsed_s=ref_elapsed,
                err_l2_pct=0.0,
                err_linf_pct=0.0,
            )
        )
        for strategy in candidates:
            config = replace(ref_config, strategy=strategy)
            try:
                result, elapsed = _timed_run(config, repeats)
            except DivergenceError as exc:
                elapsed = err_l2 = err_linf = float("nan")
                message = str(exc)
            else:
                err_l2, err_linf = relative_error(result.final, reference.final)
                message = ""
            records.append(
                BenchmarkRecord(
                    strategy=strategy.tag,
                    param=strategy.param,
                    gamma=float(gamma),
                    elapsed_s=elapsed,
                    err_l2_pct=err_l2,
                    err_linf_pct=err_linf,
                    message=message,
                )
            )
    records.sort(key=lambda r: (r.gamma, r.strategy, r.param))
    return records


@dataclass(frozen=True)
class GammaSweepEntry:
    """Final-state profile and source-cell time trace for one gamma."""

    gamma: float
    profile: np.ndarray
    trace_steps: np.ndarray
    trace_values: np.ndarray


def source_cell(config: SimulationConfig) -> tuple[int, int]:
    """Cell whose time trace a sweep records: the strongest source, else the centre."""
    if config.sources:
        j, l, _ = max(config.sources, key=lambda s: (abs(s[2]), -s[0], -s[1]))
        return int(j), int(l)
    return config.nx // 2, config.ny // 2


def profile_and_trace(
    final: Grid2D, cell: tuple[int, int], trace: list[tuple[int, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final profile through ``cell``'s row, and the steps and values of its trace.

    ``trace`` holds ``(step, value)`` of the cell at each snapshot step.
    """
    steps = np.array([step for step, _ in trace], dtype=np.int64)
    values = np.array([value for _, value in trace], dtype=np.float64)
    return slice_profile(final, cell[1]), steps, values


def gamma_sweep(
    base_config: SimulationConfig,
    gammas: tuple[float, ...],
) -> list[GammaSweepEntry]:
    """Run the same full-memory configuration across several gammas.

    For each gamma this records the final-state profile along the row through
    the traced cell and that cell's concentration at every snapshot step;
    a run keeps no snapshot field, only that cell's values.
    """
    if not isinstance(base_config.strategy, FullMemory):
        raise ValueError("gamma sweeps use the full-memory strategy")
    if not gammas:
        raise ValueError("at least one gamma is required")
    cell = source_cell(base_config)
    entries: list[GammaSweepEntry] = []
    for gamma in gammas:
        trace: list[tuple[int, float]] = []
        result = run(
            replace(base_config, gamma=float(gamma)),
            on_snapshot=lambda step, field: trace.append((step, field[cell])),
        )
        entries.append(
            GammaSweepEntry(float(gamma), *profile_and_trace(result.final, cell, trace))
        )
    return entries
