"""Unit tests for the explicit fractional stepper."""

import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracgrid.coefficients import build_table
from fracgrid.grid import HistoryBuffer, MemoryBudgetError, stencil
from fracgrid.schedule import (
    AdaptiveMemory,
    FullMemory,
    ShortMemory,
    adaptive_schedule,
    full_schedule,
)
from fracgrid.solver import (
    GROWTH_LIMIT,
    DivergenceError,
    SimulationConfig,
    StabilityWarning,
    entry_coefficients,
    history_sum,
    run,
    step,
)


def make_config(**kwargs):
    defaults = dict(
        gamma=0.5,
        alpha=1.0,
        beta=0.0,
        dt=1.0,
        dx=10.0,
        nx=8,
        ny=8,
        n_steps=10,
        sources=((4, 4, 10.0),),
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, 2.0])
    def test_gamma_range(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            make_config(gamma=gamma)

    def test_parameter_signs(self):
        with pytest.raises(ValueError, match="alpha"):
            make_config(alpha=-1.0)
        with pytest.raises(ValueError, match="beta"):
            make_config(beta=-0.1)
        with pytest.raises(ValueError, match="dt"):
            make_config(dt=0.0)
        with pytest.raises(ValueError, match="dx"):
            make_config(dx=-5.0)
        with pytest.raises(ValueError, match="3x3"):
            make_config(nx=2)
        with pytest.raises(ValueError, match="n_steps"):
            make_config(n_steps=-1)
        with pytest.raises(ValueError, match="snapshot_every"):
            make_config(snapshot_every=0)

    def test_source_validation(self):
        with pytest.raises(ValueError, match="interior"):
            make_config(sources=((0, 4, 1.0),))
        with pytest.raises(ValueError, match="duplicate"):
            make_config(sources=((4, 4, 1.0), (4, 4, 2.0)))
        with pytest.raises(ValueError, match="non-finite"):
            make_config(sources=((4, 4, math.nan),))

    def test_stability_warning(self):
        with pytest.warns(StabilityWarning):
            make_config(gamma=1.0, dt=1.0, dx=1.0, alpha=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_config(gamma=1.0, dt=1.0, dx=2.0, alpha=1.0)  # ratio 0.25, no warning
        # The bound 2**(gamma-3) tightens with gamma: about 0.177 at 0.5.
        with pytest.warns(StabilityWarning, match="2\\*\\*\\(gamma-3\\)"):
            make_config(gamma=0.5, dt=1.0, dx=1.0, alpha=0.186)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_config(gamma=0.5, dt=1.0, dx=1.0, alpha=0.17)

    def test_stability_ratio(self):
        config = make_config(gamma=0.5, alpha=2.0, dt=4.0, dx=10.0)
        assert config.stability_ratio == pytest.approx(2.0 * 2.0 / 100.0)


class TestSnapshotCadence:
    def test_explicit(self):
        assert make_config(snapshot_every=7).snapshot_cadence == 7

    def test_default_targets_about_hundred(self):
        assert make_config(n_steps=200).snapshot_cadence == 2
        assert make_config(n_steps=1500).snapshot_cadence == 15
        assert make_config(n_steps=50).snapshot_cadence == 1
        assert make_config(n_steps=0).snapshot_cadence == 1

    def test_snapshot_steps(self):
        result = run(make_config(n_steps=5, snapshot_every=2))
        assert [s for s, _ in result.snapshots] == [0, 2, 4, 5]


def test_zero_steps_returns_initial():
    config = make_config(n_steps=0)
    result = run(config)
    assert result.final.data[4, 4] == 10.0
    assert len(result.snapshots) == 1
    assert result.snapshots[0][0] == 0


def test_decay_single_step():
    # alpha = 0: pure decay u -> u (1 - beta dt), 10 -> 9
    config = make_config(alpha=0.0, beta=0.1, dt=1.0, n_steps=1)
    result = run(config)
    assert result.final.data[4, 4] == 9.0


def test_decay_is_exact_iterated_multiply():
    config = make_config(alpha=0.0, beta=0.07, dt=0.5, n_steps=30, snapshot_every=1)
    result = run(config)
    factor = 1.0 - 0.07 * 0.5
    expected = 10.0
    for step_no, grid in result.snapshots:
        grid_expected = np.zeros((8, 8))
        grid_expected[4, 4] = expected
        assert np.array_equal(grid.data, grid_expected), f"step {step_no}"
        expected = expected * factor


def test_classical_limit_single_step():
    # gamma = 1, r = 0.01: center 10 -> 10 - 4*0.1 = 9.6, neighbours 0.1
    config = SimulationConfig(
        gamma=1.0, alpha=1.0, beta=0.0, dt=1.0, dx=10.0,
        nx=5, ny=5, n_steps=1, sources=((2, 2, 10.0),),
    )
    result = run(config)
    assert result.final.data[2, 2] == pytest.approx(9.6, rel=1e-14)
    assert result.final.data[1, 2] == pytest.approx(0.1, rel=1e-14)
    assert result.final.data[2, 1] == pytest.approx(0.1, rel=1e-14)


def test_classical_limit_matches_ftcs_oracle():
    # Independent forward-Euler FTCS with wraparound-safe shifts.
    nx, ny, r, steps = 9, 9, 0.02, 25
    config = SimulationConfig(
        gamma=1.0, alpha=1.0, beta=0.0, dt=0.5, dx=5.0,
        nx=nx, ny=ny, n_steps=steps, sources=((4, 4, 2.0),),
    )
    assert config.stability_ratio == pytest.approx(r)

    u = np.zeros((nx, ny))
    u[4, 4] = 2.0
    for _ in range(steps):
        lap = np.zeros_like(u)
        lap[1:-1, 1:-1] = (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
            - 4.0 * u[1:-1, 1:-1]
        )
        u = u + r * lap
        u[0, :] = u[-1, :] = 0.0
        u[:, 0] = u[:, -1] = 0.0

    result = run(config)
    assert np.abs(result.final.data - u).max() < 1e-10


def test_first_step_uses_only_newest_entry():
    config = make_config(n_steps=1)
    table = build_table(config.gamma, 1)
    u0 = config.initial_grid().data
    expected = u0 + config.alpha * config.dt**config.gamma / config.dx**2 * stencil(u0)
    result = run(config)
    assert_allclose(result.final.data, expected, rtol=0.0, atol=0.0)
    assert table.values[0] == 1.0


@pytest.mark.parametrize(
    "strategy",
    [ShortMemory(40.0), AdaptiveMemory(40), AdaptiveMemory(1500)],
)
def test_covering_strategies_reproduce_full_bitwise(strategy):
    base = make_config(n_steps=40)
    reference = run(base).final.data
    candidate = run(replace(base, strategy=strategy)).final.data
    assert np.array_equal(reference, candidate)


def test_truncated_short_memory_differs():
    base = make_config(n_steps=40)
    reference = run(base).final.data
    truncated = run(replace(base, strategy=ShortMemory(5.0))).final.data
    assert np.abs(reference - truncated).max() > 1e-3


def _cell_owner(pairs, x):
    """Index of the entry standing for offset x, found from the pairs alone.

    Between neighbouring samples m_j < m_j+1 whose centred windows meet, x
    belongs to the window holding it; where they leave a gap or overlap it
    belongs to the nearer sample, the newer one on a tie.
    """
    for j, (m, w) in enumerate(pairs):
        half = (w - 1) // 2
        if j + 1 == len(pairs):
            return j if m - half <= x <= m + half else None
        m_next, w_next = pairs[j + 1]
        if x < m:
            return j if x >= m - half else None
        if x >= m_next:
            continue
        if m + half + 1 == m_next - (w_next - 1) // 2:
            return j if x <= m + half else j + 1
        return j if x - m <= m_next - x else j + 1
    return None


def test_history_sum_matches_manual_loop():
    rng = np.random.default_rng(17)
    k = 260
    table = build_table(0.6, k)
    buf = HistoryBuffer(k + 1, (5, 5))
    fields = []
    for _ in range(k + 1):
        field = np.zeros((5, 5))
        field[1:-1, 1:-1] = rng.normal(size=(3, 3))
        fields.append(field)
        buf.append(field)

    for kk, sched in (
        (30, full_schedule(30)),
        (30, adaptive_schedule(30, 3)),
        (260, adaptive_schedule(260, 4)),  # gaps and overlaps at the joins
    ):
        pairs = sched.pairs()
        manual = np.zeros((5, 5))
        for x in range(kk + 1):
            owner = _cell_owner(pairs, x)
            if owner is not None:
                manual += table.values[x] * fields[kk - pairs[owner][0]]
        fast = history_sum(buf, sched, table, kk)
        assert_allclose(fast, manual, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("gamma", [0.5, 0.9])
@pytest.mark.parametrize(
    "k,base", [(260, 4)] + [(1499, a) for a in (3, 4, 5, 8, 12, 20)]
)
def test_adaptive_coefficients_carry_full_weight_mass(gamma, k, base):
    # Thinned entries stand for runs of neighbouring steps; their
    # coefficients must add up to the weight mass of the whole history, also
    # where the geometric intervals join with gaps or overlaps.
    table = build_table(gamma, k)
    coeffs = np.concatenate(entry_coefficients(adaptive_schedule(k, base), table))
    expected = math.fsum(table.values[: k + 1])
    assert math.fsum(coeffs) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_unit_cells_keep_psi_bitwise():
    table = build_table(0.5, 260)
    sched = adaptive_schedule(260, 4)
    coeffs = np.concatenate(entry_coefficients(sched, table))
    pairs = sched.pairs()
    cell_sizes = np.bincount([_cell_owner(pairs, x) for x in range(261)], minlength=len(pairs))
    single = cell_sizes == 1
    assert single.any() and not single.all()
    assert np.array_equal(coeffs[single], table.values[sched.offsets[single]])
    (full,) = entry_coefficients(full_schedule(40), table)
    assert np.array_equal(full, table.values[:41])


def test_history_sum_validation():
    table = build_table(0.5, 10)
    buf = HistoryBuffer(4, (3, 3))
    for _ in range(3):
        buf.append(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="beyond"):
        history_sum(buf, full_schedule(5), table, 2)
    with pytest.raises(ValueError, match="history"):
        history_sum(buf, full_schedule(2), table, 3)
    short_table = build_table(0.5, 1)
    with pytest.raises(ValueError, match="table covers"):
        history_sum(buf, full_schedule(2), short_table, 2)


def test_mass_conserved_before_front_reaches_edge():
    # beta = 0: the interior total changes only through the absorbing edge,
    # which the front has not reached yet.
    config = SimulationConfig(
        gamma=0.6, alpha=1.0, beta=0.0, dt=1.0, dx=10.0,
        nx=21, ny=21, n_steps=8, sources=((10, 10, 10.0),),
        snapshot_every=1,
    )
    result = run(config)
    masses = [grid.data.sum() for _, grid in result.snapshots]
    assert masses[0] == 10.0
    for before, after in zip(masses, masses[1:]):
        assert abs(after - before) <= 1e-10 * masses[0]


@pytest.mark.filterwarnings("ignore::fracgrid.solver.StabilityWarning")
def test_divergence_reports_step():
    config = make_config(gamma=1.0, dt=1.0, dx=1.0, alpha=1.0, n_steps=500)
    with pytest.raises(DivergenceError, match="step") as excinfo:
        run(config)
    assert excinfo.value.step > 0


def _spike_config(alpha, strategy, n_steps=400):
    return SimulationConfig(
        gamma=0.5, alpha=alpha, beta=0.0, dt=1.0, dx=1.0, nx=21, ny=21,
        n_steps=n_steps, sources=((10, 10, 1.0),), strategy=strategy,
    )


@pytest.mark.parametrize(
    "alpha,strategy,at_step",
    [
        # above the bound 2**(gamma-3) = 0.17678: warned, and it blows up
        pytest.param(
            0.186, FullMemory(), 201,
            marks=pytest.mark.filterwarnings("ignore::fracgrid.solver.StabilityWarning"),
        ),
        # below the full-memory bound, yet the thinned schedule grows
        (0.1767, AdaptiveMemory(3), 324),
    ],
)
def test_growth_guard_stops_a_finite_blow_up(alpha, strategy, at_step):
    with pytest.raises(DivergenceError) as excinfo:
        run(_spike_config(alpha, strategy))
    # caught while the field is still finite, past GROWTH_LIMIT times the
    # initial peak of 1
    assert excinfo.value.step == at_step
    assert GROWTH_LIMIT < excinfo.value.peak < math.inf


def test_growth_guard_passes_a_stable_run():
    result = run(replace(_spike_config(0.17, FullMemory()), snapshot_every=1))
    assert max(np.abs(grid.data).max() for _, grid in result.snapshots) == 1.0


def test_run_reports_elapsed_and_config():
    config = make_config(n_steps=3)
    result = run(config)
    assert result.elapsed_seconds >= 0.0
    assert result.config is config
    assert result.n_steps == 3


def test_progress_logging(caplog):
    config = make_config(n_steps=10)
    with caplog.at_level(logging.INFO, logger="fracgrid"):
        run(config, progress_every=5)
    messages = [r.getMessage() for r in caplog.records]
    assert "step 5/10" in messages
    assert "step 10/10" in messages


def test_memory_budget_enforced():
    with pytest.raises(MemoryBudgetError):
        run(make_config(n_steps=10_000, history_byte_cap=100_000))


def test_strategy_affects_only_history_weights():
    # gamma = 1 collapses every strategy to the classical update.
    base = make_config(gamma=1.0, n_steps=25)
    reference = run(base).final.data
    for strategy in (ShortMemory(3.0), AdaptiveMemory(2)):
        candidate = run(replace(base, strategy=strategy)).final.data
        assert np.abs(candidate - reference).max() < 1e-10
