"""Unit tests for the explicit fractional stepper."""

import gc
import hashlib
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracgrid
from fracgrid.coefficients import PsiTable, build_table
from fracgrid.config import BENCHMARK_SCENARIO, ConfigError, build_simulation
from fracgrid.grid import HistoryBuffer, MemoryBudgetError, stencil
from fracgrid.schedule import (
    AdaptiveMemory,
    FullMemory,
    ShortMemory,
    _steady_short_schedule,
    adaptive_schedule,
    full_schedule,
    parse_memory_spec,
    short_schedule,
)
from fracgrid.solver import (
    GROWTH_LIMIT,
    DivergenceError,
    SimulationConfig,
    StabilityWarning,
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


def run_collecting(config):
    """run() with a sink that keeps every snapshot it is handed as (step, field)."""
    snapshots = []
    result = run(config, on_snapshot=lambda step_no, field: snapshots.append((step_no, field)))
    return result, snapshots


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
        with pytest.raises(ValueError, match=r"^source \(0, 4\) is outside the interior of a 8x8 grid$"):
            make_config(sources=((0, 4, 1.0),))
        with pytest.raises(ValueError, match="duplicate"):
            make_config(sources=((4, 4, 1.0), (4, 4, 2.0)))
        with pytest.raises(ValueError, match="non-finite"):
            make_config(sources=((4, 4, math.nan),))

    def test_initial_grid_places_sources(self):
        grid = make_config(nx=5, ny=6, sources=((2, 3, 1.5), (1, 1, -0.5))).initial_grid()
        expected = np.zeros((5, 6))
        expected[2, 3], expected[1, 1] = 1.5, -0.5
        assert np.array_equal(grid.data, expected)
        with pytest.raises(ValueError):
            grid.data[2, 3] = 5.0

    def test_initial_grid_rejects_ring_sources(self):
        for j, l in ((0, 2), (4, 2), (2, 0), (2, 4)):
            with pytest.raises(
                ValueError, match=rf"^source \({j}, {l}\) is outside the interior of a 5x5 grid$"
            ):
                make_config(nx=5, ny=5, sources=((j, l, 1.0),))

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("nx", dict(nx=8.0)),
            ("ny", dict(ny=True)),
            ("n_steps", dict(n_steps=5.5)),
            ("n_steps", dict(n_steps=True)),
            ("snapshot_every", dict(snapshot_every=2.5)),
            ("snapshot_every", dict(snapshot_every=np.True_)),
            ("source j", dict(sources=((4.5, 4, 1.0),))),
            ("source j", dict(sources=((True, 4, 1.0),))),
            ("source l", dict(sources=((4, np.float64(4.0), 1.0),))),
        ],
        ids=[
            "nx-float", "ny-bool", "n_steps-float", "n_steps-bool", "snapshot_every-float",
            "snapshot_every-numpy-bool", "source-j-float", "source-j-bool", "source-l-numpy-float",
        ],
    )
    def test_integer_fields_refuse_other_numbers(self, name, kwargs):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            make_config(**kwargs)

    def test_numpy_integers_are_kept_as_int(self):
        config = make_config(
            nx=np.int64(8), ny=np.int32(8), n_steps=np.int64(3), snapshot_every=np.int16(2),
            sources=((np.int64(4), np.int32(3), np.float64(2.0)),),
        )
        assert config == make_config(n_steps=3, snapshot_every=2, sources=((4, 3, 2.0),))
        fields = (config.nx, config.ny, config.n_steps, config.snapshot_every, *config.sources[0][:2])
        assert {type(v) for v in fields} == {int}
        assert run(config).final.data[4, 3] != 0.0

    @pytest.mark.parametrize(
        "error, field, make",
        [
            (ValueError, "alpha", lambda: make_config(alpha=True)),
            (ValueError, "gamma", lambda: make_config(gamma=True)),
            (ValueError, "dx", lambda: make_config(dx=True)),
            (ValueError, "dt", lambda: make_config(dt="1.0")),
            (ValueError, "beta", lambda: make_config(beta=None)),
            (ValueError, "history_byte_cap", lambda: make_config(history_byte_cap=True)),
            (ValueError, "history_byte_cap", lambda: make_config(history_byte_cap="1000000")),
            (ValueError, "history_byte_cap", lambda: make_config(history_byte_cap=2.5e9)),
            (ValueError, "history_byte_cap", lambda: make_config(history_byte_cap=-1)),
            (ValueError, "source (4, 4)", lambda: make_config(sources=((4, 4, True),))),
            (ValueError, "strategy", lambda: make_config(strategy="full")),
            (ValueError, "step index k", lambda: FullMemory().schedule_at(2.7, 1.0)),
            (ValueError, "adaptive base", lambda: adaptive_schedule(40, 3.7)),
            (ValueError, "n_steps", lambda: build_table(0.5, 3.5)),
            (ValueError, "capacity", lambda: HistoryBuffer(2.7, (5, 5))),
            (ValueError, "alpha", lambda: make_config(alpha=10**400)),
            (ValueError, "dt", lambda: make_config(dt=-10**400)),
            (
                ConfigError,
                "steps:",
                lambda: build_simulation({}, {"steps": 4.0}, BENCHMARK_SCENARIO),
            ),
        ],
        ids=[
            "alpha-bool", "gamma-bool", "dx-bool", "dt-text", "beta-none", "cap-bool",
            "cap-text", "cap-float", "cap-negative", "source-value-bool", "strategy-text",
            "schedule-k-float", "adaptive-base-float", "table-steps-float",
            "history-capacity-float", "alpha-huge-int", "dt-huge-negative-int",
            "config-steps-float",
        ],
    )
    def test_bad_numbers_fail_at_once_naming_their_field(self, error, field, make):
        # Every number a run takes is read by checked_int or checked_real.
        with pytest.raises(error, match=rf"^{re.escape(field)} "):
            make()

    def test_numpy_numbers_are_kept_as_plain_numbers(self):
        reals = dict(gamma=0.5, alpha=1.0, beta=0.25, dt=1.0, dx=10.0)
        config = make_config(
            **{name: np.float64(v) for name, v in reals.items()},
            history_byte_cap=np.int64(10**8),
            sources=((4, 4, np.float64(10.0)),),
            strategy=ShortMemory(np.float64(3.0)),
        )
        assert config == make_config(
            **reals, history_byte_cap=10**8, strategy=ShortMemory(3.0)
        )
        assert {type(getattr(config, name)) for name in reals} == {float}
        assert type(config.history_byte_cap) is int
        assert type(config.sources[0][2]) is float
        assert type(config.strategy.length) is float
        assert type(AdaptiveMemory(np.int64(3)).base) is int
        assert build_table(np.float64(0.5), np.int64(3)).capacity == 3
        buffer = HistoryBuffer(np.int64(3), (5, 5), byte_cap=np.int64(10**6), window=np.int64(2))
        assert (buffer.capacity, type(buffer.capacity)) == (3, int)

    def test_stability_warning(self):
        # A run warns as it starts; zero steps are enough.
        with pytest.warns(StabilityWarning):
            run(make_config(gamma=1.0, dt=1.0, dx=1.0, alpha=0.3, n_steps=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(make_config(gamma=1.0, dt=1.0, dx=2.0, alpha=1.0, n_steps=0))  # ratio 0.25
        # The bound 2**(gamma-3) tightens with gamma: about 0.177 at 0.5.
        with pytest.warns(StabilityWarning, match="2\\*\\*\\(gamma-3\\)"):
            run(make_config(gamma=0.5, dt=1.0, dx=1.0, alpha=0.186, n_steps=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(make_config(gamma=0.5, dt=1.0, dx=1.0, alpha=0.17, n_steps=0))

    def test_stability_warning_names_the_code_that_ran_the_config(self):
        config = SimulationConfig(
            gamma=0.5, alpha=1.0, beta=0.0, dt=1.0, dx=1.0, nx=5, ny=5, n_steps=1
        )
        with pytest.warns(StabilityWarning) as caught:
            run(config)
        assert [w.filename for w in caught] == [__file__]

    def test_building_an_unstable_config_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = make_config(gamma=0.5, dt=1.0, dx=1.0, alpha=1.0)
            replace(config, gamma=0.75, n_steps=0)

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
        _, snapshots = run_collecting(make_config(n_steps=5, snapshot_every=2))
        assert [s for s, _ in snapshots] == [0, 2, 4, 5]

    @pytest.mark.parametrize(
        "n_steps,every,steps",
        [
            (6, 3, [0, 3, 6]),
            (7, 3, [0, 3, 6, 7]),
            (0, 3, [0]),
            (1, None, [0, 1]),
            (250, None, [*range(0, 250, 3), 250]),
        ],
    )
    def test_sink_sees_each_snapshot_step_once(self, n_steps, every, steps):
        result, snapshots = run_collecting(make_config(n_steps=n_steps, snapshot_every=every))
        assert [s for s, _ in snapshots] == steps
        assert snapshots[-1][1] is result.final.data

    def test_sink_gets_the_read_only_fields_the_run_computed(self):
        config = make_config(n_steps=7, snapshot_every=3, beta=0.01)
        _, snapshots = run_collecting(config)
        assert len({id(field) for _, field in snapshots}) == len(snapshots)
        for step_no, field in snapshots:
            assert not field.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                field[4, 4] = 0.0
            expected = run(replace(config, n_steps=step_no)).final.data
            assert field.tobytes() == expected.tobytes(), step_no

    def test_run_without_sink_holds_history_and_few_fields(self):
        # Deterministic twin of the benchmark's memory figure: at the default
        # cadence the run would hand out 101 fields, and keeps none of them.
        config = make_config(
            nx=100, ny=100, n_steps=300, strategy=AdaptiveMemory(5),
            sources=((50, 50, 10.0),),
        )
        assert config.snapshot_cadence == 3
        run(config)
        tracemalloc.start()
        try:
            result = run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - result.history_bytes) / (100 * 100 * 8) < 5


def test_zero_steps_returns_initial():
    config = make_config(n_steps=0)
    result, snapshots = run_collecting(config)
    assert result.final.data[4, 4] == 10.0
    assert len(snapshots) == 1
    assert snapshots[0][0] == 0


def test_decay_single_step():
    # alpha = 0: pure decay u -> u (1 - beta dt), 10 -> 9
    config = make_config(alpha=0.0, beta=0.1, dt=1.0, n_steps=1)
    result = run(config)
    assert result.final.data[4, 4] == 9.0


def test_decay_is_exact_iterated_multiply():
    config = make_config(alpha=0.0, beta=0.07, dt=0.5, n_steps=30, snapshot_every=1)
    _, snapshots = run_collecting(config)
    factor = 1.0 - 0.07 * 0.5
    expected = 10.0
    for step_no, field in snapshots:
        grid_expected = np.zeros((8, 8))
        grid_expected[4, 4] = expected
        assert np.array_equal(field, grid_expected), f"step {step_no}"
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
    expected = u0 + config.alpha * config.dt**config.gamma / config.dx**2 * np.pad(stencil(u0), 1)
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
        buf.append(field[1:-1, 1:-1])

    for kk, sched in (
        (30, full_schedule(30)),
        (30, adaptive_schedule(30, 3)),
        (260, adaptive_schedule(260, 4)),  # gaps and overlaps at the joins
        (260, short_schedule(260, 40.0, 1.0)),  # a late window, read in place
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
    coeffs = np.concatenate(table.coefficients(adaptive_schedule(k, base)))
    expected = math.fsum(table.values[: k + 1])
    assert math.fsum(coeffs) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_unit_cells_keep_psi_bitwise():
    table = build_table(0.5, 260)
    sched = adaptive_schedule(260, 4)
    coeffs = np.concatenate([c[::-1] for c in table.coefficients(sched)])
    pairs = sched.pairs()
    cell_sizes = np.bincount([_cell_owner(pairs, x) for x in range(261)], minlength=len(pairs))
    single = cell_sizes == 1
    assert single.any() and not single.all()
    assert np.array_equal(coeffs[single], table.values[sched.offsets[single]])
    (full,) = table.coefficients(full_schedule(40))
    assert np.array_equal(full[::-1], table.values[:41])


# Final fields of full memory, adaptive:3 and short:40 on a 60x60 grid for 300
# steps, written as raw bytes.  Each contraction there multiplies up to
# 301 x 3368 entries, and short:40's whole-ring read 41 x 3368, above the size
# at which OpenBLAS splits a gemv over threads.
_FINAL_FIELDS_SCRIPT = """
import sys
from fracgrid.schedule import AdaptiveMemory, FullMemory, ShortMemory
from fracgrid.solver import SimulationConfig, run

for strategy in (FullMemory(), AdaptiveMemory(3), ShortMemory(40)):
    config = SimulationConfig(
        gamma=0.5, alpha=0.15, beta=0.0, dt=1.0, dx=1.0, nx=60, ny=60,
        n_steps=300, sources=((15, 15, 1.0), (30, 40, 2.0), (45, 20, 1.5)),
        strategy=strategy, snapshot_every=300,
    )
    sys.stdout.buffer.write(run(config).final.data.tobytes())
"""

# Full memory on a 101x101 grid for 120 steps.  A whole field there is 10201
# doubles, not a whole number of vector widths, and its gemv ended with other
# bits under two threads than under one; the 99 x 99 interior is stored in a
# row of 9808 doubles.
_ODD_GRID_SCRIPT = """
import sys
from fracgrid.solver import SimulationConfig, run

config = SimulationConfig(
    gamma=0.75, alpha=1.0, beta=0.0, dt=1.0, dx=10.0, nx=101, ny=101,
    n_steps=120, sources=((50, 50, 10.0), (33, 50, 3.0)),
)
sys.stdout.buffer.write(run(config).final.data.tobytes())
"""


def _final_fields_with_threads(script, threads):
    env = {k: v for k, v in os.environ.items() if not k.endswith("NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    src = str(Path(fracgrid.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, check=True,
    )
    return done.stdout


def test_final_fields_do_not_depend_on_blas_threads():
    one = _final_fields_with_threads(_FINAL_FIELDS_SCRIPT, 1)
    assert len(one) == 3 * 60 * 60 * 8
    assert one == _final_fields_with_threads(_FINAL_FIELDS_SCRIPT, 2)


def test_odd_grid_final_fields_do_not_depend_on_blas_threads():
    one = _final_fields_with_threads(_ODD_GRID_SCRIPT, 1)
    assert len(one) == 101 * 101 * 8
    two = _final_fields_with_threads(_ODD_GRID_SCRIPT, 2)
    assert hashlib.sha256(one).hexdigest() == hashlib.sha256(two).hexdigest()


def test_history_sum_validation():
    table = build_table(0.5, 10)
    buf = HistoryBuffer(4, (3, 3))
    for _ in range(3):
        buf.append(np.zeros((1, 1)))
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
    _, snapshots = run_collecting(config)
    masses = [field.sum() for _, field in snapshots]
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
    _, snapshots = run_collecting(replace(_spike_config(0.17, FullMemory()), snapshot_every=1))
    assert max(np.abs(field).max() for _, field in snapshots) == 1.0


def test_run_reports_elapsed_and_config():
    config = make_config(n_steps=3)
    result = run(config)
    assert result.elapsed_seconds >= 0.0
    assert result.config is config
    assert result.config.n_steps == 3


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


def _final_over_linear_history(config):
    """run()'s stepping loop for short memory over a list of every stencil
    field, zero-ringed, without a HistoryBuffer: each window of the newest W
    entries is weighted by psi and contracted in the order a ring of W slots
    keeps it, entry e in slot e mod W."""
    psi = build_table(config.gamma, config.n_steps).values
    slots = config.strategy.reach(config.n_steps, config.dt) + 1
    decay = 1.0 - config.beta * config.dt
    u = config.initial_grid().data
    fields = [np.pad(stencil(u), 1)]
    for k in range(config.n_steps):
        order = sorted(range(max(0, k - slots + 1), k + 1), key=lambda e: e % slots)
        coeffs = np.array([psi[k - e] for e in order])
        rows = np.stack([fields[e] for e in order]).reshape(len(order), -1)
        total = (coeffs @ rows).reshape(u.shape)
        u = total * config.stability_ratio + u * decay
        fields.append(np.pad(stencil(u), 1))
    return u


# A 9 x 11 field's 7 x 9 interior is stored in a row of 64 doubles, and a
# 60 x 60 field's 58 x 58 interior (3364 cells) in a row of 3368.
@pytest.mark.parametrize(
    "length,shape,fields,row",
    [
        pytest.param(1.0, (9, 11), 2, 64, id="1.0"),
        pytest.param(7.0, (9, 11), 8, 64, id="7.0"),
        pytest.param(40.0, (9, 11), 41, 64, id="40.0"),
        pytest.param(250.0, (9, 11), 251, 64, id="250.0"),
        # a whole-ring gemv of 41 x 3368, large enough for OpenBLAS threads
        pytest.param(40.0, (60, 60), 41, 3368, id="40.0-60x60"),
    ],
)
def test_short_memory_ring_matches_linear_history_bitwise(length, shape, fields, row):
    nx, ny = shape
    config = make_config(
        gamma=0.6, nx=nx, ny=ny, n_steps=300, strategy=ShortMemory(length),
        sources=((4, 5, 10.0), (2, 8, 3.0)),
    )
    result = run(config)
    # a ring of the W = L + 1 fields the window reaches, not one per step
    assert result.history_bytes == fields * row * 8
    assert result.final.data.tobytes() == _final_over_linear_history(config).tobytes()


@pytest.mark.parametrize(
    "memory,dt",
    [("full", 1.0)]
    + [(f"short:{length}", dt) for length, dt in (
        ("1", 1.0), ("7", 1.0), ("40", 1.0), ("0.3", 0.1),
        ("0.7", 0.1), ("0.6", 0.2), ("2.5", 0.5), ("10.5", 1.0),
    )]
    + [(f"adaptive:{base}", 1.0) for base in (2, 3, 5, 12)],
)
def test_reach_bounds_every_schedule_of_the_run(memory, dt):
    strategy = parse_memory_spec(memory)
    for n_steps in (1, 6, 60, 300):
        reach = strategy.reach(n_steps, dt)
        last = max(int(strategy.schedule_at(k, dt).offsets[-1]) for k in range(n_steps))
        assert last <= reach <= n_steps
        if isinstance(strategy, ShortMemory) and reach < n_steps:
            # short memory's window is no larger than what it reads
            assert last == reach


def test_memory_cap_counts_the_short_memory_ring():
    # An 8x8 field's 36 interior cells are stored in a row of 40 doubles:
    # 1001 rows are 320320 bytes, over the cap; short:5 keeps 6.
    capped = make_config(n_steps=1000, history_byte_cap=100_000)
    result = run(replace(capped, strategy=ShortMemory(5.0)))
    assert result.history_bytes == 6 * 40 * 8
    with pytest.raises(MemoryBudgetError):
        run(capped)


def test_short_memory_peak_memory_follows_its_horizon():
    # 601 history fields of 60x60 would be 17.3 MB; short:10 keeps 11
    # (0.3 MB), and the run keeps no snapshot.
    config = make_config(nx=60, ny=60, n_steps=600, strategy=ShortMemory(10.0))
    tracemalloc.start()
    try:
        run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _final_with_parent_expressions(config, slice_stencil):
    """run()'s stepping loop, with the update and the stencil written out
    as plain expressions over fresh arrays."""
    table = build_table(config.gamma, config.n_steps)
    u = config.initial_grid().data.copy()
    history = HistoryBuffer(
        config.n_steps + 1, u.shape,
        window=config.strategy.reach(config.n_steps, config.dt) + 1,
    )

    history.append(slice_stencil(u))
    bound = GROWTH_LIMIT * float(np.abs(u).max())
    decay = 1.0 - config.beta * config.dt
    diffuse = config.alpha * config.dt**config.gamma / config.dx**2
    for k in range(config.n_steps):
        schedule = config.strategy.schedule_at(k, config.dt)
        acc = history_sum(history, schedule, table, k)
        nxt = u * decay + diffuse * acc
        nxt[0, :] = 0.0
        nxt[-1, :] = 0.0
        nxt[:, 0] = 0.0
        nxt[:, -1] = 0.0
        assert float(np.abs(nxt).max()) <= bound
        history.append(slice_stencil(nxt))
        u = nxt
    return u


@pytest.mark.parametrize("memory", ["full", "short:7", "adaptive:3"])
def test_run_matches_plain_expression_loop_bitwise(memory, slice_stencil):
    # beta > 0 so the decay factor is not 1; short:7 keeps a ring of 8 fields.
    config = make_config(
        gamma=0.6, alpha=15.0, beta=0.01, nx=9, ny=13, n_steps=300,
        strategy=parse_memory_spec(memory), snapshot_every=300,
        sources=((4, 6, 10.0), (2, 9, 3.0), (7, 2, 1.5)),
    )
    assert 1.0 - config.beta * config.dt != 1.0
    expected = _final_with_parent_expressions(config, slice_stencil)
    assert run(config).final.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("beta", [0.0, 1.5])
@pytest.mark.parametrize("memory", ["full", "short:7", "adaptive:3"])
def test_step_leaves_the_boundary_ring_at_positive_zero(memory, beta):
    # step() writes nothing to the new field's ring: the sum comes in a
    # zeroed field, and the update keeps its ring +0, also where
    # beta * dt = 1.5 makes the decay negative (u's +0 ring times -0.5 is
    # -0, and +0 + -0 is +0).  Over 300 steps adaptive:3 contracts one-entry
    # runs, whose c * +0 is -0 where c < 0, but no ring is contracted.
    config = make_config(
        gamma=0.6, beta=beta, nx=9, ny=13, n_steps=300,
        strategy=parse_memory_spec(memory),
        sources=((4, 6, 10.0), (2, 9, 3.0), (7, 2, 1.5)),
    )
    table = build_table(config.gamma, config.n_steps)
    u = config.initial_grid().data.copy()
    history = HistoryBuffer(
        config.n_steps + 1, u.shape,
        window=config.strategy.reach(config.n_steps, config.dt) + 1,
    )
    history.append(stencil(u))
    bound = GROWTH_LIMIT * float(np.abs(u).max())
    zeros = np.zeros(2 * (9 + 13) - 4).tobytes()
    for k in range(config.n_steps):
        u = step(u, history, k, config, table, bound)
        ring = np.concatenate((u[[0, -1], :].ravel(), u[1:-1, [0, -1]].ravel()))
        assert ring.tobytes() == zeros, k
    assert np.abs(u).max() > 0.0


@pytest.mark.parametrize("memory", ["short:5", "adaptive:3", "full"])
def test_step_holds_few_fields_beyond_history(memory):
    # The deterministic side of the stepping loop's speed: a step holds u
    # and allocates its sum (updated in place), the product u * decay, and
    # the stencil's output plus its -4u term, so run() peaks at four fields
    # and the psi table besides its history (about six at the
    # two-dimensional slice stencil).
    config = make_config(
        nx=100, ny=100, n_steps=60, strategy=parse_memory_spec(memory),
        sources=((50, 50, 10.0),),
    )
    run(config)
    tracemalloc.start()
    try:
        result = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields = (peak - result.history_bytes) / (100 * 100 * 8)
    assert fields < 5


@pytest.mark.parametrize(
    "memory, ceiling",
    [("full", 69132), ("short:100", 65687), ("adaptive:3", 167020), ("adaptive:5", 137340)],
)
def test_bundled_run_makes_no_more_calls_than_pinned(memory, ceiling):
    # The deterministic twin of the stepping loop's per-step cost on the
    # bundled 20x20 scenario, where each step's NumPy calls, not its
    # arithmetic, set the time: Python and C calls over one run() of 1500
    # steps.  The counts repeat exactly, in process and in a fresh one; a
    # change that adds a call to every step adds 1500.  The collector is
    # held off, so that no finalizer of an earlier test's garbage runs, and
    # is counted, inside the run.
    config = build_simulation({}, {"memory": memory}, BENCHMARK_SCENARIO)
    _steady_short_schedule.cache_clear()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run(config)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert calls <= ceiling


@pytest.mark.parametrize("base", [3, 5, 12])
def test_coefficient_memo_reuses_unchanged_runs_bitwise(base):
    # One table weighs every step's schedule; each step's schedule is also
    # weighed by a new table over the same psi values, which computes every
    # run afresh.  A run shared with the previous step is the same array,
    # and every array of the previous step this step does not return is
    # freed once the caller drops it: the table keeps one schedule's runs.
    table = build_table(0.7, 1500)
    strategy = AdaptiveMemory(base)
    previous: dict = {}
    reused = 0
    for k in range(1500):
        schedule = strategy.schedule_at(k, 1.0)
        kept = table.coefficients(schedule)
        fresh = PsiTable(table.values).coefficients(schedule)
        assert len(kept) == len(fresh) == len(schedule.runs)
        keys = list(zip(schedule.runs, schedule.spans))
        for key, a, b in zip(keys, kept, fresh):
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable and not b.flags.writeable
            reused += key in previous and previous[key]() is a
        returned = {id(c) for c in kept}
        assert all(ref() is None or id(ref()) in returned for ref in previous.values())
        previous = {key: weakref.ref(c) for key, c in zip(keys, kept)}
    assert reused > 1500
