"""Unit tests for the strategy comparison and gamma sweep."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fracgrid.benchmark as benchmark_mod
from fracgrid.benchmark import (
    BenchmarkRecord,
    GammaSweepEntry,
    gamma_sweep,
    relative_error,
    run_comparison,
    source_cell,
)
from fracgrid.grid import Grid2D
from fracgrid.schedule import AdaptiveMemory, FullMemory, ShortMemory
from fracgrid.solver import DivergenceError, SimulationConfig


def small_config(**kwargs):
    defaults = dict(
        gamma=0.5,
        alpha=1.0,
        beta=0.0,
        dt=1.0,
        dx=10.0,
        nx=10,
        ny=10,
        n_steps=40,
        sources=((5, 5, 10.0),),
        snapshot_every=40,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestRelativeError:
    def test_identical(self):
        grid = Grid2D.from_sources(5, 5, [(2, 2, 3.0)])
        assert relative_error(grid, grid) == (0.0, 0.0)

    def test_proportional(self):
        ref = Grid2D.from_sources(5, 5, [(2, 2, 3.0), (1, 2, 1.0)])
        approx = Grid2D(ref.data * 1.01)
        err_l2, err_linf = relative_error(approx, ref)
        assert err_l2 == pytest.approx(1.0, rel=1e-12)
        assert err_linf == pytest.approx(1.0, rel=1e-12)

    def test_zero_reference_rejected(self):
        zero = Grid2D(np.zeros((4, 4)))
        other = Grid2D.from_sources(4, 4, [(1, 1, 1.0)])
        with pytest.raises(ValueError, match="zero"):
            relative_error(other, zero)

    def test_shape_mismatch(self):
        a = Grid2D(np.zeros((4, 4)))
        b = Grid2D(np.zeros((5, 5)))
        with pytest.raises(ValueError, match="shape"):
            relative_error(a, b)


class TestRunComparison:
    def test_record_layout(self):
        records = run_comparison(
            small_config(), gammas=(0.5, 0.9), short_lengths=(10.0, 40.0), adaptive_bases=(3,)
        )
        assert len(records) == 2 * (1 + 2 + 1)
        # deterministic ordering by (gamma, strategy, param)
        keys = [(r.gamma, r.strategy, r.param) for r in records]
        assert keys == sorted(keys)
        for record in records:
            if record.strategy == "full":
                assert record.err_l2_pct == 0.0
                assert record.err_linf_pct == 0.0
            assert record.elapsed_s >= 0.0

    def test_covering_short_has_zero_error(self):
        records = run_comparison(
            small_config(), gammas=(0.5,), short_lengths=(40.0,), adaptive_bases=()
        )
        short = [r for r in records if r.strategy == "short"][0]
        assert short.err_l2_pct == 0.0
        assert short.err_linf_pct == 0.0

    def test_truncation_error_grows_as_horizon_shrinks(self):
        records = run_comparison(
            small_config(), gammas=(0.5,), short_lengths=(5.0, 20.0), adaptive_bases=()
        )
        by_param = {r.param: r for r in records if r.strategy == "short"}
        assert by_param[5.0].err_l2_pct > by_param[20.0].err_l2_pct > 0.0

    def test_requires_full_memory_base(self):
        config = small_config(strategy=ShortMemory(10.0))
        with pytest.raises(ValueError, match="full"):
            run_comparison(config, (0.5,), (10.0,), (3,))

    def test_rejects_bad_repeats_and_empty_gammas(self):
        with pytest.raises(ValueError, match="repeats"):
            run_comparison(small_config(), (0.5,), (10.0,), (3,), repeats=0)
        with pytest.raises(ValueError, match="gamma"):
            run_comparison(small_config(), (), (10.0,), (3,))

    @pytest.mark.parametrize("sources", [(), ((5, 5, 0.0),)], ids=["none", "zero"])
    def test_zero_initial_field_rejected_before_any_run(self, monkeypatch, sources):
        # A zero field stays zero, so its reference could score nothing.
        def no_run(config, **kwargs):
            raise AssertionError("run_comparison ran a strategy")

        monkeypatch.setattr(benchmark_mod, "run", no_run)
        with pytest.raises(ValueError, match="reference field is identically zero"):
            run_comparison(small_config(sources=sources), (0.5,), (10.0,), (3,))

    def test_comparison_keeps_no_snapshot(self, monkeypatch):
        real_run = benchmark_mod.run
        sinks = []

        def recording_run(config, **kwargs):
            sinks.append(kwargs.get("on_snapshot"))
            return real_run(config, **kwargs)

        monkeypatch.setattr(benchmark_mod, "run", recording_run)
        config = small_config(n_steps=30, snapshot_every=None)
        records = run_comparison(config, (0.5, 0.9), (4.0,), (3,))
        assert sinks == [None] * 6
        default = run_comparison(replace(config, snapshot_every=5), (0.5, 0.9), (4.0,), (3,))
        assert [replace(r, elapsed_s=0.0) for r in default] == [
            replace(r, elapsed_s=0.0) for r in records
        ]

    def test_failed_cell_recorded_not_raised(self, monkeypatch):
        real_run = benchmark_mod.run

        def exploding_run(config, **kwargs):
            if isinstance(config.strategy, ShortMemory) and config.strategy.length == 13.0:
                raise DivergenceError(7, float("inf"))
            return real_run(config, **kwargs)

        monkeypatch.setattr(benchmark_mod, "run", exploding_run)
        records = run_comparison(
            small_config(), gammas=(0.5,), short_lengths=(13.0, 20.0), adaptive_bases=()
        )
        failed = [r for r in records if r.failed]
        assert len(failed) == 1
        assert failed[0].strategy == "short"
        assert failed[0].param == 13.0
        assert np.isnan(failed[0].err_l2_pct)
        assert "step 7" in failed[0].message
        healthy = [r for r in records if r.strategy == "short" and not r.failed]
        assert len(healthy) == 1

    def test_failed_reference_fails_only_its_gamma(self, monkeypatch):
        real_run = benchmark_mod.run
        runs = []

        def exploding_run(config, **kwargs):
            runs.append((config.gamma, config.strategy))
            if config.gamma == 0.5 and isinstance(config.strategy, FullMemory):
                raise DivergenceError(7, float("inf"))
            return real_run(config, **kwargs)

        sweep = (small_config(), (0.5, 0.9), (13.0, 20.0), (3,))
        undisturbed = run_comparison(*sweep)
        monkeypatch.setattr(benchmark_mod, "run", exploding_run)
        records = run_comparison(*sweep)

        def untimed(gamma, rows):
            return [replace(r, elapsed_s=0.0) for r in rows if r.gamma == gamma]

        assert untimed(0.9, records) == untimed(0.9, undisturbed)
        # Only the reference ran at the failed gamma.
        assert [strategy for gamma, strategy in runs if gamma == 0.5] == [FullMemory()]
        failed = [r for r in records if r.gamma == 0.5]
        assert len(failed) == 4
        for record in failed:
            assert record.failed
            assert np.isnan([record.elapsed_s, record.err_l2_pct, record.err_linf_pct]).all()
        messages = {r.strategy: r.message for r in failed}
        assert messages["full"] == "solution diverged at step 7: max |u| reached inf"
        assert messages["short"] == messages["adaptive"] == (
            "full-memory reference diverged: " + messages["full"]
        )


def test_source_cell_selection():
    config = small_config(sources=((5, 5, 1.0), (3, 4, -8.0)))
    assert source_cell(config) == (3, 4)
    assert source_cell(small_config(sources=())) == (5, 5)


class TestGammaSweep:
    def test_entries(self):
        config = small_config(n_steps=20, snapshot_every=5)
        entries = gamma_sweep(config, (0.5, 1.0))
        assert [e.gamma for e in entries] == [0.5, 1.0]
        for entry in entries:
            assert isinstance(entry, GammaSweepEntry)
            assert entry.profile.shape == (10,)
            assert entry.trace_steps.tolist() == [0, 5, 10, 15, 20]
            assert entry.trace_values[0] == 10.0  # initial condition at the source

    def test_subdiffusion_keeps_more_mass_at_source(self):
        entries = gamma_sweep(small_config(), (0.5, 1.0))
        assert entries[0].trace_values[-1] > entries[1].trace_values[-1]

    def test_run_keeps_history_and_few_fields(self):
        # One gamma's run holds its full-memory history of 151 fields and a
        # few working fields; the trace keeps one value per snapshot step,
        # not the 76 fields the default cadence hands out.
        config = small_config(
            nx=100, ny=100, n_steps=150, snapshot_every=None, sources=((50, 50, 10.0),)
        )
        field = 100 * 100 * 8
        gamma_sweep(config, (0.5,))
        tracemalloc.start()
        try:
            (entry,) = gamma_sweep(config, (0.5,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entry.trace_steps.tolist() == list(range(0, 151, 2))
        assert (peak - 151 * field) / field < 5

    def test_requires_full_memory(self):
        with pytest.raises(ValueError, match="full"):
            gamma_sweep(small_config(strategy=AdaptiveMemory(3)), (0.5,))
        with pytest.raises(ValueError, match="gamma"):
            gamma_sweep(small_config(), ())


def test_benchmark_record_failed_property():
    ok = BenchmarkRecord("full", 0.0, 0.5, 0.1, 0.0, 0.0)
    bad = BenchmarkRecord("short", 10.0, 0.5, float("nan"), float("nan"), float("nan"), "boom")
    assert not ok.failed
    assert bad.failed
