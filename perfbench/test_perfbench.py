"""Tests of the benchmark's own parts: inputs, probes and deterministic counts.

Run with the package on the path, from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import fracgrid.solver
from fracgrid.config import build_simulation
from fracgrid.grid import HistoryBuffer
from fracgrid.schedule import AdaptiveMemory, FullMemory, ShortMemory

from layers import Probe
from workloads import WORKLOADS, sources_20, sources_100

HERE = os.path.dirname(os.path.abspath(__file__))


def full_entries(n: int) -> int:
    """History entries a full-memory run of n steps visits: n(n+1)/2."""
    return n * (n + 1) // 2


def short_entries(n: int, length: int) -> int:
    """Sum over k < n of min(k, L) + 1, in closed form."""
    ramp = min(n, length + 1)
    return full_entries(ramp) + (n - ramp) * (length + 1)


def visited(strategy, n: int) -> int:
    return sum(len(strategy.schedule_at(k, 1.0)) for k in range(n))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 60])
def test_full_entries_match_closed_form(n):
    assert visited(FullMemory(), n) == full_entries(n)


@pytest.mark.parametrize("n,length", [(0, 5), (3, 5), (6, 5), (7, 5), (60, 5), (60, 100), (200, 1)])
def test_short_entries_match_closed_form(n, length):
    assert visited(ShortMemory(length=float(length)), n) == short_entries(n, length)
    assert short_entries(n, length) == sum(min(k, length) + 1 for k in range(n))


def tiny_config(memory: str, steps: int = 40):
    return build_simulation(
        {},
        {"memory": memory},
        {"gamma": 0.75, "dt": 1.0, "dx": 10.0, "grid": (8, 9), "steps": steps,
         "sources": ((4, 4, 3.0),)},
    )


@pytest.mark.parametrize(
    "memory,expected", [("full", full_entries(40)), ("short:5", short_entries(40, 5))]
)
def test_traced_entries_visited_match_closed_form(memory, expected):
    probe = Probe(trace=True)
    with probe, probe.span("workload"):
        fracgrid.solver.run(tiny_config(memory))
    layers = probe.layer_metrics()
    assert layers["schedule.entries_visited"] == expected
    cells = 8 * 9
    assert layers["solver.contraction_flops"] == 2 * expected * cells
    assert layers["grid.history_bytes_reserved"] == 41 * cells * 8


def test_probe_restores_every_patched_name():
    names = [
        (fracgrid.solver, "run"), (fracgrid.solver, "step"), (fracgrid.solver, "history_sum"),
        (fracgrid.solver, "stencil"), (fracgrid.solver, "build_table"),
    ]
    before = [getattr(owner, attr) for owner, attr in names]
    methods = [HistoryBuffer.__dict__[a] for a in ("gather", "block", "append", "__init__")]
    schedule_at = [cls.__dict__["schedule_at"] for cls in (FullMemory, ShortMemory, AdaptiveMemory)]
    with Probe(trace=True):
        assert fracgrid.solver.step is not before[1]
    assert [getattr(owner, attr) for owner, attr in names] == before
    assert [HistoryBuffer.__dict__[a] for a in ("gather", "block", "append", "__init__")] == methods
    assert [cls.__dict__["schedule_at"] for cls in (FullMemory, ShortMemory, AdaptiveMemory)] == schedule_at


def test_tracing_leaves_results_unchanged_and_self_times_add_up():
    config = tiny_config("adaptive:3")
    plain = fracgrid.solver.run(config).final.data
    probe = Probe(trace=True)
    with probe, probe.span("workload"):
        traced = fracgrid.solver.run(config).final.data
    assert np.array_equal(plain, traced)
    name, t0, t1, parent, run = probe.spans[0]
    assert (name, parent, run) == ("workload", -1, 0)
    assert sum(probe.self_ns.values()) == t1 - t0
    for child in probe.spans[1:]:
        start, end, up = child[1], child[2], probe.spans[child[3]]
        assert up[1] <= start <= end <= up[2]
        assert child[4] == 1
    layers = probe.layer_metrics()
    assert layers["grid.gather_bytes"] > 0
    assert 0 < layers["solver.contiguous_ratio"] < 1


def test_seeded_layouts_repeat_and_stay_clear_of_the_wall():
    for seed in range(50):
        layout = sources_100(seed)
        assert layout == sources_100(seed)
        assert 1 <= len(layout) <= 4
        for j, l, value in layout:
            assert 25 <= j <= 74 and 25 <= l <= 74 and 1.0 <= value <= 20.0
        for a in layout:
            for b in layout:
                if a is not b:
                    assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 27
        small = sources_20(seed)
        assert small == sources_20(seed)
        assert len({(j, l) for j, l, _ in small}) == len(small)
        assert all(1 <= j <= 18 and 1 <= l <= 18 for j, l, _ in small)
    assert len({sources_100(seed) for seed in range(50)}) == 50


def test_benchmark_spec_matches_the_workloads_and_reported_metrics():
    import json

    import run

    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "adaptive-100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
