"""Run one iteration of one workload in a fresh process and record what it did.

Started by ``run.py`` once per iteration, so that set-up time includes process
start and peak resident memory belongs to that workload alone::

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED OUT_DIR TRACE

SPAWNED is the parent's ``time.perf_counter()`` just before it started this
process (the monotonic clock is shared by all processes).  Writes
``result.json`` and ``finals.npz`` (and, when TRACE is 1, ``spans.csv``) to
OUT_DIR; a CLI workload writes its artifacts to ``OUT_DIR/artifacts``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

import fracgrid.cli
import fracgrid.config
import fracgrid.solver
from fracgrid.grid import MemoryBudgetError
from fracgrid.solver import DivergenceError

from layers import Probe
from workloads import WORKLOADS, cli_argv, solver_defaults, solver_overrides, sources_for


def run_workload(workload, sources, out_dir: str) -> int:
    """The workload itself; returns its exit code (0 on success)."""
    if workload.kind != "solver":
        return fracgrid.cli.main(cli_argv(workload, sources, os.path.join(out_dir, "artifacts")))
    config = fracgrid.config.build_simulation(
        {}, solver_overrides(workload), solver_defaults(sources)
    )
    try:
        fracgrid.solver.run(config)
    except DivergenceError:
        return fracgrid.cli.EXIT_DIVERGED
    except MemoryBudgetError:
        return fracgrid.cli.EXIT_CONFIG
    return 0


def main(argv: list[str]) -> int:
    name, seed, spawned, out_dir, trace = argv
    workload = WORKLOADS[name]
    sources = sources_for(workload, int(seed))
    probe = Probe(trace=trace == "1")
    with probe:
        with probe.span("workload"):
            t0 = time.perf_counter()
            exit_code = run_workload(workload, sources, out_dir)
            wall_s = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = probe.runs
    done = [r for r in runs if not r.error]
    first = runs[0] if runs else None
    loop_s = sum(r.elapsed_s for r in done)
    result = {
        "exit_code": exit_code,
        "wall_s": wall_s,
        # Process start to the first step: everything before run(), plus the
        # part of run() outside its stepping loop.
        "setup_s": (first.t_before - float(spawned)) + (first.wall_s - first.elapsed_s)
        if first is not None and not first.error
        else None,
        "steps": sum(r.steps for r in done),
        "loop_s": loop_s,
        "peak_rss_mib": peak_rss_mib,
        "runs": [{"memory": r.memory, "steps": r.steps, "error": r.error} for r in runs],
    }
    if probe.trace:
        result["layers"] = probe.layer_metrics()
        result["layer_seconds"] = probe.layer_seconds()
        result["counts"] = dict(probe.counts)
        probe.write_spans(os.path.join(out_dir, "spans.csv"))
    np.savez(
        os.path.join(out_dir, "finals.npz"),
        **{f"run{i}": r.final for i, r in enumerate(runs) if r.final is not None},
    )
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
