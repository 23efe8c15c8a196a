"""Workload definitions: what each benchmark workload runs, and its seeded inputs.

The seed fixes only the source layout (how many sources, where they sit in
the interior, how strong they are).  Run time does not depend on field
values, so the seed guards against special-casing without changing cost.

On the 100x100 grid every source sits at least 25 cells from the boundary and
at least 27 cells from any other source.  The response of one source has
decayed below 1e-11 of its peak 25 cells out, so the footprints neither touch
the absorbing wall nor overlap: relative errors and mass balance are then the
same for every seed, and the accuracy ceiling below holds for all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GAMMA = 0.75

# Physical setting shared by every 100x100 workload (the bundled benchmark
# scenario's parameters on a larger grid).
GRID_100 = {
    "gamma": GAMMA,
    "alpha": 1.0,
    "beta": 0.0,
    "dt": 1.0,
    "dx": 10.0,
    "grid": (100, 100),
}



@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects the entry point: ``solver`` calls ``fracgrid.solver.run``
    on a config built by ``fracgrid.config.build_simulation``; ``sweep`` and
    ``simulate`` call ``fracgrid.cli.main`` with the matching subcommand.
    """

    name: str
    kind: str
    memory: str = "full"
    steps: int = 0
    # Largest |sum(final) - sum(sources)| / sum(sources) on the 100x100 grid.
    # Mass leaves only through the absorbing wall: within 700 steps the
    # footprints do not reach it, so every strategy conserves mass to
    # rounding; after 1500 steps of short:100 a little may have left.
    mass_tolerance: float | None = None
    # Ceilings on the (L2, Linf) error against full memory, in percent, 25 %
    # above what the unmodified solver gives.  adaptive:5 at 700 steps gives
    # 0.6186 and 0.8644 on every seed.  The sweep's worst adaptive cell
    # depends on the layout; a lone source in a corner cell is the worst
    # case, at 1.420 and 1.796.
    err_ceiling_pct: tuple[float, float] | None = None
    # Snapshot cadence of a ``simulate`` workload, in steps.
    snapshot_every: int | None = None


# Each candidate optimisation is exercised by one workload and bypassed by
# another (see BENCHMARK.json for the one-line reasons):
# - adaptive-100 is bound by HistoryBuffer.gather (about 60 %) and the
#   contraction: strided history views show here.
# - sweep-20 is the paper's accuracy-versus-runtime table on 20x20; per-step
#   Python overhead and rebuilding the adaptive schedule dominate.
# - short-100-long appends 1500 fields of which 101 are ever read, contracts
#   a block of history read in place through HistoryBuffer.block (no
#   gathers) and writes 31 snapshot CSVs: history sizing and CSV changes
#   show here only, and gather changes should not move it.
# Full memory on 100x100 is not a workload: its contraction streams up to
# 56 MB of history per step, and neighbours on a shared host changed its
# fastest iteration by over a fifth from one run to the next.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("adaptive-100", "solver", "adaptive:5", 700, mass_tolerance=1e-9,
                 err_ceiling_pct=(0.77, 1.08)),
        Workload("sweep-20", "sweep", err_ceiling_pct=(1.8, 2.25)),
        Workload("short-100-long", "simulate", "short:100", 1500, mass_tolerance=1e-4,
                 snapshot_every=50),
    )
}


def sources_100(seed: int) -> tuple[tuple[int, int, float], ...]:
    """One to four sources, one per quadrant of the 100x100 grid's centre."""
    rng = random.Random(f"grid100:{seed}")
    quadrants = rng.sample([(0, 0), (0, 1), (1, 0), (1, 1)], rng.randint(1, 4))
    return tuple(
        (
            25 + 38 * qx + rng.randint(0, 11),
            25 + 38 * qy + rng.randint(0, 11),
            rng.uniform(1.0, 20.0),
        )
        for qx, qy in sorted(quadrants)
    )


def sources_20(seed: int) -> tuple[tuple[int, int, float], ...]:
    """One to three distinct interior sources on the 20x20 grid."""
    rng = random.Random(f"grid20:{seed}")
    cells = rng.sample([(j, l) for j in range(2, 18) for l in range(2, 18)], rng.randint(1, 3))
    return tuple((j, l, rng.uniform(1.0, 20.0)) for j, l in sorted(cells))


def sources_for(workload: Workload, seed: int) -> tuple[tuple[int, int, float], ...]:
    return sources_20(seed) if workload.kind == "sweep" else sources_100(seed)


def source_flags(sources) -> list[str]:
    """``--source j,l=value`` flags that round-trip the values exactly."""
    flags: list[str] = []
    for j, l, value in sources:
        flags += ["--source", f"{j},{l}={value!r}"]
    return flags


def cli_argv(workload: Workload, sources, out_dir: str) -> list[str]:
    """Arguments for ``fracgrid.cli.main`` of a CLI workload."""
    if workload.kind == "sweep":
        return ["benchmark", "--out-dir", out_dir, "--gammas", repr(GAMMA)] + source_flags(sources)
    grid = GRID_100
    return [
        "simulate",
        "--out-dir", out_dir,
        "--grid", f"{grid['grid'][0]}x{grid['grid'][1]}",
        "--gamma", repr(grid["gamma"]),
        "--alpha", repr(grid["alpha"]),
        "--beta", repr(grid["beta"]),
        "--dt", repr(grid["dt"]),
        "--dx", repr(grid["dx"]),
        "--memory", workload.memory,
        "--steps", str(workload.steps),
        "--snapshot-every", str(workload.snapshot_every),
    ] + source_flags(sources)


def solver_overrides(workload: Workload, memory: str | None = None) -> dict:
    """``build_simulation`` overrides of a solver workload (or its reference)."""
    return {"memory": memory or workload.memory, "steps": workload.steps}


def solver_defaults(sources) -> dict:
    return dict(GRID_100, sources=tuple(sources))
