"""Acceptance gate for the advertised behaviour of the package.

Each test prints one ``ACCEPTANCE <n> (<label>): PASS/FAIL`` line and then
asserts it.  ``tests/conftest.py`` repeats every verdict line, passing or
failing, in an "acceptance verdicts" section at the end of a plain
``pytest`` run (under ``-s`` they appear inline instead).  The heavy
scenario runs are executed twice through module-scoped fixtures so the last
criterion can compare the CSV artifacts of both passes byte for byte.
"""

from dataclasses import replace

import numpy as np
import pytest

from fracgrid.benchmark import gamma_sweep, run_comparison
from fracgrid.coefficients import build_table
from fracgrid.config import (
    BENCHMARK_SCENARIO,
    DEFAULT_ADAPTIVE_BASES,
    DEFAULT_SHORT_LENGTHS,
    SPREAD_SCENARIO,
    build_simulation,
)
from fracgrid.csvio import (
    format_benchmark_rows,
    write_grid_csv,
    write_profile_csv,
    write_schedule_csv,
    write_trace_csv,
)
from fracgrid.schedule import (
    AdaptiveMemory,
    FullMemory,
    ShortMemory,
    adaptive_schedule,
    coverage_report,
)
from fracgrid.solver import SimulationConfig, run

mpmath = pytest.importorskip("mpmath")

POINT_SOURCE = build_simulation({}, {}, BENCHMARK_SCENARIO)  # 20x20, 1500 steps
SPREAD = build_simulation({}, {}, SPREAD_SCENARIO)  # 100x100, 200 steps
SWEEP_GAMMAS = (0.5, 0.75, 0.9)

K9_A3 = [(0, 1), (1, 1), (2, 1), (3, 1), (5, 3), (8, 3)]
K20_A3 = [
    (0, 1),
    (1, 1),
    (2, 1),
    (3, 1),
    (5, 3),
    (8, 3),
    (12, 5),
    (17, 5),
    (20, 1),
]


def _gate(number: str, label: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} ({label}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert passed, line


def _tag(gamma: float) -> str:
    return str(gamma).replace(".", "p")


# ---------------------------------------------------------------------------
# Scenario fixtures, each executed twice for the determinism criterion.


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    first, second = root / "pass1", root / "pass2"
    first.mkdir()
    second.mkdir()
    return first, second


@pytest.fixture(scope="module")
def equivalence_runs(passes):
    """gamma=1 point-source finals for full, short(100) and adaptive(5)."""
    batches = []
    for out in passes:
        finals = {}
        for tag, strategy in (
            ("full", FullMemory()),
            ("short100", ShortMemory(100.0)),
            ("adaptive5", AdaptiveMemory(5)),
        ):
            config = replace(POINT_SOURCE, gamma=1.0, strategy=strategy)
            finals[tag] = run(config).final
            write_grid_csv(finals[tag], str(out / f"equivalence_{tag}.csv"))
        batches.append(finals)
    return batches


@pytest.fixture(scope="module")
def exactness_runs(passes):
    """gamma=0.5 finals where truncation covers the whole history."""
    batches = []
    for out in passes:
        finals = {}
        for tag, strategy in (
            ("full", FullMemory()),
            ("short1500", ShortMemory(1500.0)),
            ("adaptive1500", AdaptiveMemory(1500)),
        ):
            config = replace(POINT_SOURCE, gamma=0.5, strategy=strategy)
            finals[tag] = run(config).final
            write_grid_csv(finals[tag], str(out / f"exactness_{tag}.csv"))
        batches.append(finals)
    return batches


@pytest.fixture(scope="module")
def spread_sweeps(passes):
    """Spreading-pulse profiles and source-cell traces across gamma."""
    batches = []
    for out in passes:
        entries = gamma_sweep(SPREAD, (0.5, 0.75, 0.9, 1.0))
        for entry in entries:
            write_profile_csv(
                entry.profile, str(out / f"profile_gamma_{_tag(entry.gamma)}.csv")
            )
            write_trace_csv(
                entry.trace_steps,
                entry.trace_values,
                str(out / f"trace_gamma_{_tag(entry.gamma)}.csv"),
            )
        batches.append(entries)
    return batches


@pytest.fixture(scope="module")
def comparison_records(passes):
    """Full default error-vs-runtime sweep on the point-source scenario."""
    batches = []
    for out in passes:
        records = run_comparison(
            POINT_SOURCE, SWEEP_GAMMAS, DEFAULT_SHORT_LENGTHS, DEFAULT_ADAPTIVE_BASES
        )
        timeless = [replace(r, elapsed_s=0.0) for r in records]
        (out / "benchmark.csv").write_text(format_benchmark_rows(timeless))
        batches.append(records)
    return batches


@pytest.fixture(scope="module")
def schedule_files(passes):
    for out in passes:
        write_schedule_csv(adaptive_schedule(9, 3), str(out / "schedule_k9_a3.csv"))
        write_schedule_csv(adaptive_schedule(20, 3), str(out / "schedule_k20_a3.csv"))
        write_schedule_csv(adaptive_schedule(260, 4), str(out / "schedule_k260_a4.csv"))
    return passes


# ---------------------------------------------------------------------------
# Criteria.


def test_criterion_1_coefficient_identities():
    def oracle(gamma: float, m: int) -> float:
        with mpmath.workdps(60):
            acc = mpmath.mpf(1)
            g = mpmath.mpf(gamma)
            for i in range(1, m + 1):
                acc *= (g + i - 2) / i
            return float(acc)

    worst = 0.0
    heads_ok = True
    for gamma in (0.1, 0.5, 0.9):
        table = build_table(gamma, 50)
        heads_ok &= table.values[0] == 1.0
        for m in range(1, 51):
            expected = oracle(gamma, m)
            worst = max(worst, abs(table.values[m] - expected) / abs(expected))

    ones = build_table(1.0, 50)
    nullity_ok = bool(np.all(ones.values[1:] == 0.0)) and ones.values[0] == 1.0

    sums_ok = True
    for gamma in (0.1, 0.5, 0.9):
        sums = np.cumsum(build_table(gamma, 400).values)
        sums_ok &= bool(np.all(sums > 0.0)) and bool(np.all(np.diff(sums) < 0.0))

    passed = heads_ok and nullity_ok and sums_ok and worst <= 1e-12
    _gate(
        "1",
        "coefficient identities",
        passed,
        f"max oracle deviation {worst:.3e}, partial sums positive+decreasing: {sums_ok}",
    )


def test_criterion_2_classical_limit(equivalence_runs):
    finals = equivalence_runs[0]
    reference = finals["full"].data

    config = replace(POINT_SOURCE, gamma=1.0)
    u = config.initial_grid().data.copy()
    r = config.alpha * config.dt / config.dx**2
    for _ in range(config.n_steps):
        lap = (
            u[:-2, 1:-1]
            + u[2:, 1:-1]
            + u[1:-1, :-2]
            + u[1:-1, 2:]
            - 4.0 * u[1:-1, 1:-1]
        )
        u[1:-1, 1:-1] += r * lap
    deviations = {
        "short100": float(np.abs(finals["short100"].data - reference).max()),
        "adaptive5": float(np.abs(finals["adaptive5"].data - reference).max()),
        "ftcs-oracle": float(np.abs(u - reference).max()),
    }
    worst = max(deviations.values())
    _gate(
        "2",
        "classical-limit equivalence",
        worst <= 1e-10,
        ", ".join(f"{k}: {v:.3e}" for k, v in deviations.items()),
    )


def test_criterion_3_exact_when_memory_covers(exactness_runs):
    finals = exactness_runs[0]
    reference = finals["full"].data
    dev_short = float(np.abs(finals["short1500"].data - reference).max())
    dev_adaptive = float(np.abs(finals["adaptive1500"].data - reference).max())
    worst = max(dev_short, dev_adaptive)
    _gate(
        "3",
        "exactness limits",
        worst <= 1e-12,
        f"short(1500): {dev_short:.3e}, adaptive(1500): {dev_adaptive:.3e}",
    )


def test_criterion_4_schedule_goldens(schedule_files):
    s9 = adaptive_schedule(9, 3)
    s20 = adaptive_schedule(20, 3)
    goldens_ok = (
        s9.pairs() == K9_A3
        and s9.weight_sum == 10
        and s20.pairs() == K20_A3
        and s20.weight_sum == 21
    )
    clean = all(
        coverage_report(s, k).gap_count == 0
        and coverage_report(s, k).overlap_count == 0
        for s, k in ((s9, 9), (s20, 20))
    )
    boundary = coverage_report(adaptive_schedule(260, 4), 260)
    detects = boundary.gap_count > 0 and boundary.overlap_count > 0
    _gate(
        "4",
        "schedule goldens",
        goldens_ok and clean and detects,
        f"k=260,a=4 gaps {boundary.gap_offsets} overlaps {boundary.overlap_offsets}",
    )


def test_criterion_5_profile_ordering_and_symmetry(spread_sweeps):
    entries = spread_sweeps[0]
    centers = [float(e.trace_values[-1]) for e in entries]
    ordered = all(a > b for a, b in zip(centers, centers[1:]))

    asym = 0.0
    for entry in entries:
        profile = entry.profile
        mid = len(profile) // 2
        for d in range(1, mid):
            asym = max(asym, abs(profile[mid - d] - profile[mid + d]))
    passed = ordered and asym <= 1e-10
    _gate(
        "5",
        "profile ordering and symmetry",
        passed,
        "centers "
        + ", ".join(f"{e.gamma}: {c:.6g}" for e, c in zip(entries, centers))
        + f"; max asymmetry {asym:.3e}",
    )


def _curve(records, gamma, strategy):
    return [
        r.err_l2_pct
        for r in records
        if r.gamma == gamma and r.strategy == strategy and not r.failed
    ]


def test_criterion_6a_error_decreases_with_memory(comparison_records):
    records = comparison_records[0]
    exceptions = {}
    for gamma in SWEEP_GAMMAS:
        for strategy in ("short", "adaptive"):
            errs = _curve(records, gamma, strategy)
            ups = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
            exceptions[f"{strategy}@{gamma}"] = ups
    passed = all(ups <= 1 for ups in exceptions.values())
    _gate(
        "6a",
        "error decreases with memory",
        passed,
        "non-monotone steps " + str(exceptions),
    )


def test_criterion_6b_adaptive_beats_matched_short(comparison_records):
    records = comparison_records[0]
    counts = {}
    for gamma in SWEEP_GAMMAS:
        adaptive = [r for r in records if r.gamma == gamma and r.strategy == "adaptive"]
        short = [r for r in records if r.gamma == gamma and r.strategy == "short"]
        counts[gamma] = sum(
            1
            for a in adaptive
            for s in short
            if not a.failed
            and not s.failed
            and a.elapsed_s <= s.elapsed_s
            and a.err_l2_pct < s.err_l2_pct
        )
    passed = all(count >= 3 for count in counts.values())
    _gate(
        "6b",
        "adaptive beats equal-or-slower short",
        passed,
        "qualifying (a, L) pairings " + str(counts),
    )


def test_criterion_6b_twin_adaptive_beats_matched_short_in_entries(comparison_records):
    # Deterministic twin of 6b: the same rule with the history entries a run
    # visits in place of its wall time, so the claim is checked even where
    # timing noise decides the wall-time gate.
    records = comparison_records[0]
    strategies = {"short": ShortMemory, "adaptive": lambda param: AdaptiveMemory(int(param))}
    visited = {}
    for r in records:
        key = (r.strategy, r.param)
        if r.strategy in strategies and key not in visited:
            strategy = strategies[r.strategy](r.param)
            visited[key] = sum(
                len(strategy.schedule_at(k, POINT_SOURCE.dt))
                for k in range(POINT_SOURCE.n_steps)
            )
    counts = {}
    for gamma in SWEEP_GAMMAS:
        adaptive = [r for r in records if r.gamma == gamma and r.strategy == "adaptive"]
        short = [r for r in records if r.gamma == gamma and r.strategy == "short"]
        counts[gamma] = sum(
            1
            for a in adaptive
            for s in short
            if not a.failed
            and not s.failed
            and visited[("adaptive", a.param)] <= visited[("short", s.param)]
            and a.err_l2_pct < s.err_l2_pct
        )
    passed = all(count >= 3 for count in counts.values())
    _gate(
        "6b-entries",
        "adaptive beats short visiting as many entries or more",
        passed,
        "qualifying (a, L) pairings " + str(counts),
    )


def test_criterion_6c_short_penalty_grows_with_gamma(comparison_records):
    records = comparison_records[0]
    ratios = {}
    for gamma in SWEEP_GAMMAS:
        short = next(
            r for r in records
            if r.gamma == gamma and r.strategy == "short" and r.param == 10.0
        )
        adaptive = next(
            r for r in records
            if r.gamma == gamma and r.strategy == "adaptive" and r.param == 3.0
        )
        ratios[gamma] = short.err_l2_pct / adaptive.err_l2_pct
    passed = ratios[0.75] > ratios[0.5] and ratios[0.9] > ratios[0.5]
    _gate(
        "6c",
        "short penalty grows toward gamma=1",
        passed,
        "err(short L=10)/err(adaptive a=3) "
        + ", ".join(f"{g}: {v:.1f}" for g, v in ratios.items()),
    )


def test_criterion_7_conservation_and_decay():
    config = SimulationConfig(
        gamma=0.5,
        alpha=1.0,
        beta=0.0,
        dt=1.0,
        dx=10.0,
        nx=41,
        ny=41,
        n_steps=12,
        sources=((20, 20, 10.0),),
        snapshot_every=1,
    )
    fields = []
    run(config, on_snapshot=lambda _, field: fields.append(field))
    masses = [float(f[1:-1, 1:-1].sum()) for f in fields]
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])

    decay_config = SimulationConfig(
        gamma=0.5,
        alpha=0.0,
        beta=0.01,
        dt=1.0,
        dx=1.0,
        nx=9,
        ny=9,
        n_steps=10,
        sources=((4, 4, 10.0),),
    )
    final = run(decay_config).final.data[4, 4]
    expected = 10.0
    for _ in range(10):
        expected *= 1.0 - 0.01
    exact = final == expected

    _gate(
        "7",
        "conservation and decay",
        drift <= 1e-10 and exact,
        f"mass drift {drift:.3e}, decay exact: {exact}",
    )


def test_criterion_8_byte_identical_artifacts(
    passes,
    equivalence_runs,
    exactness_runs,
    spread_sweeps,
    comparison_records,
    schedule_files,
):
    first, second = passes
    names_first = sorted(p.name for p in first.glob("*.csv"))
    names_second = sorted(p.name for p in second.glob("*.csv"))
    same_set = names_first == names_second and len(names_first) > 0
    mismatched = [
        name
        for name in names_first
        if (first / name).read_bytes() != (second / name).read_bytes()
    ]
    passed = same_set and not mismatched
    _gate(
        "8",
        "byte-identical artifacts",
        passed,
        f"{len(names_first)} files compared"
        + (f", differing: {mismatched}" if mismatched else ""),
    )
