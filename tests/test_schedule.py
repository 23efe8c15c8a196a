"""Unit tests for memory schedules, coverage accounting and strategy specs."""

import math

import numpy as np
import pytest

from fracgrid.coefficients import build_table
from fracgrid.config import DEFAULT_SHORT_LENGTHS
from fracgrid.schedule import (
    AdaptiveMemory,
    FullMemory,
    MemorySchedule,
    ShortMemory,
    adaptive_schedule,
    cell_bounds,
    coverage_report,
    format_memory_spec,
    full_schedule,
    parse_memory_spec,
    short_schedule,
)

GOLDEN_K9_A3 = [(0, 1), (1, 1), (2, 1), (3, 1), (5, 3), (8, 3)]
GOLDEN_K20_A3 = [
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


def test_full_schedule():
    sched = full_schedule(4)
    assert sched.pairs() == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
    assert sched.weight_sum == 5
    assert full_schedule(0).pairs() == [(0, 1)]


def test_short_schedule_horizon():
    assert short_schedule(1499, 100.0, 1.0).pairs() == full_schedule(100).pairs()
    # the horizon is floor(length / dt) steps
    assert len(short_schedule(1499, 10.5, 1.0)) == 11
    assert len(short_schedule(1499, 100.0, 0.5)) == 201
    # a ratio that lands just below an integer because dt is not exact in
    # binary (0.3 / 0.1 == 2.9999999999999996) still counts as that integer
    assert short_schedule(10, 0.3, 0.1).pairs() == full_schedule(3).pairs()
    assert short_schedule(10, 0.7, 0.1).pairs() == full_schedule(7).pairs()
    assert short_schedule(10, 0.6, 0.2).pairs() == full_schedule(3).pairs()
    # exact ratios keep their horizon
    for dt in (1.0, 0.5):
        for length in DEFAULT_SHORT_LENGTHS:
            horizon = int(length / dt)
            assert len(short_schedule(10**6, length, dt)) == horizon + 1
    # but never more than the available history
    assert short_schedule(7, 100.0, 1.0).pairs() == full_schedule(7).pairs()


def test_adaptive_goldens():
    assert adaptive_schedule(9, 3).pairs() == GOLDEN_K9_A3
    assert adaptive_schedule(9, 3).weight_sum == 10
    assert adaptive_schedule(20, 3).pairs() == GOLDEN_K20_A3
    assert adaptive_schedule(20, 3).weight_sum == 21
    # (first offset, count, stride): head, bands, tail
    assert adaptive_schedule(9, 3).runs == ((0, 4, 1), (5, 2, 3))
    assert adaptive_schedule(20, 3).runs == ((0, 4, 1), (5, 2, 3), (12, 2, 5), (20, 1, 1))


def test_adaptive_degenerates_to_full():
    for k in (0, 1, 3):
        assert adaptive_schedule(k, 3).pairs() == full_schedule(k).pairs()
    assert adaptive_schedule(10, 10).pairs() == full_schedule(10).pairs()
    assert adaptive_schedule(10, 1500).pairs() == full_schedule(10).pairs()


def test_adaptive_deterministic():
    a = adaptive_schedule(260, 4)
    b = adaptive_schedule(260, 4)
    assert a.runs == b.runs and a.spans == b.spans


def test_coverage_full_schedule():
    stats = coverage_report(full_schedule(10), 10)
    assert stats.gap_count == 0
    assert stats.overlap_count == 0
    assert stats.weight_sum == 11


def test_coverage_golden_gap_case():
    # Near the i=4 interval boundary with a=4 the tiling leaves a small hole
    # and one window pokes into its neighbour.
    stats = coverage_report(adaptive_schedule(260, 4), 260)
    assert stats.entry_count == 50
    assert stats.weight_sum == 260
    assert stats.gap_offsets == (254, 255, 256)
    assert stats.overlap_offsets == (65, 66)


def _cells(sched):
    """Cell bounds entry by entry: entry j stands for cells[j] <= x < cells[j+1].

    The program's own rule: each run's :func:`cell_bounds`, newest first.
    """
    cells = []
    for run, span in zip(sched.runs, sched.spans):
        bounds = cell_bounds(run, span)
        assert bounds.size == run[1] + 1 and (bounds[0], bounds[-1]) == (span[1], span[0])
        cells.extend(bounds[:0:-1].tolist())
    cells.append(sched.spans[-1][1])
    return cells


def test_cells_resolve_the_golden_gap_case():
    # Where windows do not meet, the offsets between two samples go to the
    # nearer one.
    sched = adaptive_schedule(260, 4)
    bounds = _cells(sched)
    cells = dict(zip(sched.offsets.tolist(), zip(bounds[:-1], bounds[1:])))
    # overlap 65..66 between the windows of 64 (62..66) and 68 (65..71)
    assert cells[64] == (62, 67) and cells[68] == (67, 72)
    # gap 254..256 between the window of 250 (247..253) and the tail at 257
    assert cells[250] == (247, 254) and cells[257] == (254, 258)


def _reference_cells(pairs):
    """Cell bounds by the rule of the MemorySchedule docstring, join by join."""
    m, w = pairs[0]
    cells = [max(m - (w - 1) // 2, 0)]
    for (m, w), (m_next, w_next) in zip(pairs, pairs[1:]):
        end = m + (w - 1) // 2 + 1
        start = m_next - (w_next - 1) // 2
        # windows that meet keep their bound; otherwise the nearer sample
        # wins, the newer one on a tie
        cells.append(start if end == start else (m + m_next) // 2 + 1)
    m, w = pairs[-1]
    cells.append(m + (w - 1) // 2 + 1)
    return cells


def test_reference_cells_rule():
    assert _reference_cells([(0, 1), (2, 1)]) == [0, 2, 3]  # tie at 1
    assert _reference_cells([(0, 1), (5, 3)]) == [0, 3, 7]  # gap 1..3
    assert _reference_cells([(0, 1), (1, 1), (3, 5)]) == [0, 1, 3, 6]  # overlap, tie at 2


@pytest.mark.parametrize("a", [2, 3, 4, 5, 8, 12, 20, 100])
def test_builder_cells_follow_the_rule(a):
    for k in range(0, 1600, 7):
        sched = adaptive_schedule(k, a)
        assert _cells(sched) == _reference_cells(sched.pairs()), k
    for sched in (full_schedule(30), short_schedule(30, 10.0, 1.0)):
        assert _cells(sched) == _reference_cells(sched.pairs())


@pytest.mark.parametrize("a", [2, 3, 4, 5, 8, 12, 20, 100])
def test_run_coefficients_match_the_cell_rule_bitwise(a):
    # Oracle: the psi mass of each cell from the prefix sums,
    # prefix[cells[1:]] - prefix[cells[:-1]], and psi[m] itself for a cell
    # that is just its own offset.  Each run's coefficients come in storage
    # order, oldest entry first, so the oracle compares them reversed.
    table = build_table(0.5, 1600)

    def check(sched):
        cells = np.array(_reference_cells(sched.pairs()))
        mass = table.prefix[cells]
        expected = mass[1:] - mass[:-1]
        single = cells[1:] - cells[:-1] == 1
        expected[single] = table.values[sched.offsets[single]]
        coeffs = table.coefficients(sched)
        assert len(coeffs) == len(sched.runs)
        assert [c.size for c in coeffs] == [count for _, count, _ in sched.runs]
        assert all(c.flags.c_contiguous for c in coeffs)
        newest_first = np.concatenate([c[::-1] for c in coeffs])
        assert newest_first.tobytes() == expected.tobytes()
        for (m, count, stride), (lo, hi), c in zip(sched.runs, sched.spans, coeffs):
            if stride == 1 and (lo, hi) == (m, m + count):
                # a dense run of unit cells reads the table in place
                assert np.shares_memory(c, table.reversed_values)
        return coeffs

    for k in range(1600):
        check(adaptive_schedule(k, a))
    # one-offset cells at the ends of runs: a dense run cut short by splits
    # at both ends, a one-entry band and the last cell of an even-stride run
    for runs in (
        ((0, 1, 5), (2, 2, 1), (9, 1, 5)),
        ((0, 1, 1), (40, 1, 9), (42, 2, 1), (60, 1, 9)),
        ((0, 1, 1), (2, 1, 5), (3, 1, 1)),
        ((0, 1, 1), (1, 2, 2), (4, 1, 1)),
    ):
        check(MemorySchedule(runs))
    for k in (0, 1, 30, 1599):
        for sched in (full_schedule(k), short_schedule(k, 10.0, 1.0)):
            (coeffs,) = check(sched)
            assert np.shares_memory(coeffs, table.reversed_values)


def _expand_runs(runs):
    """The offsets a schedule's runs stand for, entry by entry."""
    offsets = []
    for first_offset, count, stride in runs:
        offsets.extend(first_offset + t * stride for t in range(count))
    return offsets


@pytest.mark.parametrize("a", [2, 3, 4, 5, 8, 12, 20, 100])
def test_builder_runs_expand_to_offsets(a):
    for k in range(0, 1600):
        sched = adaptive_schedule(k, a)
        assert _expand_runs(sched.runs) == sched.offsets.tolist(), k
        assert all(type(v) is int for run in sched.runs for v in run)
        assert [w for _, w in sched.pairs()] == [s for _, c, s in sched.runs for _ in range(c)]
        assert len(sched) == sched.offsets.size
        # a schedule that visits 0..k is one run, read as one block
        if sched.offsets.size == k + 1:
            assert sched.runs == ((0, k + 1, 1),), k
        else:
            assert len(sched.runs) > 1
    for k in (0, 1, 30, 1599):
        for sched in (full_schedule(k), short_schedule(k, 10.0, 1.0)):
            assert len(sched.runs) == 1
            assert _expand_runs(sched.runs) == sched.offsets.tolist()


def test_coverage_no_anomalies_for_golden_schedules():
    for k in (9, 20):
        stats = coverage_report(adaptive_schedule(k, 3), k)
        assert stats.gap_count == 0
        assert stats.overlap_count == 0
        assert stats.weight_sum == k + 1


def test_coverage_rejects_overlong_schedule():
    with pytest.raises(ValueError, match="beyond"):
        coverage_report(full_schedule(10), 5)


@pytest.mark.parametrize("a", [2, 3, 4, 5, 8, 12])
def test_adaptive_structure_property(a):
    # Structural invariants across a range of history lengths.
    for k in range(0, 400, 7):
        sched = adaptive_schedule(k, a)
        offsets = sched.offsets
        assert offsets[0] == 0
        assert offsets[-1] <= k
        assert np.all(np.diff(offsets) > 0)
        # the cells tile 0..k
        cells = _cells(sched)
        assert cells[0] == 0 and cells[-1] == k + 1 == sched.reach + 1
        assert all(lo < hi for lo, hi in zip(cells, cells[1:]))
        if k > a + 2:
            # thinning must actually shrink the schedule
            assert len(sched) < k + 1


@pytest.mark.parametrize("a", [2, 3, 4, 5, 8, 12, 20, 40, 100])
def test_adaptive_step_adds_at_most_two_runs(a):
    # A step's schedule shares all but at most two (run, span) pairs with the
    # previous step's, so a plan built step by step from the last one changes
    # little.  Base 2 alone adds three, at k = 5 and k = 9.
    def keyed(k):
        sched = adaptive_schedule(k, a)
        return set(zip(sched.runs, sched.spans))

    previous = keyed(0)
    over_two = []
    for k in range(1, 5000):
        current = keyed(k)
        new = len(current - previous)
        if new > 2:
            over_two.append((k, new))
        previous = current
    assert over_two == ([(5, 3), (9, 3)] if a == 2 else [])


def _coefficients(sched, table):
    """Every entry's coefficient in offset order, as one array."""
    return np.concatenate([c[::-1] for c in table.coefficients(sched)])


def test_adaptive_weighted_sum_accuracy():
    # On a smooth synthetic history the thinned weighted sum approaches the
    # full sum as the dense window grows, and is exact once a >= k.
    k = 200
    table = build_table(0.8, k)
    history = np.exp(-np.arange(k + 1) / 50.0)
    full_value = float(np.dot(table.values, history))

    def weighted(a):
        sched = adaptive_schedule(k, a)
        return float(np.sum(_coefficients(sched, table) * history[sched.offsets]))

    errors = [abs(weighted(a) - full_value) / abs(full_value) for a in (3, 5, 8, 12)]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert weighted(200) == full_value


def test_gamma_one_nullity():
    # With gamma = 1 only the m = 0 term survives in any schedule.
    k = 50
    table = build_table(1.0, k)
    rng = np.random.default_rng(5)
    history = rng.uniform(0.5, 2.0, size=k + 1)
    for sched in (full_schedule(k), short_schedule(k, 10.0, 1.0), adaptive_schedule(k, 3)):
        total = float(np.sum(_coefficients(sched, table) * history[sched.offsets]))
        assert total == history[0]


def test_schedule_validation():
    sched = MemorySchedule(((0, 2, 1), (4, 2, 3)))
    assert sched.pairs() == [(0, 1), (1, 1), (4, 3), (7, 3)]
    assert sched.spans == ((0, 3), (3, 9))
    with pytest.raises(ValueError, match="at least one"):
        MemorySchedule(())
    with pytest.raises(ValueError, match="at least one entry"):
        MemorySchedule(((0, 2, 1), (4, 0, 3)))
    with pytest.raises(ValueError, match="positive"):
        MemorySchedule(((0, 2, 1), (4, 2, 0)))
    with pytest.raises(ValueError, match=">= 0"):
        MemorySchedule(((-1, 2, 1),))
    for runs in (
        ((0, 3, 1), (2, 1, 1)),  # overlaps: offset 2 twice
        ((0, 2, 1), (4, 2, 3), (7, 1, 1)),  # overlaps the last offset 7
        ((4, 2, 3), (0, 2, 1)),  # goes backwards
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            MemorySchedule(runs)
    with pytest.raises(ValueError):
        full_schedule(-1)
    with pytest.raises(ValueError, match="base"):
        adaptive_schedule(10, 1)
    with pytest.raises(ValueError, match="length"):
        short_schedule(10, 0.0, 1.0)
    with pytest.raises(ValueError, match="dt"):
        short_schedule(10, 5.0, 0.0)


def test_strategies_delegate():
    assert FullMemory().schedule_at(6, 0.5).pairs() == full_schedule(6).pairs()
    assert ShortMemory(4.0).schedule_at(20, 0.5).pairs() == full_schedule(8).pairs()
    assert AdaptiveMemory(3).schedule_at(9, 2.0).pairs() == GOLDEN_K9_A3


def test_strategy_validation():
    with pytest.raises(ValueError):
        ShortMemory(-1.0)
    with pytest.raises(ValueError):
        ShortMemory(math.inf)
    with pytest.raises(ValueError):
        AdaptiveMemory(1)
    with pytest.raises(ValueError):
        AdaptiveMemory(3.0)  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("full", FullMemory()),
        ("short:100", ShortMemory(100.0)),
        ("short:12.5", ShortMemory(12.5)),
        ("adaptive:5", AdaptiveMemory(5)),
        (" adaptive : 5 ", AdaptiveMemory(5)),
    ],
)
def test_parse_memory_spec(text, expected):
    assert parse_memory_spec(text) == expected


@pytest.mark.parametrize(
    "text", ["fast", "short", "adaptive", "short:abc", "adaptive:2.5", "full:3", ""]
)
def test_parse_memory_spec_rejects(text):
    with pytest.raises(ValueError):
        parse_memory_spec(text)


@pytest.mark.parametrize(
    "strategy,expected",
    [
        (FullMemory(), "full"),
        (ShortMemory(100.0), "short:100"),
        (ShortMemory(12.5), "short:12.5"),
        (AdaptiveMemory(8), "adaptive:8"),
    ],
)
def test_format_memory_spec(strategy, expected):
    assert format_memory_spec(strategy) == expected
    assert parse_memory_spec(format_memory_spec(strategy)) == strategy


def test_param_values():
    assert FullMemory().param == 0.0
    assert ShortMemory(25.0).param == 25.0
    assert AdaptiveMemory(7).param == 7.0
