"""Shared pytest hooks and fixtures.

The acceptance gates print one ``ACCEPTANCE ...`` verdict line per test.
Output captured from a passing test is normally dropped, so the summary
repeats every verdict line, in the order the tests ran.
"""

import pytest


def _slice_stencil(data):
    """The five-point sum written over 2-D slices, on the interior alone."""
    return (
        data[2:, 1:-1]
        + data[:-2, 1:-1]
        - 4.0 * data[1:-1, 1:-1]
        + data[1:-1, 2:]
        + data[1:-1, :-2]
    )


@pytest.fixture
def slice_stencil():
    """Reference stencil that ``fracgrid.grid.stencil`` must match bit for bit."""
    return _slice_stencil


def pytest_terminal_summary(terminalreporter):
    reports = [
        report
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
    ]
    reports.sort(key=lambda report: report.start)
    lines = [
        line
        for report in reports
        for line in report.capstdout.splitlines()
        if line.startswith("ACCEPTANCE ")
    ]
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
