"""Shared pytest hooks.

The acceptance gates print one ``ACCEPTANCE ...`` verdict line per test.
Output captured from a passing test is normally dropped, so the summary
repeats every verdict line, in the order the tests ran.
"""


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
