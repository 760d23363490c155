import acceptance_report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
