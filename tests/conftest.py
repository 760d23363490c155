import pytest

import acceptance_report


@pytest.fixture
def fresh_cover_memos():
    """Empty the process-wide cover memos around a test, so cache files get read."""
    import ballsat.orchestrator as orch

    orch._BINARY_MEMO.clear()
    orch._KARY_MEMO.clear()
    yield
    orch._BINARY_MEMO.clear()
    orch._KARY_MEMO.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
