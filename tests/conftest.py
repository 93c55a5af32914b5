"""Shared fixtures and the acceptance-criterion summary plugin.

Tests marked ``@pytest.mark.criterion(num, title)`` get one PASS/FAIL
line each in the terminal summary, so the acceptance gate reads as a
checklist. Importing ``per_op`` binds the tensor operators every test
module may use.
"""

import pytest

import per_op  # noqa: F401

_CRITERIA = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        num, title = marker.args
        _CRITERIA[num] = (title, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        title, outcome = _CRITERIA[num]
        status = {"passed": "PASS", "skipped": "SKIP"}.get(outcome, "FAIL")
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {title}")


@pytest.fixture
def rng():
    from evalp.rng import Rng

    return Rng(0)


@pytest.fixture
def ring_data():
    from evalp.data import make_gaussian_ring

    return make_gaussian_ring(512, modes=8, radius=2.0, sigma=0.1, seed=11).samples
