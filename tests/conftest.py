import pytest

import repapprox as ra
from repapprox import convergence
from repapprox.roots import all_roots

_ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session")
def ramanujan():
    return ra.parse_polynomial("c:1,1,-2,-1")


@pytest.fixture
def _analyze_all_roots_calls(monkeypatch):
    """(precisions, starts) of every all_roots call analyze makes, in order."""
    precisions, starts = [], []

    def recording(f, precision_bits, start=None):
        precisions.append(precision_bits)
        starts.append(start)
        return all_roots(f, precision_bits, start=start)

    monkeypatch.setattr(convergence, "all_roots", recording)
    return precisions, starts


@pytest.fixture
def asked_precisions(_analyze_all_roots_calls):
    """The precision of every all_roots call analyze makes, in order."""
    return _analyze_all_roots_calls[0]


@pytest.fixture
def asked_starts(_analyze_all_roots_calls):
    """The start of every all_roots call analyze makes, in order."""
    return _analyze_all_roots_calls[1]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not item.name.startswith("test_criterion"):
        return
    status = "PASS" if report.passed else "FAIL"
    if hasattr(report, "wasxfail"):
        status = "XFAIL (documented source-table defect)"
    doc = (item.function.__doc__ or "").strip().splitlines()
    label = doc[0] if doc else item.name
    _ACCEPTANCE_RESULTS.append((item.name, status, label))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, status, label in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{status:<6} {name}: {label}")
