"""``VerificationReport.check``: the one protocol of every counterexample search."""

import pytest

from biorth.reporting import VerificationReport

from conftest import without_timings


def test_an_empty_search_passes():
    report = VerificationReport(params={}, n=None)
    check = report.check("empty", "span", lambda: iter(()))
    assert check.passed and check.first_failure is None
    assert report.checks == [check] and "span" in report.timings_ms
    assert without_timings(report)["checks"] == [{"name": "empty", "pass": True}]


def test_the_first_counterexample_is_recorded_and_the_search_stops_there():
    advanced = []

    def failures():
        for k in range(5):
            advanced.append(k)
            if k >= 2:
                yield {"k": k}

    report = VerificationReport(params={}, n=None)
    check = report.check("search", "span", failures)
    assert not check.passed and check.first_failure == {"k": 2}
    assert advanced == [0, 1, 2]


def test_a_raising_search_is_timed_and_adds_no_check():
    def failures():
        raise ZeroDivisionError("inside the search")

    report = VerificationReport(params={}, n=None)
    with pytest.raises(ZeroDivisionError):
        report.check("raises", "span", failures)
    assert report.checks == [] and "span" in report.timings_ms

