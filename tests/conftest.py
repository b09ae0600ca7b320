"""Test-session hooks shared by every test module."""
from __future__ import annotations


def pytest_runtest_makereport(item, call):
    # A strict xfail fails on purpose. Hypothesis would turn its failing
    # examples into a patch under .hypothesis/patches/ and print a
    # `git apply` hint for it; drop them before its report hook reads them.
    if call.when == "teardown" and item.get_closest_marker("xfail") is not None:
        item.__dict__.pop("_hypothesis_failing_examples", None)
