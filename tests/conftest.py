"""Shared pytest configuration for the whole suite."""

import pytest

from repro.verify.equivalence import EquivalenceReport, run_scenario_table


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "crash_sweep: crash-consistency sweep cases (slower; the full "
        "sweep lives behind `python -m repro verify`)",
    )


@pytest.fixture(scope="session")
def scenario_table() -> EquivalenceReport:
    """The detection-equivalence scenario table, run once per session:
    every test that asserts on its rows reads them from this one run."""
    return run_scenario_table()
