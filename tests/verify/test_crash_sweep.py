"""Bounded crash-consistency sweep cases (the full every-boundary
sweep runs via ``python -m repro verify``)."""

import pytest

from repro.verify import run_crash_sweep
from repro.verify.oracle import _run_case

pytestmark = pytest.mark.crash_sweep


def test_bounded_sweep_upholds_the_durability_contract():
    report = run_crash_sweep(limit=6)
    assert report.ok, report.summary()
    assert report.boundaries > 20  # the workload is non-trivial
    assert report.cases_run == len(report.crash_points) * 2  # clean + torn
    # the sample always pins the first and last write boundary
    assert report.crash_points[0] == 1
    assert report.crash_points[-1] == report.boundaries
    assert "0 violations" in report.summary()


def test_single_point_sweep_hits_the_last_boundary():
    report = run_crash_sweep(limit=1, torn=False)
    assert report.ok, report.summary()
    assert report.crash_points == (report.boundaries,)
    assert report.cases_run == 1


def test_unreached_crash_point_is_reported_not_silently_passed():
    violations = _run_case(crash_at=10_000, torn=False)
    assert violations
    assert "never reached" in violations[0].description


def test_progress_callback_sees_every_case():
    seen = []
    report = run_crash_sweep(
        limit=2, torn=True, progress=lambda k, torn, n: seen.append((k, torn))
    )
    assert report.ok, report.summary()
    assert len(seen) == report.cases_run
    assert {torn for _k, torn in seen} == {False, True}
