"""The scenario table (deployment x history x tamper -> exact blame):
the whole cross-product runs clean, nothing is excluded without a
reason, and the judge cannot be satisfied vacuously."""

from collections import Counter

import pytest

from repro.baselines.interface import VerificationReport
from repro.verify.equivalence import (
    DEPLOYMENTS,
    HISTORIES,
    LEGACY_NAMES,
    TAMPERS,
    Tamper,
    inapplicable,
    judge,
    run_scenario_table,
    scenarios,
)
from repro.verify.substrate import Deployment


def test_the_whole_table_runs_clean():
    report = run_scenario_table()
    assert report.ok, report.summary()
    assert report.not_landed == []
    assert [case.name for case in report.cases] == list(scenarios())
    by_name = {case.name: case for case in report.cases}
    # the two detections a migration verifier owns, after every history
    for name, case in by_name.items():
        _, history, tamper = name.split("/")
        if tamper == "refresh_after_rot" or history == "rotted_arrival":
            assert case.caught_by == "migration-verify", name
    # blame carries the attacked shard's label, and follows a move
    grown = by_name["shard-00/grown/worm_clean_object_rot"]
    assert grown.flagged == (grown.expected_flag,)
    assert grown.expected_flag.split(":")[0] not in DEPLOYMENTS
    # a record that was cold when the snapshot was taken is served, and
    # blamed exactly, after the restore
    for deployment in ("engine", "shard-00", "shard-01"):
        restored = by_name[f"{deployment}/restored/worm_clean_object_rot"]
        assert restored.tampered and restored.flagged == (restored.expected_flag,)


def test_the_table_is_the_full_cross_product_minus_stated_exclusions():
    table = scenarios()
    assert len(table) >= 160
    excluded = {
        (attacked, history, tamper.name): inapplicable(attacked, history, tamper.name)
        for attacked in DEPLOYMENTS
        for history in HISTORIES
        for tamper in TAMPERS
    }
    reasons = Counter(reason for reason in excluded.values() if reason)
    assert len(table) + sum(reasons.values()) == len(excluded)
    assert len(reasons) == 3 and all(len(reason) > 40 for reason in reasons)
    # every history and every tamper appears in at least one row
    assert {name.split("/")[1] for name in table} == set(HISTORIES)
    assert {name.split("/")[2] for name in table} == {t.name for t in TAMPERS}
    # and every name the historical oracles report is a row
    assert set(LEGACY_NAMES.values()) <= set(table)


# -- the judge, on fake reports: no deployment needed -----------------------


class FakeSurface:
    """Answers every verification with the violations it was given
    (integrity) or a clean bill (audit)."""

    def __init__(self, integrity=()):
        self.integrity = list(integrity)

    def verify_integrity(self, incremental=False):
        return VerificationReport.from_violations(self.integrity)

    def verify_audit_trail(self, incremental=False):
        return VerificationReport.passed()


ROT = Tamper("rot", ("verify_integrity",), strike=None)
CONTROL = Tamper("control", ("verify_audit_trail", "verify_integrity"), strike=None)


def verdict(flagged, blame, tamper=ROT, **state):
    deployment = Deployment(FakeSurface(flagged), None, attacked="shard-01", **state)
    return judge("case", deployment, tamper, blame)


def test_the_real_thing_is_not_a_violation():
    case = verdict(["shard-01:rec-3"], "rec-3")
    assert not case.violation
    assert case.tampered and case.caught_by == "incremental" and case.attempts == 1
    assert case.expected_flag == "shard-01:rec-3"
    quiet = verdict([], "", tamper=CONTROL)
    assert not quiet.violation and quiet.control and not quiet.tampered
    assert quiet.caught_by == "n/a"


@pytest.mark.parametrize(
    "flagged, blame, tamper",
    [
        pytest.param(["shard-00:rec-3"], "rec-3", ROT, id="right-record-wrong-shard"),
        pytest.param(["rec-3"], "rec-3", ROT, id="label-lost"),
        pytest.param(["shard-01:rec-3"], None, ROT, id="tamper-did-not-land"),
        pytest.param([], None, ROT, id="did-not-land-and-silent"),
        pytest.param(
            ["shard-01:rec-batch-1", "shard-01:rec-batch-2"], "rec-batch-2", ROT,
            id="blame-smeared-over-a-batch-sibling",
        ),
        pytest.param(["shard-01:rec-3"], "", CONTROL, id="control-cries-wolf"),
        pytest.param([], "rec-3", ROT, id="landed-but-never-blamed"),
    ],
)
def test_mutants_are_violations(flagged, blame, tamper):
    assert verdict(flagged, blame, tamper).violation


def test_a_blocked_migration_counts_as_detection_but_not_as_blame():
    # the move aborted and retired the rotten copy: nothing left to flag
    aborted = verdict([], "", blocked=True)
    assert not aborted.violation and aborted.tampered
    assert aborted.caught_by == "migration-verify" and aborted.attempts == 0
    # a refused refresh leaves the rot where it was, blamed exactly
    assert not verdict(["shard-01:rec-3"], "rec-3", blocked=True).violation
    assert verdict(["shard-01:rec-4"], "rec-3", blocked=True).violation
