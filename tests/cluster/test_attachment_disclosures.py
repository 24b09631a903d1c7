"""The accounting of disclosures covers a record's attachments.

An attachment is audited under its own subject (``rec-0#att/scan``); the
accounting matches every event by the record its subject is about, the
way a patient move already selects the audit events it carries."""

import pytest

from repro.access.principals import Role, User
from repro.cluster import CuratorCluster
from repro.core.engine import CuratorStore
from repro.records.model import ClinicalNote


@pytest.mark.parametrize("surface", ["engine", "cluster"])
def test_the_accounting_lists_attachment_accesses(surface, config, clock):
    target = CuratorStore(config) if surface == "engine" else CuratorCluster(config, shards=2)
    target.register_user(User.make("dr-a", "Dr A", [Role.PHYSICIAN], treating=["pat-1"]))
    target.register_user(User.make("po", "PO", [Role.PRIVACY_OFFICER]))
    target.store(
        ClinicalNote.create(
            record_id="rec-0", patient_id="pat-1", created_at=clock.now(),
            author="dr-a", specialty="oncology", text="biopsy followup",
        ),
        "dr-a",
    )
    target.attach("rec-0", "scan", b"pixels" * 100, actor_id="dr-a")
    assert target.read_attachment("rec-0", "scan", actor_id="dr-a") == b"pixels" * 100
    target.read("rec-0", actor_id="dr-a")
    report = target.accounting_of_disclosures("pat-1", actor_id="po")
    assert [(event.action.value, event.subject_id) for event in report] == [
        ("record_created", "rec-0"),
        ("record_created", "rec-0#att/scan"),
        ("record_read", "rec-0#att/scan"),
        ("record_read", "rec-0"),
    ]
