"""Integration: a breach-investigation story on the Curator engine.

A snooping employee probes records they shouldn't see, an ER doctor
breaks the glass, and the privacy officer reconstructs everything from
a verified audit trail.
"""

import pytest

from repro.access.principals import Role, User
from repro.core import CuratorConfig, CuratorStore
from repro.errors import AccessDeniedError
from repro.util.clock import SimulatedClock
from repro.workload.generator import WorkloadGenerator

MASTER = bytes(range(32))


@pytest.fixture()
def hospital():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=MASTER, clock=clock))
    generator = WorkloadGenerator(99, clock)
    patients = generator.create_population(3)
    record_ids = []
    for patient in patients:
        g = generator.note_record(patient, phi_in_text_probability=0.0)
        store.store(g.record, g.author_id)
        record_ids.append(g.record.record_id)
    store.register_user(User.make("snoop", "Nosy Nurse", [Role.NURSE]))
    store.register_user(User.make("dr-er", "ER Doc", [Role.PHYSICIAN]))
    store.register_user(User.make("po", "Privacy Officer", [Role.PRIVACY_OFFICER]))
    return store, clock, record_ids, patients


def test_snooper_probing_is_visible_in_denial_counts(hospital):
    store, clock, record_ids, _ = hospital
    for record_id in record_ids:
        with pytest.raises(AccessDeniedError):
            store.read(record_id, actor_id="snoop")
    query = store.audit_query()
    assert query.denial_counts().get("snoop") == len(record_ids)
    assert "snoop" in query.suspicious_actors(denial_threshold=3)


def test_break_glass_read_requires_review(hospital):
    store, clock, record_ids, patients = hospital
    patient_id = patients[0].patient_id
    store.break_glass("dr-er", patient_id, "unconscious arrival, unknown allergies")
    target = next(
        r for r in record_ids
        if store.read(r, actor_id="system").patient_id == patient_id
    )
    store.read(target, actor_id="dr-er")
    pending = store.breakglass.pending_review()
    assert len(pending) == 1
    clock.advance(80 * 3600.0)
    assert store.breakglass.overdue_reviews()
    store.breakglass.review(pending[0].grant_id, "po")
    assert store.breakglass.pending_review() == []


def test_disclosure_accounting_for_one_patient(hospital):
    store, clock, record_ids, patients = hospital
    patient_records = [
        r
        for r in record_ids
        if store.read(r, actor_id="system").patient_id == patients[0].patient_id
    ]
    report = store.audit_query().disclosure_accounting(patient_records)
    assert report  # creation events at minimum
    assert all(event.subject_id in patient_records for event in report)


def test_forensics_refuse_tampered_trail(hospital):
    store, clock, record_ids, _ = hospital
    from repro.storage.journal import Journal

    device = store.audit_log.device
    frames = list(Journal.walk_frames(device))
    offset, payload, _ok = frames[len(frames) // 2]
    Journal.forge_frame(device, offset, payload[:-4] + b"XXXX")
    from repro.errors import AuditError

    with pytest.raises(AuditError, match="tampered"):
        store.audit_query().accesses_to(record_ids[0])
    assert not store.verify_audit_trail().ok
