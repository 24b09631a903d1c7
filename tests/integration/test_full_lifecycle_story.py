"""Capstone integration: one record's whole life through every subsystem.

Authentication → documentation with imaging → correction → emergency
access → quorum-anchored audit → backup → media refresh → litigation
hold → release → retention expiry → certified destruction → forensic
confirmation that nothing recoverable remains.
"""

import pytest

from repro.access.principals import Role, User
from repro.cluster import CuratorCluster
from repro.core import CuratorConfig, CuratorStore
from repro.crypto.merkle import MerkleTree
from repro.errors import RecordNotFoundError, RetentionError
from repro.records.model import ClinicalNote, HealthRecord
from repro.service import CuratorService
from repro.service.service import Request
from repro.util.clock import SimulatedClock
from repro.util.rng import DeterministicRng

from tests.service.conftest import wire_login

MASTER = bytes(range(32))


def _config(clock):
    return CuratorConfig(
        master_key=MASTER, clock=clock, witness_count=3, anchor_every_events=16
    )


@pytest.fixture()
def world():
    clock = SimulatedClock(start=1.17e9)
    return CuratorStore(_config(clock)), clock


def test_record_lifetime_story():
    clock = SimulatedClock(start=1.17e9)
    cluster = CuratorCluster(_config(clock), shards=1)
    service = CuratorService(cluster)
    store = cluster.shards[0]  # the one engine behind the front door

    # Act 1 — authenticated documentation, through the wire service.
    secret = service.enroll(
        User.make("dr-house", "Dr House", [Role.PHYSICIAN], "oncology",
                  treating={"pat-grace"})
    )
    bearer = wire_login(service, "dr-house", secret)
    note = ClinicalNote.create(
        record_id="rec-1",
        patient_id="pat-grace",
        created_at=clock.now(),
        author="dr-house",
        specialty="oncology",
        text="biopsy confirms carcinoma, staging pending",
    )
    stored = service.handle_request(
        Request("POST", "/v1/records", body=note.to_dict(), bearer=bearer)
    )
    assert stored.status == 201, stored.body
    read = service.handle_request(Request("GET", "/v1/records/rec-1", bearer=bearer))
    assert HealthRecord.from_dict(read.body) == note

    # Imaging attached, encrypted, chunked.
    scan = DeterministicRng(42).bytes(90_000)
    store.attach("rec-1", "ct-chest", scan, actor_id="dr-house")

    # Act 2 — correction preserves history.
    corrected = HealthRecord(
        record_id="rec-1",
        record_type=note.record_type,
        patient_id="pat-grace",
        created_at=clock.now(),
        body={**note.body, "text": "biopsy benign on pathology re-review"},
    )
    store.correct(corrected, author_id="dr-house", reason="pathology revision")
    assert store.read_version("rec-1", 0, actor_id="dr-house") == note
    assert store.search("benign", actor_id="dr-house") == ["rec-1"]
    assert store.search("carcinoma", actor_id="dr-house") == []

    # Act 3 — emergency access by an unaffiliated physician.
    store.register_user(User.make("dr-er", "ER Doc", [Role.PHYSICIAN]))
    store.break_glass("dr-er", "pat-grace", "unresponsive arrival in the ER tonight")
    assert store.read("rec-1", actor_id="dr-er").body["text"].startswith("biopsy benign")

    # Act 4 — operations: backup, media refresh, quorum-anchored audit.
    snapshot = store.create_backup(actor_id="backup-operator")
    assert snapshot.objects
    store.refresh_media()
    assert store.read_attachment("rec-1", "ct-chest", actor_id="dr-house") == scan
    # force enough events for anchors; three witnesses hold them
    for _ in range(20):
        store.read("rec-1", actor_id="dr-house")
    assert any(w.anchors for w in store._anchors.witnesses)
    assert store.verify_audit_trail().ok

    # Act 5 — litigation hold trumps expiry; release restores schedule.
    clock.advance_years(8)  # 7-year clinical retention has passed
    store.place_hold("rec-1", "case-1138", actor_id="counsel")
    with pytest.raises(RetentionError):
        store.dispose("rec-1", actor_id="records-manager")
    store.release_hold("rec-1", "case-1138", actor_id="counsel")

    # Act 6 — certified destruction, everywhere.
    certificates = store.dispose("rec-1", actor_id="records-manager")
    assert certificates and all(c.shred_report.key_shredded for c in certificates)
    with pytest.raises(RecordNotFoundError):
        store.read("rec-1", actor_id="dr-house")
    with pytest.raises(RecordNotFoundError):
        store.read_attachment("rec-1", "ct-chest", actor_id="dr-house")
    assert store.search("benign", actor_id="dr-house") == []
    for device in store.devices():
        dump = device.raw_dump()
        assert b"carcinoma" not in dump and b"benign" not in dump

    # Epilogue — the audit trail tells the whole story, verifiably.
    assert store.verify_audit_trail().ok
    actions = {event["action"] for event in store.audit_events()}
    for expected in (
        "record_created", "record_corrected", "emergency_access",
        "backup_created", "migration_completed", "retention_hold_placed",
        "retention_hold_released", "record_disposed", "anchor_published",
    ):
        assert expected in actions, expected
    service.verify_service_audit()
    cluster.close()


def test_quorum_config_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        CuratorConfig(master_key=MASTER, witness_count=0)


def test_quorum_store_detects_truncation_with_one_wiped_witness(world):
    store, clock = world
    for i in range(40):
        note = ClinicalNote.create(
            record_id=f"rec-{i}",
            patient_id="pat-1",
            created_at=clock.now(),
            author="dr-a",
            specialty="x",
            text="routine visit note",
        )
        store.store(note, author_id="dr-a")
    assert any(w.anchors for w in store._anchors.witnesses)
    # compromise one witness
    store._anchors.witnesses[0]._anchors.clear()
    assert store.verify_audit_trail().ok  # majority still vouches
    # truncate beneath the anchors
    store.audit_log._events = store.audit_log._events[:5]
    full, short = store.audit_log.merkle_tree(), MerkleTree()
    for index in range(5):
        short.append_hash(full.leaf_digest(index))
    store.audit_log._tree = short
    assert not store.verify_audit_trail().ok
