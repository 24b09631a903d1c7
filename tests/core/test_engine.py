"""CuratorStore: the hybrid engine end to end."""

import pytest

from repro.access.policies import ConsentDirective
from repro.access.principals import Role, User
from repro.access.rbac import Purpose
from repro.core import CuratorConfig, CuratorStore
from repro.crypto.merkle import MerkleTree
from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    ConsentError,
    IntegrityError,
    RecordError,
    RecordNotFoundError,
    RetentionError,
)
from repro.records.model import ClinicalNote, HealthRecord, Observation
from repro.util.clock import SimulatedClock

MASTER = bytes(range(32))


def make_store(**config):
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=MASTER, clock=clock, **config))
    return store, clock


def make_note(record_id="rec-1", text="biopsy shows metastatic carcinoma"):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id="pat-1",
        created_at=100.0,
        author="dr-a",
        specialty="oncology",
        text=text,
    )


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CuratorConfig(master_key=b"short")
    with pytest.raises(ConfigurationError):
        CuratorConfig(master_key=MASTER, site_id="")
    with pytest.raises(ConfigurationError):
        CuratorConfig(master_key=MASTER, anchor_every_events=0)


def test_store_and_read_as_author():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    assert store.read("rec-1", actor_id="dr-a") == note


def test_duplicate_record_rejected():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    with pytest.raises(RecordError):
        store.store(make_note(), author_id="dr-a")


def test_unknown_actor_denied_and_logged():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    with pytest.raises(AccessDeniedError):
        store.read("rec-1", actor_id="stranger")
    events = store.audit_events()
    assert any(
        e["action"] == "access_denied" and e["actor_id"] == "stranger" for e in events
    )


def test_registered_non_treating_physician_denied():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    store.register_user(User.make("dr-b", "Dr. B", [Role.PHYSICIAN]))
    with pytest.raises(AccessDeniedError, match="treating"):
        store.read("rec-1", actor_id="dr-b")
    # A historical read is decided first: a version that does not exist
    # is refused exactly like one that does, so the refusal reveals
    # nothing about the record's history, and it is audited.
    for version in (0, 1, 5):
        before = len(store.audit_events())
        with pytest.raises(AccessDeniedError, match="treating"):
            store.read_version("rec-1", version, actor_id="dr-b")
        events = store.audit_events()[before:]
        assert [(e["action"], e["actor_id"]) for e in events] == [
            ("access_denied", "dr-b")
        ]


def test_break_glass_enables_emergency_read():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    store.register_user(User.make("dr-er", "ER Doc", [Role.PHYSICIAN]))
    store.break_glass("dr-er", "pat-1", "patient unconscious in emergency room")
    record = store.read("rec-1", actor_id="dr-er")
    assert record.body["text"].startswith("biopsy")
    actions = [e["action"] for e in store.audit_events()]
    assert "emergency_access" in actions
    assert len(store.breakglass.pending_review()) == 1


def test_consent_blocks_restrictable_disclosure():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    store.register_user(User.make("po-1", "PO", [Role.PRIVACY_OFFICER]))
    store.consent.add_directive(
        "pat-1",
        ConsentDirective("d1", blocked_roles=frozenset({Role.PRIVACY_OFFICER})),
    )
    with pytest.raises(ConsentError):
        store.read("rec-1", actor_id="po-1")
    # Treating physician unaffected (treatment is non-restrictable).
    assert store.read("rec-1", actor_id="dr-a")


def test_correction_creates_version_and_preserves_history():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    corrected = HealthRecord(
        record_id="rec-1",
        record_type=note.record_type,
        patient_id="pat-1",
        created_at=note.created_at,
        body={**note.body, "text": "biopsy benign after pathology review"},
    )
    store.correct(corrected, author_id="dr-a", reason="pathology revision")
    assert store.read("rec-1", actor_id="dr-a").body["text"].startswith("biopsy benign")
    assert store.read_version("rec-1", 0, actor_id="dr-a") == note
    assert store.version_count("rec-1") == 2


def test_correction_reindexes_securely():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    corrected = HealthRecord(
        record_id="rec-1",
        record_type=note.record_type,
        patient_id="pat-1",
        created_at=note.created_at,
        body={**note.body, "text": "lesion benign on review"},
    )
    store.correct(corrected, author_id="dr-a", reason="revision")
    assert store.search("benign", actor_id="dr-a") == ["rec-1"]
    assert store.search("carcinoma", actor_id="dr-a") == []


def test_search_finds_and_is_audited_without_leaking_term():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    assert store.search("carcinoma", actor_id="dr-a") == ["rec-1"]
    assert b"carcinoma" not in store.audit_log.device.raw_dump()
    actions = [e["action"] for e in store.audit_events()]
    assert "record_searched" in actions


def test_devices_contain_no_plaintext_phi():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    for device in store.devices():
        assert b"carcinoma" not in device.raw_dump()


def test_dispose_blocked_inside_retention():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    with pytest.raises(RetentionError):
        store.dispose("rec-1", actor_id="records-manager")


def test_dispose_after_retention_is_complete_and_residue_free():
    store, clock = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    clock.advance_years(8)  # clinical notes: 7-year schedule
    certificates = store.dispose("rec-1", actor_id="records-manager")
    assert len(certificates) == 1
    assert certificates[0].shred_report.key_shredded
    assert "rec-1" not in store.record_ids()
    with pytest.raises(RecordNotFoundError):
        store.read("rec-1", actor_id="dr-a")
    assert store.search("carcinoma", actor_id="dr-a") == []
    for device in store.devices():
        assert b"carcinoma" not in device.raw_dump()


def test_litigation_hold_blocks_disposal():
    store, clock = make_store()
    store.store(make_note(), author_id="dr-a")
    clock.advance_years(8)
    store.place_hold("rec-1", "case-42", actor_id="counsel")
    with pytest.raises(RetentionError, match="hold"):
        store.dispose("rec-1", actor_id="records-manager")
    store.release_hold("rec-1", "case-42", actor_id="counsel")
    assert store.dispose("rec-1", actor_id="records-manager")


def test_retention_sweep_lists_due_records():
    store, clock = make_store()
    store.store(make_note("rec-1"), author_id="dr-a")
    clock.advance_years(8)
    store.store(make_note("rec-2"), author_id="dr-a")
    assert store.retention_sweep() == ["rec-1"]


def test_verify_integrity_clean_then_tampered():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    assert store.verify_integrity().ok
    offset, size = store.worm.physical_extent("rec-1@v0")
    store.worm.device.raw_write(offset + size // 2, b"\xff\xff")
    assert "rec-1" in store.verify_integrity().violations


def _denied_read(store, i):
    with pytest.raises(AccessDeniedError):
        store.read("rec-1", actor_id="dr-b")


def _attach_and_read(store, i):
    store.attach("rec-1", f"scan-{i}", b"dicom", actor_id="dr-a")
    assert store.read_attachment("rec-1", f"scan-{i}", actor_id="dr-a") == b"dicom"


def _restore(store, i):
    if not len(store.vault):
        store.create_backup(actor_id="backup-operator")
    store.restore_from_backup(store.vault.latest().snapshot_id, actor_id="backup-operator")


ANCHORED_PATHS = {
    "store": lambda store, i: store.store(
        make_note(f"rec-{i + 2}", text="routine followup visit"), "dr-a"
    ),
    "denied_read": _denied_read,
    "read_version": lambda store, i: store.read_version("rec-1", 0, actor_id="dr-a"),
    "break_glass": lambda store, i: store.break_glass("dr-er", "pat-1", "unconscious"),
    "place_hold": lambda store, i: store.place_hold("rec-1", f"case-{i}", actor_id="legal"),
    "attach_read_attachment": _attach_and_read,
    "export_deidentified": lambda store, i: store.export_deidentified(
        "rec-1", actor_id="res-1"
    ),
    "create_backup": lambda store, i: store.create_backup(
        incremental=i > 0, actor_id="backup-operator"
    ),
    "restore_from_backup": _restore,
    "refresh_media": lambda store, i: store.refresh_media(),
}


def test_audit_trail_verifies_and_anchors():
    """Every path's events hold the anchor cadence: after five cadences'
    worth of operations, no more than one cadence of events is left
    beyond the latest anchor.  A tail the witness has not seen is one a
    raw-device insider can cut unnoticed — denials included.  The
    cadence and the devices are small because a restore or a refresh
    provisions a fresh medium every time."""
    for path, operation in ANCHORED_PATHS.items():
        store, _ = make_store(anchor_every_events=16, device_capacity=1 << 20)
        store.store(make_note(), author_id="dr-a")
        store.register_user(User.make("dr-b", "Dr. B", [Role.PHYSICIAN]))
        store.register_user(User.make("dr-er", "ER", [Role.PHYSICIAN]))
        store.register_user(User.make("res-1", "R", [Role.RESEARCHER]))
        every = store._config.anchor_every_events
        for i in range(5 * every):
            operation(store, i)
        assert store.verify_audit_trail().ok, path
        latest = store.witness.latest()
        anchored = latest.log_size if latest is not None else 0
        assert len(store.audit_log) - anchored <= every, path


def test_audit_truncation_detected_via_witness():
    store, _ = make_store()
    for i in range(70):
        store.store(make_note(f"rec-{i}", text="routine followup visit"), "dr-a")
    assert store.witness.anchors, "anchor should have been published"
    # Simulate history loss beneath the last anchor.
    store.audit_log._events = store.audit_log._events[:10]
    full, short = store.audit_log.merkle_tree(), MerkleTree()
    for index in range(10):
        short.append_hash(full.leaf_digest(index))
    store.audit_log._tree = short
    assert not store.verify_audit_trail().ok


def test_export_deidentified_for_research():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    store.register_user(User.make("res-1", "R", [Role.RESEARCHER]))
    deid = store.export_deidentified("rec-1", actor_id="res-1")
    assert deid.patient_id != "pat-1"
    assert deid.body["author"] == "[REDACTED]"


def test_read_view_applies_minimum_necessary():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    view = store.read_view("rec-1", actor_id="dr-a")
    assert view == note.body


def test_backup_and_disaster_restore():
    store, clock = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    snapshot = store.create_backup(actor_id="backup-operator")
    # Primary site burns down.
    store.worm.device.detach()
    report = store.restore_from_backup(snapshot.snapshot_id, actor_id="backup-operator")
    assert report.verified
    assert store.read("rec-1", actor_id="dr-a") == note
    # Retention survives the restore.
    with pytest.raises(RetentionError):
        store.dispose("rec-1", actor_id="records-manager")


def test_incremental_backup():
    store, _ = make_store()
    store.store(make_note("rec-1"), author_id="dr-a")
    store.create_backup(actor_id="backup-operator")
    store.store(make_note("rec-2"), author_id="dr-a")
    snapshot = store.create_backup(incremental=True, actor_id="backup-operator")
    assert snapshot.kind == "incremental"
    assert set(snapshot.objects) == {"rec-2@v0"}


def test_media_refresh_migrates_and_sanitizes():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    old_medium = store.medium
    new_medium = store.refresh_media()
    assert new_medium is not old_medium
    assert store.read("rec-1", actor_id="dr-a") == note
    # Old medium disposed and sanitized: forensic scan yields zeros only.
    assert not any(old_medium.forensic_scan())
    actions = [e["action"] for e in store.audit_events()]
    assert "migration_completed" in actions
    assert "media_disposed" in actions


def test_provenance_and_custody_recorded():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    assert store.custody.verify_all() == {}
    chain = store.custody.chain_for("rec-1@v0")
    assert chain.current_custodian() == "hospital-A"
    assert chain.custodians() == ["hospital-A"]


def test_correction_links_provenance_derivation():
    store, _ = make_store()
    note = make_note()
    store.store(note, author_id="dr-a")
    corrected = HealthRecord(
        record_id="rec-1",
        record_type=note.record_type,
        patient_id="pat-1",
        created_at=note.created_at,
        body=dict(note.body),
    )
    store.correct(corrected, author_id="dr-a", reason="amendment")
    # the correction derives from its predecessor by a verified hash link,
    # and carries its own signed origin
    chain = store._dir.chain_for("rec-1")
    chain.verify()
    assert chain.version(1).previous_digest == chain.version(0).digest()
    assert chain.version(1).reason == "amendment"
    assert store.custody.chain_for("rec-1@v1").custodians() == ["hospital-A"]
    assert store.custody.verify_all() == {}


def test_observation_value_correction_flow():
    store, _ = make_store()
    observation = Observation.create(
        record_id="rec-obs",
        patient_id="pat-1",
        created_at=100.0,
        code="8480-6",
        display="Systolic BP",
        value=210.0,
        unit="mmHg",
    )
    store.store(observation, author_id="dr-a")
    corrected = HealthRecord(
        record_id="rec-obs",
        record_type=observation.record_type,
        patient_id="pat-1",
        created_at=observation.created_at,
        body={**observation.body, "value": 120.0},
    )
    store.correct(corrected, author_id="dr-a", reason="cuff error")
    assert store.read("rec-obs", actor_id="dr-a").body["value"] == 120.0
    assert store.read_version("rec-obs", 0, actor_id="dr-a").body["value"] == 210.0


def test_audit_query_interface():
    store, _ = make_store()
    store.store(make_note(), author_id="dr-a")
    store.read("rec-1", actor_id="dr-a")
    accesses = store.audit_query().accesses_to("rec-1")
    assert len(accesses) >= 2  # created + read
