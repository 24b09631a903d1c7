"""Engine failure paths: corrupted migrations, failed restores, edge cases."""

import pytest

from repro.access.principals import Role, User
from repro.core import CuratorConfig, CuratorStore
from repro.errors import (
    AccessDeniedError,
    IntegrityError,
    RecordNotFoundError,
    RetentionError,
)
from repro.records.model import ClinicalNote, Patient
from repro.util.clock import SimulatedClock

MASTER = bytes(range(32))


def make_store():
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(CuratorConfig(master_key=MASTER, clock=clock))
    note = ClinicalNote.create(
        record_id="rec-1",
        patient_id="pat-1",
        created_at=clock.now(),
        author="dr-a",
        specialty="oncology",
        text="routine followup visit today",
    )
    store.store(note, author_id="dr-a")
    return store, clock


def test_refresh_media_aborts_on_corrupted_source():
    store, _ = make_store()
    offset, size = store.worm.physical_extent("rec-1@v0")
    store.worm.device.raw_write(offset + 5, b"\x00\x00\x00")
    with pytest.raises(Exception):
        store.refresh_media()
    # The old medium must NOT have been disposed on a failed refresh.
    assert store.medium.state.value == "active"


def test_restore_from_backup_rejects_corrupted_vault_copy():
    store, _ = make_store()
    snapshot = store.create_backup(actor_id="backup-operator")
    # Corrupt the vault's copy behind its back.
    blob = snapshot.objects["rec-1@v0"]
    snapshot.objects["rec-1@v0"] = blob[:-1] + bytes([blob[-1] ^ 1])
    with pytest.raises(IntegrityError):
        store.restore_from_backup(snapshot.snapshot_id, actor_id="backup-operator")


def test_place_hold_on_unknown_record():
    store, _ = make_store()
    with pytest.raises(RecordNotFoundError):
        store.place_hold("ghost", "case-1", actor_id="counsel")


def test_release_unknown_hold():
    store, _ = make_store()
    store.place_hold("rec-1", "case-1", actor_id="counsel")
    with pytest.raises(RetentionError):
        store.release_hold("rec-1", "case-2", actor_id="counsel")


def test_dispose_unknown_and_disposed_record():
    store, clock = make_store()
    with pytest.raises(RecordNotFoundError):
        store.dispose("ghost", actor_id="records-manager")
    clock.advance_years(8)
    store.dispose("rec-1", actor_id="records-manager")
    with pytest.raises(RecordNotFoundError):
        store.dispose("rec-1", actor_id="records-manager")


def test_search_by_unauthorized_actor_denied_and_logged():
    store, _ = make_store()
    with pytest.raises(AccessDeniedError):
        store.search("followup", actor_id="stranger")
    denied = [e for e in store.audit_events() if e["action"] == "access_denied"]
    assert any(e["actor_id"] == "stranger" for e in denied)


def test_export_deidentified_denied_for_clinical_roles():
    store, _ = make_store()
    with pytest.raises(AccessDeniedError):
        store.export_deidentified("rec-1", actor_id="dr-a")


def test_read_view_for_billing_on_demographics():
    store, clock = make_store()
    demo = Patient.create(
        record_id="rec-demo",
        patient_id="pat-1",
        created_at=clock.now(),
        name="Grace Hopper",
        birth_date="1906-12-09",
        address="Arlington, VA",
        ssn="123-45-6789",
    )
    store.store(demo, author_id="dr-a")
    store.register_user(User.make("bill", "B", [Role.BILLING]))
    view = store.read_view("rec-demo", actor_id="bill")
    assert "ssn" not in view
    assert view.get("name") == "Grace Hopper"


def test_read_version_out_of_range():
    store, _ = make_store()
    with pytest.raises(Exception):
        store.read_version("rec-1", 5, actor_id="dr-a")
    with pytest.raises(RecordNotFoundError):
        store.read_version("ghost", 0, actor_id="dr-a")


def test_correct_unknown_record():
    store, _ = make_store()
    orphan = ClinicalNote.create(
        record_id="ghost",
        patient_id="pat-1",
        created_at=0.0,
        author="dr-a",
        specialty="x",
        text="text",
    )
    with pytest.raises(RecordNotFoundError):
        store.correct(orphan, author_id="dr-a", reason="r")


def test_disposed_record_invisible_everywhere():
    store, clock = make_store()
    clock.advance_years(8)
    store.dispose("rec-1", actor_id="records-manager")
    assert store.record_ids() == []
    assert store.records_of_patient("pat-1") == []
    with pytest.raises(RecordNotFoundError):
        store.read("rec-1", actor_id="dr-a")
    with pytest.raises(RecordNotFoundError):
        store.read_version("rec-1", 0, actor_id="dr-a")
    assert store.search("followup", actor_id="dr-a") == []


def test_failed_migration_is_audited():
    store, _ = make_store()
    offset, size = store.worm.physical_extent("rec-1@v0")
    store.worm.device.raw_write(offset + 5, b"\xde\xad")
    with pytest.raises(Exception):
        store.refresh_media()
    # A failed refresh surfaces in the audit trail one way or another
    # (either migration_failed, or the read failure aborted it first).
    assert store.verify_audit_trail().ok


def test_record_whose_escrowed_key_was_altered_can_still_be_disposed():
    """An insider with the key device flips a byte in a record's wrapped
    key and fixes the frame checksum; the key service then restarts from
    that device.  The record is unreadable — and must still be
    disposable: destruction never needs the key to unwrap."""
    from repro.crypto.keys import KeyStore
    from tests.crypto.test_keys import alter_escrowed_key

    store, clock = make_store()
    handle = store._dir.keys["rec-1"]  # noqa: SLF001
    key_device = store._keystore.device  # noqa: SLF001
    escrow_extent = store._keystore._escrow_extents[handle.key_id]  # noqa: SLF001
    worm_extent = store.worm.physical_extent("rec-1@v0")
    alter_escrowed_key(key_device, handle.key_id)
    restarted = KeyStore(MASTER, device=key_device, clock=clock)
    store._keystore = store._shredder._keystore = restarted  # noqa: SLF001

    clock.advance_years(8)
    certificates = store.dispose("rec-1", actor_id="records-manager")

    assert certificates and certificates[0].shred_report.key_shredded
    assert restarted.is_shredded(handle)
    assert store._shredder.verify_destroyed(  # noqa: SLF001
        handle, [(key_device, *escrow_extent), (store.worm.device, *worm_extent)]
    )
    with pytest.raises(RecordNotFoundError):
        store.read("rec-1", actor_id="dr-a")
