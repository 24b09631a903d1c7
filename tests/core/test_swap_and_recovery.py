"""Restore, media refresh and device recovery share one swap and one
adopt path; these are the cases where the three hand-written copies
used to disagree."""

import gc
import weakref

import pytest

from repro.access.principals import Role, User
from repro.audit.events import AuditAction
from repro.core import CuratorConfig, CuratorStore
from repro.errors import RecordNotFoundError
from repro.records.model import ClinicalNote, HealthRecord
from repro.storage.block import MemoryDevice
from repro.storage.media import MediaState
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import surviving_image

MASTER = bytes(range(32))


def make_store():
    clock = SimulatedClock(start=1.17e9)
    config = CuratorConfig(master_key=MASTER, clock=clock, device_capacity=1 << 22)
    store = CuratorStore(config)
    store.register_user(User.make("admin", "Admin", [Role.SYSTEM_ADMIN]))
    return store, clock, config


def note(record_id, patient_id, clock, text="routine followup"):
    return ClinicalNote.create(
        record_id=record_id,
        patient_id=patient_id,
        created_at=clock.now(),
        author="dr-a",
        specialty="cardiology",
        text=text,
    )


def recover(store, config, *, worm_device=None):
    images = {
        name: surviving_image(device) for name, device in store.device_set().items()
    }
    if worm_device is not None:
        images["worm_device"] = worm_device
    return CuratorStore.recover_from_devices(
        config, **images, witnesses=[store.witness], signer=store.signer
    )


def test_backup_of_an_engine_that_imported_a_patient():
    """Imported audit-segment archives are WORM objects no record owns:
    they carry no data key and are backed up without one."""
    source, clock, _ = make_store()
    destination = CuratorStore(
        CuratorConfig(master_key=bytes(32), clock=clock, site_id="hospital-B")
    )
    destination.register_user(User.make("admin", "Admin", [Role.SYSTEM_ADMIN]))
    source.store(note("rec-1", "pat-1", clock), "dr-a")
    destination.transfer.import_patient_history(
        source.transfer.export_patient_history("pat-1")
    )
    snapshot = destination.create_backup(actor_id="admin")
    assert sorted(snapshot.objects) == sorted(destination.worm.object_ids())
    assert any(object_id.startswith("~segment/") for object_id in snapshot.objects)
    assert len(snapshot.wrapped_keys) == 1


def test_restore_leaves_records_demoted_since_the_snapshot_cold():
    store, clock, _ = make_store()
    for i in range(3):
        store.store(note(f"rec-{i}", "pat-1", clock, f"entry {i}"), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    store.read("rec-0", actor_id="dr-a")  # pin plaintext in the read cache
    store.demote_records(["rec-0", "rec-1"])
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    # the restored warm copies of cold-authoritative records are
    # tombstoned again, and nothing is served from the old cache
    assert store.cold_record_ids() == ["rec-0", "rec-1"]
    assert store.tier_stats()["hot_records"] == 0
    assert store.read("rec-0", actor_id="dr-a").body["text"] == "entry 0"
    assert store.cold_record_ids() == ["rec-1"]
    assert store.read("rec-2", actor_id="dr-a").body["text"] == "entry 2"
    assert store.verify_integrity().ok
    assert store.verify_audit_trail().ok


def test_restore_keeps_disposal_working():
    """The restored store's disposition workflow knows every key handle
    (the old restore registered them with the workflow it then
    replaced)."""
    store, clock, _ = make_store()
    store.store(note("rec-0", "pat-1", clock), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    clock.advance_years(40)
    (certificate,) = store.dispose("rec-0", actor_id="admin")
    assert certificate.shred_report.key_shredded
    with pytest.raises(RecordNotFoundError):
        store.read("rec-0", actor_id="dr-a")


@pytest.mark.parametrize("swap", ["refresh", "restore"])
def test_litigation_holds_survive_the_swap(swap):
    from repro.errors import RetentionError

    store, clock, _ = make_store()
    store.store(note("rec-0", "pat-1", clock), "dr-a")
    store.place_hold("rec-0", "case-11", actor_id="admin")
    if swap == "refresh":
        store.refresh_media()
    else:
        snapshot = store.create_backup(actor_id="admin")
        store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    clock.advance_years(40)
    with pytest.raises(RetentionError):
        store.dispose("rec-0", actor_id="admin")
    store.release_hold("rec-0", "case-11", actor_id="admin")
    assert store.dispose("rec-0", actor_id="admin")


def test_dispose_on_a_recovered_engine_empties_the_cold_member_cache():
    """One construction wiring: the recovered engine's shredder is bound
    to its own cold store, so the decrypted member plaintexts recovery
    cached die with the next destruction."""
    store, clock, config = make_store()
    store.store(note("rec-0", "pat-1", clock), "dr-a")
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    store.demote_records(["rec-1"])
    recovered = recover(store, config)
    recovered.register_user(User.make("admin", "Admin", [Role.SYSTEM_ADMIN]))
    assert recovered.cold.cached_plaintext("rec-1") is not None  # recovery opened it
    clock.advance_years(40)
    recovered.dispose("rec-0", actor_id="admin")
    assert recovered.cold.cached_plaintext("rec-1") is None


def test_a_record_recovered_from_the_cold_tier_alone_can_be_corrected():
    """A record recovered from its cold member alone takes a correction
    that links to the recovered head and carries a signed origin."""
    store, clock, config = make_store()
    store.store(note("rec-0", "pat-1", clock), "dr-a")
    store.demote_records(["rec-0"])
    recovered = recover(
        store, config, worm_device=MemoryDevice("lost-worm", 1 << 22)
    )
    assert recovered.recovery_report.cold_records == ("rec-0",)
    current = recovered.read("rec-0", actor_id="system")
    recovered.correct(
        HealthRecord(
            record_id="rec-0",
            record_type=current.record_type,
            patient_id=current.patient_id,
            created_at=clock.now(),
            body={**current.body, "text": "amended"},
        ),
        author_id="system",
        reason="amendment",
    )
    assert recovered.version_count("rec-0") == 2
    chain = recovered._dir.chain_for("rec-0")
    chain.verify()
    assert chain.version(1).previous_digest == chain.version(0).digest()
    assert recovered.custody.chain_for("rec-0@v1").custodians() == ["hospital-A"]
    assert recovered.read("rec-0", actor_id="system").body["text"] == "amended"
    assert recovered.verify_integrity().ok


def test_a_restore_disposes_of_the_medium_it_replaces():
    """Restore ends like a media refresh: the replaced medium is
    sanitized and disposed of, so a forensic scan of it finds nothing."""
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    replaced = store.medium
    assert b"rec-1" in replaced.forensic_scan()
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    assert replaced.state is MediaState.DISPOSED
    assert b"rec-1" not in replaced.forensic_scan()
    assert store.read("rec-1", actor_id="dr-a").body["text"] == "routine followup"


def test_a_restore_from_an_older_snapshot_carries_the_newer_objects_forward():
    """A record stored (and held) after the snapshot has its one copy on
    the replaced medium: the restore copies it onto the restored store,
    hold and all, and only then disposes of the old medium."""
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    store.store(note("rec-2", "pat-1", clock, "after the snapshot"), "dr-a")
    store.place_hold("rec-2", "case-7", actor_id="admin")
    replaced = store.medium
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    assert replaced.state is MediaState.DISPOSED
    assert store.record_ids() == ["rec-1", "rec-2"]
    assert store.read("rec-2", actor_id="dr-a").body["text"] == "after the snapshot"
    assert store.worm.retention.holds_on("rec-2@v0") == {"case-7"}
    assert store.verify_integrity().ok
    assert not any(
        e.action is AuditAction.MEDIA_RETIRED for e in store.audit_log.events()
    )


def test_a_restore_carries_what_the_snapshot_lacks_in_one_frame():
    """The restore writes ONE frame for the snapshot, plus ONE frame
    for everything written since, and none when nothing was."""
    store, clock, _ = make_store()
    store.store_many([note(f"rec-1{n}", "pat-1", clock) for n in range(4)], "dr-a")
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    assert len(snapshot.objects) == 5
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    assert store.worm.device.stats.writes == 1
    store.store(note("rec-2", "pat-1", clock), "dr-a")
    store.store(note("rec-3", "pat-1", clock), "dr-a")
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    assert store.worm.device.stats.writes == 2
    assert store.read("rec-3", actor_id="dr-a").record_id == "rec-3"


def test_a_media_refresh_writes_the_archive_in_one_frame():
    store, clock, _ = make_store()
    store.store_many([note(f"rec-{n}", "pat-1", clock) for n in range(6)], "dr-a")
    store.store(note("rec-6", "pat-2", clock), "dr-a")
    new_medium = store.refresh_media()
    assert new_medium.device.stats.writes == 1
    assert len(store.worm.object_ids()) == 7
    assert store.verify_integrity().ok


def test_a_restore_from_an_older_snapshot_keeps_the_objects_it_left_behind():
    """An object written after the snapshot that has rotted on the
    replaced medium cannot be carried forward: the restore retires that
    medium with its bytes and names the object, rather than scrubbing
    it uncertified."""
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    store.store(note("rec-2", "pat-1", clock, "after the snapshot"), "dr-a")
    store.place_hold("rec-2", "case-7", actor_id="admin")
    replaced = store.medium
    offset, size = store.worm.physical_extent("rec-2@v0")
    replaced.device.raw_write(offset + 2, b"\x00\x00\x00")
    rotted = replaced.device.raw_read(offset, size)
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    assert replaced.state is MediaState.RETIRED
    assert store.media_pool.get(replaced.medium_id) is replaced
    assert replaced.device.raw_read(offset, size) == rotted  # not scrubbed
    (event,) = [
        e for e in store.audit_log.events() if e.action is AuditAction.MEDIA_RETIRED
    ]
    assert event.subject_id == replaced.medium_id
    assert event.detail == {"left_behind": ["rec-2@v0"]}
    assert not any(
        e.action is AuditAction.MEDIA_DISPOSED for e in store.audit_log.events()
    )
    assert store.read("rec-1", actor_id="dr-a").body["text"] == "routine followup"


def test_a_restore_disposes_of_a_lost_medium_and_names_what_was_lost():
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    store.store(note("rec-2", "pat-1", clock), "dr-a")
    replaced = store.medium
    replaced.device.detach()  # the site burned down with the medium
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    assert replaced.state is MediaState.DISPOSED
    (event,) = [
        e for e in store.audit_log.events() if e.action is AuditAction.MEDIA_DISPOSED
    ]
    assert event.detail == {"lost": ["rec-2@v0"]}


def test_a_restart_keeps_the_age_of_the_medium():
    """The medium's age is read back from the audit chain: a restart
    does not make a medium past its service life young again."""
    store, clock, config = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    clock.advance_years(6)
    assert store.media_pool.due_for_replacement() == [store.medium]
    recovered = recover(store, config)
    assert recovered.medium.age_years() == pytest.approx(6.0)
    assert recovered.media_pool.due_for_replacement() == [recovered.medium]
    # a refresh in year 6 puts a new medium in service; a restart in
    # year 7 finds it one year old
    recovered.refresh_media()
    clock.advance_years(1)
    again = recover(recovered, config)
    assert again.medium.medium_id == recovered.medium.medium_id
    assert again.medium.age_years() == pytest.approx(1.0)
    assert again.media_pool.due_for_replacement() == []


def test_a_restart_after_a_restore_dates_the_medium_from_the_restore():
    store, clock, config = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    snapshot = store.create_backup(actor_id="admin")
    clock.advance_years(3)
    store.restore_from_backup(snapshot.snapshot_id, actor_id="admin")
    clock.advance_years(2)
    recovered = recover(store, config)
    assert recovered.medium.age_years() == pytest.approx(2.0)


def test_a_restart_needs_the_worm_key_and_audit_images():
    """Only the checkpoint and cold images may be left out: a restart
    that opened a blank audit device would lose every custody marker."""
    store, clock, config = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    images = {
        name: surviving_image(device) for name, device in store.device_set().items()
    }
    for name in ("worm_device", "key_device", "audit_device"):
        partial = {k: v for k, v in images.items() if k != name}
        with pytest.raises(TypeError, match=name):
            CuratorStore.recover_from_devices(config, **partial)
    del images["checkpoint_device"], images["cold_device"]
    recovered = CuratorStore.recover_from_devices(
        config, **images, witnesses=[store.witness], signer=store.signer
    )
    assert recovered.record_ids() == ["rec-1"]


def test_the_pool_lets_go_of_a_disposed_medium():
    """The pool keeps a disposed medium's lifecycle events, not its bytes."""
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    medium_id = store.medium.medium_id
    device = weakref.ref(store.medium.device)
    store.refresh_media()
    gc.collect()
    assert device() is None
    events = store.media_pool.accountability_report()
    assert (medium_id, "disposed") in {(e.medium_id, e.transition) for e in events}


def test_media_refreshed_after_a_restart_keep_distinct_ids():
    """A restarted pool adopts the WORM image under its old id; the
    media it provisions next must not reuse that id, or disposing of
    the adopted medium would drop the live one from the pool."""
    store, clock, config = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    store = recover(store, config)
    adopted = store.medium.medium_id
    for _ in range(2):
        store.refresh_media()
    assert store.media_pool.active_media() == [store.medium]
    events = store.media_pool.accountability_report()
    disposed = [e.medium_id for e in events if e.transition == "disposed"]
    assert len(disposed) == len(set(disposed)) == 2 and adopted in disposed
    assert store.record_ids() == ["rec-1"] and store.verify_integrity().ok
