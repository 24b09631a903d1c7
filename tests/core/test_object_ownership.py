"""Which record owns a WORM object is looked up in the directory, never
read back out of the object id — and ids that would make the question
ambiguous are refused where they enter.

The forged-id tests build records whose ids bypass ``HealthRecord``
validation (as a pre-grammar archive could hold them): even then one
record's disposal must never reach another record's key or objects.
"""

import pytest

from repro.access.principals import Role, User
from repro.core import CuratorConfig, CuratorStore
from repro.errors import ValidationError
from repro.records.ids import attachment_object_id, version_id
from repro.records.model import ClinicalNote
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import surviving_image

from tests.records.test_ids import HOSTILE_IDS

MASTER = bytes(range(32))


def make_store():
    clock = SimulatedClock(start=1.17e9)
    config = CuratorConfig(master_key=MASTER, clock=clock, device_capacity=1 << 22)
    store = CuratorStore(config)
    store.register_user(User.make("records-manager", "RM", [Role.SYSTEM_ADMIN]))
    return store, clock, config


def note(record_id, patient_id, clock, *, forge_id=None):
    record = ClinicalNote.create(
        record_id=record_id,
        patient_id=patient_id,
        created_at=clock.now(),
        author="dr-a",
        specialty="oncology",
        text="biopsy shows metastatic carcinoma",
    )
    if forge_id is not None:
        object.__setattr__(record, "record_id", forge_id)
    return record


def test_disposing_a_version_lookalike_never_shreds_the_other_patients_key():
    store, clock, _ = make_store()
    store.store(note("rec-9", "pat-1", clock), "dr-a")
    store.store(note("x", "pat-2", clock, forge_id="rec-9@vx"), "dr-b")
    # the swap re-registers every key handle; by string split the
    # lookalike's object rec-9@vx@v0 would be filed under rec-9
    store.refresh_media()
    clock.advance_years(40)
    certificates = store.dispose("rec-9@vx", actor_id="records-manager")
    assert [c.object_id for c in certificates] == [version_id("rec-9@vx", 0)]
    assert store.read("rec-9", actor_id="dr-a").patient_id == "pat-1"
    assert store.verify_integrity().violations == []


def test_disposing_a_record_leaves_an_attachment_lookalike_alone():
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    store.store(note("x", "pat-2", clock, forge_id="rec-1#att/scan"), "dr-b")
    clock.advance_years(40)
    certificates = store.dispose("rec-1", actor_id="records-manager")
    assert [c.object_id for c in certificates] == [version_id("rec-1", 0)]
    assert "rec-1#att/scan" in store.record_ids()
    assert version_id("rec-1#att/scan", 0) in store.worm


@pytest.mark.parametrize("hostile", HOSTILE_IDS)
def test_attach_refuses_hostile_attachment_ids(hostile):
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    writes = store.worm.device.stats.writes
    with pytest.raises(ValidationError):
        store.attach("rec-1", hostile, b"scan bytes", actor_id="dr-a")
    assert store.worm.device.stats.writes == writes
    assert store.attachments_of("rec-1") == []


def test_dispose_destroys_the_records_attachment_chunks_with_it():
    store, clock, _ = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    manifest = store.attach("rec-1", "scan", b"x" * 200_000, actor_id="dr-a")
    assert len(manifest.chunk_ids) > 1
    clock.advance_years(40)
    certificates = store.dispose("rec-1", actor_id="records-manager")
    chunk_objects = [attachment_object_id("rec-1", c) for c in manifest.chunk_ids]
    assert [c.object_id for c in certificates] == [version_id("rec-1", 0), *chunk_objects]
    assert all(c.shred_report.key_shredded for c in certificates)
    assert not any(object_id in store.worm for object_id in chunk_objects)


def test_chunks_orphaned_by_a_restart_are_still_destroyed_with_their_record():
    """Attachment manifests are process memory; after a restart the
    chunks are unreadable but still the record's — found through the
    directory, not by scanning the WORM store for a prefix."""
    store, clock, config = make_store()
    store.store(note("rec-1", "pat-1", clock), "dr-a")
    store.store(note("rec-10", "pat-2", clock), "dr-b")
    manifest = store.attach("rec-1", "scan", b"y" * 100, actor_id="dr-a")
    recovered = CuratorStore.recover_from_devices(
        config,
        **{name: surviving_image(device) for name, device in store.device_set().items()},
    )
    chunk = attachment_object_id("rec-1", manifest.chunk_ids[0])
    assert chunk in recovered.recovery_report.orphaned
    recovered.register_user(User.make("records-manager", "RM", [Role.SYSTEM_ADMIN]))
    clock.advance_years(40)
    certificates = recovered.dispose("rec-1", actor_id="records-manager")
    assert [c.object_id for c in certificates] == [version_id("rec-1", 0), chunk]
    assert recovered.record_ids() == ["rec-10"]
    assert recovered.verify_integrity().ok
