"""Media decay on a restart.

A byte flipped in place (no recomputed frame checksum) is decay, not a
torn write: a restart adopts every frame but a broken last one, so the
decayed object is blamed by its own check and nothing written after it
is lost or overwritten."""

import pytest

from repro.errors import AuditError
from repro.records.ids import version_id
from repro.storage.journal import HEADER_SIZE, Journal
from repro.verify.crashpoint import surviving_image

from tests.core.test_swap_and_recovery import make_store, note, recover


def flip(device, offset):
    (byte,) = device.raw_read(offset, 1)
    device.raw_write(offset, bytes([byte ^ 0x5A]))


def test_a_restart_blames_only_the_decayed_member_of_a_mid_log_batch():
    store, clock, config = make_store()
    store.store_many([note(f"rec-{n}", "pat-1", clock, f"entry {n}") for n in range(5)], "dr-a")
    offset, size = store.worm.physical_extent(version_id("rec-2", 0))
    flip(store.worm.device, offset + size // 2)
    store.store_many([note(f"rec-late-{n}", "pat-2", clock) for n in range(3)], "dr-a")
    before = store.verify_integrity().violations
    recovered = recover(store, config)
    assert recovered.recovery_report.damaged == ("rec-2",)
    assert recovered.recovery_report.records_recovered == 7
    assert recovered.read("rec-4", actor_id="system").body["text"] == "entry 4"
    # the record did not open, yet its object is blamed under the record
    # id, the same name the engine that wrote it uses
    assert recovered.verify_integrity().violations == ["rec-2"]
    assert before == ["rec-2"]


def test_a_restart_reports_every_record_of_a_frame_whose_manifest_decayed():
    store, clock, config = make_store()
    store.store_many([note(f"rec-{n}", "pat-1", clock, f"entry {n}") for n in range(3)], "dr-a")
    store.store(note("rec-late", "pat-2", clock), "dr-a")
    offset, _size = store.worm.physical_extent(version_id("rec-0", 0))
    frame = max(at for at, *_ in Journal.walk_frames(store.worm.device) if at <= offset)
    flip(store.worm.device, frame + HEADER_SIZE + 3)
    recovered = recover(store, config)
    # the frame names no object any more, but the verified chain saw the
    # three records created
    assert recovered.recovery_report.damaged == ("rec-0", "rec-1", "rec-2")
    assert recovered.record_ids() == ["rec-late"]


def test_a_restart_refuses_an_audit_log_decayed_mid_log_and_rewinds_nothing():
    store, clock, config = make_store()
    for n in range(12):
        store.store(note(f"rec-{n}", "pat-1", clock, f"entry {n}"), "dr-a")
    frames = list(Journal.walk_frames(store.audit_log.device))
    assert len(frames) > 11
    flip(store.audit_log.device, frames[10][0] + HEADER_SIZE + 3)
    images = {name: surviving_image(device) for name, device in store.device_set().items()}
    used = store.audit_log.device.used
    with pytest.raises(AuditError, match="event 10 unreadable"):
        store.recover_from_devices(
            config, **images, witnesses=[store.witness], signer=store.signer
        )
    assert images["audit_device"].used == used


def test_a_restart_adopts_every_cold_segment_past_a_decayed_member():
    store, clock, config = make_store()
    for n in range(5):
        store.store(note(f"rec-{n}", "pat-1", clock, f"entry {n}"), "dr-a")
    store.demote_records(["rec-0", "rec-1", "rec-2"])
    store.demote_records(["rec-3", "rec-4"])
    segment = store.cold.segment_of("rec-1")
    offset, length = segment.extent_of(segment.manifest.member("rec-1"))
    flip(store.cold.device, offset + length // 2)
    used = store.cold.device.used
    recovered = recover(store, config)
    assert recovered.cold.segment_count == 2
    assert recovered.cold.device.used == used
    # the decayed member falls back to its intact warm copy; the rest
    # stay cold-authoritative
    assert recovered.recovery_report.cold_records == ("rec-0", "rec-2", "rec-3", "rec-4")
    assert recovered.read("rec-1", actor_id="system").body["text"] == "entry 1"



def test_a_restart_names_a_decayed_cold_member_though_its_warm_copy_serves():
    store, clock, config = make_store()
    for n in range(5):
        store.store(note(f"rec-{n}", "pat-1", clock, f"entry {n}"), "dr-a")
    served = store.read("rec-1", actor_id="system")
    store.demote_records(["rec-0", "rec-1", "rec-2"])
    store.demote_records(["rec-3", "rec-4"])
    segment = store.cold.segment_of("rec-1")
    offset, length = segment.extent_of(segment.manifest.member("rec-1"))
    flip(store.cold.device, offset + length // 2)
    assert store.verify_integrity().violations == ["rec-1"]
    recovered = recover(store, config)
    # a copy of the record no longer verifies: the restart says so, and
    # still serves the intact warm copy, byte-equal
    assert recovered.recovery_report.damaged == ("rec-1",)
    assert recovered.read("rec-1", actor_id="system") == served
