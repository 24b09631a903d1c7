"""How many device writes each engine operation costs — counts, not
timings.  ``store()`` = three, plus one when a posting list folds, is
pinned in ``test_write_pipeline.py``; these rows pin the rest of the write
surface, so a part that starts writing twice (or stops writing at all)
fails here rather than in a benchmark."""

import pytest

from repro.access.principals import Role, User
from repro.core import CuratorConfig, CuratorStore
from repro.index.trustworthy import CHUNK_CAPACITY
from repro.records.model import ClinicalNote, HealthRecord
from repro.util.clock import SimulatedClock

MASTER = bytes(range(32))
#: long enough that no operation below falls on an anchor
NO_ANCHOR = 10_000


def make_store(site_id="hospital-A"):
    clock = SimulatedClock(start=1.17e9)
    store = CuratorStore(
        CuratorConfig(
            master_key=MASTER, clock=clock, site_id=site_id,
            anchor_every_events=NO_ANCHOR, device_capacity=1 << 22,
        )
    )
    store.register_user(User.make("admin", "Admin", [Role.SYSTEM_ADMIN]))
    for i in range(3):
        store.store(
            ClinicalNote.create(
                record_id=f"rec-{i}", patient_id="pat-1", created_at=clock.now(),
                author="dr-a", specialty="cardiology", text=f"entry {i} followup",
            ),
            "dr-a",
        )
    return store, clock


def fold(store, clock):
    """Store enough notes like rec-0 that every list it is posted to
    folds (even with one of rec-1..2 gone): its ids are then in sealed
    chunks."""
    store.store_many(
        [
            ClinicalNote.create(
                record_id=f"rec-{i}", patient_id="pat-1", created_at=clock.now(),
                author="dr-a", specialty="cardiology", text=f"entry {i} followup",
            )
            for i in range(3, CHUNK_CAPACITY + 1)
        ],
        "dr-a",
    )


def writes(store):
    devices = store.device_set()
    return {
        "worm": devices["worm_device"].stats.writes,
        "index": store.index.device.stats.writes,
        "audit": devices["audit_device"].stats.writes,
        "keys": devices["key_device"].stats.writes,
        "checkpoints": devices["checkpoint_device"].stats.writes,
        "cold": devices["cold_device"].stats.writes,
    }


def delta(store, operation):
    before = writes(store)
    operation()
    after = writes(store)
    return {name: after[name] - before[name] for name in after if after[name] != before[name]}


def corrected(store, clock, record_id):
    current = store.read(record_id, actor_id="system")
    return HealthRecord(
        record_id=record_id, record_type=current.record_type,
        patient_id=current.patient_id, created_at=clock.now(),
        body={**current.body, "text": "amended"},
    )


def test_correct_is_one_frame_an_index_rewrite_and_one_audit_event():
    store, clock = make_store()
    # WORM: the new version.  Audit: RECORD_CORRECTED, carrying the
    # decision.  Index: rec-1's old and new postings are pending, in
    # memory, so the index writes nothing
    amendment = corrected(store, clock, "rec-1")
    cost = delta(store, lambda: store.correct(amendment, "dr-a", "amend"))
    assert cost == {"worm": 1, "audit": 1}
    # once rec-0's postings are sealed, the correction rewrites the
    # chunks holding them without it (one frame) and scrubs the old
    # ones; the new text is pending again
    fold(store, clock)
    amendment = corrected(store, clock, "rec-0")
    scrubs = store.index.device.stats.raw_writes
    cost = delta(store, lambda: store.correct(amendment, "dr-a", "amend"))
    assert cost == {"worm": 1, "index": 1, "audit": 1}
    assert store.index.device.stats.raw_writes > scrubs


@pytest.mark.parametrize("size", [10, 200_000])
def test_attach_is_one_worm_frame_however_many_chunks(size):
    store, _ = make_store()
    cost = delta(
        store, lambda: store.attach("rec-0", "scan", b"z" * size, actor_id="dr-a")
    )
    assert cost == {"worm": 1, "audit": 1}
    assert store.read_attachment("rec-0", "scan", actor_id="dr-a") == b"z" * size


def test_a_torn_attach_leaves_nothing():
    from repro.errors import CrashError
    from repro.verify.crashpoint import CrashController, surviving_image

    store, clock = make_store()
    controller = CrashController()
    controller.attach(store.devices())
    controller.arm(1, torn=True)
    with pytest.raises(CrashError):
        store.attach("rec-0", "scan", b"z" * 200_000, actor_id="dr-a")
    recovered = CuratorStore.recover_from_devices(
        CuratorConfig(master_key=MASTER, clock=clock, device_capacity=1 << 22),
        **{name: surviving_image(device) for name, device in store.device_set().items()},
    )
    assert recovered.recovery_report.orphaned == ()
    assert recovered.record_ids() == ["rec-0", "rec-1", "rec-2"]
    assert recovered.verify_integrity().ok


def test_demote_is_one_segment_and_one_marker_per_record():
    store, _ = make_store()
    cost = delta(store, lambda: store.demote_records(["rec-0", "rec-1"]))
    assert cost == {"cold": 1, "audit": 2}


def test_read_through_recall_is_one_worm_frame():
    store, clock = make_store()
    store.correct(corrected(store, clock, "rec-0"), "dr-a", "amend")
    store.demote_records(["rec-0"])
    # both versions ride ONE frame; audit: RECORD_RECALLED, then
    # RECORD_READ carrying the decision
    cost = delta(store, lambda: store.read("rec-0", actor_id="dr-a"))
    assert cost == {"worm": 1, "audit": 2}


def test_read_through_recall_reads_the_cold_member_once_and_no_worm_object():
    store, clock = make_store()
    store.correct(corrected(store, clock, "rec-0"), "dr-a", "amend")
    store.demote_records(["rec-0"])
    devices = store.device_set()
    worm, cold = devices["worm_device"].stats, devices["cold_device"].stats
    reads_before = (worm.reads, worm.raw_reads, cold.reads, cold.raw_reads)
    cost = delta(store, lambda: store.read("rec-0", actor_id="dr-a"))
    assert cost == {"worm": 1, "audit": 2}
    # the read is served from the versions the recall verified, not read
    # back off the WORM frame it just wrote
    reads = (worm.reads, worm.raw_reads, cold.reads, cold.raw_reads)
    assert [after - before for after, before in zip(reads, reads_before)] == [0, 0, 0, 1]


def test_a_warm_read_is_one_audit_event():
    store, _ = make_store()
    store._dir.purge("rec-1")
    # a read writes nothing but its RECORD_READ, carrying the decision
    cost = delta(store, lambda: store.read("rec-1", actor_id="dr-a"))
    assert cost == {"audit": 1}


def test_dispose_writes_only_the_shred_the_index_scrub_and_one_event():
    store, clock = make_store()
    clock.advance_years(40)
    scrubs = store.index.device.stats.raw_writes
    cost = delta(store, lambda: store.dispose("rec-1", actor_id="admin"))
    # rec-1's postings were pending, in memory: the index neither
    # appends nor scrubs.  The key escrow journals a shred tombstone;
    # nothing is *appended* to the WORM device — destruction there is
    # raw overwrites of the object's extent, not a journal write
    assert cost == {"keys": 1, "audit": 1}
    assert store.index.device.stats.raw_writes == scrubs
    assert store.worm.device.stats.raw_writes > 0
    # once rec-0's postings are sealed, its chunks are rewritten
    # without it (one frame) and the old ones scrubbed in place
    fold(store, clock)
    cost = delta(store, lambda: store.dispose("rec-0", actor_id="admin"))
    assert cost == {"keys": 1, "index": 1, "audit": 1}
    assert store.index.device.stats.raw_writes > scrubs


def test_import_patient_history_is_one_worm_frame_for_the_whole_patient():
    source, clock = make_store()
    source.correct(corrected(source, clock, "rec-0"), "dr-a", "amend")
    source.attach("rec-1", "scan", b"q" * 200_000, actor_id="dr-a")
    bundle = source.transfer.export_patient_history("pat-1")
    destination = CuratorStore(
        CuratorConfig(
            master_key=bytes(32), clock=clock, site_id="hospital-B",
            anchor_every_events=NO_ANCHOR, device_capacity=1 << 22,
        )
    )
    # 4 versions + 4 chunks + the segment archive: ONE frame; one escrow
    # flush for 3 keys, one audit flush; the 3 documents' postings are
    # pending, in memory
    cost = delta(destination, lambda: destination.transfer.import_patient_history(bundle))
    assert cost == {"worm": 1, "keys": 1, "audit": 1}
    assert len(destination.worm.object_ids()) == 4 + 4 + 1
