"""WORM store: write-once semantics, digest checks, gated deletion."""

import pytest

from repro.errors import (
    DeviceError,
    IntegrityError,
    RecordNotFoundError,
    RetentionError,
    WormViolationError,
)
from repro.storage.block import MemoryDevice
from repro.util.clock import SimulatedClock
from repro.worm.retention_lock import RetentionTerm
from repro.worm.store import WormStore


def make_store():
    clock = SimulatedClock(start=1000.0)
    return WormStore(device=MemoryDevice("worm", 1 << 20), clock=clock), clock


def test_put_get_round_trip():
    store, _ = make_store()
    store.put("obj-1", b"record bytes")
    assert store.get("obj-1") == b"record bytes"
    assert "obj-1" in store
    assert len(store) == 1


def test_binary_payload_with_nulls_round_trips():
    store, _ = make_store()
    payload = bytes(range(256)) * 3
    store.put("obj-bin", payload)
    assert store.get("obj-bin") == payload


def test_duplicate_put_rejected_even_if_identical():
    store, _ = make_store()
    store.put("obj-1", b"data")
    with pytest.raises(WormViolationError):
        store.put("obj-1", b"data")


def test_attempt_overwrite_always_raises():
    store, _ = make_store()
    store.put("obj-1", b"data")
    with pytest.raises(WormViolationError, match="write-once"):
        store.attempt_overwrite("obj-1", b"evil")
    assert store.get("obj-1") == b"data"


def test_get_unknown_object():
    store, _ = make_store()
    with pytest.raises(RecordNotFoundError):
        store.get("nope")


def test_metadata_reports_digest_and_time():
    store, _ = make_store()
    meta = store.put("obj-1", b"xyz")
    assert meta.size == 3
    assert meta.written_at == 1000.0
    assert len(meta.content_digest) == 32


def test_raw_tamper_detected_on_get():
    store, _ = make_store()
    store.put("obj-1", b"A" * 100)
    offset, size = store.physical_extent("obj-1")
    store.device.raw_write(offset + 10, b"B")
    with pytest.raises(IntegrityError):
        store.get("obj-1")


def test_get_reads_only_the_object_extent_of_a_batch_frame():
    """A read of one member of a 64-object frame reads that member's
    bytes and nothing else: the digest is its one check."""
    store, _ = make_store()
    store.put_many([(f"obj-{n}", bytes([n]) * (100 + n), None) for n in range(64)])
    before = store.device.stats.bytes_read
    assert store.get("obj-17") == bytes([17]) * 117
    assert store.device.stats.bytes_read - before == store.metadata("obj-17").size


def test_a_decayed_batch_member_fails_alone_on_read_and_after_a_reopen():
    """Media decay (a byte flipped in place, frame checksum left broken)
    in one member of a mid-log batch frame: its neighbours still read,
    before and after a reopen, and the decayed member alone fails."""
    store, clock = make_store()
    store.put_many([(f"obj-{n}", b"member %d" % n * 8, None) for n in range(5)])
    store.put("obj-later", b"written after the batch")
    offset, size = store.physical_extent("obj-2")
    (byte,) = store.device.raw_read(offset + size // 2, 1)
    store.device.raw_write(offset + size // 2, bytes([byte ^ 0x5A]))
    for reopened in (store, WormStore(store.device, clock=clock)):
        assert reopened.verify_all() == ["obj-2"]
        assert reopened.get("obj-4") == b"member 4" * 8
        assert reopened.get("obj-later") == b"written after the batch"


def test_physical_extent_points_at_payload():
    store, _ = make_store()
    store.put("obj-1", b"PAYLOAD-BYTES")
    offset, size = store.physical_extent("obj-1")
    assert store.device.raw_read(offset, size) == b"PAYLOAD-BYTES"


def test_verify_all_localizes_corruption():
    store, _ = make_store()
    store.put("good-1", b"a" * 50)
    store.put("bad", b"b" * 50)
    store.put("good-2", b"c" * 50)
    offset, _ = store.physical_extent("bad")
    store.device.raw_write(offset + 5, b"\x00\x01")
    assert store.verify_all() == ["bad"]


def test_delete_blocked_under_retention():
    store, clock = make_store()
    store.put("obj-1", b"data", retention=RetentionTerm(clock.now(), 100.0))
    with pytest.raises(RetentionError):
        store.delete("obj-1")


def test_delete_after_expiry_tombstones():
    store, clock = make_store()
    store.put("obj-1", b"data", retention=RetentionTerm(clock.now(), 100.0))
    clock.advance(200.0)
    meta = store.delete("obj-1")
    assert meta.deleted
    assert "obj-1" not in store
    with pytest.raises(RecordNotFoundError):
        store.get("obj-1")


def test_double_delete_rejected():
    store, clock = make_store()
    store.put("obj-1", b"data")
    store.delete("obj-1")
    with pytest.raises(RecordNotFoundError):
        store.delete("obj-1")


def test_delete_blocked_by_hold():
    store, clock = make_store()
    store.put("obj-1", b"data")
    store.retention.place_hold("obj-1", "case-9")
    with pytest.raises(RetentionError, match="hold"):
        store.delete("obj-1")


def test_deleted_object_bytes_remain_until_shredded():
    # Logical deletion does not remove bytes — that is the shredder's
    # job, and exactly what E5 measures.
    store, clock = make_store()
    store.put("obj-1", b"SENSITIVE")
    store.delete("obj-1")
    offset, size = store.physical_extent("obj-1")
    assert store.device.raw_read(offset, size) == b"SENSITIVE"


def test_object_ids_excludes_deleted_by_default():
    store, clock = make_store()
    store.put("a", b"1")
    store.put("b", b"2")
    store.delete("a")
    assert store.object_ids() == ["b"]
    assert store.object_ids(include_deleted=True) == ["a", "b"]


def test_default_retention_is_zero_duration():
    store, clock = make_store()
    store.put("obj-1", b"data")
    term = store.retention.term_for("obj-1")
    assert term.expires_at == clock.now()


# -- one write path: put is put_many of one ------------------------------------


def test_put_and_put_many_of_one_write_identical_device_bytes():
    single, _ = make_store()
    batched, _ = make_store()
    term = RetentionTerm(start=1000.0, duration_seconds=60.0)
    meta = single.put("obj-1", b"record \x00 bytes", retention=term)
    assert batched.put_many([("obj-1", b"record \x00 bytes", term)]) == [meta]
    assert single.device.raw_dump() == batched.device.raw_dump()
    assert single.device.stats.writes == batched.device.stats.writes == 1
    assert single.physical_extent("obj-1") == batched.physical_extent("obj-1")
    assert single.retention.term_for("obj-1") == batched.retention.term_for("obj-1")


def test_recovery_skips_a_frame_that_does_not_parse():
    from repro.storage.journal import Journal

    store, clock = make_store()
    store.put("obj-1", b"first")
    # frames no put_many wrote: no NUL, not JSON, and a header without
    # a batch manifest
    journal = Journal(store.device)
    journal.append(b"no separator here")
    journal.append(b"not json\x00payload")
    journal.append(b'{"object_id":"obj-x","size":1}\x00x')
    recovered = WormStore(store.device, clock=clock)
    assert recovered.object_ids() == ["obj-1"]
    recovered.put("obj-2", b"second")
    assert recovered.get("obj-1") == b"first"
    assert recovered.get("obj-2") == b"second"


@pytest.mark.parametrize("refuse", ["write_protect", "detach", "fill"])
def test_a_refused_write_leaves_an_expatriated_tombstone_untouched(refuse):
    store, _ = make_store()
    term = RetentionTerm(start=1000.0, duration_seconds=3600.0)
    store.put("obj-1", b"moved away", retention=term)
    store.put("obj-2", b"stays")
    store.expatriate("obj-1")
    device = store.device
    if refuse == "write_protect":
        device.set_write_protected(True)
    elif refuse == "detach":
        device.detach()
    else:
        device.allocate(device.free)

    def state():
        return (
            store.metadata("obj-1"),
            store.physical_extent("obj-1"),
            store.retention.term_for("obj-1"),
            device.used,
        )

    before = state()
    with pytest.raises(DeviceError):
        store.put("obj-1", b"coming home")
    assert store.metadata("obj-1").deleted
    assert state() == before
    # a batch that would re-admit it among new ids is refused the same way
    with pytest.raises(DeviceError):
        store.put_many([("obj-3", b"new", None), ("obj-1", b"coming home", None)])
    assert "obj-3" not in store and state() == before
    if refuse != "write_protect":
        return  # a detached or full device stays that way
    device.set_write_protected(False)
    readmitted = store.put("obj-1", b"coming home")
    assert not readmitted.deleted
    assert store.get("obj-1") == b"coming home"
    assert store.physical_extent("obj-1") != before[1]
    assert store.get("obj-2") == b"stays"
