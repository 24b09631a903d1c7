"""ColdStore unit tests: segment bookkeeping, verified sealed reads,
dirty/clean verification rotation, scrubbing, and device recovery."""

import pytest

from repro.archive.cold import MEMBER_CACHE_SIZE, ColdStore
from repro.errors import IntegrityError
from repro.storage.block import MemoryDevice
from repro.util.clock import SimulatedClock


def make_store(capacity=1 << 20):
    clock = SimulatedClock(start=1.17e9)
    return ColdStore(MemoryDevice("cold-test", capacity), clock), clock


def members_for(tag, n=3):
    return [
        (
            f"rec-{tag}-{i}",
            f"sealed-{tag}-{i}-".encode() * (i + 2),
            1,
            1.5e9,
            ({"content_digest": "00" * 32, "written_at": 1.17e9},),
        )
        for i in range(n)
    ]


def test_write_segment_round_trips_sealed_members():
    store, _clock = make_store()
    members = members_for("seg", 3)
    segment = store.write_segment(store.next_segment_id(), members)
    assert store.segment_count == 1
    assert len(store) == 3
    for record_id, blob, *_ in members:
        assert record_id in store
        assert store.segment_of(record_id) is segment
        sealed = store.read_sealed(record_id)
        assert sealed == blob
        store.verify_sealed(record_id, sealed)  # inclusion proof passes
    assert store.record_ids() == sorted(r for r, *_ in members)


def test_duplicate_segment_id_refused():
    store, _clock = make_store()
    segment_id = store.next_segment_id()
    store.write_segment(segment_id, members_for("seg", 1))
    with pytest.raises(IntegrityError):
        store.write_segment(segment_id, members_for("other", 1))


def test_fresh_segments_are_dirty_until_verified():
    store, _clock = make_store()
    segment = store.write_segment(store.next_segment_id(), members_for("seg", 2))
    assert store.dirty_segment_ids() == [segment.segment_id]
    assert store.verify_dirty() == []
    assert store.dirty_segment_ids() == []
    assert store.verify_all() == []


def test_body_rot_is_blamed_on_exactly_the_rotten_member():
    store, _clock = make_store()
    members = members_for("seg", 3)
    segment = store.write_segment(store.next_segment_id(), members)
    assert store.verify_dirty() == []
    victim = members[1][0]
    offset, length = segment.extent_of(segment.manifest.member(victim))
    store.device.raw_write(offset + length // 2, b"\xff")
    # the read path refuses the rotten bytes ...
    with pytest.raises(IntegrityError):
        store.read_sealed(victim)
    # ... and a full pass blames exactly the victim, not its siblings
    assert store.verify_all() == [victim]


def test_clean_member_rotation_revisits_silent_rot():
    store, _clock = make_store()
    members = members_for("seg", 4)
    segment = store.write_segment(store.next_segment_id(), members)
    assert store.verify_dirty() == []  # now clean
    victim = members[0][0]
    offset, _length = segment.extent_of(segment.manifest.member(victim))
    store.device.raw_write(offset, b"\xff")
    # no dirty segments, but the rotating clean sample sweeps the
    # members over successive passes and finds the rot within a cycle
    found: list[str] = []
    for _ in range(4):
        found += store.verify_dirty(clean_sample=2)
        if found:
            break
    assert found == [victim]


def test_a_zero_sample_reads_only_dirty_segments(monkeypatch):
    store, _clock = make_store()
    store.write_segment(store.next_segment_id(), members_for("seg", 3))
    assert store.verify_all() == []  # nothing left dirty
    reads = []
    raw_read = store.device.raw_read
    monkeypatch.setattr(
        store.device, "raw_read", lambda *extent: reads.append(extent) or raw_read(*extent)
    )
    assert store.verify_dirty(clean_sample=0) == []
    assert reads == []  # no clean member and no clean manifest
    assert store.verify_dirty(clean_sample=1) == []
    assert len(reads) == 2  # one clean manifest, one clean member


def test_scrub_record_zeroes_extents_and_keeps_siblings_verifiable():
    store, _clock = make_store()
    members = members_for("seg", 3)
    segment = store.write_segment(store.next_segment_id(), members)
    assert store.verify_dirty() == []
    victim, sibling = members[0][0], members[1][0]
    extents = store.scrub_record(victim)
    assert extents, "scrub reported no extents"
    for offset, length in extents:
        assert store.device.raw_read(offset, length) == bytes(length)
    assert victim not in store
    # the resealed frame still carries the siblings, fully verifiable
    assert store.verify_all() == []
    assert store.read_sealed(sibling)
    assert segment.scrubbed == {victim}


def test_repatriated_member_draws_no_blame_when_overwritten():
    store, _clock = make_store()
    members = members_for("seg", 2)
    segment = store.write_segment(store.next_segment_id(), members)
    assert store.verify_dirty() == []
    victim = members[0][0]
    store.mark_repatriated(victim)
    assert victim not in store
    # rot on a repatriated (non-authoritative) member is not a failure
    offset, _length = segment.extent_of(segment.manifest.member(victim))
    store.device.raw_write(offset, b"\xff")
    assert store.verify_all() == []


def test_plaintext_cache_caps_purges_and_forgets():
    store, _clock = make_store()
    last = MEMBER_CACHE_SIZE
    for i in range(last + 1):
        store.cache_plaintext(f"rec-{i}", f"plain-{i}".encode())
    assert store.cached_plaintext("rec-0") is None  # LRU evicted
    assert store.cached_plaintext(f"rec-{last}") == f"plain-{last}".encode()
    store.purge_cache()
    assert store.cached_plaintext(f"rec-{last}") is None


def test_recover_rebuilds_directory_and_stays_verifiable():
    store, clock = make_store()
    first = store.write_segment(store.next_segment_id(), members_for("a", 2))
    second = store.write_segment(store.next_segment_id(), members_for("b", 3))
    assert store.verify_dirty() == []

    recovered = ColdStore.recover(store.device, clock)
    assert recovered.segment_count == 2
    assert recovered.record_ids() == store.record_ids()
    assert recovered.segment_ids() == [first.segment_id, second.segment_id]
    # adopted manifests are untrusted until re-verified
    assert set(recovered.dirty_segment_ids()) == {
        first.segment_id,
        second.segment_id,
    }
    assert recovered.verify_dirty() == []
    for record_id, blob, *_ in members_for("b", 3):
        assert recovered.read_sealed(record_id) == blob


def test_recover_drops_a_torn_tail_segment_whole():
    store, clock = make_store()
    kept = store.write_segment(store.next_segment_id(), members_for("a", 2))
    torn = store.write_segment(store.next_segment_id(), members_for("b", 2))
    device = store.device
    # crash mid-write: the tail frame loses its last bytes
    device.truncate_to(device.used - 7)

    recovered = ColdStore.recover(device, clock)
    assert recovered.segment_ids() == [kept.segment_id]
    for record_id, *_ in members_for("b", 2):
        assert record_id not in recovered
    assert torn.segment_id not in recovered.segment_ids()
    assert recovered.verify_dirty() == []
