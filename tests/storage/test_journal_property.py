"""Property-based tests (hypothesis) for the journal frame format the
crash sweep leans on: ``walk_frames`` round-trips, checksum detection,
and tail truncation dropping only the torn frame."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.block import MemoryDevice
from repro.storage.journal import HEADER_SIZE, Journal

SETTINGS = settings(
    max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

payloads = st.lists(st.binary(min_size=0, max_size=96), min_size=1, max_size=12)


@SETTINGS
@given(payloads)
def test_walk_frames_round_trips_every_payload(items):
    journal = Journal(MemoryDevice("j", 1 << 20))
    expected_offsets = [entry.offset for entry in journal.append_many(items)]
    frames = list(Journal.walk_frames(journal.device))
    assert [payload for _off, payload, _ok in frames] == items
    assert [offset for offset, _payload, _ok in frames] == expected_offsets
    assert all(checksum_ok for _off, _payload, checksum_ok in frames)
    assert Journal(journal.device).read_all() == items


@SETTINGS
@given(payloads, st.data())
def test_walk_frames_flags_a_corrupted_frame_but_walks_past_it(items, data):
    journal = Journal(MemoryDevice("j", 1 << 20))
    entries = journal.append_many(items)
    victim = data.draw(st.integers(min_value=0, max_value=len(items) - 1))
    entry = entries[victim]
    # flip a payload byte in place (frames with empty payloads are
    # header-only: corrupt the checksum field instead)
    if entry.length:
        start = entry.offset + HEADER_SIZE
        byte = journal.device.raw_read(start, 1)[0]
        journal.device.raw_write(start, bytes([byte ^ 0xFF]))
    else:
        start = entry.offset + HEADER_SIZE - 1
        byte = journal.device.raw_read(start, 1)[0]
        journal.device.raw_write(start, bytes([byte ^ 0xFF]))
    frames = list(Journal.walk_frames(journal.device))
    assert len(frames) == len(items)  # the walk continues past the damage
    assert [checksum_ok for _o, _p, checksum_ok in frames] == [
        index != victim for index in range(len(items))
    ]


@SETTINGS
@given(payloads, st.data())
def test_tail_truncation_loses_only_frames_past_the_cut(items, data):
    journal = Journal(MemoryDevice("j", 1 << 20))
    entries = journal.append_many(items)
    device = journal.device
    total = device.used
    cut = data.draw(st.integers(min_value=0, max_value=total - 1))
    # a torn tail: bytes past the cut never reached the medium
    device.raw_write(cut, bytes(total - cut))
    device.truncate_to(cut)
    survivors = sum(
        1 for entry in entries if entry.offset + HEADER_SIZE + entry.length <= cut
    )
    recovered = Journal(device)
    assert recovered.read_all() == items[:survivors]
