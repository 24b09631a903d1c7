"""Batched journal appends: one device write, identical bytes."""

import pytest

from repro.errors import DeviceError, StorageError
from repro.storage.block import MemoryDevice
from repro.storage.journal import Journal

PAYLOADS = [b"alpha", b"bravo-longer-payload", b"", b"charlie"]


def _entry_tuples(entries):
    return [(e.sequence, e.offset, e.length) for e in entries]


def test_append_many_bytes_identical_to_single_appends():
    single_dev = MemoryDevice("single", 1 << 16)
    batch_dev = MemoryDevice("batch", 1 << 16)
    single = Journal(single_dev)
    batch = Journal(batch_dev)
    singles = [single.append(p) for p in PAYLOADS]
    batched = batch.append_many(PAYLOADS)
    assert single_dev.raw_dump() == batch_dev.raw_dump()
    assert _entry_tuples(singles) == _entry_tuples(batched)
    assert [e.length for e in batched] == [len(p) for p in PAYLOADS]
    assert single.read_all() == batch.read_all() == PAYLOADS


def test_one_payload_commits_identically_through_all_three_appends():
    """``append(p)``, ``append_many([p])`` and ``append_scattered([p])``
    are one commit: same device bytes, same entry, one flush each — and
    a scattered payload is the bytes of its concatenation."""
    devices = [MemoryDevice(f"d{n}", 1 << 16) for n in range(4)]
    journals = [Journal(device) for device in devices]
    payload = b"one-frame\x00with a NUL and \xff bytes"
    entries = [
        journals[0].append(payload),
        journals[1].append_many([payload])[0],
        journals[2].append_scattered([payload]),
        journals[3].append_scattered([payload[:4], b"", payload[4:]]),
    ]
    assert len({device.raw_dump() for device in devices}) == 1
    assert len(set(_entry_tuples(entries))) == 1
    assert [journal.flush_count for journal in journals] == [1, 1, 1, 1]
    assert [device.stats.writes for device in devices] == [1, 1, 1, 1]
    assert all(journal.read(0) == payload for journal in journals)


def test_a_refused_write_leaves_no_gap_for_recovery_to_stop_at():
    device = MemoryDevice("j", 1 << 16)
    journal = Journal(device)
    journal.append(b"before")
    used = device.used
    device.set_write_protected(True)
    with pytest.raises(DeviceError):
        journal.append(b"refused")
    assert device.used == used and len(journal) == 1
    device.set_write_protected(False)
    journal.append(b"after")
    assert Journal(device).read_all() == [b"before", b"after"]


def test_append_many_is_one_device_flush():
    journal = Journal(MemoryDevice("j", 1 << 16))
    journal.append_many(PAYLOADS)
    assert journal.flush_count == 1
    journal.append(b"tail")
    assert journal.flush_count == 2
    assert len(journal) == len(PAYLOADS) + 1


def test_append_many_entries_readable_and_recoverable():
    device = MemoryDevice("j", 1 << 16)
    journal = Journal(device)
    journal.append(b"pre-existing")
    journal.append_many(PAYLOADS)
    assert journal.read_all() == [b"pre-existing"] + PAYLOADS
    # A recovery scan over the device walks the same frames.
    recovered = Journal(device)
    assert recovered.read_all() == [b"pre-existing"] + PAYLOADS
    assert recovered.flush_count == 0  # fresh counter after recovery


def test_append_many_empty_is_noop():
    journal = Journal(MemoryDevice("j", 1 << 16))
    assert journal.append_many([]) == []
    assert journal.flush_count == 0
    assert len(journal) == 0


def test_append_many_rejects_non_bytes():
    journal = Journal(MemoryDevice("j", 1 << 16))
    with pytest.raises(StorageError):
        journal.append_many([b"ok", "not-bytes"])  # type: ignore[list-item]
