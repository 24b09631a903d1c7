"""Journal framing/recovery and fault injection."""

import pytest

from repro.errors import IntegrityError, StorageError, ValidationError
from repro.storage.block import MemoryDevice
from repro.storage.failures import FaultInjector
from repro.storage.journal import Journal
from repro.util.rng import DeterministicRng


def make_journal(capacity=4096):
    return Journal(MemoryDevice("j1", capacity))


def test_append_and_read():
    journal = make_journal()
    entry = journal.append(b"first")
    assert entry.sequence == 0
    assert journal.read(0) == b"first"


def test_multiple_entries_ordered():
    journal = make_journal()
    payloads = [f"entry-{i}".encode() for i in range(10)]
    for p in payloads:
        journal.append(p)
    assert journal.read_all() == payloads
    assert len(journal) == 10


def test_read_out_of_range():
    journal = make_journal()
    with pytest.raises(StorageError):
        journal.read(0)


def test_non_bytes_payload_rejected():
    journal = make_journal()
    with pytest.raises(StorageError):
        journal.append("text")  # type: ignore[arg-type]


def test_corruption_detected_on_read():
    journal = make_journal()
    journal.append(b"A" * 50)
    journal.device.raw_write(30, b"\xff")
    with pytest.raises(IntegrityError):
        journal.read(0)


def test_scan_corruption_localizes_damage():
    journal = make_journal()
    for i in range(5):
        journal.append(f"entry-{i:02d}".encode() * 4)
    # Corrupt the third entry's payload region
    offset, length = journal._entries[2]
    journal.device.raw_write(offset + 20, b"\x00\x00")
    assert journal.scan_corruption() == [2]


def test_recover_rebuilds_entry_table():
    journal = make_journal()
    for i in range(7):
        journal.append(f"entry-{i}".encode())
    recovered = Journal(journal.device)
    assert recovered.read_all() == journal.read_all()


def test_recover_drops_crash_tail():
    journal = make_journal()
    rng = DeterministicRng(5)
    injector = FaultInjector(rng)
    for i in range(5):
        journal.append(f"entry-{i}".encode())
    injector.truncate_tail(journal.device, lost_bytes=10)
    recovered = Journal(journal.device)
    assert len(recovered) == 4
    assert recovered.read_all() == [f"entry-{i}".encode() for i in range(4)]


def test_open_adopts_a_decayed_frame_unless_it_is_the_last():
    """The one open rule: only the last frame may be a torn write.  A
    frame that fails its checksum mid-log is adopted (its own read
    still fails) and appends continue after the last frame; the same
    damage in the last frame drops that frame alone."""
    journal = make_journal()
    for i in range(4):
        journal.append(f"entry-{i}".encode())
    offset, _ = journal._entries[1]
    journal.device.raw_write(offset + 20, b"\xff")
    recovered = Journal(journal.device)
    assert len(recovered) == 4
    assert recovered.scan_corruption() == [1]
    assert recovered.device.used == journal.device.used
    last, _ = journal._entries[3]
    journal.device.raw_write(last + 20, b"\xff")
    assert len(Journal(journal.device)) == 3


def test_recover_then_append_continues():
    journal = make_journal()
    journal.append(b"one")
    recovered = Journal(journal.device)
    recovered.append(b"two")
    assert recovered.read_all() == [b"one", b"two"]


def test_flip_bits_corrupts_and_logs():
    dev = MemoryDevice("d1", 256)
    dev.allocate(100)
    dev.write(0, bytes(100))
    injector = FaultInjector(DeterministicRng(1))
    offsets = injector.flip_bits(dev, count=3)
    assert len(offsets) == 3
    assert len(injector.log) == 3
    assert any(dev.raw_read(o, 1) != b"\x00" for o in offsets)


def test_flip_bits_empty_device_rejected():
    injector = FaultInjector(DeterministicRng(1))
    with pytest.raises(ValidationError):
        injector.flip_bits(MemoryDevice("d1", 64))


def test_flip_bits_deterministic_across_runs():
    def run():
        dev = MemoryDevice("d1", 256)
        dev.allocate(100)
        FaultInjector(DeterministicRng(42)).flip_bits(dev, count=5)
        return dev.raw_dump()

    assert run() == run()


def test_steal_device_detaches_and_dumps():
    dev = MemoryDevice("d1", 64)
    off = dev.allocate(6)
    dev.write(off, b"secret")
    injector = FaultInjector(DeterministicRng(1))
    dump = injector.steal_device(dev)
    assert dump == b"secret"
    assert dev.detached


def test_destroy_device_detaches():
    dev = MemoryDevice("d1", 64)
    injector = FaultInjector(DeterministicRng(1))
    injector.destroy_device(dev)
    assert dev.detached
    assert injector.log[0].kind == "destroyed"


def test_corrupt_range_targets_offset():
    dev = MemoryDevice("d1", 64)
    dev.allocate(20)
    dev.write(0, bytes(20))
    injector = FaultInjector(DeterministicRng(1))
    injector.corrupt_range(dev, 5, 4)
    assert dev.raw_read(5, 4) != bytes(4)
    assert dev.raw_read(0, 5) == bytes(5)
