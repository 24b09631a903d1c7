"""Each device-backed store has one constructor, and it opens its device:
on a blank device that is a fresh store, and on the surviving image of a
device another instance wrote it reads back what that instance held,
then appends after the valid tail."""

import pytest

from repro.archive.cold import ColdStore
from repro.audit.checkpoint import CheckpointStore, VerifiedWatermark
from repro.audit.events import AuditAction
from repro.audit.log import AuditLog
from repro.crypto.keys import KeyStore
from repro.storage.block import MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import SimulatedClock
from repro.verify.crashpoint import surviving_image
from repro.worm.store import WormStore

MASTER = bytes(range(32))
CAPACITY = 1 << 18
CLOCK = SimulatedClock(start=1.17e9)


def _shred_first(keystore, tag):
    keystore.shred(keystore.create_keys([f"{tag}-1", f"{tag}-2"])[0])


def _watermark(tag):
    return VerifiedWatermark(
        size=len(tag), head=tag.encode() * 8, merkle_root=bytes(32), verified_at=1.0
    )


#: kind -> (open a device, or the default one for ``None``; write
#: something tagged; what the store holds)
STORES = {
    "journal": (
        lambda device: Journal(device or MemoryDevice("journal", CAPACITY)),
        lambda journal, tag: journal.append_many([tag.encode(), b"second"]),
        lambda journal: journal.read_all(),
    ),
    "worm": (
        lambda device: WormStore(device, CLOCK),
        lambda worm, tag: worm.put_many([(f"{tag}-1", b"x", None), (tag, b"y", None)]),
        lambda worm: {oid: worm.get(oid) for oid in worm.object_ids()},
    ),
    "keys": (
        lambda device: KeyStore(MASTER, CLOCK, device),
        _shred_first,
        lambda keys: (keys.labelled_handles(), keys.shredded_handles()),
    ),
    "audit": (
        lambda device: AuditLog(device, CLOCK),
        lambda log, tag: log.append(AuditAction.RECORD_READ, "dr-a", tag, {"n": 1}),
        lambda log: (log.events(), log.head_digest, log.merkle_root()),
    ),
    "checkpoints": (
        lambda device: CheckpointStore(device, key=b"k" * 32, clock=CLOCK),
        lambda store, tag: store.seal(_watermark(tag)),
        lambda store: store.latest(),
    ),
    "cold": (
        lambda device: ColdStore(device, CLOCK),
        lambda cold, tag: cold.write_segment(
            cold.next_segment_id(), [(f"{tag}-1", b"sealed", 1, 1.5e9, ())]
        ),
        lambda cold: {rid: cold.read_sealed(rid) for rid in cold.record_ids()},
    ),
}


@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_store_opens_its_device(kind):
    open_device, write, contents = STORES[kind]
    blank = open_device(MemoryDevice(kind, CAPACITY))
    assert contents(blank) == contents(open_device(None))
    assert blank.device.used == 0

    first = open_device(MemoryDevice(kind, CAPACITY))
    write(first, "first")
    reopened = open_device(surviving_image(first.device))
    assert contents(reopened) == contents(first) != contents(blank)
    assert reopened.device.used == first.device.used
    write(reopened, "second")
    assert contents(open_device(surviving_image(reopened.device))) == contents(reopened)
