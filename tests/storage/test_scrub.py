"""One overwrite discipline: every destruction path zeroes each of its
extents exactly ``SCRUB_PASSES`` times through ``BlockDevice.scrub``,
and leaves the extent all zeros."""

from collections import Counter

import pytest

from repro.archive.cold import ColdStore
from repro.crypto.keys import KeyStore
from repro.index.epochs import EpochedIndex
from repro.index.trustworthy import CHUNK_CAPACITY, TrustworthyIndex
from repro.retention.shredder import SecureShredder
from repro.storage.block import SCRUB_PASSES, MemoryDevice
from repro.storage.media import Medium
from repro.util.clock import SimulatedClock
from repro.worm.retention_lock import RetentionTerm
from repro.worm.store import WormStore

from tests.retention.test_shredder_disposition import destruction_grant

MASTER = bytes(range(32))


# Each case builds one destruction and returns (device, destroy, extents):
# the device it scrubs, the call that destroys, and the (offset, size)
# extents that call must zero.


def record_shred():
    clock = SimulatedClock()
    keystore = KeyStore(MASTER, clock=clock)
    store = WormStore(device=MemoryDevice("worm", 1 << 16), clock=clock)
    handle = keystore.create_key()
    store.put("rec-1", b"PHI: patient has cancer", retention=RetentionTerm(0.0, 1.0))
    extent = store.physical_extent("rec-1")
    shredder = SecureShredder(keystore)
    grant = destruction_grant("rec-1")

    def destroy():
        shredder.shred("rec-1", handle, [(store.device, *extent)], authorization=grant)

    return store.device, destroy, [extent]


def cold_scrub():
    store = ColdStore(MemoryDevice("cold", 1 << 16), SimulatedClock(start=1.17e9))
    meta = ({"content_digest": "00" * 32, "written_at": 1.17e9},)
    store.write_segment(
        store.next_segment_id(),
        [(f"rec-{i}", b"sealed-member-%d" % i, 1, 1.5e9, meta) for i in range(3)],
    )
    extent = store.segment_of("rec-1").extent_of(store.member("rec-1"))
    return store.device, lambda: store.scrub_record("rec-1"), [extent]


def index_delete():
    index = TrustworthyIndex(MASTER)
    index.add_documents([(f"doc-{i}", "cancer") for i in range(CHUNK_CAPACITY)])
    # doc-1's sealed chunk: the deletion rewrites it and scrubs the old one
    (sealed,) = index.chunk_extents()[index.trapdoor("cancer")]
    extents = [(sealed.device_offset, sealed.size)]
    return index.device, lambda: index.delete_document("doc-1"), extents


def key_shred():
    keystore = KeyStore(MASTER, clock=SimulatedClock(), device=MemoryDevice("keys", 1 << 16))
    handle = keystore.create_key()
    extent = keystore._escrow_extents[handle.key_id]  # noqa: SLF001
    return keystore.device, lambda: keystore.shred(handle), [extent]


def media_sanitize():
    medium = Medium(MemoryDevice("m1", 1024), clock=SimulatedClock())
    secret = b"PHI: patient has cancer"
    medium.device.write(medium.device.allocate(len(secret)), secret)
    medium.retire()
    return medium.device, medium.sanitize, [(0, medium.device.used)]


def epoch_drop():
    index = EpochedIndex(MASTER, epoch_seconds=10.0, segment_capacity=1 << 16)
    for i in range(CHUNK_CAPACITY):  # enough to fold: a segment device with a chunk on it
        index.add_document(f"doc-{i}", "cancer biopsy", timestamp=1.0)
    (device,) = index.devices()
    return device, lambda: index.drop_epoch(0), [(0, device.used)]


@pytest.mark.parametrize(
    "case",
    [record_shred, cold_scrub, index_delete, key_shred, media_sanitize, epoch_drop],
)
def test_every_destruction_scrubs_each_extent_scrub_passes_times(case):
    device, destroy, extents = case()
    zero_writes: Counter = Counter()

    def count(_device, offset, data):
        if data and not any(data):
            zero_writes[(offset, len(data))] += 1
        return data

    device.install_write_hook(count)
    destroy()
    device.clear_write_hook()
    assert extents and all(size for _, size in extents)
    assert zero_writes == {extent: SCRUB_PASSES for extent in extents}
    for offset, size in extents:
        assert device.raw_read(offset, size) == bytes(size)

