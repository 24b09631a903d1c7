"""Shreddable keystore: wrapping, shredding, export/import."""

import pytest

from repro.crypto.keys import KeyStore, ShreddedKeyError
from repro.errors import AuthenticationError, DeviceError, KeyManagementError
from repro.storage.block import MemoryDevice
from repro.storage.journal import Journal
from repro.util.clock import SimulatedClock
from repro.util.encoding import canonical_bytes, canonical_loads
from repro.util.metrics import METRICS

MASTER = bytes(range(32))


def make_store():
    return KeyStore(MASTER, clock=SimulatedClock(start=1000.0))


def test_create_and_use_key():
    store = make_store()
    handle = store.create_key(label="rec-1")
    cipher = store.cipher_for(handle)
    assert cipher.decrypt(cipher.encrypt(b"phi")) == b"phi"


def test_each_key_is_distinct():
    store = make_store()
    a = store.cipher_for(store.create_key())
    b = store.cipher_for(store.create_key())
    box = a.encrypt(b"data")
    with pytest.raises(Exception):
        b.decrypt(box)


def test_shred_makes_key_unusable():
    store = make_store()
    handle = store.create_key()
    store.shred(handle)
    assert store.is_shredded(handle)
    with pytest.raises(ShreddedKeyError):
        store.cipher_for(handle)
    with pytest.raises(ShreddedKeyError):
        store.export_wrapped(handle)


def test_shred_is_idempotent():
    store = make_store()
    handle = store.create_key()
    first = store.shred(handle)
    assert store.shred(handle) == first


def test_shred_timestamp_from_clock():
    clock = SimulatedClock(start=5000.0)
    store = KeyStore(MASTER, clock=clock)
    handle = store.create_key()
    clock.advance(100.0)
    assert store.shred(handle) == 5100.0


def test_unknown_handle_rejected():
    store = make_store()
    from repro.crypto.keys import KeyHandle

    with pytest.raises(KeyManagementError):
        store.cipher_for(KeyHandle("key-99999999"))
    with pytest.raises(KeyManagementError):
        store.shred(KeyHandle("nope"))
    with pytest.raises(KeyManagementError):
        store.is_shredded(KeyHandle("nope"))


def test_export_import_round_trip():
    source = make_store()
    handle = source.create_key()
    plaintext_box = source.cipher_for(handle).encrypt(b"data", nonce=bytes(12))

    replica = make_store()  # same master key (same site)
    replica.import_wrapped(handle.key_id, source.export_wrapped(handle))
    assert replica.cipher_for(handle).decrypt(plaintext_box) == b"data"


def test_import_wrong_master_key_rejected():
    source = make_store()
    handle = source.create_key()
    blob = source.export_wrapped(handle)
    foreign = KeyStore(bytes(32))
    with pytest.raises(Exception):
        foreign.import_wrapped(handle.key_id, blob)


def test_import_duplicate_rejected():
    store = make_store()
    handle = store.create_key()
    blob = store.export_wrapped(handle)
    with pytest.raises(KeyManagementError):
        store.import_wrapped(handle.key_id, blob)


def test_an_imported_key_survives_a_reopen():
    source = make_store()
    handle = source.create_key(label="rec-1")
    box = source.cipher_for(handle).encrypt(b"data")
    replica = KeyStore(MASTER, device=MemoryDevice("escrow", 1 << 16))
    replica.import_wrapped(handle.key_id, source.export_wrapped(handle), label="rec-1")
    reopened = KeyStore(MASTER, device=replica.device)
    assert reopened.labelled_handles() == {"rec-1": handle}
    assert reopened.cipher_for(handle).decrypt(box) == b"data"
    # the escrowed import shreds like a minted key
    reopened.shred(handle)
    assert KeyStore(MASTER, device=reopened.device).is_shredded(handle)


def test_an_import_never_revives_a_shredded_key():
    store = KeyStore(MASTER, device=MemoryDevice("escrow", 1 << 16))
    handle = store.create_key(label="rec-1")
    blob = store.export_wrapped(handle)  # e.g. a backup taken before the shred
    store.shred(handle)
    with pytest.raises(KeyManagementError):
        store.import_wrapped(handle.key_id, blob, label="rec-1")
    assert store.is_shredded(handle)
    assert KeyStore(MASTER, device=store.device).is_shredded(handle)


def test_minting_after_an_import_never_reuses_its_id():
    source = make_store()
    imported = source.create_keys(["a", "b", "c"])[-1]
    assert imported.key_id == "key-00000003"
    replica = make_store()
    replica.import_wrapped(imported.key_id, source.export_wrapped(imported), label="c")
    minted = replica.create_keys(["x", "y", "z"])
    assert imported not in minted
    assert len(replica) == 4
    assert replica.labelled_handles()["c"] == imported


def test_shredded_handles_listed():
    store = make_store()
    keep = store.create_key()
    gone = store.create_key()
    store.shred(gone)
    shredded = store.shredded_handles()
    assert gone in shredded and keep not in shredded
    assert len(store.handles()) == 2


def test_bad_master_key_rejected():
    with pytest.raises(KeyManagementError):
        KeyStore(b"short")


# -- one minting path: create_key is create_keys of one -------------------------


def _escrowed_store():
    device = MemoryDevice("escrow", 1 << 16)
    return KeyStore(MASTER, clock=SimulatedClock(start=1000.0), device=device)


def test_create_key_and_create_keys_of_one_leave_the_same_escrow_and_table():
    """The wrapped key and nonce are random, so the device bytes differ;
    everything that is not random must not: key id, frame size, extent,
    table state, one device write, and the warm cipher memo."""
    single, batched = _escrowed_store(), _escrowed_store()
    handle = single.create_key(label="rec-1")
    assert batched.create_keys(["rec-1"]) == [handle]
    assert handle.key_id == "key-00000001"
    for store in (single, batched):
        assert store.device.stats.writes == 1
        assert store.labelled_handles() == {"rec-1": handle}
        assert not store.is_shredded(handle)
    assert single.device.used == batched.device.used
    assert single._escrow_extents == batched._escrow_extents
    frames = [list(Journal.walk_frames(s.device)) for s in (single, batched)]
    assert [len(f) for f in frames] == [1, 1]
    assert len(frames[0][0][1]) == len(frames[1][0][1])
    hits = METRICS.get("kdf_cache_hits")
    for store in (single, batched):
        cipher = store.cipher_for(handle)
        assert cipher.decrypt(cipher.encrypt(b"phi")) == b"phi"
    assert METRICS.get("kdf_cache_hits") == hits + 2  # never unwrapped
    # both recover to the same table from their own devices
    for store in (single, batched):
        recovered = KeyStore(MASTER, device=store.device)
        assert recovered.labelled_handles() == {"rec-1": handle}
        assert recovered.create_key().key_id == "key-00000002"


def test_escrow_precedes_use_for_a_single_key():
    """A key whose escrow write is refused never enters the table."""
    store = _escrowed_store()
    store.device.set_write_protected(True)
    with pytest.raises(DeviceError):
        store.create_key(label="rec-1")
    assert len(store) == 0 and store.labelled_handles() == {}


# -- disposal never depends on the escrowed blob still authenticating -----------


def alter_escrowed_key(device, key_id):
    """The insider's tamper: flip one byte of the wrapped key inside its
    ``kind: key`` escrow frame and recompute the unkeyed frame checksum."""
    for offset, payload, checksum_ok in Journal.walk_frames(device):
        frame = canonical_loads(payload)
        if checksum_ok and frame.get("kind") == "key" and frame["key_id"] == key_id:
            wrapped = frame["wrapped"]
            frame["wrapped"] = wrapped[:20] + bytes([wrapped[20] ^ 1]) + wrapped[21:]
            Journal.forge_frame(device, offset, canonical_bytes(frame))
            return
    raise AssertionError(f"no escrow frame for {key_id}")


def test_key_altered_on_the_device_can_still_be_shredded():
    store = _escrowed_store()
    victim, bystander = store.create_keys(["rec-1", "rec-2"])
    device = store.device
    offset, size = store._escrow_extents[victim.key_id]
    alter_escrowed_key(device, victim.key_id)

    recovered = KeyStore(MASTER, device=device, clock=SimulatedClock(start=2000.0))
    with pytest.raises(AuthenticationError):
        recovered.cipher_for(victim)  # the altered blob no longer unwraps

    assert recovered.shred(victim) == 2000.0
    assert recovered.is_shredded(victim)
    assert not any(device.raw_read(offset, size))  # escrow extent zeroed
    frames = [
        canonical_loads(payload)
        for _, payload, checksum_ok in Journal.walk_frames(device)
        if checksum_ok
    ]
    assert frames[-1] == {
        "kind": "shred", "key_id": victim.key_id, "label": "rec-1", "at": 2000.0,
    }
    # the tombstone survives the next restart; the other key is untouched
    again = KeyStore(MASTER, device=device)
    assert again.is_shredded(victim) and not again.is_shredded(bystander)
    cipher = again.cipher_for(bystander)
    assert cipher.decrypt(cipher.encrypt(b"phi")) == b"phi"
