"""Backup/restore: exactness, incrementals, disasters, coordinated shredding."""

import pytest

from repro.backup.manager import BackupManager
from repro.backup.vault import BackupSnapshot, BackupVault
from repro.crypto.aead import AeadCiphertext
from repro.crypto.keys import KeyStore
from repro.errors import BackupError
from repro.storage.block import MemoryDevice
from repro.storage.failures import FaultInjector
from repro.util.clock import SimulatedClock
from repro.util.rng import DeterministicRng
from repro.worm.store import WormStore

MASTER = bytes(range(32))


def make_world():
    clock = SimulatedClock(start=0.0)
    store = WormStore(device=MemoryDevice("primary", 1 << 20), clock=clock)
    keystore = KeyStore(MASTER, clock=clock)
    vault = BackupVault("offsite-1")
    manager = BackupManager(vault, clock=clock)
    return clock, store, keystore, vault, manager


def put_encrypted(store, keystore, object_id, plaintext):
    handle = keystore.create_key()
    box = keystore.cipher_for(handle).encrypt(plaintext)
    store.put(object_id, box.to_bytes())
    return handle


def test_full_backup_and_verified_restore():
    clock, store, keystore, vault, manager = make_world()
    handles = {
        f"rec-{i}": put_encrypted(store, keystore, f"rec-{i}", f"data-{i}".encode())
        for i in range(4)
    }
    snapshot = manager.create_full(store, keystore, handles)
    assert snapshot.kind == "full"
    target = WormStore(device=MemoryDevice("restored", 1 << 20), clock=clock)
    target_keys = KeyStore(MASTER, clock=clock)
    report = manager.restore(snapshot.snapshot_id, target, target_keys)
    assert report.verified
    assert report.objects_restored == 4
    assert report.keys_restored == 4
    # The restored copy is EXACT and decryptable.
    for i in range(4):
        blob = target.get(f"rec-{i}")
        assert blob == store.get(f"rec-{i}")
        cipher = target_keys.cipher_for(handles[f"rec-{i}"])
        assert cipher.decrypt(AeadCiphertext.from_bytes(blob)) == f"data-{i}".encode()


def test_incremental_chain_restores_everything():
    clock, store, keystore, vault, manager = make_world()
    put_encrypted(store, keystore, "rec-0", b"first")
    manager.create_full(store)
    put_encrypted(store, keystore, "rec-1", b"second")
    incr1 = manager.create_incremental(store)
    put_encrypted(store, keystore, "rec-2", b"third")
    incr2 = manager.create_incremental(store)
    assert incr1.kind == "incremental"
    assert set(incr2.objects) == {"rec-2"}
    target = WormStore(device=MemoryDevice("restored", 1 << 20), clock=clock)
    report = manager.restore(incr2.snapshot_id, target)
    assert report.verified
    assert report.objects_restored == 3


def test_incremental_without_full_rejected():
    clock, store, keystore, vault, manager = make_world()
    with pytest.raises(BackupError):
        manager.create_incremental(store)


def test_restore_survives_primary_site_loss():
    clock, store, keystore, vault, manager = make_world()
    put_encrypted(store, keystore, "rec-0", b"survives")
    snapshot = manager.create_full(store)
    FaultInjector(DeterministicRng(1)).destroy_device(store.device)
    with pytest.raises(Exception):
        store.get("rec-0")
    target = WormStore(device=MemoryDevice("dr", 1 << 20), clock=clock)
    report = manager.restore(snapshot.snapshot_id, target)
    assert report.verified
    assert target.get("rec-0")  # recovered off-site


def test_destroyed_vault_refuses_everything():
    clock, store, keystore, vault, manager = make_world()
    put_encrypted(store, keystore, "rec-0", b"x")
    manager.create_full(store)
    vault.destroy_site()
    with pytest.raises(BackupError, match="destroyed"):
        vault.latest()
    with pytest.raises(BackupError):
        manager.create_full(store)


def test_vault_rejects_corrupt_snapshot():
    vault = BackupVault("v")
    bad = BackupSnapshot(
        snapshot_id="s1",
        created_at=0.0,
        kind="full",
        base_snapshot_id=None,
        objects={"a": b"data"},
        digests={"a": bytes(32)},  # wrong digest
        merkle_root=bytes(32),
    )
    with pytest.raises(BackupError, match="verification"):
        vault.store(bad)


def test_vault_duplicate_snapshot_rejected():
    clock, store, keystore, vault, manager = make_world()
    snapshot = manager.create_full(store)
    with pytest.raises(BackupError):
        vault.store(snapshot)


def test_unknown_snapshot_rejected():
    vault = BackupVault("v")
    with pytest.raises(BackupError):
        vault.retrieve("ghost")
    with pytest.raises(BackupError):
        vault.latest()


def test_coordinated_key_shredding_reaches_backups():
    clock, store, keystore, vault, manager = make_world()
    handle = put_encrypted(store, keystore, "rec-0", b"to be disposed")
    handles = {"rec-0": handle}
    snapshot = manager.create_full(store, keystore, handles)
    # Disposition: shred locally AND in the vault.
    keystore.shred(handle)
    affected = vault.shred_key(handle.key_id)
    assert affected == 1
    # Restore still reproduces ciphertext, but no key arrives with it.
    target = WormStore(device=MemoryDevice("r", 1 << 20), clock=clock)
    target_keys = KeyStore(MASTER, clock=clock)
    report = manager.restore(snapshot.snapshot_id, target, target_keys)
    assert report.objects_restored == 1
    assert report.keys_restored == 0
    with pytest.raises(Exception):
        target_keys.cipher_for(handle)


def test_uncoordinated_shredding_leaves_backups_readable():
    # The E5 ablation: shredding ONLY at the primary is insufficient.
    clock, store, keystore, vault, manager = make_world()
    handle = put_encrypted(store, keystore, "rec-0", b"secret")
    snapshot = manager.create_full(store, keystore, {"rec-0": handle})
    keystore.shred(handle)  # vault NOT notified
    target = WormStore(device=MemoryDevice("r", 1 << 20), clock=clock)
    target_keys = KeyStore(MASTER, clock=clock)
    manager.restore(snapshot.snapshot_id, target, target_keys)
    cipher = target_keys.cipher_for(handle)  # key survived in backup!
    blob = target.get("rec-0")
    assert cipher.decrypt(AeadCiphertext.from_bytes(blob)) == b"secret"


def test_new_backups_exclude_shredded_keys():
    clock, store, keystore, vault, manager = make_world()
    handle = put_encrypted(store, keystore, "rec-0", b"x")
    keystore.shred(handle)
    snapshot = manager.create_full(store, keystore, {"rec-0": handle})
    assert snapshot.wrapped_keys == {}


def test_restore_keeps_each_key_label_across_a_reopen():
    clock, store, keystore, _, manager = make_world()
    handle = keystore.create_key(label="rec-0")
    store.put("rec-0", keystore.cipher_for(handle).encrypt(b"x").to_bytes())
    snapshot = manager.create_full(store, keystore, {"rec-0": handle})
    device = MemoryDevice("target-keys", 1 << 16)
    target = WormStore(device=MemoryDevice("target", 1 << 20), clock=clock)
    target_keys = KeyStore(MASTER, clock=clock, device=device)
    manager.restore(snapshot.snapshot_id, target, target_keys)
    assert target_keys.labelled_handles() == {"rec-0": handle}
    reopened = KeyStore(MASTER, clock=clock, device=device)
    assert reopened.labelled_handles() == {"rec-0": handle}
