"""Backup creation and verified restore.

Snapshots copy the *stored* bytes of each live WORM object — at the
engine layer those bytes are AEAD ciphertext, so a stolen backup medium
leaks nothing without keys.  Wrapped data keys travel alongside (they
are themselves ciphertext under the master key).

Restores rebuild a fresh WORM store (and optionally re-import wrapped
keys into a keystore) and verify every object digest against the
snapshot before declaring success: an "exact copy" is demonstrated,
not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backup.vault import BackupSnapshot, BackupVault
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyHandle, KeyStore, ShreddedKeyError
from repro.crypto.merkle import MerkleTree
from repro.errors import BackupError, KeyManagementError
from repro.util.clock import Clock, WallClock
from repro.util.encoding import canonical_bytes
from repro.worm.retention_lock import RetentionTerm
from repro.worm.store import WormStore


@dataclass(frozen=True)
class RestoreReport:
    """Result of a verified restore."""

    snapshot_id: str
    objects_restored: int
    keys_restored: int
    verified: bool
    mismatched: tuple[str, ...] = ()


class BackupManager:
    """Creates snapshots of a store and restores them elsewhere."""

    def __init__(
        self,
        vault: BackupVault,
        clock: Clock | None = None,
    ) -> None:
        self._vault = vault
        self._clock = clock or WallClock()
        self._counter = 0
        self._last_snapshot_objects: set[str] = set()
        self._last_snapshot_id: str | None = None

    def _next_id(self, kind: str) -> str:
        # vault-qualified: a cluster indexes every shard's snapshots by
        # id, and each shard's manager counts from one
        self._counter += 1
        return f"{self._vault.site_id}/snap-{kind}-{self._counter:05d}"

    def _collect(
        self,
        store: WormStore,
        keystore: KeyStore | None,
        key_handles: dict[str, KeyHandle] | None,
        object_ids: list[str],
    ) -> tuple[dict[str, bytes], dict[str, bytes], dict[str, bytes]]:
        objects: dict[str, bytes] = {}
        digests: dict[str, bytes] = {}
        wrapped: dict[str, bytes] = {}
        for object_id in object_ids:
            data = store.get(object_id)
            objects[object_id] = data
            digests[object_id] = sha256(data)
            if keystore is not None and key_handles and object_id in key_handles:
                handle = key_handles[object_id]
                try:
                    wrapped[handle.key_id] = keystore.export_wrapped(handle)
                except ShreddedKeyError:
                    pass  # disposed records stay disposed in new backups
        return objects, digests, wrapped

    @staticmethod
    def _root(digests: dict[str, bytes]) -> bytes:
        tree = MerkleTree()
        for object_id in sorted(digests):
            tree.append(canonical_bytes({"id": object_id, "digest": digests[object_id]}))
        return tree.root()

    def create_full(
        self,
        store: WormStore,
        keystore: KeyStore | None = None,
        key_handles: dict[str, KeyHandle] | None = None,
    ) -> BackupSnapshot:
        """Snapshot every live object."""
        object_ids = store.object_ids()
        objects, digests, wrapped = self._collect(store, keystore, key_handles, object_ids)
        snapshot = BackupSnapshot(
            snapshot_id=self._next_id("full"),
            created_at=self._clock.now(),
            kind="full",
            base_snapshot_id=None,
            objects=objects,
            digests=digests,
            merkle_root=self._root(digests),
            wrapped_keys=wrapped,
        )
        self._vault.store(snapshot)
        self._last_snapshot_objects = set(object_ids)
        self._last_snapshot_id = snapshot.snapshot_id
        return snapshot

    def create_incremental(
        self,
        store: WormStore,
        keystore: KeyStore | None = None,
        key_handles: dict[str, KeyHandle] | None = None,
    ) -> BackupSnapshot:
        """Snapshot only objects new since the previous snapshot.

        WORM objects never change in place, so "new since last" is the
        complete delta — there are no modified objects by construction.
        """
        if self._last_snapshot_id is None:
            raise BackupError("an incremental backup requires a prior snapshot")
        new_ids = [
            object_id
            for object_id in store.object_ids()
            if object_id not in self._last_snapshot_objects
        ]
        objects, digests, wrapped = self._collect(store, keystore, key_handles, new_ids)
        snapshot = BackupSnapshot(
            snapshot_id=self._next_id("incr"),
            created_at=self._clock.now(),
            kind="incremental",
            base_snapshot_id=self._last_snapshot_id,
            objects=objects,
            digests=digests,
            merkle_root=self._root(digests),
            wrapped_keys=wrapped,
        )
        self._vault.store(snapshot)
        self._last_snapshot_objects.update(new_ids)
        self._last_snapshot_id = snapshot.snapshot_id
        return snapshot

    def restore(
        self,
        snapshot_id: str,
        target_store: WormStore,
        target_keystore: KeyStore | None = None,
        retention_for: RetentionTerm | None = None,
    ) -> RestoreReport:
        """Rebuild a store from a snapshot chain and verify every object."""
        chain = self._vault.chain_to_full(snapshot_id)
        restored = 0
        keys_restored = 0
        mismatched: list[str] = []
        merged: dict[str, bytes] = {}
        merged_digests: dict[str, bytes] = {}
        merged_keys: dict[str, bytes] = {}
        for snapshot in chain:  # full first, increments layered on top
            merged.update(snapshot.objects)
            merged_digests.update(snapshot.digests)
            merged_keys.update(snapshot.wrapped_keys)
        for object_id in sorted(merged):
            data = merged[object_id]
            if sha256(data) != merged_digests[object_id]:
                mismatched.append(object_id)
                continue
            target_store.put(object_id, data, retention=retention_for)
            if target_store.get(object_id) != data:
                mismatched.append(object_id)
                continue
            restored += 1
        if target_keystore is not None:
            for key_id, blob in sorted(merged_keys.items()):
                try:
                    target_keystore.import_wrapped(key_id, blob)
                    keys_restored += 1
                except KeyManagementError:
                    pass  # already present (e.g. partial prior restore)
        return RestoreReport(
            snapshot_id=snapshot_id,
            objects_restored=restored,
            keys_restored=keys_restored,
            verified=not mismatched,
            mismatched=tuple(sorted(mismatched)),
        )
