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
from repro.errors import BackupError, KeyManagementError
from repro.migration.manifest import entries_tree
from repro.util.clock import Clock, WallClock
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

    def _snapshot(
        self,
        kind: str,
        store: WormStore,
        keystore: KeyStore | None,
        key_handles: dict[str, KeyHandle] | None,
        object_ids: list[str],
    ) -> BackupSnapshot:
        """Copy *object_ids* and their wrapped keys, each beside its
        label, into one snapshot on the vault.  An incremental snapshot
        rests on the previous one; a full one on nothing."""
        objects: dict[str, bytes] = {}
        digests: dict[str, bytes] = {}
        wrapped: dict[str, tuple[str, bytes]] = {}
        labelled = keystore.labelled_handles().items() if keystore else ()
        labels = {handle.key_id: label for label, handle in labelled}
        for object_id in object_ids:
            data = store.get(object_id)
            objects[object_id] = data
            digests[object_id] = sha256(data)
            if keystore is not None and key_handles and object_id in key_handles:
                handle = key_handles[object_id]
                try:
                    blob = keystore.export_wrapped(handle)
                    wrapped[handle.key_id] = (labels.get(handle.key_id, ""), blob)
                except ShreddedKeyError:
                    pass  # disposed records stay disposed in new backups
        full = kind == "full"
        snapshot = BackupSnapshot(
            snapshot_id=self._next_id("full" if full else "incr"),
            created_at=self._clock.now(),
            kind=kind,
            base_snapshot_id=None if full else self._last_snapshot_id,
            objects=objects,
            digests=digests,
            merkle_root=entries_tree(sorted(digests.items())).root(),
            wrapped_keys=wrapped,
        )
        self._vault.store(snapshot)
        if full:
            self._last_snapshot_objects = set()
        self._last_snapshot_objects.update(object_ids)
        self._last_snapshot_id = snapshot.snapshot_id
        return snapshot

    def create_full(
        self,
        store: WormStore,
        keystore: KeyStore | None = None,
        key_handles: dict[str, KeyHandle] | None = None,
    ) -> BackupSnapshot:
        """Snapshot every live object."""
        return self._snapshot("full", store, keystore, key_handles, store.object_ids())

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
        return self._snapshot("incremental", store, keystore, key_handles, new_ids)

    def restore(
        self,
        snapshot_id: str,
        target_store: WormStore,
        target_keystore: KeyStore | None = None,
    ) -> RestoreReport:
        """Rebuild a store from a snapshot chain, writing every object
        that matches its snapshot digest in ONE frame, and read each
        back to verify it."""
        chain = self._vault.chain_to_full(snapshot_id)
        restored = 0
        keys_restored = 0
        mismatched: list[str] = []
        merged: dict[str, bytes] = {}
        merged_digests: dict[str, bytes] = {}
        merged_keys: dict[str, tuple[str, bytes]] = {}
        for snapshot in chain:  # full first, increments layered on top
            merged.update(snapshot.objects)
            merged_digests.update(snapshot.digests)
            merged_keys.update(snapshot.wrapped_keys)
        items = []
        for object_id in sorted(merged):
            data = merged[object_id]
            if sha256(data) != merged_digests[object_id]:
                mismatched.append(object_id)
                continue
            items.append((object_id, data, None))
        target_store.put_many(items)
        for object_id, data, _ in items:
            if target_store.get(object_id) != data:
                mismatched.append(object_id)
                continue
            restored += 1
        if target_keystore is not None:
            for key_id, (label, blob) in sorted(merged_keys.items()):
                try:
                    target_keystore.import_wrapped(key_id, blob, label=label)
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
